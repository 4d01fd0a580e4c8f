"""One timed run of the repro CLI, optionally traced per layer.

Usage::

    python child.py RECORD TRACE ARGV...

Runs ``repro.cli.main(ARGV)`` in this fresh interpreter and writes
RECORD (JSON) when it returns: monotonic timestamps taken when this file
starts, after ``import repro.cli``, and around ``main``, plus the exit
code. The parent (``run.py``) takes the spawn and reap times and the
rusage, so the phases of the whole process can be told apart.

With TRACE=1 the public functions in :data:`TARGETS` are rebound from
outside the program before ``main`` runs, and each call records a span
(label, start, end, parent, count). Call sites import by name, so every
``repro.*`` module-global alias of a target is rebound too, and modules
imported lazily inside ``main`` are patched as they load (through a
replaced ``builtins.__import__``, whose loading calls are themselves
timed as ``cli.lazy_import``). Spans stay in memory until ``main``
returns. Forked workers inherit the wrappers but their spans are lost;
only the parent process is traced.

:func:`layer_metrics` turns a record into the per-layer metrics the
benchmark reports; ``run.py`` imports this file for it.
"""

import os
import sys
import time

STARTED = time.monotonic()


def _counts(name, before=None):
    """Mark a count hook: what it counts, and what runs ahead of the call.

    A count hook maps a call's positional args, its result and the value
    ``before(args)`` returned to one whole number recorded on the span.
    """
    def mark(hook):
        hook.counts = name
        hook.before = before
        return hook

    return mark


@_counts("branches")
def _length_of_result(args, result, before):
    return len(result)


@_counts("bytes")
def _size_of_result(args, result, before):
    return os.path.getsize(result)


@_counts("bytes")
def _size_of_first_arg(args, result, before):
    return os.path.getsize(args[0])


@_counts("points")
def _surface_points(args, result, before):
    return sum(len(points) for points in result.tiers.values())


@_counts("points")
def _pending_points(args, result, before):
    return len(args[2])


@_counts("hits")
def _cache_hit(args, result, before):
    return int(result is not None)


def _file_identity(path):
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


@_counts("bytes", before=lambda args: _file_identity(args[0].path))
def _journal_bytes_written(args, result, before):
    # A flush of a clean journal writes nothing; a real write replaces
    # the file atomically, so its identity changes.
    path = args[0].path
    if _file_identity(path) == before:
        return 0
    return os.path.getsize(path)


#: (span label, module, attribute, count hook or None).
TARGETS = (
    ("experiments", "repro.experiments.runner", "run_experiment", None),
    ("workloads.build", "repro.workloads.program", "build_program", None),
    ("workloads.generate", "repro.workloads.generator", "generate_trace",
     _length_of_result),
    ("workloads.store", "repro.workloads.store", "TraceStore.get", None),
    ("workloads.store.save", "repro.traces.io", "save_trace",
     _size_of_result),
    ("workloads.store.load", "repro.traces.io", "load_trace",
     _size_of_first_arg),
    ("check.precheck", "repro.check.configs", "verify_sweep_plan", None),
    ("sim.sweep", "repro.sim.sweep", "sweep_tiers", _surface_points),
    ("sim.engine", "repro.sim.engine", "simulate", None),
    ("sim.index_stream", "repro.sim.vectorized", "index_stream",
     _length_of_result),
    ("sim.first_level", "repro.sim.vectorized", "bht_miss_stream", None),
    ("sim.fsm_scan", "repro.sim.fsm_scan", "segmented_counter_predictions",
     _length_of_result),
    ("runtime.checkpoint.open", "repro.runtime.checkpoint",
     "CheckpointJournal.open", None),
    ("runtime.checkpoint.append", "repro.runtime.checkpoint",
     "CheckpointJournal.append", None),
    ("runtime.checkpoint.flush", "repro.runtime.checkpoint",
     "CheckpointJournal.flush", _journal_bytes_written),
    ("serve.results.get", "repro.serve.results", "ResultStore.get",
     _cache_hit),
    ("serve.results.put", "repro.serve.results", "ResultStore.put",
     _size_of_result),
    ("exec.parallel", "repro.exec.parallel", "run_parallel_sweep",
     _pending_points),
    ("analysis.render", "repro.analysis.ascii_plots", "render_surface", None),
    ("obs.ledger.record", "repro.obs.ledger", "record_run", None),
)

#: What each hooked label counts, for :func:`layer_metrics`.
COUNT_NAMES = {label: hook.counts for label, _, _, hook in TARGETS if hook}

LAZY_IMPORT = "cli.lazy_import"

#: Every span label, in report order.
LABELS = (LAZY_IMPORT,) + tuple(target[0] for target in TARGETS)


class Tracer:
    """Spans around calls into the program's layers, kept in memory."""

    def __init__(self):
        import builtins
        import threading

        self._builtins = builtins
        self._ident = threading.get_ident
        self._thread = threading.get_ident()
        #: ``[label, start, end, parent index, count]`` per call.
        self.spans = []
        self._stack = []
        self._pending = list(TARGETS)
        self._import = builtins.__import__
        self._import_depth = 0
        #: ``id(original) -> wrapper`` of functions patched since the
        #: last alias scan.
        self._replaced = {}

    def install(self):
        self._builtins.__import__ = self._traced_import
        self._patch_loaded()
        self._rebind_aliases()

    def _enter(self, label):
        parent = self._stack[-1] if self._stack else -1
        span = [label, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.monotonic()
        return span

    def _exit(self, span):
        span[2] = time.monotonic()
        self._stack.pop()

    def _other_thread(self):
        # Spans nest through one stack, so only the main thread records.
        return self._ident() != self._thread

    def _traced_import(self, *args, **kwargs):
        if self._other_thread():
            return self._import(*args, **kwargs)
        loaded, first = len(sys.modules), len(self.spans)
        self._import_depth += 1
        start = time.monotonic()
        try:
            return self._import(*args, **kwargs)
        finally:
            end = time.monotonic()
            self._import_depth -= 1
            # Most imports find the module cached and are not layer
            # calls; only one that loaded something becomes a span.
            if len(sys.modules) != loaded:
                self._add_import_span(start, end, first)
                # A module finishes initializing only when the import
                # that loaded it returns, so patch on every loading call
                # and before the importer binds any name.
                if self._pending:
                    self._patch_loaded()
            if self._import_depth == 0 and self._replaced:
                self._rebind_aliases()

    def _add_import_span(self, start, end, first):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([LAZY_IMPORT, start, end, parent, None])
        for span in self.spans[first:index]:
            if span[3] == parent:  # made during this import
                span[3] = index

    def _patch_loaded(self):
        still_pending = []
        for target in self._pending:
            module = sys.modules.get(target[1])
            spec = getattr(module, "__spec__", None)
            if module is None or getattr(spec, "_initializing", False):
                still_pending.append(target)
                continue
            self._patch(module, *target)
        self._pending = still_pending

    def _patch(self, module, label, module_name, attribute, count):
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = (
            owner.__dict__.get(name)
            if isinstance(owner, type)
            else getattr(owner, name, None)
        )
        if raw is None:
            return  # the parent reports missing targets
        rewrap = classmethod if isinstance(raw, classmethod) else None
        original = raw.__func__ if rewrap else raw
        wrapper = self._wrap(label, original, count)
        setattr(owner, name, rewrap(wrapper) if rewrap else wrapper)
        if owner is module:
            self._replaced[id(original)] = wrapper

    def _rebind_aliases(self):
        # Call sites import by name. A module that bound a target before
        # it was patched (a circular import) still holds the original.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                wrapper = self._replaced.get(id(value))
                if wrapper is not None:
                    namespace[key] = wrapper
        self._replaced.clear()

    def _wrap(self, label, function, count):
        import functools

        before = getattr(count, "before", None)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if self._other_thread():
                return function(*args, **kwargs)
            state = before(args) if before else None
            span = self._enter(label)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                try:
                    span[4] = count(args, result, state)
                except OSError:
                    span[4] = None  # a file the count reads went away
            return result

        return traced


def layer_metrics(record, spawned, reaped):
    """Per-layer metrics of one traced run.

    ``record`` is what this file wrote; ``spawned``/``reaped`` are the
    parent's monotonic times around the process. For every span label
    ``L`` it reports ``L.calls`` and ``L.self_s`` (span time minus the
    time of its child spans), plus the label's count when it has one.
    ``cli.self_s`` is the part of ``main`` outside every span, so it and
    the ``*.self_s`` metrics sum to ``process.main_s`` exactly.
    """
    spans = record["spans"]
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    main_s = record["main_end"] - record["main_start"]
    metrics = {
        "process.startup_s": record["started"] - spawned,
        "cli.import_s": record["imported"] - record["started"],
        "process.main_s": main_s,
        "process.teardown_s": reaped - record["main_end"],
        "process.unattributed_s": record["main_start"] - record["imported"],
    }
    top_level = sum(end - start for _, start, end, parent, _ in spans
                    if parent < 0)
    metrics["cli.self_s"] = main_s - top_level
    for label in LABELS:
        metrics[f"{label}.calls"] = 0
        metrics[f"{label}.self_s"] = 0.0
        if label in COUNT_NAMES:
            metrics[f"{label}.{COUNT_NAMES[label]}"] = 0
    for (label, _, _, _, count), own in zip(spans, self_time):
        metrics[f"{label}.calls"] += 1
        metrics[f"{label}.self_s"] += own
        if label in COUNT_NAMES:
            metrics[f"{label}.{COUNT_NAMES[label]}"] += count or 0
    metrics["runtime.checkpoint.flush.writes"] = sum(
        1 for label, _, _, _, count in spans
        if label == "runtime.checkpoint.flush" and count
    )
    metrics["experiments.total_s"] = sum(
        end - start for label, start, end, _, _ in spans
        if label == "experiments"
    )
    first_scan = next(
        (end - start for label, start, end, _, _ in spans
         if label == "sim.fsm_scan"),
        0.0,
    )
    metrics["sim.fsm_scan.first_call_s"] = first_scan
    for label in ("workloads.generate", "sim.index_stream", "sim.fsm_scan"):
        branches = metrics[f"{label}.branches"]
        metrics[f"{label}.ns_per_branch"] = (
            metrics[f"{label}.self_s"] / branches * 1e9 if branches else 0.0
        )
    return metrics


def main(argv):
    record_path, traced, cli_argv = argv[0], argv[1] == "1", argv[2:]
    import repro.cli

    imported = time.monotonic()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    sys.argv = ["repro"] + cli_argv
    main_start = time.monotonic()
    try:
        code = repro.cli.main(cli_argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else int(
            stop.code is not None)
    main_end = time.monotonic()
    sys.stdout.flush()
    import json

    record = {
        "started": STARTED,
        "imported": imported,
        "main_start": main_start,
        "main_end": main_end,
        "code": code,
        "package": os.path.dirname(repro.cli.__file__),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
