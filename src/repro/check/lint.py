"""``repro check``: the repo invariants generic linters can't know.

Stdlib-``ast`` based, zero dependencies. The rules encode contracts
this codebase relies on:

* ``code.hot-loop`` / ``code.hot-time`` — the vectorized hot paths
  (:mod:`repro.sim.vectorized`, :mod:`repro.sim.fsm_scan`) must stay
  free of per-access Python loops and of ``time.*`` calls (timing
  belongs to the callers and :mod:`repro.obs`). A ``for`` loop in a
  hot file passes only when its trip count has *bounded provenance*:
  ``range(...)`` over register-width constants
  (:data:`TRIP_COUNT_NAMES`, int literals, and arithmetic over them)
  or a literal tuple/list. Anything else — iterating a trace, an
  array, ``range(len(...))``, ``range(n)`` for an arbitrary ``n`` —
  scales with accesses and is flagged. Sequential per-access state
  (the counter table, the history registers, the first-level LRU)
  lives in C (``sim/kernels.c``), so the hot files carry no allow
  marker. The no-compiler twins of those loops sit outside the hot
  files, beside the scalar models they mirror:
  :func:`repro.predictors.counters.drive_automata`,
  :func:`repro.predictors.bht.drive_history` and
  :meth:`repro.predictors.bht.BranchHistoryTable.miss_stream`.
* ``code.metric-name`` — every literal counter name passed to
  ``counter()`` must be pre-declared in
  :data:`repro.obs.metrics.WELL_KNOWN`, keeping snapshots schema-stable.
* ``code.raw-write`` — artifact writes go through the atomic writer
  (:func:`repro.runtime.durable.atomic_write_text`), not bare
  ``open(..., "w")``; the writer implementations themselves are
  allowlisted.
* ``code.bare-except`` — a bare ``except:`` swallows ``SystemExit`` and
  ``KeyboardInterrupt``, breaking the cooperative-interrupt runtime.
* ``code.mutable-default`` — mutable default arguments.
* ``code.checkpoint-key`` — :func:`repro.runtime.durable.sweep_key`
  is the identity of every stored sweep point; its parameter
  tuple, payload dict keys, and ``sort_keys=True`` serialization are
  pinned here. An edit that changes any of them silently orphans every
  existing checkpoint, so it must trip this rule (and the golden-key
  fixtures in the test suite) and be made deliberately.
* ``code.version-gate`` — raw ``dis.opmap[...]`` lookups and
  ``sys.monitoring`` access are version-gated interpreter surface; both
  belong behind the compat layer (:data:`COMPAT_SUFFIXES`, i.e.
  :mod:`repro.cfg.bytecode`), where names that differ across the
  supported CPythons are resolved once. Direct use elsewhere breaks one
  CI interpreter or the other.
* ``code.set-iter`` — iterating a set literal / ``set()`` /
  ``frozenset()`` directly in a ``for`` header inside the analysis
  modules (:data:`ANALYSIS_SUFFIXES`): set order is
  insertion/hash-dependent, so ordinals, trace layouts, and report
  rows would differ run to run. Iterate ``sorted(...)`` or a list.
  (Sets reached through a variable are out of static reach; the rule
  pins the directly visible cases.)
* ``code.dtype-width`` — NumPy allocations bound to predictor-state
  names (:data:`STATE_HINT_NAMES`: counter banks, tables, stacked
  blocks) must pin their ``dtype`` explicitly: the platform-dependent
  default (``float64``, or C ``long`` on Windows) silently changes
  overflow and memory behavior. Worse, a *narrow* integer dtype
  (:data:`NARROW_DTYPES`) on such an array inside a function that
  computes ``1 << bits`` / ``2 ** bits`` over a register-width name
  truncates stacked flat indices — exactly the aliasing this repo
  exists to measure, introduced by accident. Missing dtype is a
  warning; provably-narrow is an error.

A finding on a line containing ``check: allow(<rule>)`` is suppressed;
the marker doubles as in-source documentation of the exception.
"""

from __future__ import annotations

import ast
import os
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.findings import Finding
from repro.errors import CheckError

#: Modules whose bodies are per-access hot paths (posix path suffixes).
HOT_PATH_SUFFIXES: Tuple[str, ...] = (
    "sim/vectorized.py",
    "sim/fsm_scan.py",
)

#: Modules allowed to call ``open`` for writing: they *are* the atomic
#: writer (temp file + rename) or the trace serializer built on it.
WRITER_SUFFIXES: Tuple[str, ...] = (
    "runtime/durable.py",
    "traces/io.py",
)

#: Modules holding checkpoint-identity code the key-stability rule pins.
CHECKPOINT_SUFFIXES: Tuple[str, ...] = (
    "runtime/durable.py",
)

#: The one module allowed to touch version-gated interpreter surface
#: (``dis.opmap``, ``sys.monitoring``): the opcode compat layer.
COMPAT_SUFFIXES: Tuple[str, ...] = (
    "cfg/bytecode.py",
)

#: Modules whose outputs must be deterministic run to run (ordinals,
#: layouts, report rows); direct set iteration is flagged here.
ANALYSIS_SUFFIXES: Tuple[str, ...] = (
    "cfg/bytecode.py",
    "cfg/structure.py",
    "cfg/profile.py",
    "cfg/predictability.py",
    "cfg/corpus.py",
)

#: Names that denote register-width/table-geometry constants: a hot
#: ``for`` loop over ``range()`` of these is O(bits), not O(accesses),
#: and needs no allow marker.
TRIP_COUNT_NAMES: FrozenSet[str] = frozenset(
    {
        "bits",
        "counter_bits",
        "history_bits",
        "row_bits",
        "col_bits",
        "column_bits",
        "slots",
        "num_states",
        "n_states",
        "bits_per_target",
        "path_bits_per_branch",
    }
)

#: Assignment-target name fragments that denote predictor state arrays
#: (counter banks, stacked index blocks, lookup tables). Allocations
#: bound to these names carry width contracts the dtype rule enforces.
STATE_HINT_NAMES: Tuple[str, ...] = (
    "counter",
    "state",
    "bank",
    "table",
    "stacked",
)

#: NumPy allocators the dtype-width rule watches.
NP_ALLOC_FUNCS: FrozenSet[str] = frozenset({"zeros", "ones", "empty", "full"})

#: Integer dtypes too narrow to hold ``1 << bits`` for register-width
#: ``bits``: a stacked flat index or counter bank in one of these
#: truncates silently.
NARROW_DTYPES: FrozenSet[str] = frozenset(
    {"int8", "uint8", "int16", "uint16"}
)

#: Pinned ``sweep_key`` signature: the checkpoint identity function's
#: parameters, in order. Changing this tuple (or the function to not
#: match it) orphans every stored result artifact.
SWEEP_KEY_PARAMS: Tuple[str, ...] = (
    "scheme",
    "trace_fingerprint",
    "size_bits",
    "bht_entries",
    "bht_assoc",
    "engine",
    "row_bits_filter",
)

#: Pinned ``sweep_key`` payload dict keys, in written order. (The
#: digest sorts keys, so a pure reorder keeps old keys valid — but the
#: pin is deliberately stricter: any edit to the payload shape should
#: be a conscious, reviewed act.)
SWEEP_KEY_PAYLOAD_KEYS: Tuple[str, ...] = (
    "scheme",
    "trace",
    "size_bits",
    "bht_entries",
    "bht_assoc",
    "row_bits_filter",
)

_ALLOW_MARKER = "check: allow("


def default_paths() -> List[str]:
    """The package source tree, located relative to this module."""
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    return [package_dir]


def _iter_python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                if "__pycache__" in root:
                    continue
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise CheckError(f"not a Python file or directory: {path!r}")
    return files


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _matches(path: str, suffixes: Sequence[str]) -> bool:
    return any(_posix(path).endswith(suffix) for suffix in suffixes)


def _declared_counter_names() -> Set[str]:
    from repro.obs.metrics import WELL_KNOWN

    return set(WELL_KNOWN)


class _Linter(ast.NodeVisitor):
    """One file's walk; findings accumulate in ``self.findings``."""

    def __init__(
        self,
        filename: str,
        lines: Sequence[str],
        is_hot: bool,
        is_writer: bool,
        counter_names: Set[str],
        is_checkpoint: bool = False,
        is_compat: bool = False,
        is_analysis: bool = False,
    ) -> None:
        self.filename = filename
        self.lines = lines
        self.is_hot = is_hot
        self.is_writer = is_writer
        self.is_checkpoint = is_checkpoint
        self.is_compat = is_compat
        self.is_analysis = is_analysis
        self.counter_names = counter_names
        self.findings: List[Finding] = []
        # Innermost-function flags for the dtype-width rule: does the
        # enclosing function compute a register-width table size?
        self._width_risky: List[bool] = []

    # -- helpers ------------------------------------------------------

    def _allowed(self, rule: str, lineno: int) -> bool:
        if not 1 <= lineno <= len(self.lines):
            return False
        line = self.lines[lineno - 1]
        return f"{_ALLOW_MARKER}{rule})" in line

    def _add(self, rule: str, severity: str, lineno: int, why: str) -> None:
        if self._allowed(rule, lineno):
            return
        self.findings.append(
            Finding(
                check=f"code.{rule}",
                severity=severity,
                why=why,
                location=f"{self.filename}:{lineno}",
            )
        )

    @staticmethod
    def _contains_len_call(node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
            for sub in ast.walk(node)
        )

    @staticmethod
    def _is_bounded_trip_expr(node: ast.AST) -> bool:
        """An expression whose value is provably register-width sized:
        an int literal, a name/attribute from the trip-count
        vocabulary, or arithmetic over those."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, int)
        if isinstance(node, ast.Name):
            return node.id in TRIP_COUNT_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in TRIP_COUNT_NAMES
        if isinstance(node, ast.UnaryOp):
            return _Linter._is_bounded_trip_expr(node.operand)
        if isinstance(node, ast.BinOp):
            return _Linter._is_bounded_trip_expr(
                node.left
            ) and _Linter._is_bounded_trip_expr(node.right)
        return False

    @staticmethod
    def _has_bounded_trip_count(iter_node: ast.AST) -> bool:
        """Provenance check for a hot ``for`` loop's iterable.

        Bounded means the trip count is a function of table geometry,
        not of trace length: ``range()`` over bounded expressions, or
        a literal tuple/list (fixed arity by construction).
        """
        if isinstance(iter_node, (ast.Tuple, ast.List)):
            return True
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
            and iter_node.args
        ):
            return all(
                _Linter._is_bounded_trip_expr(arg)
                for arg in iter_node.args
            )
        return False

    # -- rules --------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                "bare-except",
                "error",
                node.lineno,
                "bare 'except:' also catches KeyboardInterrupt/"
                "SystemExit; name the exceptions (ReproError at widest)",
            )
        self.generic_visit(node)

    def _check_defaults(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                self._add(
                    "mutable-default",
                    "error",
                    default.lineno,
                    "mutable default argument is shared across calls; "
                    "default to None and materialize inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        if self.is_checkpoint and node.name == "sweep_key":
            self._check_sweep_key(node)
        self._width_risky.append(self._widens_to_register(node))
        self.generic_visit(node)
        self._width_risky.pop()

    def _check_sweep_key(self, node: ast.FunctionDef) -> None:
        """Pin the checkpoint identity function against silent edits."""
        params = tuple(arg.arg for arg in node.args.args)
        if params != SWEEP_KEY_PARAMS:
            self._add(
                "checkpoint-key",
                "error",
                node.lineno,
                "sweep_key() parameters changed from the pinned "
                f"{SWEEP_KEY_PARAMS} to {params}; every stored result "
                "artifact keys on this signature — update the pin (and "
                "the golden-key fixtures) only as a deliberate format "
                "break",
            )
        payload_keys: Optional[Tuple[str, ...]] = None
        payload_line = node.lineno
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Dict)
                and sub.keys
                and all(
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    for key in sub.keys
                )
            ):
                payload_keys = tuple(
                    key.value  # type: ignore[union-attr]
                    for key in sub.keys
                )
                payload_line = sub.lineno
                break
        if payload_keys is None:
            self._add(
                "checkpoint-key",
                "error",
                node.lineno,
                "sweep_key() no longer builds a literal payload dict; "
                "the digest inputs can no longer be statically "
                "verified against the pinned key set",
            )
        elif payload_keys != SWEEP_KEY_PAYLOAD_KEYS:
            self._add(
                "checkpoint-key",
                "error",
                payload_line,
                "sweep_key() payload keys changed from the pinned "
                f"{SWEEP_KEY_PAYLOAD_KEYS} to {payload_keys}; old "
                "checkpoints would silently never resume — update the "
                "pin (and the golden-key fixtures) only as a "
                "deliberate format break",
            )
        sorted_dump = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "dumps"
            and any(
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in sub.keywords
            )
            for sub in ast.walk(node)
        )
        if not sorted_dump:
            self._add(
                "checkpoint-key",
                "error",
                node.lineno,
                "sweep_key() must serialize its payload with "
                "json.dumps(..., sort_keys=True); without it dict "
                "insertion order leaks into the digest and identical "
                "sweeps stop resuming each other",
            )

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._width_risky.append(self._widens_to_register(node))
        self.generic_visit(node)
        self._width_risky.pop()

    # -- dtype-width --------------------------------------------------

    @staticmethod
    def _is_trip_name(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Name) and node.id in TRIP_COUNT_NAMES
        ) or (
            isinstance(node, ast.Attribute)
            and node.attr in TRIP_COUNT_NAMES
        )

    @staticmethod
    def _widens_to_register(node: ast.AST) -> bool:
        """Does this function compute ``1 << bits`` / ``2 ** bits``
        over a register-width name? If so, its arrays hold values up
        to register width and narrow dtypes truncate them."""
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.BinOp)
                and isinstance(sub.op, (ast.LShift, ast.Pow))
                and _Linter._is_trip_name(sub.right)
            ):
                return True
        return False

    @staticmethod
    def _state_hinted(targets: Sequence[ast.expr]) -> Optional[str]:
        for target in targets:
            name: Optional[str] = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None and any(
                hint in name.lower() for hint in STATE_HINT_NAMES
            ):
                return name
        return None

    @staticmethod
    def _np_alloc(node: ast.AST) -> Optional[ast.Call]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in NP_ALLOC_FUNCS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            return node
        return None

    @staticmethod
    def _dtype_arg(call: ast.Call) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg == "dtype":
                return keyword.value
        # Positional: zeros/ones/empty take dtype second, full third.
        position = 2 if call.func.attr == "full" else 1  # type: ignore[attr-defined]
        if len(call.args) > position:
            return call.args[position]
        return None

    @staticmethod
    def _dtype_name(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        call = self._np_alloc(node.value)
        target = self._state_hinted(node.targets)
        if call is not None and target is not None:
            dtype = self._dtype_arg(call)
            if dtype is None:
                self._add(
                    "dtype-width",
                    "warning",
                    node.lineno,
                    f"np.{call.func.attr}(...) bound to state array "  # type: ignore[attr-defined]
                    f"{target!r} without an explicit dtype; the "
                    "platform default changes overflow and memory "
                    "behavior — pin it (np.int64 for indices/counters)",
                )
            else:
                dtype_name = self._dtype_name(dtype)
                if (
                    dtype_name in NARROW_DTYPES
                    and self._width_risky
                    and self._width_risky[-1]
                ):
                    self._add(
                        "dtype-width",
                        "error",
                        node.lineno,
                        f"state array {target!r} allocated as "
                        f"{dtype_name} in a function that computes a "
                        "register-width table size (1 << bits); "
                        "stacked indices/counters would truncate "
                        "silently — widen the dtype or document the "
                        "exception with an allow marker",
                    )
        self.generic_visit(node)

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        """A directly visible set value: literal, comprehension, or a
        set()/frozenset() construction (however its result is combined
        with |, &, or -)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            return _Linter._is_set_expr(node.left) or _Linter._is_set_expr(
                node.right
            )
        return False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        gated = (
            isinstance(node.value, ast.Name)
            and (
                (node.value.id == "dis" and node.attr == "opmap")
                or (node.value.id == "sys" and node.attr == "monitoring")
            )
        )
        if gated and not self.is_compat:
            surface = f"{node.value.id}.{node.attr}"  # type: ignore[union-attr]
            self._add(
                "version-gate",
                "error",
                node.lineno,
                f"{surface} is version-gated interpreter surface; go "
                "through the repro.cfg.bytecode compat layer "
                "(opcode_sets()/get_monitoring()) so one module owns "
                "the per-CPython differences",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.is_analysis and self._is_set_expr(node.iter):
            self._add(
                "set-iter",
                "error",
                node.lineno,
                "iterating a set in an analysis module: hash order "
                "leaks into ordinals/layouts/reports and breaks "
                "run-to-run determinism; iterate sorted(...) instead",
            )
        if self.is_hot and not self._has_bounded_trip_count(node.iter):
            self._add(
                "hot-loop",
                "error",
                node.lineno,
                "for-loop without trip-count provenance in a "
                "vectorized hot path; iterate range() over a "
                "register-width constant or a literal tuple, express "
                "it as array operations, or document the exception "
                "with an allow marker",
            )
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        if self.is_hot and self._contains_len_call(node.test):
            self._add(
                "hot-loop",
                "error",
                node.lineno,
                "length-bounded while loop in a vectorized hot path; "
                "express it as array operations (or document the "
                "exception with an allow marker)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # time.* in hot paths
        if (
            self.is_hot
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self._add(
                "hot-time",
                "error",
                node.lineno,
                "time.* call inside a vectorized hot path; timing "
                "belongs to callers and repro.obs spans",
            )
        # undeclared literal counter names
        if (
            isinstance(func, ast.Name)
            and func.id == "counter"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            name = node.args[0].value
            if name not in self.counter_names:
                self._add(
                    "metric-name",
                    "error",
                    node.lineno,
                    f"counter({name!r}) is not pre-declared in "
                    "repro.obs.metrics.WELL_KNOWN; snapshots would "
                    "change schema between runs",
                )
        # raw artifact writes
        if (
            not self.is_writer
            and isinstance(func, ast.Name)
            and func.id == "open"
        ):
            mode = self._open_mode(node)
            if mode is not None and any(ch in mode for ch in "wax"):
                self._add(
                    "raw-write",
                    "warning",
                    node.lineno,
                    f"open(..., {mode!r}) bypasses the atomic writer; "
                    "use repro.runtime.atomic_write_text (or mark a "
                    "streaming sink with an allow marker)",
                )
        self.generic_visit(node)

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            value = node.args[1].value
            return value if isinstance(value, str) else None
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(
                keyword.value, ast.Constant
            ):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        return None


def lint_source(
    source: str,
    filename: str,
    is_hot: bool = False,
    is_writer: bool = False,
    is_checkpoint: bool = False,
    is_compat: bool = False,
    is_analysis: bool = False,
) -> List[Finding]:
    """Lint one module's source text (the unit the tests drive)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        return [
            Finding(
                check="code.syntax",
                severity="error",
                why=f"not parseable as Python: {error.msg}",
                location=f"{filename}:{error.lineno or 0}",
            )
        ]
    linter = _Linter(
        filename=filename,
        lines=source.splitlines(),
        is_hot=is_hot,
        is_writer=is_writer,
        counter_names=_declared_counter_names(),
        is_checkpoint=is_checkpoint,
        is_compat=is_compat,
        is_analysis=is_analysis,
    )
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: f.location or "")


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    hot_suffixes: Sequence[str] = HOT_PATH_SUFFIXES,
    writer_suffixes: Sequence[str] = WRITER_SUFFIXES,
    checkpoint_suffixes: Sequence[str] = CHECKPOINT_SUFFIXES,
    compat_suffixes: Sequence[str] = COMPAT_SUFFIXES,
    analysis_suffixes: Sequence[str] = ANALYSIS_SUFFIXES,
) -> List[Finding]:
    """The full code pass over ``paths`` (default: the repro package)."""
    resolved = list(paths) if paths else default_paths()
    findings: List[Finding] = []
    checked = 0
    for filename in _iter_python_files(resolved):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            raise CheckError(
                f"cannot read {filename!r}: {error}"
            ) from error
        findings.extend(
            lint_source(
                source,
                filename=filename,
                is_hot=_matches(filename, hot_suffixes),
                is_writer=_matches(filename, writer_suffixes),
                is_checkpoint=_matches(filename, checkpoint_suffixes),
                is_compat=_matches(filename, compat_suffixes),
                is_analysis=_matches(filename, analysis_suffixes),
            )
        )
        checked += 1
    findings.append(
        Finding(
            check="code.coverage",
            severity="info",
            why=f"linted {checked} files under {', '.join(resolved)}",
            data={"files": checked},
        )
    )
    return findings
