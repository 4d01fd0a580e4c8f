"""End-to-end benchmark of the repro CLI.

Usage::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--rounds N | --seconds S] [--trace 0|1] [--smoke]
        [--no-reference] [--out FILE]
    python benchmarks/e2e/run.py compare A.json B.json [A2.json B2.json ...]

Each run of a workload is a fresh ``python child.py`` process that calls
``repro.cli.main(argv)``; this script times it from spawn to reap and
takes the process tree's rusage from ``os.wait4``. Before timing, every
workload runs once untimed (filling ``.pyc`` files and lazy caches) and
the reference engine spot-checks the simulator (``checks.py``, in a
process of its own). Then come rounds that run every selected workload
in a fixed order, so host drift hits all of them alike: ``--rounds N``
rounds, or as many as fit in ``--seconds``. With ``--trace 1`` each
timed run is followed by a traced run of the same command, and the
per-layer metrics come from the traced runs only.

Every run's stdout (with its run directory written as ``<dir>``) must
match the committed sha256 in ``goldens.json`` for the seed, or, for a
seed without goldens, the output of the untimed first run. ``fig4_warm``
and ``fig4_2workers`` must print exactly what a serial cold ``fig4``
prints. A failed or mismatching run counts in ``failed``, its timings
are dropped, and the command exits 1.

The metric catalogue (names, units, direction, bounds) is
``BENCHMARK.json`` at the repository root. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace
1``; keys are prefixed ``<workload>.`` when several workloads ran).
``--out`` writes the full result: run context, every raw sample,
medians and quartiles. ``compare`` reads such files. README.md has the
workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CATALOGUE = ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"
WORK = ROOT / ".bench_work"

#: A run that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

#: Units of per-layer metrics that count work; they must repeat exactly.
COUNT_UNITS = ("count", "branches", "bytes")

#: The first-level table of the PAs reference tier (the paper's 128
#: entries, 4-way).
REFERENCE_BHT = 128


@dataclass(frozen=True)
class Profile:
    """Input sizes. ``full`` is the benchmark; ``smoke`` checks wiring."""

    length: int  # branches per fig4/fig10 trace
    fig4_sizes: Tuple[int, ...]  # () = the CLI default, tiers 2^4..2^15
    fig10_sizes: Tuple[int, ...]
    gen_length: int
    reference_tier: int  # n of the tier checked against the reference


PROFILES = {
    "full": Profile(20_000, (), (6, 10, 14), 400_000, 10),
    "smoke": Profile(2_000, (4, 5), (4, 5), 20_000, 5),
}


@dataclass(frozen=True)
class Workload:
    """One repro command line; ``{dir}`` is its run directory."""

    name: str
    argv: Tuple[str, ...]
    env: Dict[str, str]
    #: Branches per run: predictions simulated (or served from stored
    #: results, for fig4_warm), or branches generated.
    work: int
    #: Reference check: "gas"/"pas" spot-check one tier of that scheme
    #: against the reference engine; "trace" compares the stored trace
    #: with a fresh ``make_workload``.
    reference: str
    #: Empty the run directory before every run.
    fresh: bool = True
    #: Runs once, first, in the same directory; its stdout is the output
    #: every run of this workload must print.
    baseline: Optional["Workload"] = None
    per_round: int = 1


def build_workloads(profile: Profile, seed: int) -> Dict[str, Workload]:
    def sizes(tiers):
        return ("--sizes",) + tuple(map(str, tiers)) if tiers else ()

    common = ("--length", str(profile.length), "--seed", str(seed))
    fig4_points = sum(n + 1 for n in profile.fig4_sizes or range(4, 16))
    fig10_points = 3 * sum(n + 1 for n in profile.fig10_sizes)
    fig4 = ("run", "fig4", "--benchmark", "mpeg_play") + common + sizes(
        profile.fig4_sizes
    ) + ("--checkpoint-dir", "{dir}/ckpt")
    stores = {
        "REPRO_TRACE_STORE": "{dir}/traces",
        "REPRO_RESULT_STORE": "{dir}/results",
    }
    cold = Workload("fig4_cold", fig4, stores, fig4_points * profile.length,
                    "gas")
    return {
        w.name: w
        for w in (
            cold,
            Workload(
                "fig10_pas",
                ("run", "fig10") + common + sizes(profile.fig10_sizes),
                {},
                fig10_points * profile.length,
                "pas",
            ),
            Workload(
                "gen_ibs",
                ("generate", "real_gcc", "--length", str(profile.gen_length),
                 "--seed", str(seed), "--store", "{dir}"),
                {},
                profile.gen_length,
                "trace",
            ),
            Workload("fig4_warm", fig4, stores, cold.work, "gas",
                     fresh=False, baseline=cold, per_round=2),
            Workload("fig4_2workers", fig4 + ("--workers", "2"), stores,
                     cold.work, "gas", baseline=cold),
        )
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class Run:
    spawned: float
    reaped: float
    code: int
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    record: Optional[dict]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def remove_work(work: Path) -> None:
    """Delete one invocation's work files, and ``WORK`` once unused."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another invocation is still running


def _reset(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def clean_env(work: Path) -> Dict[str, str]:
    """The environment of every process this script starts.

    Nothing is inherited but ``PATH``: no stray ``REPRO_*`` store, queue
    or fault variable, and ``HOME``/``TMPDIR`` inside ``work``.
    """
    for sub in ("home", "tmp"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "HOME": str(work / "home"),
        "TMPDIR": str(work / "tmp"),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        # Fixed string hashing, so set iteration order is the same in
        # every run.
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def helper(work: Path, *args) -> object:
    """One ``checks.py`` command in a fresh process; its JSON result.

    The checks load numpy and repro. Linux records a process's peak RSS
    at ``exec`` into the child it becomes, so doing them here would
    raise every later child's ``peak_rss_mb`` to this process's size.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), *map(str, args)],
        capture_output=True, text=True, env=clean_env(work), cwd=work,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def spawn(workload: Workload, directory: Path, traced: bool) -> Run:
    """One process of ``workload`` in ``directory``, timed from outside.

    Besides :func:`clean_env`, the child gets the repro stores only where
    the workload sets them, a ledger file of its own that starts empty
    (the ledger is rewritten whole on every run, so a shared one would
    slow each run down), and a fixed git revision so no run spawns
    ``git``.
    """
    if workload.fresh or not directory.exists():
        _reset(directory)
    work = directory.parent
    ledger = work / "ledger.jsonl"
    ledger.unlink(missing_ok=True)
    env = clean_env(work)
    env["REPRO_LEDGER"] = str(ledger)
    env["REPRO_GIT_REV"] = "benchmark"
    env.update({k: v.format(dir=directory) for k, v in workload.env.items()})
    argv = [arg.format(dir=directory) for arg in workload.argv]
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(record_path),
             "1" if traced else "0", *argv],
            stdout=out, stderr=err, env=env, cwd=directory,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            reaped = time.monotonic()
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    return Run(
        spawned=spawned,
        reaped=reaped,
        code=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace").replace(
            str(directory), "<dir>"
        ),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        record=record,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# A workload's runs
# ----------------------------------------------------------------------


@dataclass
class Bench:
    """State and samples of one workload in this invocation."""

    workload: Workload
    directory: Path
    expected: Dict[str, str] = field(default_factory=dict)
    golden: str = "none"
    warmup_wall_s: float = 0.0
    samples: List[dict] = field(default_factory=list)
    traced: List[dict] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0

    def check(self, run: Run, label: str) -> bool:
        """Count ``run`` and verify it; record why when it fails."""
        self.attempted += 1
        problems = []
        if run.code != 0:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"exit {run.code}: {tail[0]}")
        elif run.record is None:
            problems.append("child wrote no record")
        elif Path(run.record["package"]) != SRC / "repro":
            problems.append(f"imported repro from {run.record['package']}")
        if not problems:
            got = self.observed(run)
            for key, want in self.expected.items():
                if got.get(key) != want:
                    problems.append(f"{key} sha {got.get(key)} != {want}")
        for problem in problems:
            self.failures.append(f"{self.workload.name} {label}: {problem}")
        return not problems

    def observed(self, run: Run) -> Dict[str, str]:
        got = {"stdout": sha256(run.stdout)}
        if self.workload.reference == "trace":
            got["arrays"] = helper(self.directory.parent, "stored-sha",
                                   self.directory)
        return got


def prepare(bench: Bench, profile: Profile, seed: int, goldens: dict,
            reference: bool, checked: dict) -> None:
    """Untimed set-up: expected outputs, baseline and warm-up runs.

    The expected output is the golden when the seed has one, else what
    the baseline run (or, without one, the warm-up run) printed.
    """
    workload = bench.workload
    golden = goldens.get(str(seed), {})
    if workload.name in golden:
        bench.golden = "yes"
        bench.expected["stdout"] = golden[workload.name]
        if workload.reference == "trace":
            bench.expected["arrays"] = golden[f"{workload.name}.arrays"]
    if workload.baseline is not None:
        base = spawn(workload.baseline, bench.directory, traced=False)
        if bench.check(base, "baseline"):
            bench.expected = bench.expected or bench.observed(base)
    warm = spawn(workload, bench.directory, traced=False)
    if bench.check(warm, "warm-up"):
        bench.expected = bench.expected or bench.observed(warm)
        bench.warmup_wall_s = warm.reaped - warm.spawned
    work = bench.directory.parent
    if workload.reference == "trace":
        bench.attempted += 1
        generated = helper(work, "trace-sha", profile.gen_length, seed)
        if generated != bench.expected.get("arrays"):
            bench.failures.append(
                f"{workload.name}: stored trace differs from make_workload"
            )
    elif reference:
        # One tier per sweep against the reference engine.
        bench.attempted += 1
        if workload.reference not in checked:
            bht = REFERENCE_BHT if workload.reference == "pas" else 0
            checked[workload.reference] = helper(
                work, "spot-check", workload.reference, bht, profile.length,
                profile.reference_tier, seed,
            )
        if checked[workload.reference]:
            bench.failures.append(
                f"{workload.name}: {checked[workload.reference]}"
            )


def timed_run(bench: Bench, traced: bool) -> None:
    run = spawn(bench.workload, bench.directory, traced)
    if not bench.check(run, "traced" if traced else "timed"):
        return
    wall = run.reaped - run.spawned
    if traced:
        metrics = child.layer_metrics(run.record, run.spawned, run.reaped)
        metrics["wall_s"] = wall
        bench.traced.append(metrics)
        return
    bench.samples.append({
        "wall_s": wall,
        "cpu_s": run.cpu_s,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": run.record["imported"] - run.spawned,
        "branches_per_s": bench.workload.work / wall,
    })


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def summary(values: List[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def summarize(bench: Bench, catalogue: dict, setup_pool: List[float]) -> dict:
    """Each metric's reported ``value`` plus median, quartiles and count.

    Other tenants of the host only ever add time, in bursts lasting
    seconds to minutes, so the least-disturbed run is the steadiest
    measure of the program: a time or rate reports the best timed run
    (measured on this 2-CPU host, the spread of the best over ten seeds
    was about half that of the median). ``setup_s`` reports the median
    over every process started, pooled across workloads; per-layer
    metrics report the median over traced runs.
    """
    result = {"end_to_end": {}, "per_layer": {}}
    if bench.samples:
        for entry in catalogue["end_to_end"]:
            name = entry["name"]
            if name == "setup_s":
                stats = summary(setup_pool)
                stats["value"] = stats["median"]
            else:
                stats = summary([s[name] for s in bench.samples])
                stats["value"] = stats[
                    "min" if entry["better"] == "lower" else "max"]
            result["end_to_end"][name] = stats
        result["warmup_excess_s"] = (
            bench.warmup_wall_s - result["end_to_end"]["wall_s"]["median"]
        )
    if bench.traced and bench.samples:
        for entry in catalogue["per_layer"]:
            name = entry["name"]
            if name == "trace.overhead_frac":
                traced = min(t["wall_s"] for t in bench.traced)
                values = [traced / result["end_to_end"]["wall_s"]["min"] - 1]
            else:
                values = [t[name] for t in bench.traced]
            if entry["unit"] in COUNT_UNITS and len(set(values)) > 1:
                bench.failures.append(
                    f"{bench.workload.name}: count {name} differs between "
                    f"traced runs: {sorted(set(values))}"
                )
            stats = summary(values)
            stats["value"] = stats["median"]
            result["per_layer"][name] = stats
    return result


def run_context(work: Path) -> dict:
    git = ["git", "-C", str(ROOT)]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
        dirty = subprocess.run(git + ["status", "--porcelain"],
                               capture_output=True, text=True, env=env,
                               timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
        git_dirty = bool(dirty.stdout.strip()) if dirty.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev, git_dirty = "unknown", None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": helper(work, "numpy-version"),
        "platform": platform.platform(),
        "git_rev": git_rev,
        "git_dirty": git_dirty,
    }


def print_table(benches: List[Bench], results: dict, catalogue: dict) -> None:
    units = {e["name"]: e["unit"] for e in catalogue["end_to_end"]}
    for bench in benches:
        name = bench.workload.name
        result = results[name]
        print(f"== {name}  golden: {bench.golden}  runs: {len(bench.samples)}"
              f"  failed: {len(bench.failures)}")
        for metric, stats in result["end_to_end"].items():
            print(f"   {metric:16s} {stats['value']:14.6g} {units[metric]:10s}"
                  f" median {stats['median']:.6g}  q1 {stats['q1']:.6g}"
                  f"  q3 {stats['q3']:.6g}  n={stats['n']}")
        layers = result["per_layer"]
        if layers:
            top = sorted(
                (m for m in layers if m.endswith("self_s")),
                key=lambda m: -layers[m]["median"],
            )[:6]
            print("   top self time: " + ", ".join(
                f"{m[:-7]} {layers[m]['median']:.3f}s" for m in top
            ))
            print(f"   trace.overhead_frac "
                  f"{layers['trace.overhead_frac']['median']:+.3f}")
        for failure in bench.failures:
            print(f"   FAILED {failure}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def parse_args(argv: List[str], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    pace = parser.add_mutually_exclusive_group()
    pace.add_argument("--rounds", type=int, default=None,
                      help="timed rounds (default 7; 1 with --smoke)")
    pace.add_argument("--seconds", type=float, default=None,
                      help="run whole rounds until this much time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also a traced run after every timed run, "
                             "for per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and smoke goldens: checks wiring")
    parser.add_argument("--no-reference", dest="reference",
                        action="store_false",
                        help="skip the reference-engine spot check")
    parser.add_argument("--out", type=Path, help="write the full result here")
    parser.add_argument("--goldens", type=Path, default=GOLDENS)
    parser.add_argument("--record-goldens", action="store_true",
                        help="write this run's output shas into --goldens")
    args = parser.parse_args(argv)
    if args.rounds is None and args.seconds is None:
        args.rounds = 1 if args.smoke else 7
    return args


def measure(argv: List[str]) -> int:
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    catalogue = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    names = [w["name"] for w in catalogue["workloads"]]
    args = parse_args(argv, names)
    profile_name = "smoke" if args.smoke else "full"
    profile = PROFILES[profile_name]
    workloads = build_workloads(profile, args.seed)
    goldens_file = json.loads(args.goldens.read_text(encoding="utf-8"))
    goldens = {} if args.record_goldens else goldens_file.get(profile_name, {})

    work = WORK / f"run-{os.getpid()}"
    benches = [
        Bench(workloads[name], work / name / "run")
        for name in (args.workload or names)
    ]
    rounds = []
    # SIGTERM unwinds like Ctrl-C, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        missing = helper(work, "missing-targets") if args.trace else []
        for target in missing:
            print(f"warning: trace target {target} is missing; its layer "
                  "metrics read 0", file=sys.stderr)
        context = run_context(work) if args.out else {}
        checked: dict = {}
        for bench in benches:
            prepare(bench, profile, args.seed, goldens, args.reference,
                    checked)
        started = time.monotonic()
        while True:
            load_before = os.getloadavg()
            for bench in benches:
                for _ in range(bench.workload.per_round):
                    timed_run(bench, traced=False)
                    if args.trace:
                        timed_run(bench, traced=True)
            rounds.append({"loadavg_before": load_before,
                           "loadavg_after": os.getloadavg()})
            if args.rounds is not None:
                if len(rounds) >= args.rounds:
                    break
            elif (time.monotonic() - started) * (len(rounds) + 1) / len(
                    rounds) > args.seconds:
                break
    finally:
        remove_work(work)

    setup_pool = [s["setup_s"] for b in benches for s in b.samples]
    results = {b.workload.name: summarize(b, catalogue, setup_pool)
               for b in benches}
    attempted = sum(b.attempted for b in benches)
    failures = [f for b in benches for f in b.failures]
    correct = not failures
    print_table(benches, results, catalogue)

    if args.record_goldens and correct:
        recorded = goldens_file.setdefault(profile_name, {}).setdefault(
            str(args.seed), {})
        for bench in benches:
            for key, sha in bench.expected.items():
                suffix = "" if key == "stdout" else f".{key}"
                recorded[bench.workload.name + suffix] = sha
        args.goldens.write_text(json.dumps(goldens_file, indent=1,
                                           sort_keys=True) + "\n")

    if args.out:
        document = {
            "schema": "repro-e2e/1",
            "context": context,
            "profile": profile_name,
            "seed": args.seed,
            "trace": args.trace,
            "rounds": rounds,
            "correct": correct,
            "attempted": attempted,
            "failures": failures,
            "missing_targets": missing,
            "workloads": {
                b.workload.name: {
                    "argv": list(b.workload.argv),
                    "env": b.workload.env,
                    "work_branches": b.workload.work,
                    "golden": b.golden,
                    "warmup_wall_s": b.warmup_wall_s,
                    "samples": b.samples,
                    **results[b.workload.name],
                }
                for b in benches
            },
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    units = {e["name"]: e["unit"] for e in catalogue[section]}
    metrics = {}
    for bench in benches:
        prefix = "" if len(benches) == 1 else f"{bench.workload.name}."
        for name, stats in results[bench.workload.name][section].items():
            metrics[prefix + name] = {"value": stats["value"],
                                      "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def verdict(parent: List[float], change: List[float], value_a: float,
            value_b: float, better: str, bound: float,
            win_rate: Optional[float]) -> str:
    """better / worse / within bound / unresolved.

    ``value_a``/``value_b`` are the sides' reported values; ``parent``
    and ``change`` are what their spread is taken over.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (value_b - value_a) / value_a
    base = summary(parent)
    spread = (base["q3"] - base["q1"]) / base["median"]
    if all(sign * c < sign * p for c in change for p in parent):
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread and (win_rate is None or win_rate >= 0.9):
        return "better"
    return "within bound"


def compare(argv: List[str]) -> int:
    """Per (workload, metric): both sides, delta and verdict.

    A side's value is the median, over its result files, of each file's
    reported value. Its quartiles are over those values when the side
    has several files (one per run, alternating parent and change), and
    over the raw samples of its one file otherwise. Several pairs also
    give the share of pairs the change won.
    """
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare parent (A) and change (B) result files; "
                    "several A B pairs, run alternately, add a win rate.")
    parser.add_argument("files", nargs="+", type=Path,
                        help="A.json B.json [A2.json B2.json ...]")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("give result files in parent/change pairs")
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in args.files]
    parents, changes = docs[0::2], docs[1::2]
    catalogue = json.loads(CATALOGUE.read_text(encoding="utf-8"))

    def reported(doc, workload, metric):
        return doc["workloads"][workload]["end_to_end"][metric]["value"]

    def spread_values(side, workload, metric):
        if len(side) > 1:
            return [reported(d, workload, metric) for d in side]
        workloads = side[0]["workloads"]
        if metric == "setup_s":  # pooled over every workload of the run
            return [s[metric] for w in workloads.values()
                    for s in w["samples"]]
        return [s[metric] for s in workloads[workload]["samples"]]

    shared = [w for w in parents[0]["workloads"]
              if all(w in d["workloads"] and d["workloads"][w]["end_to_end"]
                     for d in docs)]
    worse = 0
    print(f"{'workload':14s} {'metric':16s} {'parent':>12s} {'change':>12s}"
          f" {'delta':>8s}  verdict")
    for workload in shared:
        for entry in catalogue["end_to_end"]:
            metric = entry["name"]
            value_a = statistics.median(
                reported(d, workload, metric) for d in parents)
            value_b = statistics.median(
                reported(d, workload, metric) for d in changes)
            parent = spread_values(parents, workload, metric)
            change = spread_values(changes, workload, metric)
            win_rate = None
            if len(parents) > 1:
                sign = 1.0 if entry["better"] == "lower" else -1.0
                wins = sum(
                    sign * reported(c, workload, metric)
                    < sign * reported(p, workload, metric)
                    for p, c in zip(parents, changes)
                )
                win_rate = wins / len(parents)
            label = verdict(parent, change, value_a, value_b,
                            entry["better"], entry["bound"], win_rate)
            worse += label == "worse"
            a, b = summary(parent), summary(change)
            wins = "" if win_rate is None else f"  wins {win_rate:.0%}"
            print(f"{workload:14s} {metric:16s} {value_a:12.6g}"
                  f" {value_b:12.6g} {(value_b - value_a) / value_a:+8.2%}"
                  f"  {label}  [A q1 {a['q1']:.6g} q3 {a['q3']:.6g}"
                  f" n={a['n']}; B q1 {b['q1']:.6g} q3 {b['q3']:.6g}"
                  f" n={b['n']}]{wins}")
        counts = [e["name"] for e in catalogue["per_layer"]
                  if e["unit"] in COUNT_UNITS]
        for metric in counts:
            seen = {
                d["workloads"][workload]["per_layer"][metric]["median"]
                for d in docs
                if metric in d["workloads"][workload].get("per_layer", {})
            }
            if len(seen) > 1:
                worse += 1
                print(f"{workload:14s} {metric:16s} count differs: "
                      f"{sorted(seen)}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return measure(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
