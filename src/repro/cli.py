"""Command-line interface.

Examples::

    repro experiments                      # list regenerable artifacts
    repro run fig4 --length 200000         # regenerate a figure
    repro run table3 --benchmark espresso
    repro workloads                        # list calibrated benchmarks
    repro characterize mpeg_play           # Table-1 row for one trace
    repro simulate --scheme gshare --rows 4096 --cols 4 \\
        --benchmark real_gcc               # one-off simulation
    repro check                            # all static checks
    repro check code --strict --json       # lint pass, warnings block
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Correlation and Aliasing in Dynamic Branch "
            "Predictors' (Sechrest, Lee, Mudge; ISCA 1996)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment ids")
    sub.add_parser("workloads", help="list calibrated benchmark workloads")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. fig4")
    _add_trace_options(run)
    _add_obs_options(run)
    run.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        metavar="N",
        help="tier exponents (2^N counters); default: the paper's range",
    )
    run.add_argument(
        "--export",
        metavar="PATH",
        help=(
            "also write the experiment's data as CSV (surfaces, series "
            "and difference grids; other artifacts are unsupported)"
        ),
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "the run's result store (default: $REPRO_RESULT_STORE): every "
            "finished sweep point is written there as it lands, and a "
            "re-run restores those points instead of recomputing them "
            "(*.journal files from older versions are ignored and their "
            "points recomputed)"
        ),
    )
    run.add_argument(
        "--paranoid",
        action="store_true",
        help=(
            "cross-check the vectorized engine against the scalar "
            "reference on a trace prefix at every sweep point"
        ),
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run sweep points on a pool of N worker processes; this "
            "process writes every finished point, and results are "
            "identical to a serial run (default: 1, serial)"
        ),
    )
    run.add_argument(
        "--no-cache",
        dest="use_cache",
        action="store_false",
        default=True,
        help=(
            "read no point from the result store and simulate every "
            "point; computed points are still written, overwriting "
            "identical bytes (cache.hits/cache.misses count reads)"
        ),
    )

    check = sub.add_parser(
        "check",
        help="static verification: configs, aliasing analysis, code lint",
        description=(
            "Run the static check passes. Exit code 0 = clean, "
            "1 = findings, 2 = a pass failed internally."
        ),
    )
    check.add_argument(
        "check_pass",
        nargs="?",
        default="all",
        choices=(
            "configs",
            "aliasing",
            "code",
            "all",
        ),
        metavar="pass",
        help="which pass to run: configs, aliasing, code, or all "
        "(default)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a machine-readable JSON report",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as blocking (exit 1), not just errors",
    )
    check.add_argument(
        "--spec-file",
        metavar="PATH",
        default=None,
        help=(
            "also verify predictor specs from a JSON file (a list of "
            "spec objects, or {\"specs\": [...]})"
        ),
    )
    check.add_argument(
        "--path",
        action="append",
        dest="paths",
        metavar="PATH",
        help="lint these files/directories instead of the repro package "
        "(repeatable)",
    )
    check.add_argument(
        "--hot",
        action="append",
        dest="hot_suffixes",
        metavar="SUFFIX",
        help="treat files ending in SUFFIX as hot paths for the code "
        "pass (repeatable; adds to the built-in hot set)",
    )
    check.add_argument(
        "--benchmark",
        action="append",
        dest="benchmarks",
        help="benchmark for the aliasing pass (repeatable; default: "
        "the paper's focus trio)",
    )
    check.add_argument(
        "--scheme",
        action="append",
        dest="schemes",
        help="scheme for the configs/aliasing passes (repeatable)",
    )
    check.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        metavar="N",
        help="tier exponents (2^N counters) for configs/aliasing passes",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--fix",
        action="store_true",
        help="configs pass: attach the nearest sound (c, r) split to "
        "budget-mismatch findings",
    )
    check.add_argument(
        "--bht-entries",
        type=int,
        default=None,
        metavar="N",
        help="first-level table entries for the aliasing pass "
        "(PA/set families; default: perfect histories)",
    )
    check.add_argument(
        "--bht-assoc",
        type=int,
        default=4,
        metavar="W",
        help="first-level associativity for the aliasing pass",
    )
    _add_obs_options(check)

    characterize = sub.add_parser(
        "characterize", help="Table-1 style statistics for one workload"
    )
    characterize.add_argument("benchmark")
    _add_trace_options(characterize, benchmark_flag=False)

    calibrate = sub.add_parser(
        "calibrate", help="grade a workload trace against its profile"
    )
    calibrate.add_argument("benchmark")
    _add_trace_options(calibrate, benchmark_flag=False)

    generate = sub.add_parser(
        "generate", help="materialize a workload trace into a trace store"
    )
    generate.add_argument("benchmark")
    _add_trace_options(generate, benchmark_flag=False)
    generate.add_argument(
        "--store",
        default=None,
        help="store directory (default: ./traces or $REPRO_TRACE_STORE)",
    )

    simulate = sub.add_parser("simulate", help="simulate one configuration")
    simulate.add_argument("--scheme", required=True)
    simulate.add_argument("--rows", type=int, default=1)
    simulate.add_argument("--cols", type=int, default=1)
    simulate.add_argument("--bht-entries", type=int, default=None)
    simulate.add_argument("--bht-assoc", type=int, default=4)
    simulate.add_argument("--engine", default="auto",
                          choices=("auto", "vectorized", "reference"))
    simulate.add_argument(
        "--paranoid",
        action="store_true",
        help="cross-check vectorized vs reference engines on a prefix",
    )
    _add_trace_options(simulate)
    _add_obs_options(simulate)

    analyze = sub.add_parser(
        "analyze",
        help="static CFG and branch-predictability analysis",
        description=(
            "Analyze real program structure: decompose Python functions "
            "into bytecode CFGs, or score a workload's branches by "
            "outcome entropy and mutual information with history."
        ),
    )
    analyze_sub = analyze.add_subparsers(
        dest="analyze_command", required=True
    )

    predictability = analyze_sub.add_parser(
        "predictability",
        help="entropy/MI scorecard for one workload's branches",
    )
    predictability.add_argument(
        "benchmark",
        help="workload name (synthetic or real; see `repro workloads`)",
    )
    _add_trace_options(predictability, benchmark_flag=False)
    predictability.add_argument(
        "--history-bits",
        type=int,
        default=None,
        metavar="K",
        help="history depth for the mutual-information estimates",
    )
    predictability.add_argument(
        "--top", type=int, default=20,
        help="branches shown in the table (hottest first)",
    )
    predictability.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of tables",
    )
    predictability.add_argument(
        "--strict", action="store_true",
        help="hard-branch warnings fail the run",
    )
    _add_obs_options(predictability)

    analyze_cfg = analyze_sub.add_parser(
        "cfg",
        help="bytecode CFG and loop structure of real functions",
    )
    analyze_cfg.add_argument(
        "target",
        help=(
            "real workload name (instrumented kernels) or "
            "module:qualname of any Python function"
        ),
    )
    analyze_cfg.add_argument(
        "--json", action="store_true",
        help="emit the structure summary as JSON",
    )

    doctor = sub.add_parser(
        "doctor",
        help="scan (and repair) checkpoints and stores",
        description=(
            "Integrity doctor. Verifies result artifacts (schema, CRC, "
            "key) and loads stored trace archives. "
            "Exit 0 = healthy, 1 = findings, 2 = scan failed internally."
        ),
    )
    doctor.add_argument(
        "--store",
        dest="store_dir",
        metavar="DIR",
        default=None,
        help="verify every archive in a trace-store directory",
    )
    doctor.add_argument(
        "--results",
        dest="results_dir",
        metavar="DIR",
        default=None,
        help=(
            "verify every point in a result-store directory (a "
            "--checkpoint-dir or $REPRO_RESULT_STORE)"
        ),
    )
    doctor.add_argument(
        "--repair",
        action="store_true",
        help="quarantine bad bytes (.quarantine sidecars)",
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a machine-readable JSON report",
    )
    doctor.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as blocking (exit 1), not just errors",
    )
    _add_obs_options(doctor)

    store = sub.add_parser(
        "store",
        help="trace-store hygiene: list, evict",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="list stored traces in LRU order with sizes"
    )
    store_ls.add_argument(
        "--store",
        dest="store_dir",
        default=None,
        help="store directory (default: ./traces or $REPRO_TRACE_STORE)",
    )
    store_ls.add_argument(
        "--results",
        dest="results_dir",
        metavar="DIR",
        default=None,
        help="also list cached sweep points from this result store",
    )
    store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used traces down to a size cap"
    )
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="B",
        help="keep at most B bytes of traces (0 empties the store)",
    )
    store_gc.add_argument(
        "--store", dest="store_dir", default=None,
        help="store directory (default: ./traces or $REPRO_TRACE_STORE)",
    )
    store_gc.add_argument(
        "--results",
        dest="results_dir",
        metavar="DIR",
        default=None,
        help=(
            "evict across this result store too: one LRU order, one "
            "combined byte cap for traces and cached points"
        ),
    )

    obs = sub.add_parser(
        "obs", help="inspect a saved --metrics-out or --trace-out file"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="pretty-print a --metrics-out JSON or --trace-out JSONL file",
    )
    summarize.add_argument("path", help="metrics or span-trace file")
    return parser


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by the long-running commands."""
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="verbosity of repro.* structured logging on stderr",
    )
    parser.add_argument(
        "--log-format",
        choices=("kv", "json"),
        default="kv",
        help="log line format: message + key=value pairs, or JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write completed telemetry spans to PATH as JSON lines",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write end-of-run counters/histograms/span timings to PATH "
        "as JSON (readable via `repro obs summarize`)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="periodic stderr heartbeat with points done/total and ETA",
    )


def _add_trace_options(
    parser: argparse.ArgumentParser, benchmark_flag: bool = True
) -> None:
    if benchmark_flag:
        parser.add_argument(
            "--benchmark",
            action="append",
            dest="benchmarks",
            help="benchmark name (repeatable); default: experiment's own",
        )
    parser.add_argument("--length", type=int, default=None,
                        help="dynamic conditional branches per trace")
    parser.add_argument("--seed", type=int, default=0)


#: Exit codes: deliberate library errors get 2 (one-line message, no
#: traceback); an interrupt gets the conventional 128+SIGINT (every
#: point that landed before it is already persisted).
EXIT_ERROR = 2
EXIT_INTERRUPT = 130


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.obs import get_logger, get_tracer, reset_metrics, setup_logging

    setup_logging(
        getattr(args, "log_level", "warning"),
        getattr(args, "log_format", "kv"),
    )
    diag = get_logger("repro.cli")
    reset_metrics()
    tracer = get_tracer()
    tracer.reset()
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        tracer.configure_sink(trace_out)
    try:
        code = _dispatch(args)
    except ReproError as error:
        diag.error("error: %s", error)
        code = EXIT_ERROR
    except KeyboardInterrupt:
        diag.error("interrupted")
        code = EXIT_INTERRUPT
    except BrokenPipeError:
        # Downstream `head`/pager closed our stdout: exit quietly with
        # the conventional 128+SIGPIPE, not a traceback. Point stdout
        # at devnull so the interpreter's shutdown flush stays silent.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13
    finally:
        tracer.close_sink()
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        try:
            from repro.obs.report import write_metrics

            write_metrics(metrics_out)
        except (ReproError, OSError) as error:
            diag.error("error: cannot write metrics: %s", error)
            code = code or EXIT_ERROR
    return code


def _dispatch(args: argparse.Namespace) -> int:
    # Imports are local so `repro --version` stays fast.
    if args.command == "experiments":
        from repro.experiments.runner import experiment_title, list_experiments

        for experiment_id in list_experiments():
            print(f"{experiment_id:20s} {experiment_title(experiment_id)}")
        return 0

    if args.command == "workloads":
        from repro.cfg.corpus import get_real_workload
        from repro.workloads.profiles import get_profile
        from repro.workloads.registry import is_real_workload, list_workloads

        for name in list_workloads():
            if is_real_workload(name):
                workload = get_real_workload(name)
                print(f"{name:12s} {'real':10s} {workload.title}")
                continue
            profile = get_profile(name)
            print(
                f"{name:12s} {profile.suite:10s} "
                f"static={profile.static_branches:6d} "
                f"90%-cover={profile.paper_branches_for_90pct}"
            )
        return 0

    if args.command == "obs":
        return _dispatch_obs(args)

    if args.command == "analyze":
        return _dispatch_analyze(args)

    if args.command == "run":
        from repro.experiments.base import (
            DEFAULT_LENGTH,
            DEFAULT_SIZE_BITS,
            ExperimentOptions,
        )
        from repro.experiments.runner import run_experiment

        on_point = None
        if args.progress:
            from repro.obs.progress import ProgressReporter

            on_point = ProgressReporter(label=args.experiment).on_point
        options = ExperimentOptions(
            length=args.length or DEFAULT_LENGTH,
            seed=args.seed,
            benchmarks=args.benchmarks,
            size_bits=tuple(args.sizes) if args.sizes else DEFAULT_SIZE_BITS,
            checkpoint_dir=args.checkpoint_dir,
            paranoid=args.paranoid,
            on_point=on_point,
            workers=args.workers,
            use_cache=args.use_cache,
        )
        result = run_experiment(args.experiment, options)
        result.show()
        if args.export:
            _export_result(result, args.export)
        return 0

    if args.command == "check":
        from repro.check.runner import render, run_checks

        report = run_checks(
            which=args.check_pass,
            spec_file=args.spec_file,
            paths=args.paths,
            hot_suffixes=tuple(args.hot_suffixes or ()),
            benchmarks=args.benchmarks,
            schemes=args.schemes,
            size_bits=tuple(args.sizes) if args.sizes else None,
            seed=args.seed,
            fix=args.fix,
            bht_entries=args.bht_entries,
            bht_assoc=args.bht_assoc,
        )
        print(render(report, as_json=args.json, strict=args.strict))
        return report.exit_code(args.strict)

    if args.command == "characterize":
        from repro.traces.stats import characterize, frequency_breakdown
        from repro.workloads.registry import make_workload

        trace = make_workload(
            args.benchmark, length=args.length, seed=args.seed
        )
        stats = characterize(trace)
        breakdown = frequency_breakdown(trace)
        print(f"benchmark           {stats.name}")
        print(f"dynamic instrs      {stats.dynamic_instructions}")
        print(f"dynamic branches    {stats.dynamic_branches}")
        print(f"branch fraction     {stats.branch_fraction:.1%}")
        print(f"static branches     {stats.static_branches}")
        print(f"90% coverage        {stats.branches_for_90pct}")
        print(f"taken rate          {stats.taken_rate:.1%}")
        print(f"highly biased       {stats.highly_biased_fraction:.1%}")
        print(f"50/40/9/1 buckets   {breakdown.branch_counts}")
        return 0

    if args.command == "calibrate":
        from repro.experiments.base import DEFAULT_LENGTH
        from repro.workloads.calibration import calibrate

        report = calibrate(
            args.benchmark,
            length=args.length or DEFAULT_LENGTH,
            seed=args.seed,
        )
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "generate":
        from repro.experiments.base import DEFAULT_LENGTH
        from repro.workloads.store import TraceStore

        store = TraceStore(args.store)
        length = args.length or DEFAULT_LENGTH
        cached = store.contains(args.benchmark, length, args.seed)
        trace = store.get(args.benchmark, length, args.seed)
        verb = "loaded" if cached else "generated"
        print(
            f"{verb} {trace.name}: {len(trace)} branches, "
            f"{trace.num_static_branches} static -> "
            f"{store._path(args.benchmark, length, args.seed, args.seed)}"
        )
        return 0

    if args.command == "doctor":
        from repro.check.doctor import run_doctor
        from repro.check.runner import render

        report = run_doctor(
            store_dir=args.store_dir,
            results_dir=args.results_dir,
            repair=args.repair,
        )
        print(render(report, as_json=args.json, strict=args.strict))
        return report.exit_code(args.strict)

    if args.command == "store":
        from repro.workloads.store import TraceStore

        store = TraceStore(args.store_dir)
        result_store = None
        if args.results_dir is not None:
            from repro.serve.results import ResultStore

            result_store = ResultStore(args.results_dir)
        if args.store_command == "ls":
            import time as _time

            rows = store.ls()
            noun = "trace"
            if result_store is not None:
                rows = sorted(
                    rows + result_store.ls(),
                    key=lambda row: (row["used_at"], row["path"]),
                )
                noun = "artifact"
            for row in rows:
                used = _time.strftime(
                    "%Y-%m-%d %H:%M:%S",
                    _time.localtime(float(row["used_at"])),
                )
                print(f"{int(row['bytes']):>12d}  {used}  {row['path']}")
            print(
                f"total: {len(rows)} {noun}(s), "
                f"{sum(int(r['bytes']) for r in rows)} bytes"
            )
            return 0
        if args.store_command == "gc":
            if result_store is not None:
                from repro.serve.results import gc_stores

                stores = [store, result_store]
                before = sum(s.total_bytes() for s in stores)
                evicted = gc_stores(stores, args.max_bytes)
                after = sum(s.total_bytes() for s in stores)
            else:
                before = store.total_bytes()
                evicted = store.gc(args.max_bytes)
                after = store.total_bytes()
            for path in evicted:
                print(f"evicted {path}")
            print(
                f"gc: {before} -> {after} bytes "
                f"({len(evicted)} evicted, cap {args.max_bytes})"
            )
            return 0
        raise AssertionError(
            f"unhandled store command {args.store_command!r}"
        )

    if args.command == "simulate":
        from repro.experiments.base import DEFAULT_LENGTH
        from repro.predictors.factory import make_predictor_spec
        from repro.sim.engine import simulate
        from repro.workloads.registry import make_workload

        spec = make_predictor_spec(
            args.scheme,
            rows=args.rows,
            cols=args.cols,
            bht_entries=args.bht_entries,
            bht_assoc=args.bht_assoc,
        )
        reporter = None
        if args.progress:
            from repro.obs.progress import ProgressReporter

            reporter = ProgressReporter(label="simulate")
        benchmarks = args.benchmarks or ["espresso"]
        for index, benchmark in enumerate(benchmarks):
            trace = make_workload(
                benchmark,
                length=args.length or DEFAULT_LENGTH,
                seed=args.seed,
            )
            result = simulate(
                spec, trace, engine=args.engine, paranoid=args.paranoid
            )
            if reporter is not None:
                reporter.update(index + 1, len(benchmarks), detail=benchmark)
            line = (
                f"{benchmark:12s} {spec.describe():40s} "
                f"mispredict={result.misprediction_rate:.2%}"
            )
            if result.first_level_miss_rate is not None:
                line += f" L1-miss={result.first_level_miss_rate:.2%}"
            print(line)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _analysis_targets(target: str) -> list:
    """Resolve an ``analyze cfg`` target to concrete functions.

    A registered real-workload name yields its instrumented kernels;
    ``module:qualname`` imports the module and walks the dotted
    qualname (so methods work too).
    """
    import importlib

    from repro.errors import AnalysisError
    from repro.workloads.registry import is_real_workload

    if is_real_workload(target):
        from repro.cfg.corpus import get_real_workload

        return list(get_real_workload(target).instrument)
    if ":" not in target:
        raise AnalysisError(
            f"{target!r} is not a real workload; pass one of the "
            "`repro workloads` real entries or module:qualname"
        )
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as error:
        raise AnalysisError(
            f"cannot import module {module_name!r}: {error}"
        ) from None
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise AnalysisError(
                f"{module_name!r} has no attribute path {qualname!r}"
            ) from None
    if not hasattr(obj, "__code__"):
        raise AnalysisError(
            f"{target!r} resolves to {type(obj).__name__}, not a "
            "plain Python function"
        )
    return [obj]


def _dispatch_analyze(args: argparse.Namespace) -> int:
    import json as _json

    if args.analyze_command == "predictability":
        from repro.cfg.predictability import analyze_trace
        from repro.check.findings import CheckReport
        from repro.workloads.registry import make_workload

        trace = make_workload(
            args.benchmark, length=args.length, seed=args.seed
        )
        kwargs = {}
        if args.history_bits is not None:
            kwargs["history_bits"] = args.history_bits
        report = analyze_trace(trace, **kwargs)
        checks = CheckReport()
        checks.extend("analyze.predictability", report.findings())
        if args.json:
            payload = report.to_json()
            payload["findings"] = [f.to_json() for f in checks.findings]
            print(_json.dumps(payload, indent=2))
        else:
            print(report.render(top=args.top))
            print()
            print(checks.render_text(args.strict))
        return checks.exit_code(args.strict)

    if args.analyze_command == "cfg":
        from repro.cfg.bytecode import (
            code_key,
            extract_cfg,
            iter_code_objects,
        )
        from repro.cfg.structure import analyze_structure, branch_skeleton

        summaries = []
        for function in _analysis_targets(args.target):
            for code in iter_code_objects(function.__code__):
                cfg = extract_cfg(code)
                info = analyze_structure(cfg)
                skeleton = branch_skeleton(cfg, info)
                filename, qualname, line = code_key(code)
                summaries.append(
                    {
                        "qualname": qualname,
                        "file": f"{filename}:{line}",
                        "blocks": cfg.num_blocks,
                        "edges": cfg.num_edges,
                        "branch_sites": len(cfg.branch_sites),
                        "loops": skeleton["num_loops"],
                        "max_nesting": skeleton["max_nesting"],
                        "reducible": skeleton["reducible"],
                        "branches": [
                            {
                                "ordinal": site.ordinal,
                                "offset": site.offset,
                                "opname": site.opname,
                                "class": info.branch_classes[site.ordinal],
                                "taken_backward": bool(
                                    site.taken_target <= site.offset
                                ),
                            }
                            for site in cfg.branch_sites
                        ],
                    }
                )
        if args.json:
            print(_json.dumps(summaries, indent=2))
            return 0
        for summary in summaries:
            print(
                f"{summary['qualname']}  ({summary['file']})\n"
                f"  blocks={summary['blocks']} edges={summary['edges']} "
                f"branches={summary['branch_sites']} "
                f"loops={summary['loops']} "
                f"nesting={summary['max_nesting']} "
                f"reducible={summary['reducible']}"
            )
            for branch in summary["branches"]:
                arrow = "back" if branch["taken_backward"] else "fwd"
                print(
                    f"    #{branch['ordinal']} @{branch['offset']:<4d} "
                    f"{branch['opname']:28s} {branch['class']:9s} "
                    f"taken->{arrow}"
                )
        return 0

    raise AssertionError(
        f"unhandled analyze command {args.analyze_command!r}"
    )


def _dispatch_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        from repro.obs.report import summarize_path

        print(summarize_path(args.path))
        return 0

    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _export_result(result, path: str) -> None:
    """Write an experiment's structured data as CSV where supported."""
    from repro.analysis.export import (
        diff_grid_to_csv,
        series_to_csv,
        surface_to_csv,
    )
    from repro.errors import ExperimentError

    data = result.data
    if "surfaces" in data:
        text = "".join(
            f"# {key}\n{surface_to_csv(surface)}"
            for key, surface in data["surfaces"].items()
        )
    elif "series" in data:
        labels = [f"2^{n}" for n in data["size_bits"]]
        text = series_to_csv(data["series"], labels)
    elif "grid" in data:
        text = diff_grid_to_csv(data["grid"])
    else:
        raise ExperimentError(
            f"experiment {result.experiment_id!r} has no CSV-exportable "
            "data (only surfaces, series and difference grids export)"
        )
    from repro.runtime.durable import atomic_write_text

    atomic_write_text(path, text)
    print(f"[exported {result.experiment_id} data to {path}]")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
