"""Benchmark the real-program analysis pipeline end to end.

Profiles the measured corpus (runtime branch recording), scores it
(`analyze_trace`), simulates gshare over the same trace, and asserts
the headline property of the new subsystem: the information-theoretic
ranking tracks actual simulated mispredictions.
"""

from conftest import BENCH_LENGTH, BENCH_SEED

from repro.analysis.branch_report import (
    branch_breakdown,
    predictability_alignment,
)
from repro.cfg.predictability import analyze_trace
from repro.predictors.factory import make_predictor_spec
from repro.sim.engine import simulate
from repro.workloads.registry import clear_cache, make_workload

#: Profiling real bytecode is orders of magnitude slower than reading
#: a synthetic profile; a fixed fraction of the bench length keeps the
#: bench proportionate without a second env knob.
ANALYZE_LENGTH = max(5_000, BENCH_LENGTH // 6)


def bench_analyze(benchmark):
    names = ["real_quicksort", "real_wordcount", "real_collatz"]

    def pipeline():
        rows = []
        for name in names:
            trace = make_workload(
                name, length=ANALYZE_LENGTH, seed=BENCH_SEED, cache=False
            )
            report = analyze_trace(trace)
            result = simulate(
                make_predictor_spec("gshare", rows=256, cols=4), trace
            )
            rho = predictability_alignment(
                branch_breakdown(result, trace),
                {b.pc: b.residual_entropy for b in report.branches},
            )
            rows.append((name, report, result, rho))
        return rows

    clear_cache()
    rows = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    print()
    for name, report, result, rho in rows:
        shares = report.class_shares()
        print(
            f"{name:16s} H={report.weighted_entropy:.3f}b "
            f"residual={report.weighted_residual_entropy:.3f}b "
            f"mispredict={result.misprediction_rate:.2%} "
            f"align={rho:+.2f} "
            f"b/c/h={shares['biased']:.0%}/{shares['correlated']:.0%}/"
            f"{shares['hard']:.0%}"
        )
    for name, _report, _result, rho in rows:
        assert rho > 0.3, (name, rho)
