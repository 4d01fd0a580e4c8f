"""Chaos harness: randomized fault matrices over parallel sweeps.

``repro chaos`` answers the question the unit tests cannot: does the
*composition* of worker re-dispatch, the serial fallback, and
recompute-on-miss result artifacts actually hold up under arbitrary
combinations of crashes, kills, pauses, and torn or corrupt writes?

The runner draws fault scenarios from a seeded catalog (every knob a
deterministic function of ``--seed``), executes the same micro sweep
under each, and asserts the invariants the pool promises:

* **completion** — the sweep finishes despite the injected faults
  (workers may die on every point; the serial fallback guarantees it);
* **bit identity** — the resulting surface is byte-for-byte identical
  to a fault-free serial run (faults may cost time, never results);

plus a post-mortem: a fault-free re-run over the same checkpoint dir
must print the identical surface (recomputing whatever a torn or
corrupt write damaged) and leave the directory with no error findings
from the result-store doctor.

Faults are delivered through ``REPRO_FAULT_SPEC``, which forked pool
workers inherit, so a scenario exercises exactly the code paths a
misbehaving deployment would.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.logging import get_logger
from repro.obs.metrics import counter, snapshot

#: (name, spec template) — ``{x}`` placeholders are filled from the
#: seeded rng per draw.
_TEMPLATES: Tuple[Tuple[str, str], ...] = (
    ("worker-crash-early", "exec.worker:raise@{nth_small}"),
    ("worker-crash-late", "exec.worker:raise@{nth_large}"),
    ("worker-interrupt", "exec.worker:interrupt@{nth_small}"),
    ("worker-kill", "exec.worker:kill@{nth_small}"),
    ("slow-worker", "exec.worker:delay({pause})@{nth_small}"),
    ("slow-poll", "exec.poll:delay({jitter})%{every}"),
    ("torn-put", "results.put:torn-write@{nth_small}"),
    ("corrupt-put", "results.put:corrupt@{nth_small}"),
    (
        "torn-put-plus-kill",
        "results.put:torn-write@{nth_small},exec.worker:kill@{nth_large}",
    ),
)


@dataclass(frozen=True)
class ChaosScenario:
    """One drawn scenario: a concrete fault spec."""

    index: int
    name: str
    fault_spec: str


@dataclass
class ScenarioResult:
    scenario: ChaosScenario
    ok: bool
    duration_s: float
    detail: str = ""
    faults_injected: int = 0


@dataclass
class ChaosReport:
    """Everything one ``repro chaos`` invocation observed."""

    seed: int
    workers: int
    scheme: str
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"chaos: seed={self.seed} workers={self.workers} "
            f"scheme={self.scheme} scenarios={len(self.results)}"
        ]
        for result in self.results:
            verdict = "ok" if result.ok else "FAIL"
            lines.append(
                f"  [{result.scenario.index:2d}] {verdict:4s} "
                f"{result.scenario.name:22s} {result.duration_s:6.2f}s "
                f"faults={result.faults_injected:3d} "
                f"spec={result.scenario.fault_spec}"
                + (f"  <- {result.detail}" if result.detail else "")
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"chaos: {sum(r.ok for r in self.results)}/"
            f"{len(self.results)} scenario(s) held the invariants "
            f"-> {verdict}"
        )
        return "\n".join(lines)


def draw_scenarios(seed: int, count: int) -> List[ChaosScenario]:
    """The first ``count`` scenarios of the seed's deterministic stream.

    The catalog is cycled in a seeded shuffle order with fresh
    parameter draws each pass, so ``--scenarios 24`` revisits templates
    with different timings rather than repeating itself.
    """
    rng = random.Random(seed)
    drawn: List[ChaosScenario] = []
    order: List[int] = []
    while len(drawn) < count:
        if not order:
            order = list(range(len(_TEMPLATES)))
            rng.shuffle(order)
        name, template = _TEMPLATES[order.pop(0)]
        spec = template.format(
            nth_small=rng.randint(1, 3),
            nth_large=rng.randint(4, 7),
            pause=round(rng.uniform(0.5, 0.9), 2),
            jitter=round(rng.uniform(0.02, 0.15), 2),
            every=rng.randint(2, 5),
        )
        drawn.append(ChaosScenario(index=len(drawn), name=name, fault_spec=spec))
    return drawn


def _surface_cells(surface) -> List[Tuple]:
    """Every field of every point — equality here is bit identity."""
    return [
        (n, p.col_bits, p.row_bits, p.misprediction_rate,
         p.aliasing_rate, p.first_level_miss_rate)
        for n, points in surface.tiers.items()
        for p in points
    ]


class _ScenarioEnv:
    """Scoped environment: the scenario's fault spec and no shared
    result store (every scenario must really compute its points)."""

    _KEYS = ("REPRO_FAULT_SPEC", "REPRO_RESULT_STORE")

    def __init__(self, scenario: Optional[ChaosScenario]):
        self.scenario = scenario
        self._saved: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "_ScenarioEnv":
        from repro.runtime.faults import clear_faults

        for key in self._KEYS:
            self._saved[key] = os.environ.pop(key, None)
        if self.scenario is not None:
            os.environ["REPRO_FAULT_SPEC"] = self.scenario.fault_spec
        clear_faults()  # drop any cached plan (and its hit counts)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:  # noqa: ANN001
        from repro.runtime.faults import clear_faults

        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        clear_faults()


def run_chaos(
    seed: int,
    scenarios: int,
    workers: int = 2,
    scheme: str = "gshare",
    length: int = 2_000,
    size_bits: Tuple[int, ...] = (4, 5),
    benchmark: str = "compress",
    on_scenario: Optional[Callable[[ScenarioResult], None]] = None,
) -> ChaosReport:
    """Run the seeded fault matrix; every scenario must hold the
    completion + bit-identity + clean-rerun invariants."""
    from repro.check.doctor import scan_result_store
    from repro.sim.sweep import sweep_tiers
    from repro.workloads.registry import make_workload

    log = get_logger("repro.exec.chaos")
    trace = make_workload(benchmark, length=length, seed=1)

    def sweep(env, checkpoint_dir=None, workers=1) -> List[Tuple]:
        with _ScenarioEnv(env):
            return _surface_cells(
                sweep_tiers(
                    scheme,
                    trace,
                    size_bits=list(size_bits),
                    checkpoint_dir=checkpoint_dir,
                    workers=workers,
                )
            )

    # The reference results: one fault-free serial sweep.
    baseline = sweep(None)

    report = ChaosReport(seed=seed, workers=workers, scheme=scheme)
    for scenario in draw_scenarios(seed, scenarios):
        counter("chaos.scenarios").inc()
        before = snapshot()["counters"]
        started = time.perf_counter()
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        failure = ""
        try:
            for phase, cells in (
                ("faulted run", sweep(scenario, checkpoint_dir, workers)),
                ("re-run", sweep(None, checkpoint_dir, workers)),
            ):
                if cells != baseline:
                    failure = (
                        f"{phase} diverged from serial baseline "
                        f"({len(cells)} vs {len(baseline)} cells)"
                    )
                    break
            else:
                errors = [
                    f
                    for f in scan_result_store(checkpoint_dir)
                    if f.severity == "error"
                ]
                if errors:
                    failure = (
                        "checkpoint dir not clean after re-run: "
                        + "; ".join(f.why for f in errors[:3])
                    )
        except Exception as exc:  # sweep must never die under chaos
            failure = f"sweep raised {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        after = snapshot()["counters"]
        result = ScenarioResult(
            scenario=scenario,
            ok=not failure,
            duration_s=time.perf_counter() - started,
            detail=failure,
            faults_injected=int(
                after.get("faults.injected", 0)
                - before.get("faults.injected", 0)
            ),
        )
        if failure:
            counter("chaos.failures").inc()
            log.warning(
                "chaos scenario %d (%s) failed: %s",
                scenario.index,
                scenario.name,
                failure,
            )
        report.results.append(result)
        if on_scenario is not None:
            on_scenario(result)
    return report
