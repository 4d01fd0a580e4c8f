"""Configuration sweeps: the paper's constant-size tiers.

For a budget of 2^n counters the paper simulates every split into 2^c
columns x 2^r rows with c + r = n; repeating that for n = 4 .. 15 gives
the surfaces of Figures 4, 5, 6 and 9. ``sweep_tiers`` runs exactly
that grid for one scheme over one trace.

Every point is a deterministic function of scheme, trace and geometry,
addressed by :func:`repro.serve.results.point_key`, and one
independent :func:`compute_point` call over the whole trace. That
makes sweeps resumable without a journal: every finished point is
written to the run's one :class:`~repro.serve.results.ResultStore`
(``checkpoint_dir``, else ``$REPRO_RESULT_STORE``) the moment it lands;
a re-run of the same sweep restores those points as cache hits and
simulates only the rest. SIGINT finishes the in-flight point and exits
cleanly.

``workers > 1`` runs the pending points on a pool of processes (see
:mod:`repro.exec.parallel`); this process stays the only writer of
finished points, and results are point-for-point identical to a serial
run.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.predictors.specs import PER_ADDRESS_SCHEMES, PredictorSpec
from repro.sim.engine import simulate
from repro.sim.results import TierPoint, TierSurface
from repro.traces.trace import BranchTrace

#: The paper's tier range: 16 .. 32768 counters.
PAPER_SIZE_BITS = range(4, 16)

#: Schemes sweep_tiers accepts (two-level row/column families).
SWEEPABLE_SCHEMES = ("gas", "gshare", "path", "pas", "sas")


def spec_for_point(
    scheme: str,
    col_bits: int,
    row_bits: int,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    counter_bits: int = 2,
) -> PredictorSpec:
    """The spec for one tier point.

    The ``row_bits = 0`` edge of every tier is the address-indexed
    predictor (the leftmost bar of the paper's Figure 4/6/9 tiers);
    it has no first level, so the BHT options do not apply there.
    """
    if scheme not in SWEEPABLE_SCHEMES:
        raise ConfigurationError(
            f"sweeps cover {SWEEPABLE_SCHEMES}, not {scheme!r}"
        )
    if row_bits == 0:
        return PredictorSpec(
            scheme="bimodal", cols=1 << col_bits, counter_bits=counter_bits
        )
    kwargs = {}
    if scheme in PER_ADDRESS_SCHEMES:
        kwargs = {"bht_entries": bht_entries, "bht_assoc": bht_assoc}
    elif scheme == "sas":
        # Untagged per-set table: entries only, no associativity.
        kwargs = {"bht_entries": bht_entries, "bht_assoc": 1}
    elif bht_entries is not None:
        raise ConfigurationError(
            f"bht_entries does not apply to scheme {scheme!r}"
        )
    if scheme == "path":
        # Nair records 2 bits per target; a 1-bit row index can only
        # hold a 1-bit chunk.
        kwargs = {"path_bits_per_branch": min(2, row_bits)}
    return PredictorSpec(
        scheme=scheme,
        rows=1 << row_bits,
        cols=1 << col_bits,
        counter_bits=counter_bits,
        **kwargs,
    )


def compute_point(
    scheme: str,
    trace: BranchTrace,
    n: int,
    row_bits: int,
    *,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    paranoid: bool = False,
) -> TierPoint:
    """Simulate one tier point.

    The one definition of a point's computation: the serial sweep, the
    pool workers and the pool's serial fallback all call it.
    """
    spec = spec_for_point(
        scheme,
        col_bits=n - row_bits,
        row_bits=row_bits,
        bht_entries=bht_entries,
        bht_assoc=bht_assoc,
    )
    result = simulate(spec, trace, engine=engine, paranoid=paranoid)
    counter("sweep.points_computed").inc()
    return TierPoint(
        col_bits=n - row_bits,
        row_bits=row_bits,
        misprediction_rate=result.misprediction_rate,
        first_level_miss_rate=result.first_level_miss_rate,
    )


def _result_store(checkpoint_dir: Optional[str]):
    """The run's one :class:`~repro.serve.results.ResultStore`, or None.

    ``checkpoint_dir`` names it when given; otherwise
    ``$REPRO_RESULT_STORE`` does. Never both.
    """
    from repro.serve.results import ResultStore

    if checkpoint_dir is None:
        return ResultStore.from_env()
    try:
        os.makedirs(checkpoint_dir, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(
            f"cannot create checkpoint dir {checkpoint_dir!r}: {exc}"
        ) from exc
    return ResultStore(checkpoint_dir)


def sweep_tiers(
    scheme: str,
    trace: BranchTrace,
    size_bits: Iterable[int] = PAPER_SIZE_BITS,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    row_bits_filter: Optional[Sequence[int]] = None,
    checkpoint_dir: Optional[str] = None,
    paranoid: bool = False,
    on_point: Optional[Callable[[TierPoint, int, int], None]] = None,
    workers: int = 1,
    use_cache: bool = True,
) -> TierSurface:
    """Simulate every (columns x rows) split of every requested tier.

    Every planned spec is first verified statically (``repro check
    configs`` semantics), so an unsound configuration fails in
    milliseconds instead of mid-sweep.

    Parameters
    ----------
    scheme:
        One of :data:`SWEEPABLE_SCHEMES`: ``gas``, ``gshare``,
        ``path``, ``pas`` or ``sas``.
    size_bits:
        Tier exponents n (2^n counters each); the paper uses 4..15.
    bht_entries / bht_assoc:
        First-level geometry for ``pas`` (None = perfect histories)
        and the per-set table size for ``sas``.
    row_bits_filter:
        Restrict each tier to these row exponents (used by difference
        grids and quick tests); default sweeps the full tier.
    checkpoint_dir:
        The directory of the run's
        :class:`~repro.serve.results.ResultStore`. Without it,
        ``$REPRO_RESULT_STORE`` names the store (if set). Every computed
        point is written to the store the moment it lands.
    paranoid:
        Cross-check vectorized vs reference engines per point. A
        paranoid sweep reads no point from the store.
    on_point:
        Optional progress hook ``on_point(point, done, total)`` called
        after every point lands in the surface — restored points
        included, so ``done`` always counts true progress against
        ``total`` (the sweep's full point count). The CLI's
        ``--progress`` heartbeat rides on this.
    workers:
        Processes to run the sweep's points on. The default 1 runs the
        points serially in this process; ``workers > 1`` hands pending
        points to the worker pool (:mod:`repro.exec.parallel`),
        producing point-for-point identical results.
    use_cache:
        Read each planned point from the store before simulating it
        (``cache.hits``/``cache.misses`` count the difference). False
        simulates every point; computed points are still written. The
        CLI exposes ``--no-cache``.

    SIGINT stops the sweep at a point boundary; every point that landed
    before then is already in the store, so a re-run resumes from it.
    """
    from repro.check.configs import verify_sweep_plan
    from repro.runtime.interrupt import CooperativeInterrupt
    from repro.serve.results import point_key

    size_bits = list(size_bits)
    if workers < 1:
        raise ConfigurationError(
            f"workers must be >= 1, got {workers!r}"
        )
    with span("check.configs", scheme=scheme, trace=trace.name):
        findings = verify_sweep_plan(
            scheme,
            size_bits,
            bht_entries=bht_entries,
            bht_assoc=bht_assoc,
            row_bits_filter=row_bits_filter,
        )
    problems = [f for f in findings if f.severity != "info"]
    counter("check.findings").inc(len(problems))
    blocking = [f for f in problems if f.severity == "error"]
    if blocking:
        detail = "; ".join(f.render() for f in blocking[:3])
        more = len(blocking) - 3
        if more > 0:
            detail += f"; ... {more} more"
        raise ConfigurationError(
            f"sweep precheck rejected {len(blocking)} planned "
            f"point(s) before simulation: {detail}"
        )

    plan = [
        (n, row_bits)
        for n in size_bits
        for row_bits in range(n + 1)
        if row_bits_filter is None or row_bits in row_bits_filter
    ]
    store = _result_store(checkpoint_dir)
    readable = store is not None and use_cache and not paranoid
    fingerprint = trace.fingerprint()
    keys = {
        (n, row_bits): point_key(
            scheme,
            fingerprint,
            n,
            row_bits,
            bht_entries=bht_entries,
            bht_assoc=bht_assoc,
        )
        for n, row_bits in plan
    }
    total = len(plan)
    completed = 0
    surface = TierSurface(scheme=scheme, trace_name=trace.name)

    def land(n: int, point: TierPoint) -> None:
        nonlocal completed
        surface.add(n, point)
        completed += 1
        if on_point is not None:
            on_point(point, completed, total)

    def persist(n: int, point: TierPoint) -> None:
        key = keys[(n, point.row_bits)]
        if store is not None:
            try:
                with span("persist"):
                    store.put(key, n, point)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot persist sweep point {key}: {exc}"
                ) from exc
        land(n, point)

    pending: List[Tuple[int, int]] = []
    for n, row_bits in plan:
        point = store.get(keys[(n, row_bits)]) if readable else None
        if point is None:
            pending.append((n, row_bits))
            continue
        counter("sweep.points_restored").inc()
        land(n, point)

    with CooperativeInterrupt() as interrupt, span(
        "sweep_tiers", scheme=scheme, trace=trace.name, points=total
    ):
        if workers > 1 and pending:
            from repro.exec.parallel import PointTask, run_points

            tasks = [
                PointTask(
                    keys[(n, row_bits)],
                    scheme,
                    trace,
                    n,
                    row_bits,
                    bht_entries=bht_entries,
                    bht_assoc=bht_assoc,
                )
                for n, row_bits in pending
            ]
            errors = run_points(
                tasks,
                lambda task, point: persist(task.n, point),
                workers=workers,
                engine=engine,
                paranoid=paranoid,
                poll=interrupt.checkpoint,
            )
            if errors:
                raise next(iter(errors.values()))
        else:
            for n, row_bits in pending:
                interrupt.checkpoint()
                persist(
                    n,
                    compute_point(
                        scheme,
                        trace,
                        n,
                        row_bits,
                        bht_entries=bht_entries,
                        bht_assoc=bht_assoc,
                        engine=engine,
                        paranoid=paranoid,
                    ),
                )
    # Restored and pooled points land out of plan order; re-impose it so
    # every surface is identical to an uninterrupted serial run's.
    tier_order: Dict[int, None] = dict.fromkeys(n for n, _ in plan)
    surface.tiers = {
        n: sorted(surface.tiers[n], key=lambda p: p.row_bits)
        for n in tier_order
        if n in surface.tiers
    }
    return surface
