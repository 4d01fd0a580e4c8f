"""Configuration sweeps: the paper's constant-size tiers.

For a budget of 2^n counters the paper simulates every split into 2^c
columns x 2^r rows with c + r = n; repeating that for n = 4 .. 15 gives
the surfaces of Figures 4, 5, 6 and 9. ``sweep_tiers`` runs exactly
that grid for one scheme over one trace.

Every point is a deterministic function of scheme, trace and geometry,
addressed by :func:`repro.serve.results.point_key`, and one
independent :func:`compute_point` call over the whole trace. That
makes sweeps resumable without a journal: give ``sweep_tiers`` a
``checkpoint_dir`` and every finished point is written to a
:class:`~repro.serve.results.ResultStore` there the moment it lands; a
re-run of the same sweep restores those points as cache hits and
simulates only the rest. SIGINT finishes the in-flight point and exits
cleanly; an optional ``deadline`` bounds the run the same way.

``workers > 1`` runs the pending points on a pool of processes (see
:mod:`repro.exec.parallel`); this process stays the only writer of
finished points, and results are point-for-point identical to a serial
run. ``plan_from_estimate`` prunes points the static dealiasing
estimator predicts to be uninteresting.
"""

from __future__ import annotations

import os
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.predictors.specs import PER_ADDRESS_SCHEMES, PredictorSpec
from repro.runtime.deadline import retry_with_backoff
from repro.runtime.faults import maybe_inject
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


#: Retries of a point after a transient engine failure (``RuntimeError``
#: or ``OSError``) before the failure propagates.
POINT_RETRIES = 2


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
    """Simulate one tier point, retrying transient failures.

    The one definition of a point's computation: the serial sweep, the
    pool workers and the pool's serial fallback all call it. The
    ``sweep.point`` fault site fires inside the retried callable, so an
    injected ``raise`` behaves like a transient engine crash, while an
    injected ``interrupt`` is never retried.
    """
    spec = spec_for_point(
        scheme,
        col_bits=n - row_bits,
        row_bits=row_bits,
        bht_entries=bht_entries,
        bht_assoc=bht_assoc,
    )

    def _simulate_once():
        maybe_inject("sweep.point")
        return simulate(spec, trace, engine=engine, paranoid=paranoid)

    started = time.perf_counter()
    with span("sweep.point", scheme=scheme, n=n, row_bits=row_bits):
        result = retry_with_backoff(
            _simulate_once,
            retries=POINT_RETRIES,
            retryable=(RuntimeError, OSError),
        )
    histogram("sweep.point_s").observe(time.perf_counter() - started)
    counter("sweep.points_computed").inc()
    return TierPoint(
        col_bits=n - row_bits,
        row_bits=row_bits,
        misprediction_rate=result.misprediction_rate,
        first_level_miss_rate=result.first_level_miss_rate,
    )


def _point_stores(
    checkpoint_dir: Optional[str], resume: bool, use_cache: bool
):
    """``(stores, readable)``: where finished points go, and which of
    those stores are consulted before simulating.

    ``checkpoint_dir`` is a :class:`~repro.serve.results.ResultStore`
    read only under ``resume``; ``$REPRO_RESULT_STORE`` is read and
    written whenever ``use_cache`` holds.
    """
    from repro.serve.results import ResultStore

    stores = []
    readable = []
    if checkpoint_dir is not None:
        try:
            os.makedirs(checkpoint_dir, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint dir {checkpoint_dir!r}: {exc}"
            ) from exc
        store = ResultStore(checkpoint_dir)
        stores.append(store)
        if resume:
            readable.append(store)
    if use_cache:
        store = ResultStore.from_env()
        if store is not None:
            stores.append(store)
            readable.append(store)
    return stores, readable


def _prune_plan(
    scheme: str,
    trace: BranchTrace,
    plan: List[Tuple[int, int]],
    threshold: float,
    bht_entries: Optional[int],
    bht_assoc: int,
) -> List[Tuple[int, int]]:
    """Drop points whose predicted dealiasing delta is under ``threshold``.

    The ``--plan-from-estimate`` planner: the static estimator
    (:mod:`repro.check.estimator`) prices every planned split, and
    points predicted to gain less than ``threshold`` misprediction
    rate from dealiasing are skipped. Never silent: the pruned count is
    logged (warning level — the sweep's coverage genuinely shrank) and
    counted in ``sweep.points_pruned``. The sweep key is deliberately
    unchanged, so pruned and full runs share their stored points.
    """
    from repro.aliasing.weights import (
        branch_weights_from_trace,
        stream_taken_rate,
    )
    from repro.check.estimator import predict_dealias_delta
    from repro.obs.logging import get_logger

    weights = branch_weights_from_trace(trace)
    rate = stream_taken_rate(weights)
    kept: List[Tuple[int, int]] = []
    with span("sweep.plan_estimate", scheme=scheme, points=len(plan)):
        for n, row_bits in plan:
            spec = spec_for_point(
                scheme,
                col_bits=n - row_bits,
                row_bits=row_bits,
                bht_entries=bht_entries,
                bht_assoc=bht_assoc,
            )
            delta = predict_dealias_delta(spec, weights, rate)
            if delta.predicted_delta < threshold:
                continue
            kept.append((n, row_bits))
    pruned = len(plan) - len(kept)
    counter("sweep.points_pruned").inc(pruned)
    get_logger("repro.sim.sweep").warning(
        "plan-from-estimate pruned %d of %d points below predicted "
        "delta %g (%d remain)",
        pruned,
        len(plan),
        threshold,
        len(kept),
    )
    return kept


def sweep_tiers(
    scheme: str,
    trace: BranchTrace,
    size_bits: Iterable[int] = PAPER_SIZE_BITS,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    row_bits_filter: Optional[Sequence[int]] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    paranoid: bool = False,
    deadline=None,
    on_point: Optional[Callable[[TierPoint, int, int], None]] = None,
    precheck: bool = True,
    workers: int = 1,
    plan_from_estimate: Optional[float] = None,
    dashboard: bool = False,
    use_cache: bool = True,
) -> TierSurface:
    """Simulate every (columns x rows) split of every requested tier.

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
        A :class:`~repro.serve.results.ResultStore` directory: every
        computed point is written there the moment it lands, and (with
        ``resume=True``, the default) points already there are restored
        instead of simulated.
    paranoid:
        Cross-check vectorized vs reference engines per point.
    deadline:
        Optional :class:`repro.runtime.deadline.Deadline`; when it
        expires the sweep stops at a point boundary and raises
        :class:`~repro.runtime.deadline.DeadlineExceeded`.
    on_point:
        Optional progress hook ``on_point(point, done, total)`` called
        after every point lands in the surface — restored points
        included, so ``done`` always counts true progress against
        ``total`` (the sweep's full point count). The CLI's
        ``--progress`` heartbeat rides on this.
    precheck:
        Statically verify every planned spec (``repro check configs``
        semantics) before the first point simulates, so an unsound
        configuration fails in milliseconds instead of mid-sweep.
        The CLI exposes ``--no-precheck`` to skip it.
    workers:
        Processes to run the sweep's points on. The default 1 runs the
        points serially in this process; ``workers > 1`` hands pending
        points to the worker pool (:mod:`repro.exec.parallel`),
        producing point-for-point identical results.
    plan_from_estimate:
        When set, skip points whose statically predicted dealiasing
        delta (:mod:`repro.check.estimator`) is below this threshold;
        the pruned count is logged and counted, never silent.
    dashboard:
        Render the live fleet table on stderr while workers run
        (``repro run --dashboard``); ignored for serial sweeps.
        Results are unaffected.
    use_cache:
        Consult the content-addressed result store named by
        ``$REPRO_RESULT_STORE`` before simulating each point, and write
        freshly computed points back into it — ``cache.hits`` and
        ``cache.misses`` count the difference, and the one-shot and
        served paths share one cache. The CLI exposes ``--no-cache`` to
        skip both sides. Paranoid runs never serve from this cache (the
        point of paranoid is to re-run the engines).

    SIGINT and deadline expiry stop the sweep at a point boundary; every
    point that landed before then is already in the stores, so a re-run
    resumes from them.
    """
    from repro.obs.profile import phase
    from repro.runtime.deadline import CooperativeInterrupt
    from repro.serve.results import point_key

    size_bits = list(size_bits)
    if workers < 1:
        raise ConfigurationError(
            f"workers must be >= 1, got {workers!r}"
        )
    if precheck:
        from repro.check.configs import verify_sweep_plan

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
    if plan_from_estimate is not None:
        plan = _prune_plan(
            scheme, trace, plan, plan_from_estimate, bht_entries, bht_assoc
        )

    stores, readable = _point_stores(
        checkpoint_dir, resume, use_cache and not paranoid
    )
    fingerprint = trace.fingerprint()
    if checkpoint_dir is not None:
        # The run ledger stamps its entry with every sweep key the run
        # touched, so ledger rows can be joined back to checkpoints.
        from repro.obs.ledger import note_sweep_key
        from repro.runtime.durable import sweep_key

        note_sweep_key(
            sweep_key(
                scheme,
                fingerprint,
                size_bits,
                bht_entries=bht_entries,
                bht_assoc=bht_assoc,
                row_bits_filter=row_bits_filter,
            )
        )
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
        if stores:
            try:
                with phase("persist"):
                    for store in stores:
                        store.put(key, n, point)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot persist sweep point {key}: {exc}"
                ) from exc
        land(n, point)

    pending: List[Tuple[int, int]] = []
    for n, row_bits in plan:
        point = None
        for store in readable:
            point = store.get(keys[(n, row_bits)])
            if point is not None:
                break
        if point is None:
            pending.append((n, row_bits))
            continue
        counter("sweep.points_restored").inc()
        land(n, point)

    with CooperativeInterrupt() as interrupt, span(
        "sweep_tiers", scheme=scheme, trace=trace.name, points=total
    ):

        def poll() -> None:
            if deadline is not None:
                deadline.check(f"sweep_tiers({scheme})")
            interrupt.checkpoint()

        if workers > 1 and pending:
            from repro.exec.parallel import PointTask, run_points
            from repro.obs.dashboard import FleetDashboard

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
                poll=poll,
                fleet=(
                    FleetDashboard(f"{scheme} x{workers}")
                    if dashboard
                    else None
                ),
            )
            if errors:
                raise next(iter(errors.values()))
        else:
            for n, row_bits in pending:
                poll()
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

def sweep_shapes(
    scheme: str,
    trace: BranchTrace,
    shapes: Sequence[tuple],
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    paranoid: bool = False,
) -> List[TierPoint]:
    """Simulate an explicit list of (col_bits, row_bits) shapes."""
    points = []
    for col_bits, row_bits in shapes:
        spec = spec_for_point(
            scheme,
            col_bits=col_bits,
            row_bits=row_bits,
            bht_entries=bht_entries,
            bht_assoc=bht_assoc,
        )
        result = simulate(spec, trace, engine=engine, paranoid=paranoid)
        points.append(
            TierPoint(
                col_bits=col_bits,
                row_bits=row_bits,
                misprediction_rate=result.misprediction_rate,
                first_level_miss_rate=result.first_level_miss_rate,
            )
        )
    return points
