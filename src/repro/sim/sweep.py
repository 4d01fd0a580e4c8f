"""Configuration sweeps: the paper's constant-size tiers.

For a budget of 2^n counters the paper simulates every split into 2^c
columns x 2^r rows with c + r = n; repeating that for n = 4 .. 15 gives
the surfaces of Figures 4, 5, 6 and 9. ``sweep_tiers`` runs exactly
that grid for one scheme over one trace.

At realistic trace lengths a full sweep is hours of work, so it is
resumable: give ``sweep_tiers`` a ``checkpoint_dir`` and every
completed point streams to an atomic on-disk journal
(:mod:`repro.runtime.checkpoint`); a re-run with the same
``(scheme, trace fingerprint, options)`` key picks up where the last
run stopped. SIGINT finishes the in-flight point, flushes the journal,
and exits cleanly; an optional ``deadline`` bounds the run the same
way.

Every point is one independent :func:`repro.sim.engine.simulate` call
over the whole trace, whether it runs serially here or in a worker.
``workers > 1`` shards the pending points across a pool of processes
coordinated through the same journal (see :mod:`repro.exec`) — results
are point-for-point identical to a serial run. ``plan_from_estimate``
prunes points the static dealiasing estimator predicts to be
uninteresting.
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


def _open_sweep_journal(
    checkpoint_dir: str,
    scheme: str,
    trace: BranchTrace,
    size_bits: Sequence[int],
    bht_entries: Optional[int],
    bht_assoc: int,
    row_bits_filter: Optional[Sequence[int]],
    resume: bool,
):
    """Create/resume the journal for this sweep's key."""
    from repro.runtime.checkpoint import CheckpointJournal, sweep_key
    from repro.runtime.deadline import retry_with_backoff

    key = sweep_key(
        scheme,
        trace.fingerprint(),
        size_bits,
        bht_entries=bht_entries,
        bht_assoc=bht_assoc,
        row_bits_filter=row_bits_filter,
    )
    # The run ledger stamps its entry with every sweep key the run
    # touched, so ledger rows can be joined back to journals.
    from repro.obs.ledger import note_sweep_key

    note_sweep_key(key)
    try:
        retry_with_backoff(
            lambda: os.makedirs(checkpoint_dir, exist_ok=True)
        )
    except OSError as exc:
        raise CheckpointError(
            f"cannot create checkpoint dir {checkpoint_dir!r}: {exc}"
        ) from exc
    safe_name = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in trace.name
    )
    path = os.path.join(
        checkpoint_dir, f"{scheme}-{safe_name}-{key}.journal"
    )
    return CheckpointJournal.open(path, key, resume=resume)


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
    unchanged, so pruned and full runs share one resumable journal.
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
    shard_size: Optional[int] = None,
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
        Stream completed points to a journal under this directory and
        (with ``resume=True``, the default) restore any points a prior
        run of the same sweep already finished.
    paranoid:
        Cross-check vectorized vs reference engines per point.
    deadline:
        Optional :class:`repro.runtime.deadline.Deadline`; when it
        expires the sweep flushes its journal and raises
        :class:`~repro.runtime.deadline.DeadlineExceeded`.
    on_point:
        Optional progress hook ``on_point(point, done, total)`` called
        after every point lands in the surface — checkpoint-restored
        points included, so ``done`` always counts true progress
        against ``total`` (the sweep's full point count). The CLI's
        ``--progress`` heartbeat rides on this.
    precheck:
        Statically verify every planned spec (``repro check configs``
        semantics) before the first point simulates, so an unsound
        configuration fails in milliseconds instead of mid-sweep.
        The CLI exposes ``--no-precheck`` to skip it.
    workers:
        Processes to shard the sweep's points across. The default 1
        runs the points serially in this process; ``workers > 1`` delegates
        pending points to :mod:`repro.exec` (shard leases over the
        checkpoint journal), producing point-for-point identical
        results. Without a ``checkpoint_dir`` a parallel run
        coordinates through an ephemeral journal discarded at the end.
    shard_size:
        Points per shard for the parallel executor (default: sized so
        each worker sees several shards, for rebalancing).
    plan_from_estimate:
        When set, skip points whose statically predicted dealiasing
        delta (:mod:`repro.check.estimator`) is below this threshold;
        the pruned count is logged and counted, never silent.
    dashboard:
        Render the live fleet table on stderr while workers run
        (``repro run --dashboard``); ignored for serial sweeps.
        Results are unaffected.
    use_cache:
        Consult the content-addressed result store
        (:mod:`repro.serve.results`, enabled by pointing
        ``$REPRO_RESULT_STORE`` at a directory) before simulating each
        point, and publish freshly computed points back into it —
        ``cache.hits``/``cache.misses`` count the difference, and the
        one-shot and served paths share one cache. The CLI exposes
        ``--no-cache`` to skip both sides. Paranoid runs never serve
        from cache (the point of paranoid is to re-run the engines).
    """
    from repro.runtime.deadline import CooperativeInterrupt
    from repro.runtime.faults import maybe_inject

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
    journal = None
    restored: Dict[Tuple[int, int], TierPoint] = {}
    ephemeral_dir: Optional[str] = None
    if checkpoint_dir is None and workers > 1:
        # Parallel runs always coordinate through a journal; without a
        # caller-provided directory use a throwaway one.
        import tempfile

        ephemeral_dir = tempfile.mkdtemp(prefix="repro-sweep-")
        checkpoint_dir = ephemeral_dir
    if checkpoint_dir is not None:
        journal = _open_sweep_journal(
            checkpoint_dir,
            scheme,
            trace,
            size_bits,
            bht_entries,
            bht_assoc,
            row_bits_filter,
            resume,
        )
        restored = {(n, p.row_bits): p for n, p in journal.points}

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

    # Satellite cache: overlay memoized points from the result store on
    # top of whatever the journal restored, then journal them so the
    # next resume of this sweep does not even need the store.
    result_store = None
    if use_cache and not paranoid:
        from repro.serve.results import ResultStore

        result_store = ResultStore.from_env()
    if result_store is not None:
        from repro.serve.results import point_key

        fingerprint = trace.fingerprint()
        served: List[Tuple[int, TierPoint]] = []
        for n, row_bits in plan:
            if (n, row_bits) in restored:
                continue
            cached = result_store.get(
                point_key(
                    scheme,
                    fingerprint,
                    n,
                    row_bits,
                    bht_entries=bht_entries,
                    bht_assoc=bht_assoc,
                )
            )
            if cached is None:
                continue
            restored[(n, row_bits)] = cached
            served.append((n, cached))
        if journal is not None and served:
            for n, point in served:
                journal.append(n, point, flush=False)
            journal.flush()
    #: Points that arrived from the journal or the store — everything
    #: else was simulated this run and gets published back at the end.
    prefilled = set(restored)
    total = len(plan)
    completed = 0

    surface = TierSurface(scheme=scheme, trace_name=trace.name)
    try:
        with CooperativeInterrupt() as interrupt, span(
            "sweep_tiers", scheme=scheme, trace=trace.name, points=total
        ):
            if workers > 1:
                from repro.exec.parallel import run_parallel_sweep

                pending = []
                for n, row_bits in plan:
                    done = restored.get((n, row_bits))
                    if done is not None:
                        surface.add(n, done)
                        counter("sweep.points_restored").inc()
                        completed += 1
                        if on_point is not None:
                            on_point(done, completed, total)
                    else:
                        pending.append((n, row_bits))
                if pending:
                    run_parallel_sweep(
                        scheme,
                        trace,
                        pending,
                        journal,
                        surface,
                        interrupt,
                        workers=workers,
                        shard_size=shard_size,
                        bht_entries=bht_entries,
                        bht_assoc=bht_assoc,
                        engine=engine,
                        paranoid=paranoid,
                        deadline=deadline,
                        on_point=on_point,
                        completed=completed,
                        total=total,
                        dashboard=dashboard,
                    )
                # Workers land points in completion order; re-impose
                # the serial plan order so surfaces are identical.
                tier_order: Dict[int, None] = {}
                for n, _ in plan:
                    tier_order.setdefault(n)
                surface.tiers = {
                    n: sorted(
                        surface.tiers[n], key=lambda p: p.row_bits
                    )
                    for n in tier_order
                    if n in surface.tiers
                }
            else:
                for n, row_bits in plan:
                    done = restored.get((n, row_bits))
                    if done is not None:
                        surface.add(n, done)
                        counter("sweep.points_restored").inc()
                        completed += 1
                        if on_point is not None:
                            on_point(done, completed, total)
                        continue
                    if deadline is not None:
                        deadline.check(f"sweep_tiers({scheme})")
                    interrupt.checkpoint()
                    maybe_inject("sweep.point")
                    spec = spec_for_point(
                        scheme,
                        col_bits=n - row_bits,
                        row_bits=row_bits,
                        bht_entries=bht_entries,
                        bht_assoc=bht_assoc,
                    )
                    started = time.perf_counter()
                    with span(
                        "sweep.point", scheme=scheme, n=n, row_bits=row_bits
                    ):
                        result = simulate(
                            spec, trace, engine=engine, paranoid=paranoid
                        )
                    histogram("sweep.point_s").observe(
                        time.perf_counter() - started
                    )
                    counter("sweep.points_computed").inc()
                    point = TierPoint(
                        col_bits=n - row_bits,
                        row_bits=row_bits,
                        misprediction_rate=result.misprediction_rate,
                        first_level_miss_rate=result.first_level_miss_rate,
                    )
                    surface.add(n, point)
                    if journal is not None:
                        journal.append(n, point)
                    completed += 1
                    if on_point is not None:
                        on_point(point, completed, total)
    except BaseException:
        # Interrupt, deadline, engine error: persist completed points
        # so the re-run resumes instead of restarting.
        if journal is not None:
            journal.flush()
        if ephemeral_dir is not None:
            import shutil

            shutil.rmtree(ephemeral_dir, ignore_errors=True)
        raise
    if journal is not None:
        journal.flush()
    if ephemeral_dir is not None and journal is not None:
        import shutil

        journal.discard()
        shutil.rmtree(ephemeral_dir, ignore_errors=True)
    if result_store is not None:
        from repro.serve.results import point_key

        for n, points in surface.tiers.items():
            for point in points:
                if (n, point.row_bits) in prefilled:
                    continue
                result_store.put(
                    point_key(
                        scheme,
                        fingerprint,
                        n,
                        point.row_bits,
                        bht_entries=bht_entries,
                        bht_assoc=bht_assoc,
                    ),
                    n,
                    point,
                )
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
