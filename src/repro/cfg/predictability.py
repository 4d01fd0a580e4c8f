"""Per-branch predictability analysis of a branch trace.

The paper's correlation story is a claim about *information*: a
two-level predictor wins exactly where a branch's outcome shares mutual
information with recent history. This module measures that directly on
any :class:`~repro.traces.trace.BranchTrace` — synthetic or profiled
from a real program:

* **outcome entropy** ``H(X)`` — the Bernoulli entropy of the branch's
  taken rate, the loss ceiling for a branch with independent outcomes;
* **mutual information** ``I(X; H_k)`` against the k-bit *global*
  history (outcomes of all branches) and the k-bit *local* history
  (the branch's own outcomes) — how much of that entropy history can
  in principle remove, the quantity the *Non-Predictability of
  Mispredicted Branches* line of work ranks branches by;
* **correlation sparsity** — how many of the k history bit positions
  individually carry information, and how few history contexts cover
  90% of a branch's executions; sparse correlation is what lets small
  second-level tables work at all.

The result is a :class:`PredictabilityReport` that renders as a table,
as JSON, and as ``repro check``-style findings: "hard" branches (high
residual entropy ``H(X | history)`` at meaningful execution share) are
warnings — no history-indexed scheme can learn them — while correlated
and biased populations are informational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.check.findings import Finding
from repro.errors import AnalysisError
from repro.sim.vectorized import global_history, pc_ids, run_history
from repro.traces.stats import outcome_entropy
from repro.traces.trace import BranchTrace

#: Default history depth (bits) for the mutual-information estimates.
DEFAULT_HISTORY_BITS = 8

#: Per-bit mutual information below this is noise, not correlation.
INFORMATIVE_BIT_THRESHOLD = 0.01

#: A branch is "hard" when history recovers less than this share of its
#: outcome entropy.
RECOVERY_FLOOR = 0.25

#: Entropy below which a branch is simply biased (a static or bimodal
#: predictor already captures it).
BIASED_ENTROPY_CEILING = 0.30

#: Findings are only raised for branches with at least this share of
#: the dynamic stream — the paper's "handle the frequent cases well".
HOT_SHARE = 0.02


def _entropy_of_counts(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of an empirical count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _conditional_entropy(
    contexts: np.ndarray, outcomes: np.ndarray, num_contexts: int
) -> float:
    """``H(outcome | context)`` from parallel context/outcome arrays."""
    joint = np.bincount(
        contexts.astype(np.int64) * 2 + outcomes.astype(np.int64),
        minlength=2 * num_contexts,
    ).reshape(-1, 2)
    row_totals = joint.sum(axis=1)
    n = row_totals.sum()
    if n == 0:
        return 0.0
    hcond = 0.0
    active = np.flatnonzero(row_totals)
    for row in active:
        hcond += (row_totals[row] / n) * _entropy_of_counts(joint[row])
    return float(hcond)


@dataclass(frozen=True)
class BranchPredictability:
    """Information-theoretic scorecard of one static branch."""

    pc: int
    executions: int
    taken_rate: float
    entropy: float  # H(X), bits
    global_mi: float  # I(X; k-bit global history)
    local_mi: float  # I(X; k-bit local history)
    global_cond_entropy: float  # H(X | global history)
    local_cond_entropy: float  # H(X | local history)
    informative_bits: int  # global-history positions with signal
    context_coverage: int  # contexts covering 90% of executions

    @property
    def best_mi(self) -> float:
        return max(self.global_mi, self.local_mi)

    @property
    def residual_entropy(self) -> float:
        """Entropy no k-bit history (global or local) removes."""
        return min(self.global_cond_entropy, self.local_cond_entropy)

    @property
    def klass(self) -> str:
        """``biased`` / ``correlated`` / ``hard``.

        Biased branches barely vary; correlated ones vary but history
        explains most of the variation; hard ones vary and history
        recovers under :data:`RECOVERY_FLOOR` of the entropy — the
        population whose mispredictions no table geometry fixes.
        """
        if self.entropy < BIASED_ENTROPY_CEILING:
            return "biased"
        if self.best_mi >= RECOVERY_FLOOR * self.entropy:
            return "correlated"
        return "hard"


@dataclass(frozen=True)
class PredictabilityReport:
    """Every branch of one trace, scored; hottest first."""

    trace_name: str
    dynamic_branches: int
    history_bits: int
    branches: Tuple[BranchPredictability, ...]

    def _weighted(self, values: List[float]) -> float:
        weights = [b.executions for b in self.branches]
        total = sum(weights)
        if total == 0:
            return 0.0
        return sum(v * w for v, w in zip(values, weights)) / total

    @property
    def weighted_entropy(self) -> float:
        """Execution-weighted mean outcome entropy (bits/branch)."""
        return self._weighted([b.entropy for b in self.branches])

    @property
    def weighted_residual_entropy(self) -> float:
        """Execution-weighted mean of the post-history residual."""
        return self._weighted(
            [b.residual_entropy for b in self.branches]
        )

    @property
    def correlation_sparsity(self) -> float:
        """Execution-weighted share of history bits carrying signal.

        Near 0 means the correlations that exist live in very few bit
        positions (sparse — small history depths suffice); near 1 means
        information is spread across the whole register.
        """
        if self.history_bits == 0:
            return 0.0
        return self._weighted(
            [
                b.informative_bits / self.history_bits
                for b in self.branches
            ]
        )

    def class_shares(self) -> Dict[str, float]:
        """Dynamic-execution share per predictability class."""
        shares: Dict[str, float] = {
            "biased": 0.0,
            "correlated": 0.0,
            "hard": 0.0,
        }
        total = sum(b.executions for b in self.branches)
        if total == 0:
            return shares
        for branch in self.branches:
            shares[branch.klass] += branch.executions / total
        return shares

    def findings(self) -> List[Finding]:
        """The report as ``repro check``-style findings."""
        shares = self.class_shares()
        out: List[Finding] = [
            Finding(
                check="predict.summary",
                severity="info",
                why=(
                    f"{self.trace_name}: {len(self.branches)} static / "
                    f"{self.dynamic_branches} dynamic branches; "
                    f"H(X)={self.weighted_entropy:.3f}b, residual "
                    f"H(X|h{self.history_bits})="
                    f"{self.weighted_residual_entropy:.3f}b, "
                    f"correlation sparsity "
                    f"{self.correlation_sparsity:.2f}; dynamic share "
                    f"biased={shares['biased']:.0%} "
                    f"correlated={shares['correlated']:.0%} "
                    f"hard={shares['hard']:.0%}"
                ),
                data={
                    "weighted_entropy": self.weighted_entropy,
                    "weighted_residual_entropy": (
                        self.weighted_residual_entropy
                    ),
                    "correlation_sparsity": self.correlation_sparsity,
                    "class_shares": shares,
                },
            )
        ]
        for branch in self.branches:
            share = branch.executions / max(1, self.dynamic_branches)
            if share < HOT_SHARE:
                continue
            if branch.klass == "hard":
                out.append(
                    Finding(
                        check="predict.hard-branch",
                        severity="warning",
                        point=f"pc=0x{branch.pc:x}",
                        why=(
                            f"{share:.0%} of the stream, "
                            f"H(X)={branch.entropy:.2f}b but best "
                            f"{self.history_bits}-bit history MI is "
                            f"{branch.best_mi:.2f}b — no history-"
                            "indexed scheme can learn this branch; "
                            "expect its mispredictions to survive "
                            "dealiasing"
                        ),
                        data={
                            "executions": branch.executions,
                            "entropy": branch.entropy,
                            "global_mi": branch.global_mi,
                            "local_mi": branch.local_mi,
                        },
                    )
                )
            elif branch.klass == "correlated":
                out.append(
                    Finding(
                        check="predict.correlated-branch",
                        severity="info",
                        point=f"pc=0x{branch.pc:x}",
                        why=(
                            f"{share:.0%} of the stream, history "
                            f"recovers {branch.best_mi:.2f} of "
                            f"{branch.entropy:.2f}b across "
                            f"{branch.informative_bits} informative "
                            "bit(s) — a two-level scheme should win "
                            "here if aliasing spares it"
                        ),
                    )
                )
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "trace": self.trace_name,
            "dynamic_branches": self.dynamic_branches,
            "history_bits": self.history_bits,
            "weighted_entropy": self.weighted_entropy,
            "weighted_residual_entropy": self.weighted_residual_entropy,
            "correlation_sparsity": self.correlation_sparsity,
            "class_shares": self.class_shares(),
            "branches": [
                {
                    "pc": f"0x{b.pc:x}",
                    "executions": b.executions,
                    "taken_rate": b.taken_rate,
                    "entropy": b.entropy,
                    "global_mi": b.global_mi,
                    "local_mi": b.local_mi,
                    "global_cond_entropy": b.global_cond_entropy,
                    "local_cond_entropy": b.local_cond_entropy,
                    "informative_bits": b.informative_bits,
                    "context_coverage": b.context_coverage,
                    "class": b.klass,
                }
                for b in self.branches
            ],
        }

    def render(self, top: int = 20) -> str:
        """Human table of the hottest ``top`` branches plus a footer."""
        lines = [
            f"predictability of {self.trace_name} "
            f"(k={self.history_bits} history bits)",
            f"{'pc':>12s} {'execs':>8s} {'taken':>6s} {'H(X)':>6s} "
            f"{'gMI':>6s} {'lMI':>6s} {'bits':>4s} {'ctx90':>5s} class",
        ]
        for branch in self.branches[:top]:
            lines.append(
                f"{branch.pc:#12x} {branch.executions:8d} "
                f"{branch.taken_rate:6.1%} {branch.entropy:6.3f} "
                f"{branch.global_mi:6.3f} {branch.local_mi:6.3f} "
                f"{branch.informative_bits:4d} "
                f"{branch.context_coverage:5d} {branch.klass}"
            )
        shares = self.class_shares()
        lines.append(
            f"weighted H(X)={self.weighted_entropy:.3f}b, residual="
            f"{self.weighted_residual_entropy:.3f}b, sparsity="
            f"{self.correlation_sparsity:.2f}; biased/correlated/hard "
            f"= {shares['biased']:.0%}/{shares['correlated']:.0%}/"
            f"{shares['hard']:.0%} of dynamic stream"
        )
        return "\n".join(lines)


def _context_coverage(contexts: np.ndarray, share: float = 0.9) -> int:
    """Contexts (hottest first) needed to cover ``share`` of samples."""
    _, counts = np.unique(contexts, return_counts=True)
    counts = np.sort(counts)[::-1]
    cumulative = np.cumsum(counts)
    needed = share * len(contexts)
    return int(np.searchsorted(cumulative, needed - 1e-9) + 1)


def analyze_trace(
    trace: BranchTrace,
    history_bits: int = DEFAULT_HISTORY_BITS,
) -> PredictabilityReport:
    """Score every static branch of ``trace``; hottest first."""
    if len(trace) == 0:
        raise AnalysisError(
            "cannot analyze an empty trace; profile or generate a "
            "workload first"
        )
    if not 1 <= history_bits <= 16:
        raise AnalysisError(
            f"history_bits must be in [1, 16], got {history_bits}"
        )
    taken = trace.taken
    # The k outcomes before each position, newest in bit 0, zero-padded
    # during warm-up as a register starts from reset: the global
    # register over the whole stream, the local one (keyed by PC) over
    # a branch's own.
    global_hist = global_history(taken, history_bits)
    ids = pc_ids(trace)
    local_hist = run_history(
        taken, 1, history_bits, np.zeros(int(ids.max()) + 1, np.uint64),
        key=ids,
    )
    num_contexts = 1 << history_bits

    order = np.argsort(ids, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(ids))[:-1])

    branches: List[BranchPredictability] = []
    for group in groups:
        pc = int(trace.pc[group[0]])
        outcomes = taken[group]
        n = len(group)
        rate = float(outcomes.mean())
        entropy = outcome_entropy(rate)

        contexts = global_hist[group]
        local = local_hist[group]

        global_ce = _conditional_entropy(contexts, outcomes, num_contexts)
        local_ce = _conditional_entropy(local, outcomes, num_contexts)
        global_mi = max(0.0, entropy - global_ce)
        local_mi = max(0.0, entropy - local_ce)

        informative = 0
        for j in range(history_bits):
            bit = (contexts >> j) & 1
            bit_ce = _conditional_entropy(bit, outcomes, 2)
            if entropy - bit_ce >= INFORMATIVE_BIT_THRESHOLD:
                informative += 1

        branches.append(
            BranchPredictability(
                pc=pc,
                executions=n,
                taken_rate=rate,
                entropy=entropy,
                global_mi=global_mi,
                local_mi=local_mi,
                global_cond_entropy=global_ce,
                local_cond_entropy=local_ce,
                informative_bits=informative,
                context_coverage=_context_coverage(contexts),
            )
        )

    branches.sort(key=lambda b: (-b.executions, b.pc))
    return PredictabilityReport(
        trace_name=trace.name,
        dynamic_branches=len(trace),
        history_bits=history_bits,
        branches=tuple(branches),
    )
