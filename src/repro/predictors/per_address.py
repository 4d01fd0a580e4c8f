"""Per-address two-level predictors: PAg, PAs, PAp.

The row-selection box keeps a separate direction history per branch
(section 5 of the paper). With perfect histories the surfaces of the
paper's Figure 9 are flat: self-history patterns mean nearly the same
thing for every branch ("the appropriate predictions for the most
frequently occurring patterns are strongly correlated across
branches"), so a single column loses almost nothing. The realistic
variant stores histories in a bounded, tagged, set-associative
first-level table (:class:`~repro.predictors.bht.BranchHistoryTable`);
its conflicts — not second-level aliasing — are what limit PAs
accuracy (Figure 10, Table 3).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.predictors.base import BranchPredictor
from repro.predictors.bht import BranchHistoryTable, PerfectHistoryTable
from repro.predictors.counters import CounterBank
from repro.utils.bits import log2_exact
from repro.utils.validation import check_power_of_two

HistoryTable = Union[BranchHistoryTable, PerfectHistoryTable]


class PerAddressPredictor(BranchPredictor):
    """PAs: 2^r rows selected by the branch's own history, 2^c columns.

    ``cols=1`` is PAg. ``bht_entries=None`` requests perfect per-branch
    histories (the paper's "PAs(inf)"); otherwise a tagged
    ``bht_entries``-entry, ``bht_assoc``-way table is used and its miss
    rate is exposed as :attr:`first_level_miss_rate`.
    """

    scheme = "pas"

    def __init__(
        self,
        rows: int,
        cols: int,
        bht_entries: Optional[int] = None,
        bht_assoc: int = 4,
        counter_bits: int = 2,
    ):
        check_power_of_two(rows, "rows")
        check_power_of_two(cols, "cols")
        self.rows = rows
        self.cols = cols
        history_bits = max(1, log2_exact(rows))
        if bht_entries is None:
            self.history_table: HistoryTable = PerfectHistoryTable(history_bits)
        else:
            self.history_table = BranchHistoryTable(
                entries=bht_entries, assoc=bht_assoc, history_bits=history_bits
            )
        self._bank = CounterBank(rows * cols, nbits=counter_bits)
        self._row_mask = rows - 1
        self._col_mask = cols - 1
        self._pending_pc: Optional[int] = None
        self._pending_history = 0
        if cols == 1:
            self.scheme = "pag"

    def _index(self, pc: int, history: int) -> int:
        row = history & self._row_mask
        col = (pc >> 2) & self._col_mask
        return row * self.cols + col

    def _history_for(self, pc: int) -> int:
        """One first-level lookup per dynamic branch.

        ``predict`` performs the lookup (allocating on a miss, exactly
        as the hardware would) and caches it; the matching ``update``
        reuses the cached value so the trained counter is the one the
        prediction used and the miss-rate denominator counts each
        branch once.
        """
        if self._pending_pc == pc:
            return self._pending_history
        history, _ = self.history_table.lookup(pc)
        self._pending_pc = pc
        self._pending_history = history
        return history

    def predict(self, pc: int, target: int = 0) -> bool:
        history = self._history_for(pc)
        return self._bank.predict(self._index(pc, history))

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        history = self._history_for(pc)
        self._bank.update(self._index(pc, history), taken)
        self.history_table.record(pc, taken)
        self._pending_pc = None

    def reset(self) -> None:
        self._bank.reset()
        self.history_table.reset()
        self._pending_pc = None

    @property
    def first_level_miss_rate(self) -> float:
        """Fraction of first-level accesses that conflicted (Table 3)."""
        return self.history_table.miss_rate

    @property
    def storage_bits(self) -> int:
        return self._bank.storage_bits + self.history_table.storage_bits


class PApPredictor(BranchPredictor):
    """PAp: per-address history and a private column per branch.

    Unbounded in both levels; the taxonomy's idealized endpoint.
    """

    scheme = "pap"

    def __init__(self, rows: int, counter_bits: int = 2):
        check_power_of_two(rows, "rows")
        self.rows = rows
        self.counter_bits = counter_bits
        history_bits = max(1, log2_exact(rows))
        self.history_table = PerfectHistoryTable(history_bits)
        self._columns: Dict[int, CounterBank] = {}
        self._row_mask = rows - 1

    def _column(self, pc: int) -> CounterBank:
        column = self._columns.get(pc)
        if column is None:
            column = CounterBank(self.rows, nbits=self.counter_bits)
            self._columns[pc] = column
        return column

    def predict(self, pc: int, target: int = 0) -> bool:
        history, _ = self.history_table.lookup(pc)
        return self._column(pc).predict(history & self._row_mask)

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        # Perfect histories never miss, so a second lookup is free of
        # side effects and always returns the value predict() used.
        history, _ = self.history_table.lookup(pc)
        self._column(pc).update(history & self._row_mask, taken)
        self.history_table.record(pc, taken)

    def reset(self) -> None:
        self._columns.clear()
        self.history_table.reset()

    @property
    def first_level_miss_rate(self) -> float:
        """Always 0.0: the perfect first level never misses."""
        return self.history_table.miss_rate

    @property
    def storage_bits(self) -> int:
        return sum(c.storage_bits for c in self._columns.values())
