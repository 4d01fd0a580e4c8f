"""Declarative predictor specifications.

A :class:`PredictorSpec` is the frozen, hashable description of a
predictor configuration. Both implementations consume it — the scalar
factory (:func:`repro.predictors.factory.build_predictor`) instantiates
reference objects from it, the vectorized engines dispatch on it — so a
sweep over the paper's design space is a sweep over spec values.

Shape conventions (the paper's Figure 1):

* ``cols`` = 2^c columns selected by the *low* word-address bits
  ``(pc >> 2) & (cols - 1)``;
* ``rows`` = 2^r rows selected by the scheme's row-selection box;
* history length always equals ``log2(rows)`` (the paper's tiers use
  every split ``c + r = n`` of a 2^n-counter budget).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bits import log2_exact
from repro.utils.validation import check_positive_int, check_power_of_two

IntOrArray = Union[int, np.ndarray]

#: Schemes whose rows are selected from global state.
GLOBAL_SCHEMES: Tuple[str, ...] = ("gag", "gas", "gap", "gshare", "path")
#: Schemes whose rows are selected from per-address history.
PER_ADDRESS_SCHEMES: Tuple[str, ...] = ("pag", "pas", "pap")
#: Schemes whose rows come from an untagged per-set history table
#: (the 'S' of the Yeh-Patt taxonomy).
SET_SCHEMES: Tuple[str, ...] = ("sag", "sas")
#: All two-level schemes (row count > 1 meaningful).
TWO_LEVEL_SCHEMES: Tuple[str, ...] = (
    GLOBAL_SCHEMES + PER_ADDRESS_SCHEMES + SET_SCHEMES
)
#: De-aliased designs (extensions motivated by the paper's conclusions).
DEALIASED_SCHEMES: Tuple[str, ...] = ("agree", "bimode", "gskew")

KNOWN_SCHEMES: Tuple[str, ...] = (
    ("bimodal", "static", "tournament") + TWO_LEVEL_SCHEMES + DEALIASED_SCHEMES
)

STATIC_POLICIES: Tuple[str, ...] = ("taken", "not_taken", "btfn")

#: First-level size for SAg/SAs when the spec leaves it unset.
DEFAULT_SET_ENTRIES = 1024


@dataclass(frozen=True)
class PredictorSpec:
    """Full configuration of one predictor.

    Fields not meaningful for a scheme must keep their defaults;
    ``validate()`` (called on construction) enforces this, so an invalid
    combination fails loudly instead of silently configuring something
    other than what the experiment intended.
    """

    scheme: str
    rows: int = 1
    cols: int = 1
    counter_bits: int = 2
    #: PAs family: first-level entries (None = perfect per-branch
    #: histories, the paper's "PAs(inf)").
    bht_entries: Optional[int] = None
    #: PAs family: first-level set associativity (paper uses 4-way).
    bht_assoc: int = 4
    #: Path scheme: target-address bits recorded per branch (Nair's
    #: "small number of bits from the addresses of branch targets").
    path_bits_per_branch: int = 2
    #: Static scheme: "taken", "not_taken", or "btfn".
    static_policy: str = "taken"
    #: Tournament: component specs and chooser table rows.
    component_a: Optional["PredictorSpec"] = None
    component_b: Optional["PredictorSpec"] = None
    chooser_rows: int = 1024

    def __post_init__(self) -> None:
        self.validate()

    # -- derived shape ------------------------------------------------

    @property
    def history_bits(self) -> int:
        """Row-selection history length, log2(rows)."""
        return log2_exact(self.rows)

    @property
    def num_counters(self) -> int:
        """Second-level size: rows x cols."""
        return self.rows * self.cols

    @property
    def column_bits(self) -> int:
        """Column-index width, log2(cols)."""
        return log2_exact(self.cols)

    @property
    def size_label(self) -> str:
        """The paper's configuration notation, e.g. ``2^6 x 2^4``."""
        return f"2^{log2_exact(self.cols)}x2^{log2_exact(self.rows)}"

    # -- validation ---------------------------------------------------

    def validate(self) -> None:
        if self.scheme not in KNOWN_SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; known: {KNOWN_SCHEMES}"
            )
        check_power_of_two(self.rows, "rows")
        check_power_of_two(self.cols, "cols")
        check_positive_int(self.counter_bits, "counter_bits")

        if self.scheme == "static":
            if self.static_policy not in STATIC_POLICIES:
                raise ConfigurationError(
                    f"static_policy must be one of {STATIC_POLICIES}, "
                    f"got {self.static_policy!r}"
                )
            if self.rows != 1 or self.cols != 1:
                raise ConfigurationError(
                    "static predictors have no table; rows and cols must be 1"
                )
            return

        if self.scheme == "bimodal" and self.rows != 1:
            raise ConfigurationError(
                "bimodal is address-indexed: a single row (rows=1); "
                f"got rows={self.rows}"
            )
        if self.scheme in ("gag", "pag", "sag") and self.cols != 1:
            raise ConfigurationError(
                f"{self.scheme} has a single column (cols=1); got "
                f"cols={self.cols}"
            )
        if self.scheme in ("gap", "pap") and self.cols != 1:
            raise ConfigurationError(
                f"{self.scheme} keeps one column per address; cols must "
                "stay 1 (it is ignored for sizing)"
            )
        if self.scheme in DEALIASED_SCHEMES and self.cols != 1:
            raise ConfigurationError(
                f"{self.scheme} hashes the PC into its row index and has "
                "no column dimension; cols must stay 1 (the scalar "
                "predictor would silently ignore it)"
            )
        if self.scheme in TWO_LEVEL_SCHEMES and self.scheme not in (
            "gap",
            "pap",
        ):
            if self.rows < 2:
                raise ConfigurationError(
                    f"{self.scheme} needs at least 2 rows (1 history bit); "
                    "rows=1 is the bimodal scheme"
                )

        if self.bht_entries is not None:
            if self.scheme not in PER_ADDRESS_SCHEMES + SET_SCHEMES:
                raise ConfigurationError(
                    "bht_entries only applies to "
                    f"{PER_ADDRESS_SCHEMES + SET_SCHEMES}, "
                    f"not {self.scheme!r}"
                )
            check_power_of_two(self.bht_entries, "bht_entries")
            check_positive_int(self.bht_assoc, "bht_assoc")
        if self.scheme in SET_SCHEMES and self.bht_assoc not in (1, 4):
            # The per-set table is untagged and direct indexed;
            # associativity is meaningless. 1 states that explicitly,
            # 4 is the field's default and passes through untouched.
            raise ConfigurationError(
                "per-set history tables are untagged and direct "
                "indexed; bht_assoc does not apply"
            )

        if self.scheme == "path":
            check_positive_int(self.path_bits_per_branch, "path_bits_per_branch")
            if self.path_bits_per_branch > self.history_bits:
                raise ConfigurationError(
                    f"path_bits_per_branch ({self.path_bits_per_branch}) "
                    f"exceeds the row-index width ({self.history_bits})"
                )

        if self.scheme == "tournament":
            if self.component_a is None or self.component_b is None:
                raise ConfigurationError(
                    "tournament needs component_a and component_b specs"
                )
            check_power_of_two(self.chooser_rows, "chooser_rows")
        elif self.component_a is not None or self.component_b is not None:
            raise ConfigurationError(
                "component specs only apply to the tournament scheme"
            )

    # -- convenience --------------------------------------------------

    def with_shape(self, rows: int, cols: int) -> "PredictorSpec":
        """Same scheme/options with a different table shape."""
        return replace(self, rows=rows, cols=cols)

    def describe(self) -> str:
        """Readable one-line description for reports."""
        if self.scheme == "static":
            return f"static({self.static_policy})"
        if self.scheme == "bimodal":
            return f"bimodal({self.cols} counters)"
        if self.scheme == "tournament":
            return (
                f"tournament({self.component_a.describe()} vs "
                f"{self.component_b.describe()})"
            )
        extra = ""
        if self.scheme in PER_ADDRESS_SCHEMES:
            extra = (
                ", perfect-BHT"
                if self.bht_entries is None
                else f", BHT={self.bht_entries}x{self.bht_assoc}-way"
            )
        elif self.scheme in SET_SCHEMES:
            entries = self.bht_entries or DEFAULT_SET_ENTRIES
            extra = f", sets={entries}"
        return f"{self.scheme}({self.size_label}{extra})"


# ----------------------------------------------------------------------
# Index-function API
# ----------------------------------------------------------------------
# Stateless index arithmetic shared by the vectorized engines
# (:func:`repro.sim.vectorized.index_stream`), the dynamic aliasing
# instrumentation built on them (:mod:`repro.aliasing`), and the static
# checker (:mod:`repro.check`). Keeping "which counter does this PC
# reach" in exactly one place is what lets alias sets be *proved*
# ahead of time instead of merely observed after a simulation.

#: Schemes whose second level is the row-major ``row * cols + column``
#: grid of Figure 1 (everything except the idealized per-address-column
#: designs, which allocate a dense column per static branch).
ROW_MAJOR_SCHEMES: Tuple[str, ...] = (
    "bimodal",
    "gag",
    "gas",
    "gshare",
    "path",
    "pag",
    "pas",
    "sag",
    "sas",
    "agree",
)

#: Idealized designs whose second level grows with the static branch
#: population (one column per address) — unbounded by construction.
PER_ADDRESS_COLUMN_SCHEMES: Tuple[str, ...] = ("gap", "pap")

#: Where each scheme's row index comes from (reporting/docs).
ROW_SOURCES = {
    "static": "none",
    "bimodal": "none",
    "gag": "global history",
    "gas": "global history",
    "gap": "global history",
    "gshare": "global history xor PC",
    "path": "path register",
    "pag": "per-address history",
    "pas": "per-address history",
    "pap": "per-address history",
    "sag": "per-set history",
    "sas": "per-set history",
    "agree": "global history xor PC",
    "bimode": "global history xor PC",
    "gskew": "skewed hashes of history and PC",
    "tournament": "components",
}


def word_index(pc: IntOrArray) -> IntOrArray:
    """Word-aligned PC: the address bits every table index derives from."""
    if isinstance(pc, np.ndarray):
        return (pc >> np.uint64(2)).astype(np.int64)
    return int(pc) >> 2


def column_index(spec: PredictorSpec, word: IntOrArray) -> IntOrArray:
    """Column selected by the low word-address bits."""
    return word & (spec.cols - 1)


def counter_index(
    spec: PredictorSpec, row: IntOrArray, word: IntOrArray
) -> IntOrArray:
    """Flat second-level index for a row-major scheme.

    ``row`` may be unmasked (a raw history/hash value); the row mask is
    applied here so every caller shares one bounds guarantee:
    the result is provably in ``[0, num_counters)``.
    """
    if spec.scheme not in ROW_MAJOR_SCHEMES:
        raise ConfigurationError(
            f"{spec.scheme!r} is not a row-major scheme; its counter "
            "coordinates are per-address"
        )
    return (row & (spec.rows - 1)) * spec.cols + column_index(spec, word)


def max_counter_index(spec: PredictorSpec) -> int:
    """Largest index :func:`counter_index` can produce for ``spec``."""
    return int(counter_index(spec, spec.rows - 1, spec.cols - 1))


def bht_set_count(spec: PredictorSpec) -> int:
    """Number of first-level sets (tagged PA-family geometry)."""
    if spec.bht_entries is None:
        raise ConfigurationError(
            f"{spec.describe()} has perfect first-level histories; "
            "there is no set geometry"
        )
    return spec.bht_entries // spec.bht_assoc


def bht_set_index(spec: PredictorSpec, word: IntOrArray) -> IntOrArray:
    """First-level set selected by a word address.

    Tagged PA-family tables use modulo placement over
    ``entries / assoc`` sets; untagged per-set (SAg/SAs) tables are
    direct indexed by the low ``log2(entries)`` bits.
    """
    if spec.scheme in SET_SCHEMES:
        entries = spec.bht_entries or DEFAULT_SET_ENTRIES
        return word & (entries - 1)
    return word % bht_set_count(spec)


def static_collision_key(
    spec: PredictorSpec, word: IntOrArray
) -> Optional[IntOrArray]:
    """Partition key for ahead-of-time second-level alias analysis.

    Two static branches *can* share a counter for some reachable
    dynamic state if and only if their keys are equal; distinct keys
    provably never collide. ``None`` means the scheme has no shared
    second-level table (static predictors, tournament composites).

    The key is exact because every row-selection source in the paper
    (global history, per-address history, per-set history, path
    register) ranges over its full value domain, so the only static
    constraint two colliding branches must satisfy is column equality;
    schemes that hash the PC into the *row* (agree, gskew) can collide
    across columns too, collapsing all branches into one class, and the
    idealized per-address-column designs (GAp/PAp) dedicate a column
    per branch, so no two branches ever collide.
    """
    scheme = spec.scheme
    if scheme in ("static", "tournament", "bimode"):
        return None
    if scheme in PER_ADDRESS_COLUMN_SCHEMES:
        return word  # dense column per address: singleton classes
    if scheme in ("agree", "gskew"):
        # The PC feeds the row hash: any pair of branches can land on
        # one counter for some history value.
        if isinstance(word, np.ndarray):
            return np.zeros_like(word)
        return 0
    return column_index(spec, word)
