"""Exception hierarchy for the repro package.

Everything raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library errors without also
swallowing programming mistakes (``TypeError``, ``KeyError``, ...).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A predictor, workload, or experiment was configured inconsistently.

    Examples: a two-level table whose row and column bits do not add up to
    the requested size, a negative history length, or an unknown scheme name.
    """


class TraceError(ReproError):
    """A branch trace is malformed or incompatible with the requested use.

    Examples: mismatched array lengths, a trace file with missing fields,
    or an empty trace handed to an experiment that needs data.
    """


class WorkloadError(ReproError):
    """A synthetic workload profile is invalid or unknown."""


class ExperimentError(ReproError):
    """An experiment could not be assembled or executed."""


class CheckError(ReproError):
    """A static-analysis pass itself failed (not: it found problems).

    Findings are data (``repro check`` exits 1 and prints them); this
    error is for the checker breaking — an unreadable spec file, a
    source path that is not Python, an internal fault in a pass — and
    maps to exit code 2.
    """


class AnalysisError(ReproError):
    """A bytecode CFG / predictability analysis could not be performed.

    Examples: an analysis target that is not a Python function, a code
    object whose bytecode uses an opcode outside the compat layer's
    vocabulary, or a runtime profile that recorded no branch events.
    """


class CheckpointError(ReproError):
    """A sweep's checkpoint directory cannot be created or written.

    Examples: a ``--checkpoint-dir`` on a read-only filesystem, or a
    finished point that cannot be persisted to it.
    """
