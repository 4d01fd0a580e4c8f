"""Correctness checks that need numpy or the repro package.

Usage::

    python checks.py spot-check SCHEME BHT LENGTH TIER SEED
    python checks.py trace-sha LENGTH SEED
    python checks.py stored-sha DIR
    python checks.py missing-targets
    python checks.py numpy-version

Prints one JSON value. ``run.py`` calls this in a subprocess so that
the timing parent never loads numpy: Linux records a process's peak RSS
at ``exec`` into the child it becomes, so a large parent would show up
as every child's ``peak_rss_mb``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def arrays_sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def spot_check(scheme, bht, length, tier, seed):
    """Error text, or None when both engines agree on the whole tier.

    Regenerates ``mpeg_play`` with ``make_workload`` and requires
    ``simulate(..., engine="reference")`` and the vectorized engine to
    predict bit-identically at every split of tier ``tier``.
    """
    from repro.sim.engine import simulate
    from repro.sim.sweep import spec_for_point
    from repro.workloads.registry import make_workload

    trace = make_workload("mpeg_play", length=int(length), seed=int(seed))
    n = int(tier)
    for row_bits in range(n + 1):
        spec = spec_for_point(scheme, n - row_bits, row_bits,
                              bht_entries=int(bht) or None, bht_assoc=4)
        expected = simulate(spec, trace, engine="reference").predictions
        actual = simulate(spec, trace, engine="vectorized").predictions
        if not np.array_equal(expected, actual):
            return f"vectorized != reference at {spec.describe()}"
    return None


def trace_sha(length, seed):
    """sha256 of a freshly generated ``real_gcc`` trace's arrays."""
    from repro.workloads.registry import make_workload

    trace = make_workload("real_gcc", length=int(length), seed=int(seed),
                          cache=False)
    return arrays_sha(trace.pc, trace.taken, trace.target)


def stored_sha(directory):
    """sha256 of the pc/taken/target arrays of the one stored trace."""
    paths = list(Path(directory).glob("*.npz"))
    if len(paths) != 1:
        return f"{len(paths)} stored traces"
    with np.load(paths[0]) as data:
        return arrays_sha(data["pc"], data["taken"], data["target"])


def missing_targets():
    """``module:attribute`` of every trace target this checkout lacks."""
    import importlib

    from child import TARGETS

    missing = []
    for _, module_name, attribute, _ in TARGETS:
        try:
            obj = importlib.import_module(module_name)
            for part in attribute.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{attribute}")
    return missing


COMMANDS = {
    "spot-check": spot_check,
    "trace-sha": trace_sha,
    "stored-sha": stored_sha,
    "missing-targets": missing_targets,
    "numpy-version": lambda: np.__version__,
}

if __name__ == "__main__":
    print(json.dumps(COMMANDS[sys.argv[1]](*sys.argv[2:])))
