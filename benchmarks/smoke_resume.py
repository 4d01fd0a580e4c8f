#!/usr/bin/env python
"""Smoke-test the checkpoint/resume path end-to-end.

Runs a tiny Figure-4 sweep three times:

1. uninterrupted, as the golden baseline;
2. with a real SIGINT mid-sweep and a checkpoint directory — the run
   must stop with the completed points (the in-flight one included)
   already stored there;
3. resumed from that directory — the output must be bit-identical to
   the baseline.

Usage::

    PYTHONPATH=src python benchmarks/smoke_resume.py [--length N]

Exit code 0 on success, 1 on any divergence. Also importable: the
tier-1 suite (``tests/test_runtime_faults.py``) runs :func:`main` so
the resume path cannot rot unnoticed.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=2_000,
                        help="dynamic branches per trace")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    import repro.sim.sweep as sweep
    from repro.experiments import ExperimentOptions, run_experiment

    def options(checkpoint_dir=None):
        return ExperimentOptions(
            length=args.length,
            seed=args.seed,
            benchmarks=["compress"],
            size_bits=[4, 5],
            checkpoint_dir=checkpoint_dir,
        )

    print("[1/3] uninterrupted baseline sweep ...")
    baseline = run_experiment("fig4", options())

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as workdir:
        print("[2/3] sweep with a real mid-run SIGINT ...")
        compute_point = sweep.compute_point
        calls = []

        def interrupting(*point_args, **kwargs):
            # Ctrl-C arrives while the fifth point is being computed.
            calls.append(1)
            if len(calls) == 5:
                os.kill(os.getpid(), signal.SIGINT)
            return compute_point(*point_args, **kwargs)

        sweep.compute_point = interrupting
        try:
            run_experiment("fig4", options(workdir))
        except KeyboardInterrupt:
            print("      interrupted as planned; finished points stored")
        else:
            print("FAIL: the SIGINT never stopped the run", file=sys.stderr)
            return 1
        finally:
            sweep.compute_point = compute_point

        print("[3/3] resuming from the checkpoint dir ...")
        resumed = run_experiment("fig4", options(workdir))

    if resumed.text != baseline.text:
        print("FAIL: resumed sweep diverged from baseline", file=sys.stderr)
        return 1
    print("PASS: interrupted-then-resumed sweep is bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
