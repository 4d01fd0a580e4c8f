#!/usr/bin/env python
"""Smoke-test the checkpoint/resume path end-to-end.

Runs a tiny Figure-4 sweep three times:

1. uninterrupted, as the golden baseline;
2. with an injected SIGINT mid-sweep and a checkpoint directory — the
   run must die with the completed points already stored there;
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
import sys
import tempfile
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=2_000,
                        help="dynamic branches per trace")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.experiments import ExperimentOptions, run_experiment
    from repro.runtime import clear_faults, install_faults

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
        print("[2/3] sweep with injected mid-run SIGINT ...")
        install_faults("sweep.point:interrupt@5")
        try:
            run_experiment("fig4", options(workdir))
        except KeyboardInterrupt:
            print("      interrupted as planned; finished points stored")
        else:
            print("FAIL: injected interrupt never fired", file=sys.stderr)
            return 1
        finally:
            clear_faults()

        print("[3/3] resuming from the checkpoint dir ...")
        resumed = run_experiment("fig4", options(workdir))

    if resumed.text != baseline.text:
        print("FAIL: resumed sweep diverged from baseline", file=sys.stderr)
        return 1
    print("PASS: interrupted-then-resumed sweep is bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
