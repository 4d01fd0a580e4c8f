#!/usr/bin/env python3
"""Multiprogramming: predictor state under context switches.

The paper's IBS traces are multiprogrammed — application, kernel, and
X-server code sharing one predictor. This example quantifies that
effect directly: two workloads are interleaved at context-switch quanta
from very fine to very coarse, and each predictor family's accuracy is
compared against the back-to-back (no switching) baseline. The shorter
the quantum, the more often each program finds its counters and
history registers trashed by the other.

Run::

    python examples/multiprogramming.py [length_per_program]
"""

import sys

from repro import make_predictor_spec, make_workload, simulate
from repro.traces import interleave_traces
from repro.utils.tables import format_table

QUANTA = (100, 1_000, 10_000)


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else 80_000
    groff = make_workload("groff", length=length, seed=1)
    verilog = make_workload("verilog", length=length, seed=2)

    specs = [
        ("bimodal 4k", make_predictor_spec("bimodal", cols=4096)),
        ("gshare 2^12", make_predictor_spec("gshare", rows=4096)),
        (
            "PAs(1k) 2^2x2^8",
            make_predictor_spec(
                "pas", rows=256, cols=4, bht_entries=1024
            ),
        ),
    ]

    headers = ["predictor", "no switching"] + [
        f"quantum {q}" for q in QUANTA
    ]
    rows = []
    for label, spec in specs:
        baseline = simulate(spec, groff.concat(verilog))
        row = [label, f"{baseline.misprediction_rate:.2%}"]
        for quantum in QUANTA:
            merged = interleave_traces([groff, verilog], quantum=quantum)
            result = simulate(spec, merged)
            delta = (
                result.misprediction_rate - baseline.misprediction_rate
            )
            row.append(
                f"{result.misprediction_rate:.2%} ({delta:+.2%})"
            )
        rows.append(row)

    print(f"groff + verilog, {length} branches each\n")
    print(format_table(rows, headers=headers))

    print(
        "\nGlobal-history schemes suffer most: the shared history "
        "register and XOR-mixed rows blend both programs' outcome "
        "streams. The tagged PAs first level isolates each program's "
        "histories, so it degrades about as gracefully as plain "
        "address indexing."
    )


if __name__ == "__main__":
    main()
