"""Self-test of the end-to-end benchmark.

Usage::

    python benchmarks/e2e/selftest.py

Checks, on the smoke inputs (about a minute in all):

* a smoke run passes against the smoke goldens and reports every metric
  ``BENCHMARK.json`` names;
* a tampered golden makes the run fail and exit non-zero;
* a seed with no goldens still passes on the fig4 trio identity;
* ``compare`` gives a verdict for every (workload, metric) of two smoke
  runs, and their traced counts agree;
* with only ``BENCHMARK.json`` and this directory present, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

import run

VERDICTS = ("better", "worse", "within bound", "unresolved")


def bench(*args, script=run.HERE / "run.py", cwd=None):
    proc = subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main() -> int:
    failures = []

    def check(ok, what, proc=None):
        print(f"{'ok' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)
            if proc is not None:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")

    catalogue = json.loads(run.CATALOGUE.read_text(encoding="utf-8"))
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        a, b = work / "a.json", work / "b.json"
        proc, result = bench("--smoke", "--out", a)
        check(proc.returncode == 0 and result and result["correct"]
              and result["failed"] == 0, "smoke run passes", proc)
        doc = json.loads(a.read_text(encoding="utf-8"))
        check(all(w["golden"] == "yes" for w in doc["workloads"].values()),
              "smoke run is checked against goldens")
        names = [w["name"] for w in catalogue["workloads"]]
        layer_names = {e["name"] for e in catalogue["per_layer"]}
        check(result is not None and set(result["metrics"]) == {
            f"{w}.{m}" for w in names for m in layer_names
        }, "every per-layer metric of BENCHMARK.json is reported")
        check(all(set(doc["workloads"][w]["end_to_end"])
                  == {e["name"] for e in catalogue["end_to_end"]}
                  for w in names),
              "every end-to-end metric of BENCHMARK.json is reported")

        goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
        goldens["smoke"]["0"]["gen_ibs"] = "0" * 64
        tampered = work / "tampered.json"
        tampered.write_text(json.dumps(goldens), encoding="utf-8")
        proc, result = bench("--smoke", "--workload", "gen_ibs", "--trace", 0,
                             "--goldens", tampered)
        check(proc.returncode != 0 and result is not None
              and not result["correct"] and result["failed"] > 0,
              "a tampered golden fails the run", proc)

        proc, result = bench("--smoke", "--workload", "fig4_2workers",
                             "--seed", 7, "--trace", 0, "--out", work / "c.json")
        unchecked = json.loads((work / "c.json").read_text(encoding="utf-8"))
        check(proc.returncode == 0 and result["correct"]
              and unchecked["workloads"]["fig4_2workers"]["golden"] == "none",
              "a seed without goldens passes on trio identity", proc)

        bench("--smoke", "--out", b)
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "compare", str(a),
             str(b)], capture_output=True, text=True, timeout=60,
        )
        rows = [line for line in proc.stdout.splitlines()[1:]
                if line.split()[:1] and line.split()[0] in names]
        check(len(rows) == len(names) * len(catalogue["end_to_end"])
              and all(any(v in row for v in VERDICTS) for row in rows),
              "compare gives a verdict per workload and metric", proc)
        check("count differs" not in proc.stdout,
              "traced counts agree between two runs", proc)

        empty = work / "empty"
        shutil.copytree(run.HERE, empty / "benchmarks" / "e2e",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.CATALOGUE, empty / "BENCHMARK.json")
        proc, result = bench("--workload", "fig4_cold", "--seconds", 1,
                             "--trace", 0, script=empty / "benchmarks" / "e2e"
                             / "run.py", cwd=empty)
        check(proc.returncode != 0 and result is None,
              "without the program the benchmark fails and prints no result",
              proc)
    finally:
        run.remove_work(work)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
