#!/usr/bin/env python3
"""Record the benchmark of one tree in ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr 13

Run from anywhere inside a source checkout. For each workload, at the
benchmark's default seed and run length, it runs ``perfbench/run.py
--trace 0`` three times, one process after the other, and ``--trace 1``
once.
It writes ``BENCH_<pr>.json`` at the root of the checkout with:

- ``end_to_end``: each ``--trace 0`` metric's runs, median and quartiles;
- ``events``: the simulated event count of each mode;
- ``per_layer``: every ``--trace 1`` metric, the size sweeps included;
- ``correct``: whether every run kept the paper's invariants and matched
  the golden artifacts;

plus ``opcodes``, the bytecodes each bundled scenario executes in each mode,
in total, per module and for the 20 busiest functions
(``tools/opcount.py``), with the interpreter that counted them, since the
counts hold for one CPython minor version only;
and the measured commit, the tracked files that differ from it, the
Python version and the machine. The benchmark writes its scenarios to one
directory per checkout, so run nothing else on the same checkout meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import opcount

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("bulk_handoff", "roaming_echo", "many_clients")
MODES = ("sdn", "pmip")
REPEATS = 3  # --trace 0 runs per workload


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _bench(workload: str, trace: int) -> dict:
    """One benchmark process; its report is the last line of its output."""
    cmd = [sys.executable, BENCH, "--workload", workload, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def record(workload: str) -> dict:
    plain = [_bench(workload, 0) for _ in range(REPEATS)]
    traced = _bench(workload, 1)
    metrics = traced["metrics"]
    end_to_end = {
        key: dict(_spread([r["metrics"][key]["value"] for r in plain]), unit=m["unit"])
        for key, m in plain[0]["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in plain + [traced]),
        "end_to_end": end_to_end,
        "events": {mode: metrics[f"{mode}.events.count"]["value"] for mode in MODES},
        "per_layer": {key: m["value"] for key, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output file name")
    args = parser.parse_args(argv)

    report = {
        "commit": _git("rev-parse", "HEAD"),
        "modified": _git("status", "--porcelain", "--untracked-files=no").splitlines(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    for workload in WORKLOADS:
        print(f"recording {workload}", file=sys.stderr)
        report["workloads"][workload] = record(workload)
    print("counting opcodes", file=sys.stderr)
    report["opcodes"] = {
        "interpreter": f"{sys.implementation.name} {platform.python_version()}",
        "scenarios": opcount.count_all(),
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
