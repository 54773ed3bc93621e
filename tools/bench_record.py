#!/usr/bin/env python3
"""Record the benchmark of one tree in ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr 13

Run from anywhere inside a source checkout whose HEAD is the change to
measure. It exports HEAD's first parent with ``git archive`` into a
temporary directory. For each workload, at the benchmark's default seed and
run length, it runs ``perfbench/run.py --trace 0`` in five pairs, one
process after the other: one run of the parent and one of the checkout,
the parent first in even pairs and second in odd ones. Then it runs the
checkout with ``--trace 1`` once. Machine drift between pairs cancels out
of each pair's ratio, so the pairs compare like with like.
It writes ``BENCH_<pr>.json`` at the root of the checkout with:

- ``end_to_end``: each ``--trace 0`` metric's runs of the checkout, median
  and quartiles, and under ``vs_parent`` the parent's runs, median and
  quartiles, the median of the per-pair checkout/parent ratios and how
  many pairs came out ``lower``, ``equal`` and ``higher`` than the parent;
- ``events``: the simulated event count of each mode;
- ``per_layer``: every ``--trace 1`` metric, the size sweeps included;
- ``correct``: whether every run of the checkout kept the paper's
  invariants and matched the golden artifacts;

plus ``opcodes``, the bytecodes each bundled scenario executes in each mode,
in total, per module and for the 20 busiest functions
(``tools/opcount.py``), with the interpreter that counted them, since the
counts hold for one CPython minor version only;
and the measured commit, its parent, the tracked files that differ from the
commit, the Python version and the machine. The benchmark writes its
scenarios to one directory per checkout (the parent's export has its own),
so run nothing else on the same checkout meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import opcount

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bulk_handoff", "roaming_echo", "many_clients")
MODES = ("sdn", "pmip")
PAIRS = 5  # parent/checkout pairs of --trace 0 runs per workload


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export_parent(dest: str) -> None:
    """Write the tracked files of HEAD's first parent into ``dest``."""
    tar = os.path.join(dest, "parent.tar")
    _git("archive", "--output", tar, "HEAD^1")
    subprocess.run(["tar", "-xf", tar, "-C", dest], check=True)
    os.remove(tar)


def _bench(workload: str, trace: int, root: str = ROOT) -> dict:
    """One benchmark process of the tree at ``root``; its report is the
    last line of its output."""
    bench = os.path.join(root, "perfbench", "run.py")
    cmd = [sys.executable, bench, "--workload", workload, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def _versus(change: list, parent: list) -> dict:
    ratios = [c / p for c, p in zip(change, parent)]
    return {"parent": _spread(parent), "median_ratio": statistics.median(ratios),
            "lower": sum(c < p for c, p in zip(change, parent)),
            "equal": sum(c == p for c, p in zip(change, parent)),
            "higher": sum(c > p for c, p in zip(change, parent))}


def record(workload: str, parent_root: str) -> dict:
    change, parent = [], []
    for i in range(PAIRS):
        pair = [(parent, parent_root), (change, ROOT)]
        for runs, root in pair if i % 2 == 0 else reversed(pair):
            runs.append(_bench(workload, 0, root))
    traced = _bench(workload, 1)
    metrics = traced["metrics"]
    end_to_end = {}
    for key, m in change[0]["metrics"].items():
        runs = [r["metrics"][key]["value"] for r in change]
        base = [r["metrics"][key]["value"] for r in parent]
        end_to_end[key] = dict(_spread(runs), unit=m["unit"], vs_parent=_versus(runs, base))
    return {
        "correct": all(r["correct"] for r in change + [traced]),
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
        "parent": _git("rev-parse", "HEAD^1"),
        "modified": _git("status", "--porcelain", "--untracked-files=no").splitlines(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as parent_root:
        _export_parent(parent_root)
        for workload in WORKLOADS:
            print(f"recording {workload}", file=sys.stderr)
            report["workloads"][workload] = record(workload, parent_root)
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
