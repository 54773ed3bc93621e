"""Byte-identical artifacts: the bundled scenarios, run through the CLI, and
the benchmark workloads at the golden seed, run as the benchmark runs them,
must hash to the digests recorded in ``perfbench/golden.json``.

The digests are read, never written; a change that is meant to alter the
simulator's output re-records them with ``perfbench/run.py --record-golden``.
The workload generators and the benchmark operation are loaded from their
files and only read; nothing under ``perfbench/`` is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sdnmob import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
BUNDLED = GOLDEN["bundled"]


def load_perfbench(name, monkeypatch):
    """Load ``perfbench/<name>.py`` as the top-level module ``name``, which
    is how the benchmark's own modules import each other; ``monkeypatch``
    removes it from ``sys.modules`` after the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scenario", sorted(BUNDLED))
def test_bundled_artifacts_match_golden(scenario, tmp_path):
    assert cli.main(["run", scenario, "--mode", "both", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BUNDLED[scenario]
    }
    assert digests == BUNDLED[scenario]


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_workload_artifacts_match_golden(name, tmp_path, monkeypatch):
    workloads = load_perfbench("workloads", monkeypatch)
    operation = load_perfbench("operation", monkeypatch)
    workload = workloads.make_workload(name, GOLDEN["seed"])
    path = tmp_path / "scenario.ini"
    path.write_text(workload.scenario_text, encoding="utf-8")
    result = operation.run_operation(name, str(path), workload.population,
                                     str(tmp_path))
    assert result.violations == {"sdn": [], "pmip": []}
    assert operation.digests(result.artifacts) == GOLDEN["workloads"][name]
