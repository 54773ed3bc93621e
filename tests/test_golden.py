"""Byte-identical artifacts: the bundled scenarios, run through the CLI,
must hash to the digests recorded in ``perfbench/golden.json``.

The digests are read, never written; a change that is meant to alter the
simulator's output re-records them with ``perfbench/run.py --record-golden``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sdnmob import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
BUNDLED = json.loads(GOLDEN.read_text(encoding="utf-8"))["bundled"]


@pytest.mark.parametrize("scenario", sorted(BUNDLED))
def test_bundled_artifacts_match_golden(scenario, tmp_path):
    assert cli.main(["run", scenario, "--mode", "both", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BUNDLED[scenario]
    }
    assert digests == BUNDLED[scenario]
