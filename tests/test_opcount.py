"""The opcode counter in ``tools/opcount.py`` is exactly repeatable: two
counts of one bundled run in one process agree to the opcode, in total, per
module and per function, so a change of a few opcodes between trees is a
change in the code, not noise.

``PINNED`` holds the total count of bundled ``handoff_basic`` in each mode,
so a change that makes a run cost more fails here instead of hiding in
wall-time noise. The counts hold for one CPython minor version only, so
that test runs only there. A change that is meant to alter the cost of a
run re-pins the numbers below, and says why in its change notes.
"""

import gc
import importlib.util
import platform
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"

PINNED_INTERPRETER = ("cpython", (3, 11))
PINNED = {"sdn": 2_065_114, "pmip": 1_803_644}


@pytest.fixture(scope="module")
def opcount():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _on_gc(phase, info):
    return phase == "start"


def test_two_counts_of_one_run_are_equal(opcount):
    first = opcount.count("handoff_basic", "sdn")
    assert first["total"] > 1_000_000
    assert first["total"] == sum(first["modules"].values())
    functions = first["functions"]
    assert len(functions) == opcount.TOP_FUNCTIONS
    assert list(functions.values()) == sorted(functions.values(), reverse=True)
    assert sum(functions.values()) < first["total"]
    # A garbage-collector callback (hypothesis installs one) runs Python code
    # at collections whose timing depends on what the process did before;
    # none of it may be counted, even when collections are frequent.
    threshold = gc.get_threshold()
    gc.callbacks.append(_on_gc)
    gc.set_threshold(10)
    try:
        second = opcount.count("handoff_basic", "sdn")
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(_on_gc)
    assert second["functions"] == first["functions"]
    assert second == first


@pytest.mark.skipif(
    (sys.implementation.name, sys.version_info[:2]) != PINNED_INTERPRETER,
    reason="opcode counts are pinned for CPython 3.11 only; "
           f"this is {sys.implementation.name} {platform.python_version()}")
@pytest.mark.parametrize("mode", sorted(PINNED))
def test_handoff_basic_opcodes_are_pinned(opcount, mode):
    assert opcount.count("handoff_basic", mode)["total"] == PINNED[mode]
