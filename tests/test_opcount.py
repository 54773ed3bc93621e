"""The opcode counter in ``tools/opcount.py`` is exactly repeatable: two
counts of one bundled run in one process agree to the opcode, in total, per
module and per function, so a change of a few opcodes between trees is a
change in the code, not noise."""

import gc
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def _on_gc(phase, info):
    return phase == "start"


def test_two_counts_of_one_run_are_equal():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    opcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcount)
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
