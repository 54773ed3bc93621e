#!/usr/bin/env python3
"""Count the bytecodes each bundled scenario executes in each mode.

    python3 tools/opcount.py

Stdlib only. ``sys.settrace`` with ``f_trace_opcodes`` counts every opcode
run inside ``run_scenario`` (loading and building the network are not
counted), in total, per module and for the busiest functions. On one
CPython minor version the counts are exactly repeatable, so they show a
change of a few percent that wall time on a shared machine cannot resolve.
An opcode that calls into C counts the same as one that loads a local, so
moving work into builtins looks cheaper than it is.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from typing import Dict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from sdnmob.config import bundled_scenario_path, load_config  # noqa: E402
from sdnmob.sim import Mode, build_topology, run_scenario  # noqa: E402

SCENARIOS = ("handoff_basic", "handoff_bulk", "ping_pong")
MODES = ("sdn", "pmip")
TOP_FUNCTIONS = 20


def count(scenario: str, mode: str) -> Dict[str, object]:
    """Opcodes of one run: ``total``, ``modules`` (file -> count) and
    ``functions``, the ``TOP_FUNCTIONS`` busiest functions
    (``file:qualified name`` -> count, busiest first)."""
    cfg = load_config(bundled_scenario_path(scenario), mode=mode)
    net = build_topology(cfg.topology, Mode(mode), cfg.tunnel)
    codes: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            codes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    # A collection can run Python callbacks (``gc.callbacks``, finalizers)
    # whose timing depends on what the process did before, so none runs
    # while counting.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        run_scenario(net, cfg.events)
    finally:
        sys.settrace(None)
        if gc_was_enabled:
            gc.enable()
    modules: Counter = Counter()
    functions: Counter = Counter()
    for code, n in codes.items():
        path = code.co_filename
        inside = path.startswith(SRC + os.sep)
        module = os.path.relpath(path, SRC) if inside else os.path.basename(path)
        modules[module] += n
        functions[f"{module}:{code.co_qualname}"] += n
    top = sorted(functions.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_FUNCTIONS]
    return {"total": sum(modules.values()), "modules": dict(sorted(modules.items())),
            "functions": dict(top)}


def count_all() -> Dict[str, Dict[str, Dict[str, object]]]:
    return {s: {mode: count(s, mode) for mode in MODES} for s in SCENARIOS}


def main() -> int:
    print(f"{sys.implementation.name} {sys.version.split()[0]}")
    for scenario, modes in count_all().items():
        for mode, counts in modes.items():
            print(f"{scenario} {mode}: {counts['total']:,}")
            for module, n in sorted(counts["modules"].items(), key=lambda kv: -kv[1]):
                print(f"  {module:<28} {n:>12,}")
            print(f"  top {TOP_FUNCTIONS} functions:")
            for function, n in counts["functions"].items():
                print(f"    {function:<54} {n:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
