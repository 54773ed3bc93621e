#!/usr/bin/env python3
"""Count the bytecodes each bundled scenario executes in each mode.

    python3 tools/opcount.py

Stdlib only. ``sys.settrace`` with ``f_trace_opcodes`` counts every opcode
run inside ``run_scenario`` (loading and building the network are not
counted), in total and per module. On one CPython minor version the counts
are exactly repeatable, so they show a change of a few percent that wall
time on a shared machine cannot resolve. An opcode that calls into C counts
the same as one that loads a local, so moving work into builtins looks
cheaper than it is.
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


def count(scenario: str, mode: str) -> Dict[str, object]:
    """Opcodes of one run: ``total`` and ``modules`` (file -> count)."""
    cfg = load_config(bundled_scenario_path(scenario), mode=mode)
    net = build_topology(cfg.topology, Mode(mode), cfg.tunnel)
    files: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            files[frame.f_code.co_filename] += 1
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
    for path, n in files.items():
        inside = path.startswith(SRC + os.sep)
        modules[os.path.relpath(path, SRC) if inside else os.path.basename(path)] += n
    return {"total": sum(modules.values()), "modules": dict(sorted(modules.items()))}


def count_all() -> Dict[str, Dict[str, Dict[str, object]]]:
    return {s: {mode: count(s, mode) for mode in MODES} for s in SCENARIOS}


def main() -> int:
    print(f"{sys.implementation.name} {sys.version.split()[0]}")
    for scenario, modes in count_all().items():
        for mode, counts in modes.items():
            print(f"{scenario} {mode}: {counts['total']:,}")
            for module, n in sorted(counts["modules"].items(), key=lambda kv: -kv[1]):
                print(f"  {module:<28} {n:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
