"""Per-sample memory of a finished run.

A run records an RTT sample per ACK and a goodput record per delivered
segment; they are most of what a finished run holds. Stored as two int64
columns they cost 16 bytes a sample plus the columns' growth slack; a
``(time_us, value)`` tuple per sample would cost about 130. ``tracemalloc``
counts allocations exactly, so the bound does not depend on the machine.
"""

import gc
import tracemalloc

import pytest

from sdnmob.sim import Mode, build_topology, run_pmip_baseline, run_scenario

MAX_BYTES_PER_SAMPLE = 32


@pytest.mark.parametrize("mode", ["sdn", "pmip"])
def test_finished_run_holds_at_most_32_bytes_per_sample(mode, bundled_configs):
    cfg = bundled_configs["handoff_bulk"]
    gc.collect()
    tracemalloc.start()
    try:
        if mode == "sdn":
            net = build_topology(cfg.topology)
        else:
            net = build_topology(cfg.topology, Mode.PMIP, cfg.tunnel)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        if mode == "sdn":
            trace = run_scenario(net, cfg.events)
        else:
            trace = run_pmip_baseline(net, cfg.events, cfg.tunnel)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    samples = len(trace.rtt_client) + len(trace.rtt_server) + len(trace.deliveries)
    assert samples > 5_000
    assert held / samples <= MAX_BYTES_PER_SAMPLE, (held, samples)
