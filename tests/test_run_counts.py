"""Pinned inner counts of every bundled scenario in each mode: the trace
counters, the number of flow events and the number of simulator events.

The golden digests hash only the CSV and the summary, which hold none of
these, so a change that alters what happens inside a run without altering
its artifacts shows here. A change that is meant to alter them re-pins
the numbers below.
"""

import pytest

PINNED = {
    ("handoff_basic", "sdn"): (
        {"accepted": 2400, "buffer_drops": 0, "buffer_residue": 0,
         "consumed": 4, "retransmissions": 0, "transmissions": 2404},
        16, 9046),
    ("handoff_basic", "pmip"): (
        {"accepted": 2400, "consumed": 4, "retransmissions": 0,
         "transmissions": 2404},
        0, 9004),
    ("handoff_bulk", "sdn"): (
        {"accepted": 10011, "buffer_drops": 0, "buffer_residue": 0,
         "consumed": 4, "link_drops": 32, "retransmissions": 32,
         "transmissions": 10047},
        28, 30163),
    ("handoff_bulk", "pmip"): (
        {"accepted": 10031, "consumed": 4, "host_drops": 21, "link_drops": 11,
         "retransmissions": 32, "transmissions": 10067},
        0, 30231),
    ("ping_pong", "sdn"): (
        {"accepted": 1920, "buffer_drops": 0, "buffer_residue": 0,
         "consumed": 6, "retransmissions": 0, "transmissions": 1926},
        24, 7248),
    ("ping_pong", "pmip"): (
        {"accepted": 1920, "consumed": 6, "retransmissions": 0,
         "transmissions": 1926},
        0, 7205),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids="/".join)
def test_bundled_run_counts_are_pinned(key, bundled_runs):
    counters, flow_events, events = PINNED[key]
    net, trace = bundled_runs[key]
    assert trace.counters == counters
    assert len(trace.flow_events) == flow_events
    assert net.sim._seq == events
