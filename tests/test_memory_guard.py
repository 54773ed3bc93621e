"""Per-sample memory of a finished run, and the memory of writing its CSV.

A run records an RTT sample per ACK and a goodput record per delivered
segment; they are most of what a finished run holds. Stored as two 32-bit
columns (``metrics.Series``; no bundled time or value reaches 2**32, so
neither column widens) they cost 8 bytes a sample plus the columns' growth
slack; two int64 columns held about 19 and a ``(time_us, value)`` tuple per
sample about 130. ``tracemalloc`` counts allocations exactly, so the bound
does not depend on the machine.

``write_csv`` streams rows in chunks, throughput windows included, so its
peak is a chunk of rows whatever the run's length; a list of every 100 ms
window built first would cost about 120 bytes a window.

A sender keeps its unsent segments as a count, since every segment of a
connection has the same length: a bulk transfer queued while the host has
no address holds a few integers, not one queue entry per segment (a deque
of lengths held about 8 bytes a segment).
"""

import gc
import tracemalloc
from types import SimpleNamespace

import pytest

from sdnmob.sim import Mode, build_topology, run_pmip_baseline, run_scenario
from sdnmob.sim.metrics import MetricsTrace, Series, WINDOW_US, write_csv
from sdnmob.sim.transport import TransportSide

MAX_BYTES_PER_SAMPLE = 13
# Peak bytes allocated while writing a CSV: a chunk of formatted rows and
# its joined text (about 0.2 MiB measured), independent of the row count.
MAX_CSV_WRITE_PEAK = 512 * 1024
# Bytes a sender may hold for a whole queued bulk transfer.
MAX_PENDING_BYTES = 1024


@pytest.mark.parametrize("mode", ["sdn", "pmip"])
def test_finished_run_holds_at_most_13_bytes_per_sample(mode, bundled_configs):
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


def test_write_csv_peak_does_not_grow_with_window_count(tmp_path):
    windows = 36_000  # an hour of goodput; listed first, a 4.5 MB peak
    trace = MetricsTrace(
        events_fingerprint=("e",),
        deliveries=Series((i * WINDOW_US + 7, 8_000) for i in range(windows)),
    )
    path = tmp_path / "metrics.csv"
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_csv(trace, str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    with open(path, encoding="ascii") as fh:
        assert sum(1 for row in fh if row.startswith("throughput,")) == windows
    assert peak <= MAX_CSV_WRITE_PEAK, peak


def test_queued_bulk_transfer_holds_no_memory_per_segment():
    segments = 25_000  # bulk_handoff's 36.5 MB in 1460-byte segments
    side = TransportSide(SimpleNamespace(addr=None), 0, None, 1460)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        side.submit(segments)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (side.submitted, side.next_seq) == (segments, 0) and not side.unacked
    assert held <= MAX_PENDING_BYTES, held
