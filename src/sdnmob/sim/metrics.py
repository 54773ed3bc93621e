"""Run metrics: RTT series, goodput, handoff delays, losses, resets and the
SDN flow log.

Every per-packet sample (an RTT per ACK, a goodput record per delivered
segment) is a ``(time_us, value)`` pair of integers held in a ``Series``:
two 32-bit unsigned ``array('I')`` columns, 8 bytes a sample instead of a
tuple of two boxed ints. A column widens to ``array('q')`` at the first
value that does not fit (negative, or 2**32 and up; 2**32 microseconds is
71 minutes), so samples stay exact at any int64 magnitude. Samples are appended at the
simulator clock, which never decreases, so each ``times`` column is sorted
and windows over it are binary searches.

The CSV artifact is the stable machine-readable contract:
``series,time_s,value,unit`` with six-decimal simulated seconds. Throughput
is application goodput delivered at the server, in 100 ms tumbling windows.
``write_csv`` streams its rows to the file as they are formatted; the
throughput rows come from a lazy window iterator, so no list of windows is
built either.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

from ..addressing import Uid
from ..flow_engine import FlowRule
from ..units import US_PER_S

WINDOW_US = 100_000  # tumbling throughput window

CSV_HEADER = "series,time_s,value,unit"


class Series:
    """Append-only ``(time_us, value)`` integer samples in two columns.

    Each column starts as a 4-byte unsigned ``array('I')``. The first value
    that does not fit widens that column alone to an 8-byte ``array('q')``,
    so a run whose times and values stay in ``[0, 2**32)`` holds 8 bytes a
    sample and any value in ``[-2**63, 2**63)`` is kept exactly. Iterates,
    indexes and compares as the sequence of its pairs. Times must be
    appended in non-decreasing order for ``sum_between``.
    """

    __slots__ = ("times", "values")

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()) -> None:
        self.times = array("I")
        self.values = array("I")
        for t, v in pairs:
            self.append(t, v)

    def append(self, t: int, v: int) -> None:
        """Append one pair. A time or value outside int64 raises
        ``OverflowError`` and leaves both columns as they were."""
        times = self.times
        try:
            times.append(t)
        except OverflowError:
            times = _widened(times, t)
        try:
            self.values.append(v)
        except OverflowError:
            try:
                self.values = _widened(self.values, v)
            except OverflowError:
                if times is self.times:
                    times.pop()
                raise
        self.times = times

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.times, self.values)

    def __getitem__(self, i: int) -> Tuple[int, int]:
        return self.times[i], self.values[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.times == other.times and self.values == other.values

    def __repr__(self) -> str:
        return f"Series({list(self)!r})"

    def sum_between(self, start_us: int, end_us: int) -> int:
        """Sum of the values whose time lies in ``[start_us, end_us)``."""
        times = self.times
        lo = bisect_left(times, start_us)
        hi = bisect_left(times, end_us, lo)
        return sum(self.values[lo:hi])


def _widened(column: array, x: int) -> array:
    """``column`` copied into an int64 array, with ``x`` appended."""
    wide = array("q", column)
    wide.append(x)
    return wide


class ComparisonError(ValueError):
    """Traces come from different scenarios and cannot be compared."""


@dataclass
class HandoffRecord:
    detach_us: int
    first_delivery_us: Optional[int] = None

    @property
    def switchover_delay_us(self) -> Optional[int]:
        if self.first_delivery_us is None:
            return None
        return self.first_delivery_us - self.detach_us


# The SDN control plane's flow log: one record per rule the core installs
# or expires and per client the controller evicts, in simulated-time order.
class FlowInstalled(NamedTuple):
    at_us: int
    uid: Uid
    rule: FlowRule  # as installed in the core's table


class FlowExpired(NamedTuple):
    at_us: int
    rule: FlowRule


class ClientEvicted(NamedTuple):
    at_us: int
    uid: Uid


FlowEvent = Union[FlowInstalled, FlowExpired, ClientEvicted]


@dataclass
class MetricsTrace:
    events_fingerprint: Tuple[str, ...] = ()
    rtt_client: Series = field(default_factory=Series)  # (sent_at_us, rtt_us)
    rtt_server: Series = field(default_factory=Series)
    deliveries: Series = field(default_factory=Series)  # (t_us, bits)
    handoffs: List[HandoffRecord] = field(default_factory=list)
    expected_switchover_us: Optional[int] = None
    losses: int = 0
    resets: int = 0
    server_observed_sources: Set[str] = field(default_factory=set)
    counters: Dict[str, int] = field(default_factory=dict)
    flow_events: List[FlowEvent] = field(default_factory=list)
    end_of_traffic_us: int = 0

    # -- derived series ----------------------------------------------------

    def throughput_windows(self) -> Iterator[Tuple[int, float]]:
        """Goodput per tumbling window from t=0 through the last delivery,
        one ``(start_us, bits_per_s)`` window at a time."""
        deliveries = self.deliveries
        if not deliveries:
            return
        n_windows = deliveries.times[-1] // WINDOW_US + 1
        scale = US_PER_S / WINDOW_US
        for t in range(0, n_windows * WINDOW_US, WINDOW_US):
            yield t, deliveries.sum_between(t, t + WINDOW_US) * scale

    def goodput_between(self, start_us: int, end_us: int) -> float:
        """Exact goodput (bits/s) over [start_us, end_us)."""
        if end_us <= start_us:
            return 0.0
        total = self.deliveries.sum_between(start_us, end_us)
        return total * US_PER_S / (end_us - start_us)

    def steady_state_goodput(self) -> float:
        """Goodput over the pre-handoff steady interval.

        Measured from one second after the first delivery up to the first
        detach (or the end of traffic when nothing moves); falls back to the
        whole delivery span for very short runs.
        """
        if not self.deliveries:
            return 0.0
        start = self.deliveries[0][0] + US_PER_S
        end = self.handoffs[0].detach_us if self.handoffs else self.end_of_traffic_us
        if end - start < WINDOW_US:
            start = self.deliveries[0][0]
            end = self.end_of_traffic_us
        return self.goodput_between(start, end)

    def mean_rtt_s(self, side: str) -> Optional[float]:
        samples = self.rtt_client if side == "client" else self.rtt_server
        if not samples:
            return None
        return sum(samples.values) / len(samples) / US_PER_S

    # -- CSV ----------------------------------------------------------------

    def csv_lines(self) -> Iterator[str]:
        """The CSV rows, header first, formatted one at a time."""
        yield CSV_HEADER
        yield from _us_rows("rtt_client", self.rtt_client)
        yield from _us_rows("rtt_server", self.rtt_server)
        for t, bps in self.throughput_windows():
            yield f"throughput,{_seconds(t)},{bps:.6f},bps"
        for h in self.handoffs:
            delay = h.switchover_delay_us
            if delay is not None:
                yield f"switchover_delay,{_seconds(h.detach_us)},{_seconds(delay)},s"


# Microseconds (n >= 0) print as seconds with six decimals from integer
# arithmetic alone. That equals ``f"{n / US_PER_S:.6f}"`` while the quotient
# is exact to the microsecond in a double (n < ~4.5e15).
_SECONDS = "%d.%06d"


def _seconds(n_us: int) -> str:
    return _SECONDS % divmod(n_us, US_PER_S)


def _us_rows(series: str, samples: Series) -> Iterator[str]:
    """One row per sample, time and value both microseconds.

    ``_seconds`` is inlined here: these are nearly all of a run's rows, and
    two calls per row would make them about a quarter slower to format.
    """
    fmt = f"{series},{_SECONDS},{_SECONDS},s"
    for t, v in samples:
        yield fmt % (t // US_PER_S, t % US_PER_S, v // US_PER_S, v % US_PER_S)


# Rows joined per write: enough to amortize the file write (one write per
# row is about 15% slower), few enough to hold only ~40 KB at a time.
CSV_CHUNK_ROWS = 1024


def write_csv(trace: MetricsTrace, path: str) -> None:
    """Stream the trace's CSV to ``path``, ``CSV_CHUNK_ROWS`` rows per write,
    so neither the whole row list nor its joined text is ever held."""
    rows = trace.csv_lines()
    with open(path, "w", encoding="ascii", newline="") as fh:
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            chunk.append("")  # the newline after the chunk's last row
            fh.write("\n".join(chunk))


# -- comparison --------------------------------------------------------------


@dataclass
class ComparisonSummary:
    switchover_pairs: List[Tuple[float, float, float]]  # (a_s, b_s, a-b)
    steady_goodput_bps: Tuple[float, float]
    goodput_ratio_b_over_a: Optional[float]


def compare_runs(a: MetricsTrace, b: MetricsTrace) -> ComparisonSummary:
    """Pair two runs of the same scenario (e.g. translation vs tunneling)."""
    if a.events_fingerprint != b.events_fingerprint:
        raise ComparisonError("traces were produced by different event lists")
    pairs = []
    for ha, hb in zip(a.handoffs, b.handoffs):
        if ha.switchover_delay_us is None or hb.switchover_delay_us is None:
            continue
        da = ha.switchover_delay_us / US_PER_S
        db = hb.switchover_delay_us / US_PER_S
        pairs.append((da, db, da - db))
    steady_a = a.steady_state_goodput()
    steady_b = b.steady_state_goodput()
    ratio = steady_b / steady_a if steady_a > 0 else None
    return ComparisonSummary(
        switchover_pairs=pairs,
        steady_goodput_bps=(steady_a, steady_b),
        goodput_ratio_b_over_a=ratio,
    )


def trace_summary_lines(trace: MetricsTrace, prefix: str) -> List[str]:
    """Human-readable ``key: value`` lines for summary.txt."""
    lines = [
        f"{prefix}.resets: {trace.resets}",
        f"{prefix}.losses: {trace.losses}",
        f"{prefix}.server_observed_sources: "
        + (" ".join(sorted(trace.server_observed_sources)) or "none"),
    ]
    delays = [h.switchover_delay_us for h in trace.handoffs
              if h.switchover_delay_us is not None]
    if delays:
        lines.append(f"{prefix}.switchover_delay_s: "
                     + " ".join(_seconds(d) for d in delays))
    if trace.expected_switchover_us is not None:
        lines.append(
            f"{prefix}.expected_switchover_s: {_seconds(trace.expected_switchover_us)}"
        )
    for side in ("client", "server"):
        mean = trace.mean_rtt_s(side)
        value = f"{mean:.6f}" if mean is not None else "n/a"
        lines.append(f"{prefix}.mean_rtt_{side}_s: {value}")
    lines.append(f"{prefix}.steady_throughput_bps: {trace.steady_state_goodput():.1f}")
    return lines
