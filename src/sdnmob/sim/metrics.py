"""Run metrics: RTT series, goodput, handoff delays, losses and resets.

The CSV artifact is the stable machine-readable contract:
``series,time_s,value,unit`` with six-decimal simulated seconds. Throughput
is application goodput delivered at the server, in 100 ms tumbling windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..units import US_PER_S

WINDOW_US = 100_000  # tumbling throughput window

CSV_HEADER = "series,time_s,value,unit"


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


@dataclass
class MstTransition:
    at_us: int
    before: Dict[str, tuple]
    after: Dict[str, tuple]


@dataclass
class MetricsTrace:
    mode: str
    seed: int
    events_fingerprint: Tuple[str, ...]
    rtt_client: List[Tuple[int, int]] = field(default_factory=list)
    rtt_server: List[Tuple[int, int]] = field(default_factory=list)
    deliveries: List[Tuple[int, int]] = field(default_factory=list)  # (t_us, bits)
    handoffs: List[HandoffRecord] = field(default_factory=list)
    expected_switchover_us: Optional[int] = None
    losses: int = 0
    resets: int = 0
    server_observed_sources: Set[str] = field(default_factory=set)
    counters: Dict[str, int] = field(default_factory=dict)
    flow_events: List[Tuple[int, str]] = field(default_factory=list)
    mst_transitions: List[MstTransition] = field(default_factory=list)
    end_of_traffic_us: int = 0

    # -- derived series ----------------------------------------------------

    def throughput_samples(self) -> List[Tuple[int, float]]:
        """Goodput per tumbling window from t=0 through the last delivery."""
        if not self.deliveries:
            return []
        last = self.deliveries[-1][0]
        n_windows = last // WINDOW_US + 1
        bits = [0] * n_windows
        for t, b in self.deliveries:
            bits[t // WINDOW_US] += b
        scale = US_PER_S / WINDOW_US
        return [(i * WINDOW_US, bits[i] * scale) for i in range(n_windows)]

    def goodput_between(self, start_us: int, end_us: int) -> float:
        """Exact goodput (bits/s) over [start_us, end_us)."""
        if end_us <= start_us:
            return 0.0
        total = sum(b for t, b in self.deliveries if start_us <= t < end_us)
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
        return sum(r for _, r in samples) / len(samples) / US_PER_S

    # -- CSV ----------------------------------------------------------------

    def csv_rows(self) -> List[str]:
        rows = [CSV_HEADER]
        for t, r in self.rtt_client:
            rows.append(_row("rtt_client", t, r / US_PER_S, "s"))
        for t, r in self.rtt_server:
            rows.append(_row("rtt_server", t, r / US_PER_S, "s"))
        for t, bps in self.throughput_samples():
            rows.append(_row("throughput", t, bps, "bps"))
        for h in self.handoffs:
            if h.switchover_delay_us is not None:
                rows.append(_row("switchover_delay", h.detach_us,
                                 h.switchover_delay_us / US_PER_S, "s"))
        return rows


def _row(series: str, t_us: int, value: float, unit: str) -> str:
    return f"{series},{t_us / US_PER_S:.6f},{value:.6f},{unit}"


def write_csv(trace: MetricsTrace, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(trace.csv_rows()) + "\n")


# -- comparison --------------------------------------------------------------


@dataclass
class ComparisonSummary:
    switchover_pairs: List[Tuple[float, float, float]]  # (a_s, b_s, a-b)
    mean_rtt_client: Tuple[Optional[float], Optional[float]]
    mean_rtt_server: Tuple[Optional[float], Optional[float]]
    steady_goodput_bps: Tuple[float, float]
    goodput_ratio_b_over_a: Optional[float]
    losses: Tuple[int, int]
    resets: Tuple[int, int]


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
        mean_rtt_client=(a.mean_rtt_s("client"), b.mean_rtt_s("client")),
        mean_rtt_server=(a.mean_rtt_s("server"), b.mean_rtt_s("server")),
        steady_goodput_bps=(steady_a, steady_b),
        goodput_ratio_b_over_a=ratio,
        losses=(a.losses, b.losses),
        resets=(a.resets, b.resets),
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
                     + " ".join(f"{d / US_PER_S:.6f}" for d in delays))
    if trace.expected_switchover_us is not None:
        lines.append(
            f"{prefix}.expected_switchover_s: {trace.expected_switchover_us / US_PER_S:.6f}"
        )
    for side in ("client", "server"):
        mean = trace.mean_rtt_s(side)
        value = f"{mean:.6f}" if mean is not None else "n/a"
        lines.append(f"{prefix}.mean_rtt_{side}_s: {value}")
    lines.append(f"{prefix}.steady_throughput_bps: {trace.steady_state_goodput():.1f}")
    return lines
