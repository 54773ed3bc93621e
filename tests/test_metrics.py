"""Metrics trace: sample series, CSV contract, window math, steady-state
helpers."""

from array import array

import pytest
from hypothesis import example, given, strategies as st

from sdnmob.sim.metrics import (
    CSV_HEADER,
    HandoffRecord,
    MetricsTrace,
    Series,
    WINDOW_US,
    _seconds,
    write_csv,
)
from sdnmob.units import US_PER_S


def make_trace(**kwargs):
    defaults = dict(events_fingerprint=("e",))
    defaults.update(kwargs)
    return MetricsTrace(**defaults)


def int64_copy(series):
    """The same pairs in columns that are int64 from the start."""
    wide = Series()
    wide.times = array("q", series.times)
    wide.values = array("q", series.values)
    return wide


class TestSeries:
    def test_reads_as_its_pairs(self):
        pairs = [(0, 7), (5, -3), (5, 2**62)]
        series = Series()
        for t, v in pairs:
            series.append(t, v)
        assert len(series) == 3
        assert list(series) == pairs
        assert [series[i] for i in range(3)] == pairs
        assert series[-1] == pairs[-1]
        assert series == Series(pairs)
        assert series != Series(pairs[:2])
        assert Series() == Series() and not Series()

    def test_columns_start_as_four_byte_unsigned(self):
        for series in (Series(), Series([(1, 2)])):
            for column in (series.times, series.values):
                assert column.typecode == "I" and column.itemsize == 4

    def test_each_column_widens_only_at_first_value_that_does_not_fit(self):
        series = Series([(0, 0), (2**32 - 1, 2**32 - 1)])
        assert series.times.typecode == series.values.typecode == "I"
        series.append(2**32, 5)
        assert series.times.typecode == "q" and series.values.typecode == "I"
        series.append(2**32 + 1, -1)
        assert series.times.typecode == series.values.typecode == "q"
        assert list(series) == [(0, 0), (2**32 - 1, 2**32 - 1),
                                (2**32, 5), (2**32 + 1, -1)]
        values_first = Series([(3, 2**40)])
        assert values_first.times.typecode == "I"
        assert values_first.values.typecode == "q"

    @pytest.mark.parametrize("t,v", [
        (5, 2**63), (5, -2**63 - 1), (2**63, 2), (-2**63 - 1, 2),
        (2**32, 2**63),  # the time alone would widen its column
        (2**64, 2**64),
    ])
    def test_append_outside_int64_changes_nothing(self, t, v):
        series = Series([(1, 2)])
        with pytest.raises(OverflowError):
            series.append(t, v)
        assert len(series) == 1 and list(series) == [(1, 2)]
        assert len(series.times) == len(series.values) == 1
        assert series.times.typecode == series.values.typecode == "I"

    @given(
        st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                           st.integers(-2**63, 2**63 - 1)), max_size=30),
        st.integers(-2**63, 2**63 - 1),
        st.integers(-2**63, 2**63 - 1),
    )
    @example([(0, 1), (2**32 - 1, 2**32 - 1), (2**32, 2**32), (2**63 - 1, -2**63)],
             0, 2**63 - 1)
    @example([(-5, 3), (7, -2**63)], -2**63, 8)
    def test_exact_across_widening(self, raw, start, end):
        """Any int64 pairs: the series reads as its pair list, window sums
        equal the linear sum across the widening point, and the CSV rows
        equal those of a series that was int64 from the start."""
        times = sorted(t for t, _ in raw)
        pairs = [(t, v) for t, (_, v) in zip(times, raw)]
        series = Series(pairs)
        assert list(series) == pairs and len(series) == len(pairs)
        assert [series[i] for i in range(len(pairs))] == pairs
        assert series.sum_between(start, end) == sum(
            v for t, v in pairs if start <= t < end)

        wide = int64_copy(series)
        assert series == wide
        # Deliveries keep small sorted times (a window per 100 ms from 0)
        # but take the drawn values, so the throughput rows widen too.
        small = Series((i * WINDOW_US, v) for i, (_, v) in enumerate(pairs))
        small_wide = int64_copy(small)
        assert small == small_wide
        narrow_rows = list(make_trace(rtt_client=series, rtt_server=series,
                                      deliveries=small).csv_lines())
        wide_rows = list(make_trace(rtt_client=wide, rtt_server=wide,
                                    deliveries=small_wide).csv_lines())
        assert narrow_rows == wide_rows


class TestCsv:
    def test_header_is_bit_exact(self):
        assert CSV_HEADER == "series,time_s,value,unit"

    def test_six_decimal_times_and_values(self, tmp_path):
        trace = make_trace(
            rtt_client=Series([(100_000, 15_512)]),
            rtt_server=Series([(200_000, 16_000)]),
            deliveries=Series([(50_000, 800)]),
            handoffs=[HandoffRecord(10_000_000, 10_112_144)],
        )
        path = tmp_path / "m.csv"
        write_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "rtt_client,0.100000,0.015512,s"
        assert lines[2] == "rtt_server,0.200000,0.016000,s"
        assert lines[3] == "throughput,0.000000,8000.000000,bps"
        assert lines[4] == "switchover_delay,10.000000,0.112144,s"

    @given(st.integers(0, 2**50), st.integers(0, 2**50))
    def test_integer_seconds_equal_float_formatting(self, t_us, n_us):
        float_form = f"{n_us / US_PER_S:.6f}"
        assert _seconds(n_us) == float_form
        trace = make_trace(rtt_client=Series([(t_us, n_us)]))
        row = list(trace.csv_lines())[1]
        assert row == f"rtt_client,{t_us / US_PER_S:.6f},{float_form},s"

    def test_streamed_file_equals_rows(self, traces, tmp_path):
        path = tmp_path / "m.csv"
        for trace in traces.values():
            write_csv(trace, str(path))
            assert path.read_text() == "\n".join(trace.csv_lines()) + "\n"

    def test_series_vocabulary(self, traces):
        allowed = {"rtt_client", "rtt_server", "throughput", "switchover_delay"}
        for trace in traces.values():
            for row in list(trace.csv_lines())[1:]:
                assert row.split(",")[0] in allowed


class TestWindows:
    def test_tumbling_window_accumulation(self):
        trace = make_trace(deliveries=Series([
            (10_000, 100), (20_000, 100),           # window 0
            (WINDOW_US + 1, 300),                   # window 1
            (3 * WINDOW_US + 5, 500),               # window 3 (2 empty)
        ]))
        samples = list(trace.throughput_windows())
        assert [b for _, b in samples] == [
            200 * US_PER_S / WINDOW_US,
            300 * US_PER_S / WINDOW_US,
            0.0,
            500 * US_PER_S / WINDOW_US,
        ]
        assert [t for t, _ in samples] == [0, WINDOW_US, 2 * WINDOW_US, 3 * WINDOW_US]

    def test_goodput_between_is_interval_exact(self):
        trace = make_trace(deliveries=Series([(0, 80), (10, 80), (20, 80)]))
        assert trace.goodput_between(0, 20) == 160 * US_PER_S / 20
        assert trace.goodput_between(20, 20) == 0.0

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10_000)), max_size=40),
        st.integers(-10, 1_000),
        st.integers(-10, 1_000),
    )
    def test_goodput_between_matches_linear_sum(self, steps, start, end):
        """Sorted series (gaps may be 0) against the linear sum over every
        sample, for empty, equal-bound and out-of-range windows too."""
        t, pairs = 0, []
        for gap, bits in steps:
            t += gap
            pairs.append((t, bits))
        trace = make_trace(deliveries=Series(pairs))
        if end <= start:
            expected = 0.0
        else:
            total = sum(b for t, b in pairs if start <= t < end)
            expected = total * US_PER_S / (end - start)
        assert trace.goodput_between(start, end) == expected

    def test_empty_trace(self):
        trace = make_trace()
        assert list(trace.throughput_windows()) == []
        assert trace.steady_state_goodput() == 0.0
        assert trace.mean_rtt_s("client") is None


class TestHandoffRecord:
    def test_delay_derivation(self):
        h = HandoffRecord(detach_us=5, first_delivery_us=12)
        assert h.switchover_delay_us == 7
        assert HandoffRecord(detach_us=5).switchover_delay_us is None
