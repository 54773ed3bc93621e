"""The benchmark's layer sweeps (``perfbench/sweeps.py``, run by
``perfbench/run.py --trace 1``) call the flow table and the controller
directly, so a change to either API would break the traced benchmark
without failing any other test. Both are run here at small sizes.

The sweep module is loaded from its file and only read; nothing under
``perfbench/`` is written.
"""

from test_golden import load_perfbench


def test_match_sweep_runs_on_the_flow_table(monkeypatch):
    sweeps = load_perfbench("sweeps", monkeypatch)
    timings = sweeps.match_us((10, 100))
    assert sorted(timings) == [10, 100]
    assert all(us > 0 for us in timings.values())


def test_report_sweep_runs_on_the_controller(monkeypatch):
    sweeps = load_perfbench("sweeps", monkeypatch)
    assert sweeps.report_us(10) > 0
