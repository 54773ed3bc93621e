"""Command-line runner: artifacts, exit codes, environment override."""

from sdnmob import cli
from sdnmob.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

MINIMAL_SDN = """\
[topology]
seed = 1

[zones]
zone1 = range=10.1.0.0/24
zone2 = range=10.2.0.0/24

[events]
echo = start_echo at=0 interval_s=0.1 payload_len=100
stop = stop at=2
"""


class TestRunCommand:
    def test_both_mode_writes_two_csvs_and_summary(self, tmp_path):
        out = tmp_path / "artifacts"
        rc = main(["run", "handoff_basic", "--out", str(out)])
        assert rc == EXIT_OK
        sdn_csv = out / "metrics_sdn.csv"
        pmip_csv = out / "metrics_pmip.csv"
        summary = out / "summary.txt"
        for path in (sdn_csv, pmip_csv, summary):
            assert path.is_file() and path.stat().st_size > 0
        header = sdn_csv.read_text().splitlines()[0]
        assert header == "series,time_s,value,unit"
        text = summary.read_text()
        assert "sdn.resets: 0" in text
        assert "sdn.losses: 0" in text
        assert "delta.switchover_delay_s: -" in text  # sdn faster

    def test_sdn_only_mode(self, tmp_path):
        config = tmp_path / "static.ini"
        config.write_text(MINIMAL_SDN)
        out = tmp_path / "out"
        rc = main(["run", str(config), "--mode", "sdn", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "metrics_sdn.csv").is_file()
        assert not (out / "metrics_pmip.csv").exists()
        text = (out / "summary.txt").read_text()
        assert "sdn.resets: 0" in text and "sdn.losses: 0" in text

    def test_pmip_without_tunnel_section_fails(self, tmp_path):
        config = tmp_path / "static.ini"
        config.write_text(MINIMAL_SDN)
        rc = main(["run", str(config), "--mode", "pmip",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_unknown_scenario_name(self, tmp_path):
        rc = main(["run", "does_not_exist", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("SDNMOB_OUTPUT_DIR", str(target))
        rc = main(["run", "handoff_basic", "--mode", "sdn"])
        assert rc == EXIT_OK
        assert (target / "metrics_sdn.csv").is_file()

    def test_same_config_twice_identical_artifacts(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "handoff_basic", "--mode", "sdn", "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "handoff_basic", "--mode", "sdn", "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "metrics_sdn.csv").read_bytes() == \
            (out_b / "metrics_sdn.csv").read_bytes()
        assert (out_a / "summary.txt").read_bytes() == \
            (out_b / "summary.txt").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "seeded"
        rc = main(["run", "handoff_basic", "--mode", "sdn",
                   "--seed", "7", "--out", str(out)])
        assert rc == EXIT_OK
        assert "seed: 7" in (out / "summary.txt").read_text()

    def test_non_finite_time_exits_config_with_location(self, tmp_path, capsys):
        config = tmp_path / "nan.ini"
        config.write_text(MINIMAL_SDN.replace("stop at=2", "stop at=nan"))
        rc = main(["run", str(config), "--mode", "sdn", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert f"{config}:10: bad time for at: 'nan'" in capsys.readouterr().err

    def test_run_error_prints_traceback_and_exits_runtime(self, tmp_path,
                                                          monkeypatch, capsys):
        def broken_run(net, events):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "run_scenario", broken_run)
        rc = main(["run", "handoff_basic", "--mode", "sdn",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "in broken_run" in err
        assert "RuntimeError: simulated fault" in err
        assert err.endswith("run failed: simulated fault\n")
