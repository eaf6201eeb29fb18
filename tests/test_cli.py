"""Command-line surface: subcommands, file formats, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from keyedmod.experiment import config_to_dict, read_results, scenario_config


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "keyedmod", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestSchemeCommands:
    def test_show_prints_table(self):
        proc = run_cli("scheme", "show", "--name", "qam16_circ")
        assert proc.returncode == 0
        assert "order: 16" in proc.stdout
        assert "key: 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15" in proc.stdout

    def test_show_with_key(self):
        proc = run_cli("scheme", "show", "--name", "qpsk", "--key", "3,2,1,0")
        assert proc.returncode == 0
        assert "key: 3,2,1,0" in proc.stdout

    def test_show_unknown_scheme_is_data_error(self):
        proc = run_cli("scheme", "show", "--name", "qam1024")
        assert proc.returncode == 2
        assert "unknown scheme" in proc.stderr

    def test_make_key_deterministic(self):
        a = run_cli("scheme", "make-key", "--order", "16", "--seed", "9")
        b = run_cli("scheme", "make-key", "--order", "16", "--seed", "9")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert sorted(int(v) for v in a.stdout.strip().split(",")) == list(range(16))


class TestAnalyticCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("analytic", "sweep", "--snr-db", "0:25:0.5", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,p_correct,p_error"
        assert len(lines) == 52
        snr, p_c, p_e = lines[1].split(",")
        assert float(p_c) + float(p_e) == pytest.approx(1.0, abs=1e-15)

    def test_bad_sweep_spec(self):
        proc = run_cli("analytic", "sweep", "--snr-db", "0:25")
        assert proc.returncode == 2


class TestSecrecyCommands:
    def test_report_json(self):
        proc = run_cli("secrecy", "report", "--order", "16", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["keyspace_size"] == 20922789888000
        assert doc["shannon_bound_max_symbols"] == 11

    def test_report_text(self):
        proc = run_cli("secrecy", "report", "--order", "16")
        assert proc.returncode == 0
        fields = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
        assert list(fields) == [
            "order",
            "keyspace_size",
            "key_entropy_bits",
            "shannon_bound_max_symbols",
            "unicity_distance_zero_redundancy",
        ]
        assert fields["order"] == "16"
        assert fields["keyspace_size"] == "20922789888000"
        assert float(fields["key_entropy_bits"]) == pytest.approx(
            math.log2(20922789888000), rel=1e-12
        )
        assert fields["shannon_bound_max_symbols"] == "11"
        assert fields["unicity_distance_zero_redundancy"] == "infinite"

    def test_verify(self):
        proc = run_cli("secrecy", "verify", "--order", "4", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_verify_with_prior(self):
        proc = run_cli(
            "secrecy", "verify", "--order", "4", "--prior", "1/2,1/4,1/8,1/8"
        )
        assert proc.returncode == 0
        assert "passed: True" in proc.stdout

    def test_verify_guard(self):
        proc = run_cli("secrecy", "verify", "--order", "12")
        assert proc.returncode == 2


class TestPermanentCommand:
    def test_matrix_file(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("1 1 1\n1 1 1\n1 1 1\n")
        proc = run_cli("permanent", "--matrix", str(path))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "6"

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("1,0\n0,1\n")
        proc = run_cli("permanent", "--matrix", str(path))
        assert proc.stdout.strip() == "1"

    def test_missing_file(self, tmp_path):
        proc = run_cli("permanent", "--matrix", str(tmp_path / "nope.txt"))
        assert proc.returncode == 2

    def test_bad_matrix(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("1 2\n0 1\n")
        proc = run_cli("permanent", "--matrix", str(path))
        assert proc.returncode == 2


class TestSimCommands:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = scenario_config(2.0, 10.0, (0.0, 10.0), symbols_per_point=10_000, seed=7)
        path.write_text(json.dumps(config_to_dict(cfg)))
        return path

    def test_run_and_figures(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        proc = run_cli("sim", "run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

        fig = tmp_path / "fig7.csv"
        proc = run_cli("sim", "figure", "--id", "fig7", "--in", str(out), "--out", str(fig))
        assert proc.returncode == 0, proc.stderr
        header = fig.read_text().splitlines()[0]
        assert header == "snr_db,intended,eve_rect,eve_qpsk,eve_bpsk"

        fig13 = tmp_path / "fig13.csv"
        proc = run_cli("sim", "figure", "--id", "fig13", "--in", str(out), "--out", str(fig13))
        assert proc.returncode == 0
        assert fig13.read_text().startswith("statistic,value")

    def test_run_deterministic_modulo_timestamp(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sim", "run", "--config", str(config_path), "--out", str(out1)).returncode == 0
        assert run_cli("sim", "run", "--config", str(config_path), "--out", str(out2)).returncode == 0
        strip = lambda p: [
            l for l in p.read_text().splitlines() if not l.startswith("# generated:")
        ]
        body1, body2 = strip(out1), strip(out2)
        assert body1 == body2
        assert any(l.startswith("# config_digest:") for l in body1)
        for name in ("keyedmod", "numpy", "python"):
            assert sum(l.startswith(f"# {name}_version: ") for l in body1) == 1, name
        assert len(read_results(out1)) == 8

    def test_figure_without_input(self, tmp_path):
        proc = run_cli("sim", "figure", "--id", "fig7", "--out", str(tmp_path / "f.csv"))
        assert proc.returncode == 2
        assert "requires --in" in proc.stderr

    def test_fig5_needs_no_input(self, tmp_path):
        out = tmp_path / "fig5.csv"
        proc = run_cli("sim", "figure", "--id", "fig5", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "snr_db,p_correct,p_error"

    def test_malformed_config_is_data_error(self, config_path, tmp_path):
        typo = json.loads(config_path.read_text())
        typo["sweep_mod"] = typo.pop("sweep_mode")
        for text in ("{", json.dumps(typo)):
            path = tmp_path / "bad.json"
            path.write_text(text)
            proc = run_cli("sim", "run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
            assert proc.returncode == 2
        assert "unknown key 'sweep_mod'" in proc.stderr
        assert not (tmp_path / "o.csv").exists()


class TestUsageErrors:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_missing_required_flag(self):
        proc = run_cli("secrecy", "report")
        assert proc.returncode == 1

    def test_bad_figure_id(self):
        proc = run_cli("sim", "figure", "--id", "fig2")
        assert proc.returncode == 1
