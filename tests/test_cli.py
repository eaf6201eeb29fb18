"""Command-line surface: subcommands, file formats, exit codes."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from keyedmod import cli
from keyedmod.cli import main
from keyedmod.constellations import make_keyed_scheme, make_standard_scheme, parse_key
from keyedmod.experiment import (
    FIGURE_IDS,
    REQUIRED_RECEIVER_LABELS,
    BerRecord,
    config_to_dict,
    emit_figure_data,
    load_config,
    read_results,
    write_results,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DEMO_CONFIG = CONFIGS / "demo.json"


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

    def test_show_pins_keyed_point_rows(self):
        proc = run_cli("scheme", "show", "--name", "qpsk", "--key", "3,2,1,0")
        assert proc.returncode == 0
        scheme = make_keyed_scheme(make_standard_scheme("qpsk"), parse_key("3,2,1,0"))
        points = [scheme.points[p] for p in scheme.key.perm]
        lines = proc.stdout.splitlines()
        rows = lines[lines.index("bit_value,point_re,point_im") + 1 :]
        assert rows == [f"{v:02b},{p.real!r},{p.imag!r}" for v, p in enumerate(points)]
        assert rows[0] == "00,-0.7071067811865475,-0.7071067811865475"
        assert "np.float64" not in proc.stdout

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

    def test_make_key_refuses_negative_seed(self):
        proc = run_cli("scheme", "make-key", "--order", "16", "--seed", "-5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "seed must be nonnegative, got -5" in proc.stderr


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

    def test_sweep_with_too_many_points(self):
        proc = run_cli("analytic", "sweep", "--snr-db", "0:25:1e-9")
        assert proc.returncode == 2
        assert "step 1e-09 gives more than" in proc.stderr

    def test_sweep_past_float_range(self):
        # Es/N0 at 4000 dB is beyond float64 and counts as infinite.
        proc = run_cli("analytic", "sweep", "--snr-db", "0:4000:4000")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "4000.0,0.0,1.0"

    def test_closed_stdout_is_not_an_error(self):
        # 10001 rows overflow the pipe buffer, so a write fails once the
        # reader has gone.
        with subprocess.Popen(
            [sys.executable, "-m", "keyedmod", "analytic", "sweep", "--snr-db", "0:25:0.0025"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"snr_db,p_correct,p_error\n"
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert stderr == b""


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
        proc = run_cli("secrecy", "verify", "--order", "65")
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
        cfg = replace(
            load_config(CONFIGS / "fig7.json"),
            snr_sweep_db=(0.0, 10.0),
            symbols_per_point=10_000,
            seed=7,
        )
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
        assert sum(l.startswith("# rng_stream:") for l in body1) == 1
        assert body1.index("# rng_stream: 4") == body1.index(
            next(l for l in body1 if l.startswith("# python_version: "))
        ) + 1
        assert len(read_results(out1)) == 8

    def test_every_figure_id_is_accepted(self, config_path, tmp_path):
        results = tmp_path / "results.csv"
        assert main(["sim", "run", "--config", str(config_path), "--out", str(results)]) == 0
        records = read_results(results)
        for fig in FIGURE_IDS:
            emit_figure_data(records, fig)
            out = tmp_path / f"{fig}.csv"
            assert main(["sim", "figure", "--id", fig, "--in", str(results), "--out", str(out)]) == 0
            assert out.read_text().splitlines()[1:], fig

    def test_overflowing_sweep_fails_before_the_first_cell(self, config_path, tmp_path):
        doc = json.loads(config_path.read_text())
        doc["snr_sweep_db"] = [-4000.0]
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        proc = run_cli("sim", "run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 2
        assert "SNR sweep value -4000.0 dB is too low" in proc.stderr
        assert not out.exists()

    def test_unwritable_out_fails_before_the_sweep(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: calls.append(cfg))
        out = tmp_path / "missing" / "o.csv"
        assert main(["sim", "run", "--config", str(config_path), "--out", str(out)]) == 2
        assert calls == []
        assert str(out) in capsys.readouterr().err

    def test_metadata_line_break_fails_before_the_sweep(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: calls.append(cfg))
        broken = tmp_path / "cfg\nx.json"
        broken.write_text(config_path.read_text())
        out = tmp_path / "o.csv"
        out.write_text("earlier results\n")
        assert main(["sim", "run", "--config", str(broken), "--out", str(out)]) == 2
        assert calls == []
        assert out.read_text() == "earlier results\n"
        assert "metadata 'config' holds a line break" in capsys.readouterr().err

    def test_failed_sweep_leaves_out_as_it_was(self, config_path, tmp_path, monkeypatch):
        def fail(cfg):
            raise ValueError("sweep failed")

        monkeypatch.setattr(cli, "run_experiment", fail)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("earlier results\n")
        for out in (old, new):
            assert main(["sim", "run", "--config", str(config_path), "--out", str(out)]) == 2
        assert old.read_text() == "earlier results\n"
        assert not new.exists()

    def test_figure_without_input(self, tmp_path):
        proc = run_cli("sim", "figure", "--id", "fig7", "--out", str(tmp_path / "f.csv"))
        assert proc.returncode == 2
        assert "requires --in" in proc.stderr

    def test_figure_rejects_repeated_point(self, tmp_path):
        records = [
            BerRecord(label, 0.0, 40000, 10000, 10, 1e-3, 10, 1e-3)
            for label in REQUIRED_RECEIVER_LABELS
        ]
        records.insert(0, BerRecord("intended", 0.0, 40000, 10000, 1, 1e-4, 1, 1e-4))
        results = tmp_path / "results.csv"
        write_results(records, results)
        out = tmp_path / "fig7.csv"
        proc = run_cli("sim", "figure", "--id", "fig7", "--in", str(results), "--out", str(out))
        assert proc.returncode == 2
        assert "fig7: series 'intended' has two records at 0.0 dB" in proc.stderr
        assert not out.exists()

    def test_figure_refuses_oversized_field(self, tmp_path):
        results = tmp_path / "results.csv"
        write_results([BerRecord("x" * 200_000, 0.0, 4, 4, 1, 0.25, 1, 0.5)], results)
        proc = run_cli("sim", "figure", "--id", "fig7", "--in", str(results))
        assert proc.returncode == 2
        assert f"{results}:3: field larger than field limit" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize(
        "where, value, field",
        [
            (("sender",), 7, "sender.key"),
            (("sender",), "", "sender.key"),
            (("receivers", 2), [0, 1, 2, 3], "receiver 2 key"),
            (("receivers", 0), False, "receiver 0 key"),
        ],
        ids=["sender_int", "sender_empty", "receiver_list", "receiver_false"],
    )
    def test_bad_key_is_data_error(self, tmp_path, capsys, where, value, field):
        doc = json.loads(DEMO_CONFIG.read_text())
        target = doc
        for part in where:
            target = target[part]
        target["key"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert main(["sim", "run", "--config", str(path), "--out", str(out)]) == 2
        assert f"{field} must be null or a comma-separated permutation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", [["a"], 5, True, None], ids=["list", "int", "bool", "null"])
    def test_non_string_label_is_data_error(self, tmp_path, capsys, label):
        doc = json.loads(DEMO_CONFIG.read_text())
        doc["receivers"][0]["label"] = label
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert main(["sim", "run", "--config", str(path), "--out", str(out)]) == 2
        assert f"receiver label must be a string, got {label!r}" in capsys.readouterr().err
        assert not out.exists()


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


class TestParserReuse:
    """One parser per process, built by the first ``main`` call."""

    @pytest.fixture()
    def parsers_built(self, monkeypatch):
        """Count every parser built, subparsers included, from a fresh cache."""
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        cli.build_parser.cache_clear()
        yield built
        cli.build_parser.cache_clear()

    def test_two_calls_build_one_parser(self, parsers_built, capsys):
        assert main(["scheme", "make-key", "--order", "4", "--seed", "1"]) == 0
        one_build = len(parsers_built)
        assert one_build > 1 and parsers_built[0] == "keyedmod"
        assert main(["scheme", "make-key", "--order", "4", "--seed", "1"]) == 0
        assert len(parsers_built) == one_build
        first, second = capsys.readouterr().out.splitlines()
        assert first == second

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import keyedmod.cli\n"
            "print(len(built), keyedmod.cli.build_parser.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_no_argument_leaks_into_the_next_call(self, tmp_path, monkeypatch):
        records = [
            BerRecord(label, 0.0, 40000, 10000, 10, 1e-3, 10, 1e-3)
            for label in REQUIRED_RECEIVER_LABELS
        ]
        results = tmp_path / "results.csv"
        write_results(records, results)
        seen = []

        def spy(records, figure_id):
            seen.append((figure_id, records))
            return emit_figure_data(records, figure_id)

        monkeypatch.setattr(cli, "emit_figure_data", spy)
        for argv in (
            ["--id", "fig7", "--in", str(results), "--out", str(tmp_path / "fig7.csv")],
            ["--id", "fig5", "--out", str(tmp_path / "fig5.csv")],
        ):
            assert main(["sim", "figure", *argv]) == 0
        assert [fig for fig, _ in seen] == ["fig7", "fig5"]
        assert seen[0][1] == records and seen[1][1] is None
        parser = cli.build_parser()
        parser.parse_args(["sim", "figure", "--id", "fig7", "--in", str(results)])
        assert parser.parse_args(["sim", "figure", "--id", "fig5"]).infile is None

    @pytest.mark.parametrize(
        "argv",
        [["frobnicate"], ["secrecy", "report"], ["sim", "figure", "--id", "fig2"], []],
        ids=["unknown-subcommand", "missing-flag", "bad-choice", "no-command"],
    )
    def test_usage_errors_repeat_with_the_same_stderr(self, argv, capsys):
        fresh = run_cli(*argv)
        assert fresh.returncode == 1
        for _ in range(2):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", fresh.stderr)
