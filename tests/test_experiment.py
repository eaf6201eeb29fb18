"""Experiment runner, persistence, and figure emission."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from keyedmod import experiment
from keyedmod.analytic import SnrPoint, p_correct_all_symbols, snr_grid_db
from keyedmod.channel import ChannelSpec, PathLossModel, add_awgn
from keyedmod.constellations import random_key
from keyedmod.experiment import (
    FIGURE_SCENARIOS,
    REQUIRED_RECEIVER_LABELS,
    BerRecord,
    ExperimentConfig,
    IntegrityError,
    ReceiverSpec,
    config_from_dict,
    config_to_dict,
    emit_figure_data,
    load_config,
    read_results,
    run_experiment,
    scenario_config,
    write_results,
)
from keyedmod.modem import demodulate, modulate

A = math.sqrt(1.0 / 10.0)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_config(**overrides):
    base = dict(
        sender_scheme="qam16_circ",
        sender_key=None,
        receivers=(
            ReceiverSpec("intended", "qam16_circ", distance_m=10.0),
            ReceiverSpec("eve_rect", "qam16_rect", distance_m=10.0),
        ),
        path_loss=PathLossModel(alpha=2.0),
        snr_sweep_db=(0.0, 10.0),
        sweep_mode="receive",
        symbols_per_point=10_000,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_requires_receivers(self):
        with pytest.raises(ValueError, match="receiver"):
            small_config(receivers=())

    def test_requires_sorted_sweep(self):
        with pytest.raises(ValueError, match="sorted"):
            small_config(snr_sweep_db=(10.0, 0.0))

    def test_requires_symbol_budget(self):
        with pytest.raises(ValueError, match="symbols_per_point"):
            small_config(symbols_per_point=100)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_config(
                receivers=(
                    ReceiverSpec("x", "bpsk"),
                    ReceiverSpec("x", "qpsk"),
                )
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="sweep mode"):
            small_config(sweep_mode="transmit")

    def test_bad_scheme_fails_before_simulation(self):
        cfg = small_config(sender_scheme="qam64")
        with pytest.raises(ValueError, match="unknown scheme"):
            run_experiment(cfg)

    def test_wider_receiver_fails_before_simulation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "add_awgn", lambda *args: calls.append(args))
        cfg = small_config(
            sender_scheme="qpsk",
            receivers=(ReceiverSpec("eve_bpsk", "bpsk"), ReceiverSpec("eve_rect", "qam16_rect")),
        )
        with pytest.raises(ValueError, match="'eve_rect' resolves 4 bits/symbol"):
            run_experiment(cfg)
        assert calls == []

    @pytest.mark.parametrize("mode", ["receive", "reference"])
    def test_rejects_receiver_inside_reference_distance(self, mode):
        with pytest.raises(ValueError, match="'eve_bpsk' at 0.5 m is inside"):
            small_config(
                sweep_mode=mode,
                receivers=(
                    ReceiverSpec("intended", "qam16_circ", distance_m=10.0),
                    ReceiverSpec("eve_bpsk", "bpsk", distance_m=0.5),
                ),
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sweep_value(self, value):
        with pytest.raises(ValueError, match="SNR sweep values must be finite"):
            small_config(snr_sweep_db=(0.0, value))

    @pytest.mark.parametrize(
        "where, key, match",
        [
            ((), "snr_sweep_db", "SNR sweep values must be finite"),
            (("receivers", 0), "distance_m", "distance must be positive and finite"),
            (("path_loss",), "alpha", "alpha must be finite"),
            (("path_loss",), "d_ref_m", "d_ref must be finite"),
        ],
        ids=["sweep", "distance", "alpha", "d_ref"],
    )
    def test_load_config_rejects_non_finite_numbers(
        self, tmp_path, monkeypatch, where, key, match
    ):
        # json.load accepts NaN and Infinity, so a config file can carry
        # them; the config must refuse them before any cell is simulated.
        doc = config_to_dict(small_config(sweep_mode="reference"))
        target = doc
        for part in where:
            target = target[part]
        target[key] = [0.0, math.nan] if key == "snr_sweep_db" else math.inf
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(experiment, "add_awgn", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=match):
            run_experiment(load_config(path))
        assert calls == []

    @pytest.mark.parametrize(
        "where, key",
        [
            ((), "sweep_mod"),
            (("sender",), "keys"),
            (("receivers", 1), "distance"),
            (("path_loss",), "d_ref"),
            (("snr_sweep_db",), "stop_db"),
        ],
        ids=["top_level", "sender", "receiver", "path_loss", "sweep_grid"],
    )
    def test_rejects_unknown_keys(self, where, key):
        doc = config_to_dict(small_config())
        doc["snr_sweep_db"] = {"start": 0, "stop": 10, "step": 5}
        target = doc
        for part in where:
            target = target[part]
        target[key] = 1
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            config_from_dict(doc)

    def test_dict_round_trip(self):
        cfg = small_config(sender_key=random_key(16, 3))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_load_config_file(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_load_config_sweep_shorthand(self, tmp_path):
        doc = config_to_dict(small_config())
        doc["snr_sweep_db"] = {"start": 0, "stop": 10, "step": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).snr_sweep_db == (0.0, 5.0, 10.0)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)


def bit_domain_records(cfg):
    """Oracle: each ``receive``-mode cell in the bit domain, with per-group prefix comparison."""
    sender, rx_schemes = cfg.resolve_schemes()
    m_tx = sender.bits_per_symbol
    n_sym = cfg.symbols_per_point
    records = []
    for sweep_idx, snr_db in enumerate(cfg.snr_sweep_db):
        for spec, rx_scheme in zip(cfg.receivers, rx_schemes):
            seeds = [
                experiment._substream_seed(cfg.seed, sweep_idx, spec.label, lane)
                for lane in (0, 1)
            ]
            bits = np.random.default_rng(seeds[0]).integers(0, 2, n_sym * m_tx, dtype=np.uint8)
            received = add_awgn(modulate(bits, sender), ChannelSpec(snr_db, seeds[1]))
            m_rx = rx_scheme.bits_per_symbol
            rx_groups = demodulate(received, rx_scheme).reshape(n_sym, m_rx)
            mismatch = bits.reshape(n_sym, m_tx)[:, :m_rx] != rx_groups
            bit_errors = int(mismatch.sum())
            symbol_errors = int(mismatch.any(axis=1).sum())
            records.append(
                BerRecord(
                    receiver_label=spec.label,
                    snr_db=snr_db,
                    tx_bits=bits.size,
                    compared_bits=mismatch.size,
                    bit_errors=bit_errors,
                    ber=bit_errors / mismatch.size,
                    symbol_errors=symbol_errors,
                    ser=symbol_errors / n_sym,
                )
            )
    return sorted(records, key=lambda r: (r.receiver_label, r.snr_db))


class TestRunExperiment:
    def test_deterministic(self):
        cfg = small_config()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_adding_receiver_preserves_series(self):
        cfg = small_config()
        extra = small_config(
            receivers=cfg.receivers + (ReceiverSpec("eve_bpsk", "bpsk", distance_m=10.0),)
        )
        base_records = {
            (r.receiver_label, r.snr_db): r for r in run_experiment(cfg)
        }
        for rec in run_experiment(extra):
            if (rec.receiver_label, rec.snr_db) in base_records:
                assert rec == base_records[(rec.receiver_label, rec.snr_db)]

    def test_reordering_receivers_preserves_series(self):
        cfg = small_config()
        flipped = small_config(receivers=tuple(reversed(cfg.receivers)))
        assert run_experiment(cfg) == run_experiment(flipped)

    def test_matched_receiver_noiseless_is_exact_zero(self):
        cfg = small_config(snr_sweep_db=(200.0,))
        records = run_experiment(cfg)
        intended = [r for r in records if r.receiver_label == "intended"]
        assert intended[0].ber == 0.0
        assert intended[0].symbol_errors == 0

    def test_records_canonically_ordered(self):
        records = run_experiment(small_config())
        keys = [(r.receiver_label, r.snr_db) for r in records]
        assert keys == sorted(keys)

    def test_reference_mode_applies_path_loss(self):
        cfg = small_config(
            sweep_mode="reference",
            receivers=(ReceiverSpec("intended", "qam16_circ", distance_m=10.0),),
            path_loss=PathLossModel(alpha=2.0, d_ref=1.0),
            snr_sweep_db=(30.0,),
        )
        (record,) = run_experiment(cfg)
        assert record.snr_db == pytest.approx(10.0)

    def test_bit_accounting(self):
        cfg = small_config(snr_sweep_db=(5.0,))
        for rec in run_experiment(cfg):
            assert rec.tx_bits == 40_000
            if rec.receiver_label == "eve_rect":
                assert rec.compared_bits == 40_000
            assert rec.ber == rec.bit_errors / rec.compared_bits

    def test_matched_grid_receiver_tracks_theory(self):
        # Square-grid self-decoding SER against the closed-form nearest
        # neighbor benchmark: per-axis error p = (3/4) erfc(sqrt(Es/(10 N0))),
        # SER = 1 - (1 - p)^2.
        cfg = ExperimentConfig(
            sender_scheme="qam16_rect",
            sender_key=None,
            receivers=(ReceiverSpec("intended", "qam16_rect"),),
            path_loss=PathLossModel(alpha=2.0),
            snr_sweep_db=(10.0,),
            sweep_mode="receive",
            symbols_per_point=1_000_000,
            seed=11,
        )
        (record,) = run_experiment(cfg)
        u = math.sqrt(10.0 / 10.0)
        p_axis = 0.75 * math.erfc(u)
        ser_theory = 1.0 - (1.0 - p_axis) ** 2
        sigma = math.sqrt(ser_theory * (1 - ser_theory) / cfg.symbols_per_point)
        assert abs(record.ser - ser_theory) <= 4 * sigma

    def test_secret_key_splits_matched_and_mismatched_receivers(self):
        # Same geometry everywhere: only the shared permutation separates
        # the intended receiver from the listener guessing the stock map.
        key = random_key(16, 31)
        cfg = ExperimentConfig(
            sender_scheme="qam16_circ",
            sender_key=key,
            receivers=(
                ReceiverSpec("intended", "qam16_circ", key=key),
                ReceiverSpec("eve_stockmap", "qam16_circ", key=None),
            ),
            path_loss=PathLossModel(alpha=2.0),
            snr_sweep_db=(25.0,),
            sweep_mode="receive",
            symbols_per_point=50_000,
            seed=13,
        )
        by_label = {r.receiver_label: r for r in run_experiment(cfg)}
        assert by_label["intended"].ber < 1e-4
        assert 0.35 <= by_label["eve_stockmap"].ber <= 0.65

    def test_cross_scheme_symbol_rate_tracks_alphabet_average(self):
        # Full uniform-bit traffic decodes correctly at the rate the
        # sixteen-cell Gaussian integral predicts (with the operational
        # unit-energy gain on the sender points).
        cfg = ExperimentConfig(
            sender_scheme="qam16_circ",
            sender_key=None,
            receivers=(ReceiverSpec("eve_rect", "qam16_rect"),),
            path_loss=PathLossModel(alpha=2.0),
            snr_sweep_db=(0.0,),
            sweep_mode="receive",
            symbols_per_point=1_000_000,
            seed=12,
        )
        (record,) = run_experiment(cfg)
        table = [1.53 - 3.69j, 0.76 - 1.84j, 3.69 - 1.53j, 1.84 - 0.76j]
        mean_sq = sum(abs(c) ** 2 for c in table) / 4 / 10.0
        gain = 1.0 / math.sqrt(mean_sq)
        predicted = p_correct_all_symbols(SnrPoint.from_db(0.0), point_scale=gain)
        sigma = math.sqrt(predicted * (1 - predicted) / cfg.symbols_per_point)
        assert abs((1.0 - record.ser) - predicted) <= 4 * sigma

    def test_records_equal_bit_domain_oracle(self):
        key = random_key(16, 41)
        cfg = small_config(
            sender_key=key,
            receivers=(
                ReceiverSpec("intended", "qam16_circ", key=key),
                ReceiverSpec("eve_wrong_key", "qam16_circ", key=random_key(16, 42)),
                ReceiverSpec("eve_rect", "qam16_rect"),
                ReceiverSpec("eve_qpsk", "qpsk"),
                ReceiverSpec("eve_bpsk", "bpsk"),
            ),
            snr_sweep_db=(0.0, 12.0, 24.0),
        )
        records = run_experiment(cfg)
        assert len(records) == 15
        assert records == bit_domain_records(cfg)


class TestBerRecord:
    def test_rejects_inconsistent_rate(self):
        with pytest.raises(ValueError, match="ber"):
            BerRecord("x", 0.0, 100, 100, 10, 0.2, 5, 0.05)

    def test_rejects_compared_above_tx(self):
        with pytest.raises(ValueError, match="compared_bits"):
            BerRecord("x", 0.0, 100, 200, 10, 0.05, 5, 0.05)

    def test_rejects_ser_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            BerRecord("x", 0.0, 100, 100, 10, 0.1, 0, 0.05)


class TestResultsIO:
    def make_records(self):
        return run_experiment(small_config())

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "out.csv"
        write_results(records, path, {"symbols_per_point": 10_000})
        assert read_results(path) == records

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        assert read_results(path) == []

    def test_header_always_present(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == [
            "receiver_label,snr_db,tx_bits,compared_bits,bit_errors,ber,symbol_errors,ser"
        ]

    def test_tampered_ber_detected_with_line_number(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "out.csv"
        write_results(records, path)
        lines = path.read_text().splitlines()
        first_data = next(
            i for i, l in enumerate(lines) if not l.startswith("#")
        ) + 1
        fields = lines[first_data].split(",")
        fields[5] = "0.123456"
        lines[first_data] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match=rf"{first_data + 1}.*ber"):
            read_results(path)

    def test_short_row_detected(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "out.csv"
        write_results(records, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("oops,1,2\n")
        with pytest.raises(IntegrityError, match="fields"):
            read_results(path)

    def test_ser_checked_against_metadata(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "out.csv"
        write_results(records, path, {"symbols_per_point": 20_000})
        with pytest.raises(IntegrityError, match="ser"):
            read_results(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("# only metadata\n")
        with pytest.raises(IntegrityError, match="header"):
            read_results(path)


class TestFigureData:
    def synthetic_records(self, labels, snrs, ber=0.5):
        records = []
        for label in labels:
            for snr in snrs:
                errors = int(ber * 1000)
                records.append(
                    BerRecord(label, snr, 4000, 1000, errors, errors / 1000, errors, errors / 1000)
                )
        return records

    def test_fig5_complement(self):
        header, rows = emit_figure_data(None, "fig5")
        assert header == ["snr_db", "p_correct", "p_error"]
        assert len(rows) == 51
        for _, p_correct, p_error in rows:
            assert p_error == pytest.approx(1.0 - p_correct, abs=1e-15)

    def test_scenario_figure_pivots_series(self):
        labels = ("intended", "eve_rect", "eve_qpsk", "eve_bpsk")
        header, rows = emit_figure_data(
            self.synthetic_records(labels, (0.0, 5.0)), "fig7"
        )
        assert header == ["snr_db", "intended", "eve_rect", "eve_qpsk", "eve_bpsk"]
        assert [row[0] for row in rows] == [0.0, 5.0]

    def test_scenario_figure_rejects_missing_series(self):
        records = self.synthetic_records(("intended",), (0.0,))
        with pytest.raises(IntegrityError, match="eve_rect"):
            emit_figure_data(records, "fig7")

    def test_scenario_figure_rejects_missing_point(self):
        labels = ("intended", "eve_rect", "eve_qpsk", "eve_bpsk")
        records = self.synthetic_records(labels, (0.0, 5.0))
        records = [
            r for r in records if not (r.receiver_label == "eve_qpsk" and r.snr_db == 5.0)
        ]
        with pytest.raises(IntegrityError, match="eve_qpsk"):
            emit_figure_data(records, "fig7")

    def test_fig13_summary(self):
        records = self.synthetic_records(("eve_rect",), (0.0,), ber=0.4)
        records += self.synthetic_records(("eve_qpsk",), (0.0,), ber=0.5)
        records += self.synthetic_records(("eve_bpsk",), (0.0,), ber=0.6)
        records += self.synthetic_records(("intended",), (0.0,), ber=0.001)
        header, rows = emit_figure_data(records, "fig13")
        stats = dict(rows)
        assert header == ["statistic", "value"]
        assert stats["count"] == 3
        assert stats["median"] == pytest.approx(0.5)
        assert stats["min"] == pytest.approx(0.4)
        assert stats["max"] == pytest.approx(0.6)

    def test_fig13_requires_eavesdroppers(self):
        records = self.synthetic_records(("intended",), (0.0,))
        with pytest.raises(IntegrityError, match="eavesdropper"):
            emit_figure_data(records, "fig13")

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="figure id"):
            emit_figure_data([], "fig99")


class TestScenarioConfig:
    def test_roster_and_mode(self):
        cfg = scenario_config(2.0, 50.0, (0.0, 5.0), symbols_per_point=10_000, seed=2)
        assert [r.label for r in cfg.receivers] == [
            "intended",
            "eve_rect",
            "eve_qpsk",
            "eve_bpsk",
        ]
        assert all(r.distance_m == 50.0 for r in cfg.receivers)
        assert cfg.sweep_mode == "receive"
        assert cfg.path_loss.alpha == 2.0

    @pytest.mark.parametrize("fig", sorted(FIGURE_SCENARIOS))
    def test_committed_figure_config(self, fig):
        doc = json.loads((CONFIGS / f"{fig}.json").read_text(encoding="utf-8"))
        cfg = scenario_config(
            *FIGURE_SCENARIOS[fig],
            snr_grid_db(0, 25, 1.0),
            symbols_per_point=1_000_000,
            seed=400,
        )
        assert doc == config_to_dict(cfg)

    def test_committed_demo_config_loads(self):
        cfg = load_config(CONFIGS / "demo.json")
        assert [r.label for r in cfg.receivers] == list(REQUIRED_RECEIVER_LABELS)
