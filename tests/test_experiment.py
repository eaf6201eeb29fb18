"""Experiment runner, persistence, and figure emission."""

import functools
import json
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyedmod import channel, experiment
from keyedmod.analytic import SnrPoint, p_correct_all_symbols
from keyedmod.channel import ChannelSpec, PathLossModel, add_awgn
from keyedmod.constellations import (
    STANDARD_SCHEME_NAMES,
    MappingKey,
    make_standard_scheme,
    random_key,
)
from keyedmod.experiment import (
    FIGURE_SCENARIOS,
    REQUIRED_RECEIVER_LABELS,
    BerRecord,
    ExperimentConfig,
    RESULT_FIELDS,
    IntegrityError,
    ReceiverSpec,
    config_from_dict,
    config_to_dict,
    emit_figure_data,
    load_config,
    read_results,
    run_experiment,
    write_results,
)
from keyedmod.modem import (
    count_prefix_errors,
    modulate,
    nearest_point_values,
    value_dtype,
    values_to_bits,
)

A = math.sqrt(1.0 / 10.0)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def is_receiver_label(text):
    try:
        ReceiverSpec(text, "bpsk")
    except ValueError:
        return False
    return True


labels = st.text(min_size=1, max_size=12).filter(is_receiver_label)


@st.composite
def scheme_and_key(draw):
    name = draw(st.sampled_from(STANDARD_SCHEME_NAMES))
    order = make_standard_scheme(name).order
    perm = st.permutations(range(order)).map(lambda p: MappingKey(tuple(p)))
    return name, draw(st.none() | perm)


@st.composite
def configs(draw):
    d_ref = draw(st.floats(1e-3, 100.0))
    receivers = []
    for label in draw(st.lists(labels, min_size=1, max_size=5, unique=True)):
        name, key = draw(scheme_and_key())
        distance = draw(st.floats(d_ref, 1e6))
        receivers.append(ReceiverSpec(label, name, key, distance))
    sender_scheme, sender_key = draw(scheme_and_key())
    sweep = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8, unique=True))
    return ExperimentConfig(
        sender_scheme=sender_scheme,
        sender_key=sender_key,
        receivers=tuple(receivers),
        path_loss=PathLossModel(alpha=draw(st.floats(0.1, 10.0)), d_ref=d_ref),
        snr_sweep_db=tuple(sorted(sweep)),
        sweep_mode=draw(st.sampled_from(["receive", "reference"])),
        symbols_per_point=draw(st.integers(10_000, 10**12)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


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

    @pytest.mark.parametrize(
        "sweep, value",
        [((0.0, 0.0), 0.0), ((-0.0, 0.0), 0.0), ((-5.0, 5, 5.0), 5.0)],
        ids=["zero", "signed_zero", "last_pair"],
    )
    def test_refuses_repeated_sweep_value(self, sweep, value):
        with pytest.raises(ValueError, match=rf"^SNR sweep repeats {value!r} dB$"):
            small_config(snr_sweep_db=sweep)

    @pytest.mark.parametrize("sweep", [[0.0, 0.0], [-0.0, 0.0]], ids=["zero", "signed_zero"])
    def test_config_from_dict_refuses_repeated_sweep_value(self, sweep):
        doc = config_to_dict(small_config())
        doc["snr_sweep_db"] = sweep
        with pytest.raises(ValueError, match=r"SNR sweep repeats 0\.0 dB$"):
            config_from_dict(doc)

    def test_requires_symbol_budget(self):
        with pytest.raises(ValueError, match="symbols_per_point"):
            small_config(symbols_per_point=100)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("snr_sweep_db", (), "SNR sweep must not be empty"),
            ("seed", -1, "seed must be nonnegative, got -1"),
        ],
        ids=["empty_sweep", "negative_seed"],
    )
    def test_rejects_out_of_range_fields(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("symbols_per_point", 10000.5),
            ("symbols_per_point", True),
            ("symbols_per_point", "10000"),
            ("seed", True),
            ("seed", 7.5),
            ("seed", np.float64(math.nan)),
        ],
        ids=[
            "symbols_fraction",
            "symbols_bool",
            "symbols_string",
            "seed_bool",
            "seed_fraction",
            "seed_nan",
        ],
    )
    def test_rejects_non_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{field: value})

    def test_accepts_numpy_and_integral_fields(self):
        cfg = small_config(symbols_per_point=np.int64(10_000), seed=np.uint32(7))
        assert cfg == small_config()
        assert type(cfg.symbols_per_point) is int and type(cfg.seed) is int
        assert small_config(seed=7.0).seed == 7

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_config(
                receivers=(
                    ReceiverSpec("x", "bpsk"),
                    ReceiverSpec("x", "qpsk"),
                )
            )

    @pytest.mark.parametrize(
        "label, match",
        [
            ("", "must not be empty"),
            ("a,b", "commas"),
            ("#eve", "must not start with '#'"),
            ("eve\nrect", "line break"),
            ("eve\rrect", "line break"),
        ],
        ids=["empty", "comma", "hash", "newline", "carriage_return"],
    )
    def test_rejects_labels_a_results_file_cannot_hold(self, label, match):
        with pytest.raises(ValueError, match=match):
            ReceiverSpec(label, "bpsk")

    @pytest.mark.parametrize("value", [True, "10", None])
    def test_rejects_distance_that_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match="^distance_m must be a real number"):
            ReceiverSpec("eve_qpsk", "qpsk", distance_m=value)
        assert ReceiverSpec("eve_qpsk", "qpsk", distance_m=10).distance_m == 10

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="sweep mode"):
            small_config(sweep_mode="transmit")

    def test_bad_scheme_fails_before_simulation(self):
        cfg = small_config(sender_scheme="qam64")
        with pytest.raises(ValueError, match="unknown scheme"):
            run_experiment(cfg)

    def test_wider_receiver_fails_before_simulation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "_noise_fill", lambda *args: calls.append(args))
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

    @pytest.mark.parametrize("mode", ["receive", "reference"])
    def test_rejects_sweep_whose_noise_density_overflows(self, mode):
        with pytest.raises(ValueError, match=r"SNR sweep value -4000\.0 dB is too low"):
            small_config(sweep_mode=mode, snr_sweep_db=(-4000.0, 0.0))

    def test_reference_mode_checks_the_attenuated_snr(self):
        # At 10 m and alpha 2 the receivers see 20 dB less: -3090 dB, past
        # the float64 limit of N0 (about -3083 dB), where -3070 dB is not.
        small_config(snr_sweep_db=(-3070.0,))
        with pytest.raises(ValueError, match=r"-3070\.0 dB is too low for receiver 'intended'"):
            small_config(sweep_mode="reference", snr_sweep_db=(-3070.0,))

    def test_rejects_nonzero_snr_ref(self):
        with pytest.raises(ValueError, match="the SNR sweep sets the reference SNR"):
            small_config(path_loss=PathLossModel(alpha=2.0, snr_ref_db=10.0))

    @pytest.mark.parametrize("value", [True, "10", None, 1j])
    def test_rejects_sweep_value_that_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match=r"^snr_sweep_db\[1\] must be a real number"):
            small_config(snr_sweep_db=(0.0, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sweep_value(self, value):
        with pytest.raises(ValueError, match="SNR sweep values must be finite"):
            small_config(snr_sweep_db=(0.0, value))

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["above", "below"])
    def test_rejects_integer_sweep_value_beyond_float64(self, value):
        with pytest.raises(ValueError, match=r"finite; snr_sweep_db\[1\] is not"):
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
        monkeypatch.setattr(experiment, "_noise_fill", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=match):
            run_experiment(load_config(path))
        assert calls == []

    def test_rejects_missing_seed_and_non_object_receiver(self):
        doc = config_to_dict(small_config())
        del doc["seed"]
        with pytest.raises(ValueError, match="malformed experiment config: 'seed'"):
            config_from_dict(doc)
        doc = config_to_dict(small_config())
        doc["receivers"] = [3]
        with pytest.raises(
            ValueError, match="malformed experiment config: receiver 0 must be an object"
        ):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("receivers", {"a": 1}, "{'a': 1}"),
            ("receivers", "ab", "'ab'"),
            ("receivers", None, "None"),
            ("snr_sweep_db", "05", "'05'"),
            ("snr_sweep_db", 5, "5"),
            ("snr_sweep_db", None, "None"),
        ],
        ids=[
            "receivers_object",
            "receivers_string",
            "receivers_null",
            "sweep_string",
            "sweep_number",
            "sweep_null",
        ],
    )
    def test_refuses_field_that_is_not_an_array(self, field, value, shown):
        # Iterated as it was, a string or an object read as one and gave a
        # misleading message about its first element, and a number raised
        # "'int' object is not iterable".
        doc = config_to_dict(small_config())
        doc[field] = value
        what = "an array or a {start, stop, step} object" if field == "snr_sweep_db" else "an array"
        message = f"{field} must be {what}, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

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

    @pytest.mark.parametrize(
        "where, key, value, field",
        [
            ((), "symbols_per_point", 20000.9, "symbols_per_point must be an integer"),
            ((), "symbols_per_point", "20000", "symbols_per_point must be an integer"),
            ((), "symbols_per_point", True, "symbols_per_point must be an integer"),
            ((), "seed", True, "seed must be an integer"),
            ((), "seed", 7.5, "seed must be an integer"),
            ((), "seed", math.inf, "seed must be an integer"),
            (("receivers", 0), "distance_m", True, r"receiver 0 distance_m must be a number"),
            (("receivers", 1), "distance_m", "10", r"receiver 1 distance_m must be a number"),
            (("path_loss",), "alpha", True, r"path_loss\.alpha must be a number"),
            (("path_loss",), "alpha", 10**400, r"path_loss\.alpha exceeds the float64 range"),
            (("path_loss",), "d_ref_m", "1", r"path_loss\.d_ref_m must be a number"),
            (("snr_sweep_db",), 1, True, r"snr_sweep_db\[1\] must be a number"),
            (("snr_sweep_db",), 0, "0", r"snr_sweep_db\[0\] must be a number"),
        ],
        ids=[
            "symbols_fraction",
            "symbols_string",
            "symbols_bool",
            "seed_bool",
            "seed_fraction",
            "seed_inf",
            "distance_bool",
            "distance_string",
            "alpha_bool",
            "alpha_huge_int",
            "d_ref_string",
            "sweep_bool",
            "sweep_string",
        ],
    )
    def test_rejects_non_numbers(self, where, key, value, field):
        doc = config_to_dict(small_config())
        target = doc
        for part in where:
            target = target[part]
        target[key] = value
        with pytest.raises(ValueError, match=field):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "where, value, field",
        [
            (("sender",), 7, r"sender\.key must be null or"),
            (("sender",), [0, 1, 2, 3], r"sender\.key must be null or"),
            (("sender",), 0, r"sender\.key must be null or"),
            (("sender",), False, r"sender\.key must be null or"),
            (("sender",), "", r"sender\.key must be null or"),
            (("sender",), "0,x", r"sender\.key: malformed key text"),
            (("sender",), "0,1,2,3,4,5,6,7,8,9,1_0", r"sender\.key: malformed key text"),
            (("sender",), "+1,0", r"sender\.key: malformed key text"),
            (("sender",), "\u0660,\u0661", r"sender\.key: malformed key text"),
            (("receivers", 0), 7, "receiver 0 key must be null or"),
            (("receivers", 1), [0, 1, 2, 3], "receiver 1 key must be null or"),
            (("receivers", 0), 0, "receiver 0 key must be null or"),
            (("receivers", 1), False, "receiver 1 key must be null or"),
            (("receivers", 0), "", "receiver 0 key must be null or"),
            (("receivers", 1), "0,0,1,2", "receiver 1 key: key .* is not a permutation"),
        ],
        ids=[
            "sender_int",
            "sender_list",
            "sender_zero",
            "sender_false",
            "sender_empty",
            "sender_malformed",
            "sender_underscore",
            "sender_plus",
            "sender_non_ascii_digits",
            "receiver_int",
            "receiver_list",
            "receiver_zero",
            "receiver_false",
            "receiver_empty",
            "receiver_not_permutation",
        ],
    )
    def test_rejects_bad_keys(self, where, value, field):
        doc = config_to_dict(small_config())
        target = doc
        for part in where:
            target = target[part]
        target["key"] = value
        with pytest.raises(ValueError, match=field):
            config_from_dict(doc)

    def test_null_or_absent_key_loads_unkeyed(self):
        doc = config_to_dict(small_config())
        del doc["sender"]["key"]
        del doc["receivers"][0]["key"]
        cfg = config_from_dict(doc)
        assert cfg.sender_key is None
        assert [r.key for r in cfg.receivers] == [None, None]

    @pytest.mark.parametrize("key", ["start", "stop", "step"])
    def test_rejects_non_number_sweep_grid(self, key):
        doc = config_to_dict(small_config())
        doc["snr_sweep_db"] = {"start": 0, "stop": 10, "step": 5}
        doc["snr_sweep_db"][key] = True
        with pytest.raises(ValueError, match=rf"snr_sweep_db\.{key} must be a number"):
            config_from_dict(doc)

    def test_rejects_sweep_grid_with_too_many_points(self):
        doc = config_to_dict(small_config())
        doc["snr_sweep_db"] = {"start": 0, "stop": 25, "step": 1e-9}
        with pytest.raises(ValueError, match="step 1e-09 gives more than"):
            config_from_dict(doc)

    def test_rejects_descending_sweep_grid_that_overflows(self):
        # stop - start overflows to -inf: a ValueError like any bad grid,
        # not an OverflowError.
        doc = config_to_dict(small_config())
        doc["snr_sweep_db"] = {"start": 1e308, "stop": -1e308, "step": 1}
        with pytest.raises(ValueError, match=r"step 1\.0 does not divide"):
            config_from_dict(doc)

    def test_integral_float_counts_load_as_int(self):
        doc = config_to_dict(small_config())
        doc["symbols_per_point"] = 2e4
        doc["seed"] = 7.0
        cfg = config_from_dict(doc)
        assert (cfg.symbols_per_point, cfg.seed) == (20000, 7)
        assert type(cfg.symbols_per_point) is int and type(cfg.seed) is int

    def test_dict_round_trip(self):
        cfg = small_config(sender_key=random_key(16, 3))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @settings(deadline=None, max_examples=200)
    @given(configs())
    def test_dict_round_trip_property(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

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


#: Symbols per RNG block in stream contract 4.
BLOCK = 1 << 16

#: Symbols per column tile of a block's cell work; not part of the contract.
TILE = experiment._TILE


def tile_sizes(size):
    """The widths of the tiles a block of ``size`` symbols runs in, in order."""
    return [min(TILE, size - start) for start in range(0, size, TILE)]


def contract_seed_sequence(seed, lane, block):
    """A block's substream, keyed as stream contract 4 states it.

    Three little-endian 64-bit words, read as six 32-bit words.
    """
    words = np.array([seed, lane, block], dtype="<u8")
    return np.random.SeedSequence(words.view("<u4").astype(np.uint32))


def bit_domain_records(cfg):
    """Oracle: each cell in the bit domain, with per-group prefix comparison.

    Per sweep point and block, the sender's values (lane 0) are drawn,
    expanded to bits and modulated; every receiver adds noise at its own
    effective SNR from the block's noise substream (lane 1), the same for
    every receiver at every sweep point, and decodes. Both substreams are
    keyed by the block alone.
    """
    sender, rx_schemes = cfg.resolve_schemes()
    m_tx = sender.bits_per_symbol
    n_sym = cfg.symbols_per_point
    records = []
    for snr_db in cfg.snr_sweep_db:
        eff_snrs = [cfg._effective_snr_db(snr_db, spec) for spec in cfg.receivers]
        bit_errors = [0] * len(rx_schemes)
        symbol_errors = [0] * len(rx_schemes)
        for block, start in enumerate(range(0, n_sym, BLOCK)):
            size = min(BLOCK, n_sym - start)
            value_rng = np.random.default_rng(contract_seed_sequence(cfg.seed, 0, block))
            values = value_rng.integers(0, sender.order, size, dtype=value_dtype(m_tx))
            bits = values_to_bits(values, m_tx)
            sent = modulate(bits, sender)
            noise = contract_seed_sequence(cfg.seed, 1, block)
            for i, (eff_snr, rx_scheme) in enumerate(zip(eff_snrs, rx_schemes)):
                received = add_awgn(sent, ChannelSpec(eff_snr, noise))
                m_rx = rx_scheme.bits_per_symbol
                rx_bits = values_to_bits(nearest_point_values(received, rx_scheme), m_rx)
                mismatch = bits.reshape(size, m_tx)[:, :m_rx] != rx_bits.reshape(size, m_rx)
                bit_errors[i] += int(mismatch.sum())
                symbol_errors[i] += int(mismatch.any(axis=1).sum())
        for spec, eff_snr, rx_scheme, errors, sym_errors in zip(
            cfg.receivers, eff_snrs, rx_schemes, bit_errors, symbol_errors
        ):
            compared = n_sym * rx_scheme.bits_per_symbol
            records.append(
                BerRecord(
                    receiver_label=spec.label,
                    snr_db=eff_snr,
                    tx_bits=n_sym * m_tx,
                    compared_bits=compared,
                    bit_errors=errors,
                    ber=errors / compared,
                    symbol_errors=sym_errors,
                    ser=sym_errors / n_sym,
                )
            )
    return sorted(records, key=lambda r: (r.receiver_label, r.snr_db))


def untiled_records(cfg):
    """Reference: the sweep with each block's cells run over the whole block.

    The loop of stream contract 4 before tiling: one sent, one noise and
    one received block-sized pair, and every decode and count sees a whole
    block. Tiling sums the same counts over disjoint columns.
    """
    sender, rx_schemes = cfg.resolve_schemes()
    m_tx = sender.bits_per_symbol
    n_sym = cfg.symbols_per_point
    eff_snrs = [
        [cfg._effective_snr_db(snr_db, spec) for spec in cfg.receivers]
        for snr_db in cfg.snr_sweep_db
    ]
    totals = [[[0, 0] for _ in cfg.receivers] for _ in cfg.snr_sweep_db]
    for block, start in enumerate(range(0, n_sym, BLOCK)):
        size = min(BLOCK, n_sym - start)
        value_rng = np.random.default_rng(contract_seed_sequence(cfg.seed, 0, block))
        values = value_rng.integers(0, sender.order, size, dtype=value_dtype(m_tx))
        points = sender.mapped_points[values]
        sent = np.stack((points.real, points.imag))
        noise = np.empty((2, size))
        channel._noise_fill(contract_seed_sequence(cfg.seed, 1, block), noise)
        received = np.empty((2, size))
        for snrs, point_totals in zip(eff_snrs, totals):
            written = None
            for snr, rx_scheme, counts in zip(snrs, rx_schemes, point_totals):
                if snr != written:
                    channel._scale_noise(noise, snr, out=received)
                    received += sent
                    written = snr
                rx_values = nearest_point_values(received, rx_scheme)
                errors = count_prefix_errors(values, m_tx, rx_values, rx_scheme.bits_per_symbol)
                counts[0] += errors[0]
                counts[1] += errors[1]
    records = []
    for snrs, point_totals in zip(eff_snrs, totals):
        for spec, rx_scheme, eff_snr, (errors, symbol_errors) in zip(
            cfg.receivers, rx_schemes, snrs, point_totals
        ):
            compared = n_sym * rx_scheme.bits_per_symbol
            records.append(
                BerRecord(
                    receiver_label=spec.label,
                    snr_db=eff_snr,
                    tx_bits=n_sym * m_tx,
                    compared_bits=compared,
                    bit_errors=errors,
                    ber=errors / compared,
                    symbol_errors=symbol_errors,
                    ser=symbol_errors / n_sym,
                )
            )
    return sorted(records, key=lambda r: (r.receiver_label, r.snr_db))


def oracle_config(symbols_per_point):
    """Keyed and unkeyed receivers of every scheme at three SNRs."""
    key = random_key(16, 41)
    return small_config(
        sender_key=key,
        receivers=(
            ReceiverSpec("intended", "qam16_circ", key=key),
            ReceiverSpec("eve_wrong_key", "qam16_circ", key=random_key(16, 42)),
            ReceiverSpec("eve_rect", "qam16_rect"),
            ReceiverSpec("eve_qpsk", "qpsk"),
            ReceiverSpec("eve_bpsk", "bpsk"),
        ),
        snr_sweep_db=(0.0, 12.0, 24.0),
        symbols_per_point=symbols_per_point,
    )


def roster_sweep(points=26, **overrides):
    """The paper roster over ``points`` sweep values, at one block per point by default."""
    receivers = small_config().receivers + (
        ReceiverSpec("eve_qpsk", "qpsk"),
        ReceiverSpec("eve_bpsk", "bpsk"),
    )
    base = dict(
        receivers=receivers,
        snr_sweep_db=tuple(float(v) for v in range(points)),
        symbols_per_point=10_000,
    )
    base.update(overrides)
    return small_config(**base)


def ragged_sweep(**overrides):
    """Two sweep points of three blocks each, the last one ragged."""
    return small_config(symbols_per_point=2 * BLOCK + 4097, **overrides)


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
        cfg = oracle_config(10_000)
        records = run_experiment(cfg)
        assert len(records) == 15
        assert records == bit_domain_records(cfg)

    def test_records_equal_bit_domain_oracle_with_one_symbol_last_block(self):
        cfg = oracle_config(BLOCK + 1)
        records = run_experiment(cfg)
        assert len(records) == 15
        assert records == bit_domain_records(cfg)

    def test_records_equal_bit_domain_oracle_in_reference_mode(self):
        # Receivers at 10, 10, 20, 10 and 40 m: a received pair is shared,
        # written anew at another SNR, and written again at an earlier one.
        base = oracle_config(10_000)
        distances = (10.0, 10.0, 20.0, 10.0, 40.0)
        cfg = replace(
            base,
            sweep_mode="reference",
            snr_sweep_db=(20.0, 32.0, 44.0),
            receivers=tuple(replace(r, distance_m=d) for r, d in zip(base.receivers, distances)),
        )
        records = run_experiment(cfg)
        assert len({r.snr_db for r in records}) == 9
        assert records == bit_domain_records(cfg)


class TestStreamContract:
    def test_block_size_is_part_of_the_contract(self):
        assert experiment._BLOCK == BLOCK
        assert experiment.RNG_STREAM == 4

    def test_concurrent_sweeps_equal_a_sweep_run_alone(self):
        # Two points of three blocks, the last one ragged, and 26 one-block
        # points, each swept on a worker thread and on the caller at once,
        # interleaved by a short switch interval: both get the records of the
        # sweep run alone, as a sweep keeps its state in the call.
        for cfg in (ragged_sweep(), roster_sweep()):
            serial = run_experiment(cfg)
            results = []
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                worker = threading.Thread(target=lambda: results.append(run_experiment(cfg)))
                worker.start()
                results.append(run_experiment(cfg))
                worker.join()
            finally:
                sys.setswitchinterval(interval)
            assert results == [serial, serial]

    def test_every_receiver_decodes_one_broadcast_transmission(self, monkeypatch):
        # With every noise fill made zeros, each receiver decodes the sent
        # planes themselves at every sweep point: per block, one draw of the
        # sender's values, keyed by the block alone and mapped once through
        # its scheme. A block's cells run tile by tile, so for every receiver
        # at every point the block's tiles, in order, reassemble its planes.
        decoded = []

        def zero_fill(rng_seed, out):
            out[...] = 0.0

        def spy(symbols, scheme):
            decoded.append(np.array(symbols))
            return nearest_point_values(symbols, scheme)

        monkeypatch.setattr(experiment, "_noise_fill", zero_fill)
        monkeypatch.setattr(experiment, "nearest_point_values", spy)
        cfg = ragged_sweep()
        run_experiment(cfg)
        sender, _ = cfg.resolve_schemes()
        decodes_per_tile = len(cfg.receivers) * len(cfg.snr_sweep_db)
        sizes = (BLOCK, BLOCK, 4097)
        assert len(decoded) == sum(map(len, map(tile_sizes, sizes))) * decodes_per_tile == 5 * 4
        calls = iter(decoded)
        for block, size in enumerate(sizes):
            value_rng = np.random.default_rng(contract_seed_sequence(cfg.seed, 0, block))
            values = value_rng.integers(
                0, sender.order, size, dtype=value_dtype(sender.bits_per_symbol)
            )
            points = sender.mapped_points[values]
            broadcast = np.stack((points.real, points.imag))
            tiles = [
                [next(calls) for _ in range(decodes_per_tile)] for _ in tile_sizes(size)
            ]
            for cell in range(decodes_per_tile):
                got = np.concatenate([tile[cell] for tile in tiles], axis=1)
                assert np.array_equal(got, broadcast)

    @pytest.mark.parametrize("mode", ["receive", "reference"])
    @pytest.mark.parametrize("n_receivers", [1, 2, 5])
    def test_one_noise_fill_per_block_whatever_the_roster(self, monkeypatch, mode, n_receivers):
        # Each block draws its unit normals once, from the noise lane keyed by
        # the block alone, for every receiver at every sweep point.
        fills = []

        def noise_fill(rng_seed, out):
            fills.append((rng_seed.entropy.tolist(), out.shape))
            channel._noise_fill(rng_seed, out)

        monkeypatch.setattr(experiment, "_noise_fill", noise_fill)
        receivers = oracle_config(10_000).receivers[:n_receivers]
        cfg = ragged_sweep(sweep_mode=mode, receivers=receivers)
        run_experiment(cfg)
        assert fills == [
            (contract_seed_sequence(cfg.seed, 1, block).entropy.tolist(), (2, size))
            for block, size in enumerate((BLOCK, BLOCK, 4097))
        ]

    def test_receive_mode_roster_decodes_equal_planes(self, monkeypatch):
        # In receive mode every receiver at a sweep point hears the same
        # effective SNR, so all of them decode one and the same received pair.
        decoded = []

        def spy(symbols, scheme):
            decoded.append(np.array(symbols))
            return nearest_point_values(symbols, scheme)

        monkeypatch.setattr(experiment, "nearest_point_values", spy)
        cfg = ragged_sweep(receivers=oracle_config(10_000).receivers)
        run_experiment(cfg)
        roster = len(cfg.receivers)
        # Two tiles in each full block and one in the ragged block: one
        # received pair per tile and point serves the roster.
        widths = [w for size in (BLOCK, BLOCK, 4097) for w in tile_sizes(size)]
        assert len(widths) == 5
        assert len(decoded) == len(widths) * len(cfg.snr_sweep_db) * roster
        for start in range(0, len(decoded), roster):
            first, *others = decoded[start : start + roster]
            width = widths[start // (roster * len(cfg.snr_sweep_db))]
            assert first.shape == (2, width)
            assert all(np.array_equal(first, other) for other in others)
        # The two sweep points scale the noise differently.
        assert not np.array_equal(decoded[0], decoded[roster])

    @pytest.mark.parametrize("mode", ["receive", "reference"])
    def test_alike_receivers_get_equal_records(self, mode):
        # Same scheme, key and effective SNR: the same errors, wherever the
        # two sit in the roster and whatever is decoded between them.
        key = random_key(16, 41)
        cfg = ragged_sweep(
            sweep_mode=mode,
            sender_key=key,
            receivers=(
                ReceiverSpec("intended", "qam16_circ", key=key, distance_m=10.0),
                ReceiverSpec("eve_bpsk", "bpsk", distance_m=40.0),
                ReceiverSpec("twin", "qam16_circ", key=key, distance_m=10.0),
            ),
        )
        by_label = {}
        for rec in run_experiment(cfg):
            by_label.setdefault(rec.receiver_label, []).append(replace(rec, receiver_label=""))
        assert by_label["intended"] == by_label["twin"]
        assert by_label["intended"] != by_label["eve_bpsk"]

    @pytest.mark.parametrize("mode", ["receive", "reference"])
    def test_removing_receiver_preserves_series(self, mode):
        # In reference mode, dropping eve_rect makes the two receivers at 10 m
        # neighbours, which then share one written pair where each wrote its
        # own; that changes none of their records.
        receivers = (
            ReceiverSpec("intended", "qam16_circ", distance_m=10.0),
            ReceiverSpec("eve_rect", "qam16_rect", distance_m=20.0),
            ReceiverSpec("eve_qpsk", "qpsk", distance_m=10.0),
            ReceiverSpec("eve_bpsk", "bpsk", distance_m=40.0),
        )
        cfg = ragged_sweep(sweep_mode=mode, receivers=receivers)
        full = run_experiment(cfg)
        for dropped in receivers:
            kept = tuple(r for r in receivers if r != dropped)
            expected = [r for r in full if r.receiver_label != dropped.label]
            assert run_experiment(replace(cfg, receivers=kept)) == expected

    def test_a_point_does_not_depend_on_the_other_sweep_points(self):
        # No substream key holds a sweep index, so the records at 10 dB are
        # those of a one-point sweep at 10 dB, over two blocks.
        cfg = roster_sweep(snr_sweep_db=(0.0, 10.0, 20.0), symbols_per_point=BLOCK + 4097)
        alone = run_experiment(replace(cfg, snr_sweep_db=(10.0,)))
        assert len(alone) == len(cfg.receivers)
        assert [r for r in run_experiment(cfg) if r.snr_db == 10.0] == alone

    @pytest.mark.parametrize("seed", [400, 401, 402])
    def test_intended_symbol_errors_do_not_rise_across_the_sweep(self, seed):
        # The intended receiver decodes with the sender's own points, each in
        # its own convex decision cell. Every sweep point scales the same
        # noise, so as sigma falls a received symbol moves along one ray
        # toward its sent point, and in exact arithmetic it errs at a higher
        # SNR only where it erred at every lower one. Float64 rounding at a
        # cell boundary could break that for one symbol, so the records are
        # checked, not single symbols.
        cfg = replace(load_config(CONFIGS / "fig7.json"), symbols_per_point=BLOCK, seed=seed)
        errors = [r.symbol_errors for r in run_experiment(cfg) if r.receiver_label == "intended"]
        assert len(errors) == 26
        assert all(low >= high for low, high in zip(errors, errors[1:])), errors
        assert errors[0] > errors[-1]

    def test_traced_layer_functions_see_every_block(self, monkeypatch):
        # bench/run.py --trace 1 wraps the layer functions as below and names
        # each span by calling the namer with the call's own arguments. The
        # decoder's namer takes (symbols, scheme) and nothing more, so a call
        # that passes the decoder any other argument fails under tracing.
        names = []
        fills = []

        def wrap(fn, namer):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                names.append(namer(*args, **kwargs) if callable(namer) else namer)
                return fn(*args, **kwargs)

            return traced

        def nearest_point(symbols, scheme):
            return f"modem.nearest_point.{scheme.label}"

        def noise_fill(rng_seed, out):
            fills.append(out.shape)
            channel._noise_fill(rng_seed, out)

        monkeypatch.setattr(
            experiment, "nearest_point_values", wrap(nearest_point_values, nearest_point)
        )
        monkeypatch.setattr(experiment, "_noise_fill", noise_fill)
        receivers = small_config().receivers + (ReceiverSpec("eve_bpsk", "bpsk"),)
        cfg = ragged_sweep(receivers=receivers, snr_sweep_db=(-45.0, 0.0, 10.0))
        run_experiment(cfg)
        # Every receiver decodes both planes of every tile at every point,
        # two tiles in each full block and one in the ragged block, and each
        # block draws its unit normals once for the whole roster.
        decodes = 5 * len(cfg.snr_sweep_db)
        assert Counter(names) == {
            "modem.nearest_point.qam16_circ": decodes,
            "modem.nearest_point.qam16_rect": decodes,
            "modem.nearest_point.bpsk": decodes,
        }
        assert fills == [(2, BLOCK)] * 2 + [(2, 4097)]

    def test_noise_fill_exception_propagates_and_leaves_no_thread(self, monkeypatch):
        # Every fill runs on the caller, so a failing fill reaches it at once
        # and leaves no thread behind.
        def broken_fill(rng_seed, out):
            raise RuntimeError("fill failed")

        monkeypatch.setattr(experiment, "_noise_fill", broken_fill)
        for cfg in (roster_sweep(3), ragged_sweep()):
            before = set(threading.enumerate())
            with pytest.raises(RuntimeError, match="fill failed"):
                run_experiment(cfg)
            assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("sweep", ["first_decode", "second_block"])
    def test_decoder_exception_propagates_and_leaves_no_thread(self, monkeypatch, sweep):
        # A decoder error on a roster sweep's first decode, or in the middle
        # of a multi-block sweep on the second block's first decode, is
        # raised on the caller, which makes every decode, and leaves no
        # thread behind.
        if sweep == "first_decode":
            cfg, failing = roster_sweep(3), 1
        else:
            cfg = ragged_sweep()
            failing = len(cfg.receivers) * len(cfg.snr_sweep_db) + 1
        raised = []

        def broken(symbols, scheme):
            raised.append(threading.current_thread())
            if len(raised) == failing:
                raise RuntimeError("decoder failed")
            return nearest_point_values(symbols, scheme)

        monkeypatch.setattr(experiment, "nearest_point_values", broken)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="decoder failed"):
            run_experiment(cfg)
        assert raised == [threading.current_thread()] * failing
        assert set(threading.enumerate()) == before

    def test_every_fill_runs_on_the_caller_once_per_block(self, monkeypatch):
        # Back-to-back multi-block sweeps make every fill on the caller, one
        # per block, and start no thread.
        threads = []

        def noise_fill(rng_seed, out):
            threads.append(threading.current_thread())
            channel._noise_fill(rng_seed, out)

        monkeypatch.setattr(experiment, "_noise_fill", noise_fill)
        before = set(threading.enumerate())
        for cfg in (small_config(symbols_per_point=BLOCK + 1), ragged_sweep()) * 2:
            run_experiment(cfg)
            assert set(threading.enumerate()) == before
        assert threads == [threading.current_thread()] * 2 * (2 + 3)

    def test_seed_must_fit_one_word(self):
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            small_config(seed=2**64)
        doc = config_to_dict(small_config())
        doc["seed"] = 2**64
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            config_from_dict(doc)
        records = run_experiment(small_config(seed=2**64 - 1))
        assert records != run_experiment(small_config(seed=2**32 - 1))

    def test_substream_keys_have_fixed_width(self):
        # As plain ints, numpy reads (2**32,) and (0, 1) as the same words,
        # and (1,) and (1, 0) as the same zero-padded entropy.
        def state(*key):
            return tuple(experiment._substream(*key).generate_state(4))

        assert experiment._substream(1, 0, 0).entropy.tolist() == [1, 0, 0, 0, 0, 0]
        assert state(2**32, 0, 0) != state(0, 1, 0)
        assert state(1, 0, 0) != state(1, 0, 1)
        assert state(1, 0, 0) == tuple(contract_seed_sequence(1, 0, 0).generate_state(4))

    def test_peak_memory_does_not_grow_with_the_budget(self):
        def config(symbols):
            return ExperimentConfig(
                sender_scheme="bpsk",
                sender_key=None,
                receivers=(ReceiverSpec("eve_bpsk", "bpsk"),),
                path_loss=PathLossModel(alpha=2.0),
                snr_sweep_db=(5.0,),
                sweep_mode="receive",
                symbols_per_point=symbols,
                seed=3,
            )

        def peak_mb(symbols):
            tracemalloc.start()
            try:
                run_experiment(config(symbols))
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        # The first decode builds the cached cell table; keep it out of the peaks.
        run_experiment(config(10_000))
        small, large = peak_mb(2**18), peak_mb(2**21)
        assert large < 16.0
        assert abs(large - small) <= 2.0

    def test_peak_memory_of_a_one_block_sweep(self):
        # One sent, one noise and one received (2, n) pair of float64 rows,
        # whatever the roster: 3 * 2 * 2**16 * 8 bytes = 3 MiB at the largest
        # block, plus up to 3 MiB for the decoder's chunk scratch (1.7 MiB
        # measured). A fourth pair would add 1 MiB. Points of more than one
        # block take the same buffers.
        for cfg in (
            roster_sweep(symbols_per_point=BLOCK),
            roster_sweep(2, symbols_per_point=2 * BLOCK + 4097),
        ):
            run_experiment(replace(cfg, snr_sweep_db=(0.0,)))
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            assert peak_mb < 6.0

    @pytest.mark.parametrize("mode", ["receive", "reference"])
    @pytest.mark.parametrize(
        "symbols", [BLOCK + TILE + 7, 2 * BLOCK], ids=["mid_tile", "tile_edge"]
    )
    def test_tiled_records_equal_untiled_records(self, mode, symbols):
        # A mixed roster, keyed and unkeyed, of every scheme; in reference
        # mode at 10, 10, 20, 10 and 40 m, so a received pair is shared,
        # written anew and written again within each tile. The budget ends
        # mid-tile or on a tile edge.
        base = oracle_config(symbols)
        distances = (10.0, 10.0, 20.0, 10.0, 40.0)
        cfg = replace(
            base,
            sweep_mode=mode,
            receivers=tuple(replace(r, distance_m=d) for r, d in zip(base.receivers, distances)),
        )
        assert len(tile_sizes(symbols % BLOCK or BLOCK)) == 2
        assert run_experiment(cfg) == untiled_records(cfg)

    def test_peak_memory_of_a_two_block_reference_sweep(self):
        # The keyed QPSK link in reference mode over two blocks: one
        # block-sized noise pair (1 MiB) and tile-sized sent and received
        # pairs (0.5 MiB each), plus the decoder's scratch for one tile,
        # come to 2.45 MiB. Block-sized sent and received pairs, with the
        # decoder's scratch for a whole block, come to 3.82 MiB.
        key = random_key(4, 3)
        cfg = small_config(
            sender_scheme="qpsk",
            sender_key=key,
            receivers=(
                ReceiverSpec("intended", "qpsk", key=key, distance_m=10.0),
                ReceiverSpec("eve_key", "qpsk", key=random_key(4, 4), distance_m=20.0),
                ReceiverSpec("eve_bpsk", "bpsk", distance_m=40.0),
            ),
            snr_sweep_db=(20.0, 30.0),
            sweep_mode="reference",
            symbols_per_point=2 * BLOCK,
        )
        # The first decodes build the cached cell tables; keep them out of the peak.
        run_experiment(replace(cfg, symbols_per_point=10_000))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < 3.0


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

    @pytest.mark.parametrize(
        "counts, match",
        [
            ((101, 1.01, 5, 0.05), "bit_errors out of range: 101"),
            ((10, 0.1, -1, 0.05), "symbol_errors must be nonnegative: -1"),
            ((10, 0.1, 5, 1.5), "ser out of range: 1.5"),
        ],
        ids=["bit_errors_above_compared", "negative_symbol_errors", "ser_above_one"],
    )
    def test_rejects_out_of_range_counts(self, counts, match):
        with pytest.raises(ValueError, match=match):
            BerRecord("x", 0.0, 100, 100, *counts)

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 10**400])
    def test_rejects_non_finite_snr(self, snr_db):
        with pytest.raises(ValueError, match="^snr_db must be finite"):
            BerRecord("x", snr_db, 100, 100, 10, 0.1, 5, 0.05)

    @pytest.mark.parametrize("snr_db", [True, "0", None])
    def test_rejects_snr_that_is_not_a_real_number(self, snr_db):
        with pytest.raises(ValueError, match="^snr_db must be a real number"):
            BerRecord("x", snr_db, 100, 100, 10, 0.1, 5, 0.05)

    def test_stores_snr_as_given(self):
        for snr_db in (np.float32(2.5), 3):
            assert type(BerRecord("x", snr_db, 100, 100, 10, 0.1, 5, 0.05).snr_db) is type(snr_db)


# Spellings of a count that int() reads as the count itself. A results
# file holds ASCII decimal digits only. Padding around a metadata value is
# the "# key: value" line's own, so it is tried in data rows alone.
SPELLINGS = {
    "underscore": lambda d: f"{d[0]}_{d[1:]}",
    "fullwidth": lambda d: d.translate({ord(c): 0xFF10 + int(c) for c in "0123456789"}),
    "plus": lambda d: f"+{d}",
    "padded": lambda d: f" {d} ",
}
LOOSE_COUNTS = [
    pytest.param(field, spell, id=f"{field}-{name}")
    for field in ("tx_bits", "compared_bits", "bit_errors", "symbol_errors", "symbols_per_point")
    for name, spell in SPELLINGS.items()
    if (field, name) != ("symbols_per_point", "padded")
]


class TestResultsIO:
    def make_records(self):
        return run_experiment(small_config())

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "out.csv"
        write_results(records, path, {"symbols_per_point": 10_000})
        assert read_results(path) == records

    @settings(deadline=None, max_examples=200)
    @given(st.integers(10_000, 10**12), st.data())
    def test_round_trip_property(self, tmp_path_factory, symbols, data):
        records = []
        for label in data.draw(st.lists(labels, max_size=4, unique=True)):
            m_tx = data.draw(st.integers(1, 8))
            m_rx = data.draw(st.integers(1, m_tx))
            compared = symbols * m_rx
            bit_errors = data.draw(st.integers(0, compared))
            symbol_errors = data.draw(st.integers(0, symbols))
            for snr_db in data.draw(st.lists(st.floats(-1e6, 1e6), max_size=3)):
                records.append(
                    BerRecord(
                        receiver_label=label,
                        snr_db=snr_db,
                        tx_bits=symbols * m_tx,
                        compared_bits=compared,
                        bit_errors=bit_errors,
                        ber=bit_errors / compared,
                        symbol_errors=symbol_errors,
                        ser=symbol_errors / symbols,
                    )
                )
        path = tmp_path_factory.mktemp("results") / "out.csv"
        write_results(records, path, {"symbols_per_point": symbols})
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

    # The last two, full-width and Arabic-Indic 100000, are decimal to
    # str.isdecimal and read by int(), but are not ASCII digits.
    @pytest.mark.parametrize(
        "value", ["0", "-5", "1.5", "abc", "\uff11\uff10" + "\uff10" * 4, "\u0661" + "\u0660" * 5]
    )
    def test_bad_symbols_per_point_rejected_with_line(self, tmp_path, value):
        rec = BerRecord("eve_rect", 0.0, 400, 100, 40, 0.4, 20, 0.2)
        path = tmp_path / "out.csv"
        write_results([rec], path, {"symbols_per_point": value})
        lineno = next(
            i for i, l in enumerate(path.read_text().splitlines(), 1) if "symbols_per_point" in l
        )
        with pytest.raises(IntegrityError, match=rf":{lineno}: symbols_per_point .*{value!r}"):
            read_results(path)

    @pytest.mark.parametrize("field, spell", LOOSE_COUNTS)
    def test_loosely_written_count_rejected_with_line(self, tmp_path, field, spell):
        rec = BerRecord("eve_rect", 0.0, 400, 100, 40, 0.4, 20, 0.2)
        path = tmp_path / "out.csv"
        write_results([rec], path, {"symbols_per_point": 100})
        lines = path.read_text().splitlines()
        if field == "symbols_per_point":
            lineno = next(i for i, l in enumerate(lines, 1) if "symbols_per_point" in l)
            written = spell("100")
            lines[lineno - 1] = f"# symbols_per_point: {written}"
        else:
            lineno = len(lines)
            fields = lines[-1].split(",")
            index = RESULT_FIELDS.index(field)
            written = fields[index] = spell(fields[index])
            lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            IntegrityError,
            match=rf":{lineno}: {field} must be ASCII decimal digits, got {re.escape(repr(written))}$",
        ):
            read_results(path)

    @pytest.mark.parametrize("metadata", [{"config": "x\ny.json"}, {"note\r": "x"}])
    def test_line_break_in_metadata_refused_before_writing(self, tmp_path, metadata):
        # The file would not read back; an existing one is left as it was.
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        (key,) = metadata
        with pytest.raises(ValueError, match=rf"^metadata {re.escape(repr(key))} holds a line break$"):
            write_results([], path, metadata)
        assert path.read_text() == "kept\n"

    def test_nan_snr_row_detected_with_line_number(self, tmp_path):
        # Two rows at nan dB would otherwise load, and a figure would then
        # find no record at nan dB, as nan never equals itself.
        path = tmp_path / "nan.csv"
        rows = "".join(f"intended,nan,400,400,{e},{e / 400!r},{e},{e / 100!r}\n" for e in (4, 8))
        path.write_text(",".join(RESULT_FIELDS) + "\n" + rows)
        with pytest.raises(IntegrityError, match=r":2: snr_db must be finite, got nan"):
            read_results(path)

    def test_malformed_row_after_metadata_named_by_its_line(self, tmp_path):
        # Metadata and blank lines between the rows count toward the line
        # number, and a metadata line applies to the rows after it.
        rec = BerRecord("eve_rect", 0.0, 400, 100, 40, 0.4, 20, 0.2)
        path = tmp_path / "out.csv"
        write_results([rec, rec], path, {"seed": 1, "symbols_per_point": 100})
        lines = path.read_text().splitlines()
        assert read_results(path) == [rec, rec]
        lines[-1:-1] = ["# symbols_per_point: 50", ""]
        lines.append("eve_rect,0.0,400,100,40,0.4,20")
        path.write_text("\n".join(lines) + "\n")
        expected = len(lines) - 1
        with pytest.raises(IntegrityError, match=rf":{expected}: ser 0\.2 != symbol_errors/symbols \(20/50\)"):
            read_results(path)
        del lines[-2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match=rf":{len(lines)}: expected 8 fields, got 7"):
            read_results(path)

    def test_unterminated_quote_named_by_its_line(self, tmp_path):
        # The reader would take the next line into the open field; the file
        # is refused at the line that left it open.
        path = tmp_path / "quote.csv"
        row = "intended,0.0,400,400,4,0.01,4,0.04"
        path.write_text(
            "\n".join([",".join(RESULT_FIELDS), row, '"intended,0.0', "# note", row]) + "\n"
        )
        with pytest.raises(IntegrityError, match=r":3: unexpected end of data"):
            read_results(path)

    def test_malformed_quote_named_by_its_line(self, tmp_path):
        # A lax reader would load this label as eve_rect.
        path = tmp_path / "quote.csv"
        row = "eve_rect,0.0,400,100,40,0.4,20,0.2"
        path.write_text("\n".join([",".join(RESULT_FIELDS), row, '"eve"' + row[3:]]) + "\n")
        with pytest.raises(IntegrityError, match=r":3: ',' expected after '\"'$"):
            read_results(path)

    @pytest.mark.parametrize("label", ['a"b', '"quoted"', " padded ", "tab\there"])
    def test_labels_that_need_quoting_round_trip(self, tmp_path, label):
        rec = BerRecord(label, 0.0, 400, 100, 40, 0.4, 20, 0.2)
        path = tmp_path / "out.csv"
        write_results([rec, rec], path, {"symbols_per_point": 100})
        assert read_results(path) == [rec, rec]

    def test_oversized_field_named_by_its_line(self, tmp_path):
        # A field over csv.field_size_limit() is a data error like any other.
        rec = BerRecord("x" * 200_000, 0.0, 400, 100, 40, 0.4, 20, 0.2)
        path = tmp_path / "big.csv"
        write_results([rec], path, {"symbols_per_point": 100})
        lineno = len(path.read_text().splitlines())
        with pytest.raises(IntegrityError, match=rf":{lineno}: field larger than field limit"):
            read_results(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("# only metadata\n")
        with pytest.raises(IntegrityError, match="header"):
            read_results(path)

    def test_unexpected_header(self, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text("# generated: now\nlabel,snr_db\n")
        with pytest.raises(IntegrityError, match=r":2: unexpected header \('label', 'snr_db'\)"):
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

    def test_scenario_figure_rejects_repeated_point(self):
        labels = ("intended", "eve_rect", "eve_qpsk", "eve_bpsk")
        records = self.synthetic_records(labels, (0.0, 5.0))
        records += self.synthetic_records(("eve_qpsk",), (5.0,), ber=0.25)
        with pytest.raises(IntegrityError, match=r"fig9: series 'eve_qpsk' .* 5\.0 dB"):
            emit_figure_data(records, "fig9")

    def test_pooled_repeats_read_and_summarized(self, tmp_path):
        records = self.synthetic_records(("eve_rect", "eve_qpsk"), (0.0,), ber=0.4) * 2
        path = tmp_path / "pooled.csv"
        write_results(records, path, {"symbols_per_point": 1000})
        assert read_results(path) == records
        header, rows = emit_figure_data(read_results(path), "fig13")
        assert dict(rows)["count"] == 4

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
        cfg = load_config(CONFIGS / "fig8.json")
        assert cfg.sender_scheme == "qam16_circ" and cfg.sender_key is None
        assert [(r.label, r.scheme, r.key) for r in cfg.receivers] == [
            ("intended", "qam16_circ", None),
            ("eve_rect", "qam16_rect", None),
            ("eve_qpsk", "qpsk", None),
            ("eve_bpsk", "bpsk", None),
        ]
        assert all(r.distance_m == 50.0 for r in cfg.receivers)
        assert cfg.sweep_mode == "receive"
        assert cfg.path_loss.alpha == 2.0

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_loads(self, path):
        load_config(path).resolve_schemes()

    @pytest.mark.parametrize("fig", sorted(FIGURE_SCENARIOS))
    def test_committed_figure_config(self, fig):
        alpha, distance = FIGURE_SCENARIOS[fig]
        cfg = load_config(CONFIGS / f"{fig}.json")
        assert cfg.path_loss.alpha == alpha
        assert {r.distance_m for r in cfg.receivers} == {distance}
        assert tuple(r.label for r in cfg.receivers) == REQUIRED_RECEIVER_LABELS
        # Apart from alpha and distance, every figure runs fig7's config.
        fig7 = load_config(CONFIGS / "fig7.json")
        assert cfg == replace(
            fig7,
            path_loss=replace(fig7.path_loss, alpha=alpha),
            receivers=tuple(replace(r, distance_m=distance) for r in fig7.receivers),
        )

    def test_committed_demo_config_loads(self):
        cfg = load_config(CONFIGS / "demo.json")
        assert [r.label for r in cfg.receivers] == list(REQUIRED_RECEIVER_LABELS)
