"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one ``ACCEPTANCE n (...): PASS`` line when its checks
hold; a failing criterion surfaces as a normal pytest failure carrying
the measured values.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from keyedmod.analytic import (
    REPRESENTATIVE_SYMBOLS,
    SnrPoint,
    circular_tx_point,
    p_correct_numeric,
    p_correct_symbol,
    p_correct_total,
    snr_grid_db,
)
from keyedmod.channel import ChannelSpec, add_awgn
from keyedmod.constellations import make_standard_scheme
from keyedmod.experiment import (
    FIGURE_SCENARIOS,
    config_to_dict,
    emit_figure_data,
    load_config,
    run_experiment,
)
from keyedmod.modem import nearest_point_values
from keyedmod.secrecy import keyspace_report, permanent, unicity, verify_perfect_secrecy
from test_secrecy import naive_permanent

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(criterion, name):
    print(f"ACCEPTANCE {criterion} ({name}): PASS", flush=True)


def test_criterion_1_analytic_matches_numeric_oracle():
    started = time.perf_counter()
    grid = snr_grid_db(0, 25, 0.5)
    assert len(grid) == 51
    for snr_db in grid:
        point = SnrPoint.from_db(snr_db)
        oracle_sum = 0.0
        for i, value in enumerate(REPRESENTATIVE_SYMBOLS):
            closed = p_correct_symbol(i, point)
            oracle = p_correct_numeric(circular_tx_point(value), value, point)
            assert abs(closed - oracle) <= 1e-9, (i, snr_db, closed, oracle)
            oracle_sum += oracle
        assert abs(p_correct_total(point) - oracle_sum / 4.0) <= 1e-9, snr_db
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, "closed forms equal numeric oracle at 51 SNR points")


def test_criterion_2_headline_probabilities():
    p0 = p_correct_total(SnrPoint.from_db(0.0))
    p10 = p_correct_total(SnrPoint.from_db(10.0))
    values = [p_correct_total(SnrPoint.from_db(db)) for db in snr_grid_db(0, 25, 0.5)]

    assert abs(p0 - 0.015) <= 0.005, f"P(C) at 0 dB = {p0:.6f}, expected 0.015 +- 0.005"
    assert all(a > b for a, b in zip(values, values[1:])), "P(C) not strictly decreasing"
    assert 0.5e-3 <= p10 <= 2e-3, (
        f"P(C) at 10 dB = {p10:.6e}, outside [5e-4, 2e-3]: the aggregate implied by"
        " the per-symbol closed forms (all verified against the Gaussian-integral"
        " oracle in criterion 1) sits a factor of"
        f" {1e-3 / p10:.1f} below the 1e-3 headline; the headline value corresponds"
        " to roughly 7.9 dB on the verified curve"
    )
    report(2, "headline decode probabilities")


def _simulated_representative_rate(seed, snr_db, n_symbols):
    circ = make_standard_scheme("qam16_circ")
    rect = make_standard_scheme("qam16_rect")
    rng = np.random.default_rng(seed)
    values = np.asarray(REPRESENTATIVE_SYMBOLS)[rng.integers(0, 4, n_symbols)]
    tx = circ.mapped_points[values]
    rx = add_awgn(tx, ChannelSpec(snr_db, rng_seed=seed + 1))
    decoded = nearest_point_values(rx, rect)
    return float(np.mean(decoded == values))


def test_criterion_3_monte_carlo_vs_analytic():
    started = time.perf_counter()
    n_symbols = 10_000_000
    # The simulated sender is the normalised two-ring layout, so predict at
    # its operational scale rather than at the nominal table's.
    scale = abs(make_standard_scheme("qam16_circ").points[0]) / abs(circular_tx_point(0))
    for snr_db, seed in ((0.0, 301), (5.0, 302), (10.0, 307)):
        point = SnrPoint.from_db(snr_db)
        predicted = sum(
            p_correct_numeric(circular_tx_point(v) * scale, v, point)
            for v in REPRESENTATIVE_SYMBOLS
        ) / len(REPRESENTATIVE_SYMBOLS)
        rate = _simulated_representative_rate(seed, snr_db, n_symbols)
        sigma = math.sqrt(predicted * (1.0 - predicted) / n_symbols)
        assert abs(rate - predicted) <= 4 * sigma, (
            f"{snr_db} dB: simulated {rate:.3e} vs analytic {predicted:.3e}"
            f" ({abs(rate - predicted) / sigma:.2f} sigma)"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, "10^7-symbol Monte Carlo within 4 sigma of analytic curve")


def test_criterion_4_full_scenario_bands():
    started = time.perf_counter()
    sweep = tuple(snr_grid_db(0, 25, 1.0))
    all_records = []
    for fig_id in FIGURE_SCENARIOS:
        cfg = load_config(CONFIGS / f"{fig_id}.json")
        # The budget this criterion states, so editing a file cannot weaken it.
        assert (cfg.seed, cfg.symbols_per_point, cfg.snr_sweep_db) == (400, 1_000_000, sweep)
        records = run_experiment(cfg)
        all_records.extend(records)

        intended = sorted(
            (r for r in records if r.receiver_label == "intended"),
            key=lambda r: r.snr_db,
        )
        bers = [r.ber for r in intended]
        assert all(a >= b for a, b in zip(bers, bers[1:])), (
            f"{fig_id}: intended BER not monotone nonincreasing: {bers}"
        )
        assert bers[-1] < 1e-4, f"{fig_id}: intended BER at 25 dB is {bers[-1]:.2e}"

        for rec in records:
            if rec.receiver_label != "intended":
                assert 0.35 <= rec.ber <= 0.65, (
                    f"{fig_id}: {rec.receiver_label} at {rec.snr_db} dB has"
                    f" BER {rec.ber:.4f}"
                )

    _, rows = emit_figure_data(all_records, "fig13")
    stats = dict(rows)
    assert 0.45 <= stats["median"] <= 0.55, f"pooled median {stats['median']:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.0f}s"
    report(4, "eavesdropper BER bands over the six-scenario sweep")


def test_criterion_5_perfect_secrecy_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(500)
    for order in (2, 4):
        assert verify_perfect_secrecy(order).passed
        for _ in range(20):
            weights = [int(w) for w in rng.integers(1, 40, order)]
            prior = [Fraction(w, sum(weights)) for w in weights]
            result = verify_perfect_secrecy(order, prior)
            assert result.passed and result.max_deviation == 0, (order, prior)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 5 took {elapsed:.2f}s"
    report(5, "perfect secrecy exact for orders 2 and 4")


def test_criterion_6_keyspace_and_unicity():
    rep = keyspace_report(16)
    assert rep.keyspace_size == 20_922_789_888_000
    assert abs(rep.key_entropy_bits - 44.25) <= 0.01
    assert rep.shannon_bound_max_symbols == 11
    assert math.isinf(unicity(rep.key_entropy_bits, 0.0).distance)
    report(6, "keyspace size, entropy, length bound, infinite unicity")


def test_criterion_7_permanent_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(700)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        mat = rng.integers(0, 2, (n, n))
        assert permanent(mat) == naive_permanent(mat), mat
    for n in range(1, 9):
        assert permanent(np.ones((n, n), dtype=int)) == math.factorial(n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.2f}s"
    report(7, "Ryser permanent equals the permutation-sum oracle")


def test_criterion_8_run_determinism(tmp_path):
    cfg = replace(
        load_config(CONFIGS / "fig7.json"),
        snr_sweep_db=(0.0, 10.0, 20.0),
        symbols_per_point=10_000,
        seed=8,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "keyedmod",
                "sim",
                "run",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            [
                line
                for line in out.read_text().splitlines()
                if not line.startswith("# generated:")
            ]
        )
    assert outputs[0] == outputs[1]
    report(8, "repeated sim run is byte-identical modulo timestamp")
