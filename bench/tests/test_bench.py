"""Tests of the benchmark's checks: each one can fail, and the oracle holds known closed forms.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import locate  # noqa: E402

locate.use_source_tree()

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def exact_record(cell: checks.Cell) -> dict:
    """A record whose counts sit on the cell's exact expectation."""
    n = cell.symbols
    m_tx = len(cell.tx_points).bit_length() - 1
    m_rx = len(cell.rx_points).bit_length() - 1
    law = oracle.error_law(cell.tx_points, cell.rx_points, oracle.noise_density(cell.snr_db))
    sym, bit = round(n * law.ser), round(n * law.bit_mean)
    return {
        "receiver_label": cell.label, "snr_db": cell.snr_db, "tx_bits": n * m_tx,
        "compared_bits": n * m_rx, "bit_errors": bit, "ber": bit / (n * m_rx),
        "symbol_errors": sym, "ser": sym / n,
    }


def paper_cell(label: str, snr_db: float) -> checks.Cell:
    cfg = inputs.paper_figure_config("fig7", seed=1)
    return next(c for c in checks.cells_from_config(cfg) if c.label == label and c.snr_db == snr_db)


def link_cells() -> list:
    return checks.sweep_cells(
        ("qpsk", (3, 2, 0, 1)),
        [("intended", "qpsk", (3, 2, 0, 1), 10.0), ("eve_key", "qpsk", (1, 0, 3, 2), 20.0)],
        alpha=2.0, d_ref=1.0, snr_db=(20.0, 26.0), mode="reference", symbols=100_000,
    )


@pytest.mark.parametrize("snr_db", [-3.0, 0.0, 4.0, 8.0])
def test_bpsk_ber_matches_closed_form(snr_db):
    bpsk = oracle.GEOMETRY["bpsk"]
    law = oracle.error_law(bpsk, bpsk, oracle.noise_density(snr_db))
    closed_form = 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0)))
    assert law.bit_mean == pytest.approx(closed_form, rel=1e-12)
    assert law.ser == pytest.approx(closed_form, rel=1e-12)


def test_transition_rows_are_distributions():
    matrix = oracle.transition_matrix(oracle.GEOMETRY["qam16_circ"], oracle.GEOMETRY["qam16_rect"], 0.3)
    assert all(sum(row) == pytest.approx(1.0, abs=1e-14) for row in matrix)


def test_two_ring_cells_are_not_rectangles():
    with pytest.raises(ValueError):
        oracle.rect_cells(oracle.GEOMETRY["qam16_circ"])


def test_exact_record_passes_and_ten_sigma_shift_fails():
    cell = paper_cell("eve_rect", 5.0)
    record = exact_record(cell)
    assert checks.record_reasons(record, cell) == []
    law = oracle.error_law(cell.tx_points, cell.rx_points, oracle.noise_density(cell.snr_db))
    shift = round(10 * math.sqrt(cell.symbols * law.bit_var))
    record["bit_errors"] += shift
    record["ber"] = record["bit_errors"] / record["compared_bits"]
    assert any("bit errors" in r for r in checks.record_reasons(record, cell))


def test_intended_two_ring_record_outside_union_bound_fails():
    cell = paper_cell("intended", 12.0)
    lower, upper = oracle.nearest_point_ser_bounds(cell.rx_points, oracle.noise_density(12.0))
    assert 0 < lower < upper < 1
    inside = round(cell.symbols * (lower + upper) / 2)
    outside = round(cell.symbols * upper * 1.5)
    for sym, fails in ((inside, False), (outside, True)):
        record = {
            "receiver_label": "intended", "snr_db": 12.0, "tx_bits": 4 * cell.symbols,
            "compared_bits": 4 * cell.symbols, "bit_errors": sym, "ber": sym / (4 * cell.symbols),
            "symbol_errors": sym, "ser": sym / cell.symbols,
        }
        assert bool(checks.record_reasons(record, cell)) is fails


def test_ber_above_ser_fails():
    cell = paper_cell("eve_qpsk", 3.0)
    record = exact_record(cell)
    record["bit_errors"] = 2 * record["symbol_errors"] + 1
    record["ber"] = record["bit_errors"] / record["compared_bits"]
    assert any("SER" in r for r in checks.record_reasons(record, cell))


def test_off_by_one_reference_snr_fails():
    cells = link_cells()
    records = [exact_record(c) for c in cells]
    report = checks.Report()
    checks.check_cells(report, "link", cells, records)
    assert report.failures == {}
    records[1]["snr_db"] += 1.0
    report = checks.Report()
    checks.check_cells(report, "link", cells, records)
    assert any("snr_db" in r for reasons in report.failures.values() for r in reasons)


def test_reference_snr_follows_path_loss():
    snrs = [(c.label, c.snr_db) for c in link_cells()]
    loss = 20 * math.log10(20)
    assert snrs == [
        ("intended", pytest.approx(0.0)), ("intended", pytest.approx(6.0)),
        ("eve_key", pytest.approx(20.0 - loss)), ("eve_key", pytest.approx(26.0 - loss)),
    ]


def test_fig13_median_outside_band_fails():
    pool = [0.3] * 4
    text = "statistic,value\ncount,4\nmin,0.3\nq1,0.3\nmedian,0.3\nq3,0.3\nmax,0.3\n"
    assert any("outside" in r for r in checks.fig13_reasons(text, pool, 4))
    pool = [0.5] * 4
    assert checks.fig13_reasons(text.replace("0.3", "0.5"), pool, 4) == []


def test_permanent_oracle_counts_matchings():
    assert oracle.permanent_dp([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert oracle.permanent_dp([[1] * 7 for _ in range(7)]) == math.factorial(7)
    assert oracle.permanent_dp([[1, 1], [0, 0]]) == 0


def analytics_outputs(inp):
    grid = checks.grid(*inputs.ANALYTIC_GRID_DB)[:3]
    return {
        "sweep": [(s, checks.representative_correct(s), 1.0 - checks.representative_correct(s)) for s in grid],
        "all_symbols": [checks.all_symbols_correct(s) for s in grid],
        "verify": [
            SimpleNamespace(passed=True, max_deviation=0, n_keys=math.factorial(o),
                            prior=tuple(Fraction(p) for p in prior))
            for o, prior in inp["priors"].items()
        ],
        "keyspace": [
            SimpleNamespace(keyspace_size=math.factorial(m), key_entropy_bits=math.lgamma(m + 1) / math.log(2),
                            shannon_bound_max_symbols=max(n for n in range(m + 1) if m**n <= math.factorial(m)))
            for m in inputs.KEYSPACE_ORDERS
        ],
        "permanent": [oracle.permanent_dp(m) for m in inp["matrices"]],
    }


def test_exact_analytics_checks_fail_on_each_kind_of_wrong_output(monkeypatch):
    monkeypatch.setattr(inputs, "RANDOM_MATRIX_SIZES", (5, 6))
    inp = inputs.generate("exact_analytics", 3, Path("."))
    monkeypatch.setattr(checks, "ANALYTIC_GRID_DB", (0.0, 0.005, 0.0025))
    good = analytics_outputs(inp)
    assert checks.check_exact_analytics(inp, good).failures == {}
    wrong = {
        "permanent": lambda o: o["permanent"].__setitem__(0, o["permanent"][0] + 1),
        "verify": lambda o: setattr(o["verify"][2], "max_deviation", Fraction(1, 720)),
        "keyspace": lambda o: setattr(o["keyspace"][5], "shannon_bound_max_symbols", 1),
        "all_symbols": lambda o: o["all_symbols"].__setitem__(1, o["all_symbols"][1] + 1e-9),
        "sweep": lambda o: o["sweep"].pop(),
    }
    for name, spoil in wrong.items():
        outputs = analytics_outputs(inp)
        spoil(outputs)
        failures = checks.check_exact_analytics(inp, outputs).failures
        assert failures and all(name in op for op in failures), name


def test_wrong_program_output_fails_the_run(monkeypatch, capsys):
    from keyedmod import secrecy

    real = secrecy.permanent
    monkeypatch.setattr(secrecy, "permanent", lambda m: real(m) + 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "exact_analytics", "--seed", "5", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == len(inputs.RANDOM_MATRIX_SIZES) + len(inputs.ALL_ONES_SIZES)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(locate.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "low_order_link", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
