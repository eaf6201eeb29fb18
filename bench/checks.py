"""Output checks of each workload against the reference computations in ``oracle.py``.

Every check belongs to one operation (one result record, one figure,
one analytic value, one permanent...). An operation with any failed
check counts as failed. The checks run outside the timed phase and read
only the workload's inputs and the program's outputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import oracle
from inputs import ANALYTIC_GRID_DB, KEYSPACE_ORDERS, PAPER_ROSTER

#: Bernstein deviation, in standard deviations, allowed for a Monte Carlo count.
K_SIGMA = 6.0
ANALYTIC_TOLERANCE = 1e-12
SNR_TOLERANCE_DB = 1e-9
FIG13_MEDIAN_RANGE = (0.45, 0.55)
FIG5_GRID_DB = (0.0, 25.0, 0.5)

RESULT_HEADER = (
    "receiver_label", "snr_db", "tx_bits", "compared_bits",
    "bit_errors", "ber", "symbol_errors", "ser",
)
SERIES_LABELS = tuple(label for label, _ in PAPER_ROSTER)


class Report:
    """Operations attempted and the reasons each failed one failed."""

    def __init__(self) -> None:
        self.operations: list[str] = []
        self.failures: dict[str, list[str]] = {}

    def add(self, operation: str, reasons) -> None:
        self.operations.append(operation)
        if reasons:
            self.failures[operation] = list(reasons)


def grid(start: float, stop: float, step: float) -> list[float]:
    return [start + k * step for k in range(round((stop - start) / step) + 1)]


@dataclass(frozen=True)
class Cell:
    """One (receiver, SNR) cell of a sweep and what it must produce."""

    label: str
    snr_db: float
    tx_points: tuple
    rx_points: tuple
    symbols: int
    rectangular: bool


def _points(scheme: str, perm) -> tuple:
    return oracle.keyed(oracle.GEOMETRY[scheme], perm)


def sweep_cells(sender, receivers, alpha, d_ref, snr_db, mode, symbols) -> list[Cell]:
    """Cells of a sweep. ``sender`` is (scheme, perm); receivers are (label, scheme, perm, distance)."""
    tx = _points(*sender)
    cells = []
    for label, scheme, perm, distance in receivers:
        rx = _points(scheme, perm)
        try:
            oracle.rect_cells(rx)
            rectangular = True
        except ValueError:
            rectangular = False
        loss = 0.0 if mode == "receive" else 10.0 * alpha * math.log10(distance / d_ref)
        cells += [Cell(label, s - loss, tx, rx, symbols, rectangular) for s in snr_db]
    return cells


def cells_from_config(doc: dict) -> list[Cell]:
    """Cells of an experiment config in its JSON form."""

    def perm(key):
        return tuple(int(v) for v in key.split(",")) if key else None

    sweep = doc["snr_sweep_db"]
    snr_db = grid(sweep["start"], sweep["stop"], sweep["step"]) if isinstance(sweep, dict) else sweep
    return sweep_cells(
        (doc["sender"]["scheme"], perm(doc["sender"]["key"])),
        [(r["label"], r["scheme"], perm(r["key"]), r["distance_m"]) for r in doc["receivers"]],
        doc["path_loss"]["alpha"],
        doc["path_loss"]["d_ref_m"],
        snr_db,
        doc["sweep_mode"],
        doc["symbols_per_point"],
    )


def parse_results(text: str) -> list[dict]:
    """Records of a results CSV: ``#`` lines skipped, pinned header required."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != RESULT_HEADER:
        raise ValueError("results file lacks the pinned header")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append({
            "receiver_label": f[0], "snr_db": float(f[1]), "tx_bits": int(f[2]),
            "compared_bits": int(f[3]), "bit_errors": int(f[4]), "ber": float(f[5]),
            "symbol_errors": int(f[6]), "ser": float(f[7]),
        })
    return records


def _count_reasons(name, observed, n, mean, var, span) -> list[str]:
    slack = oracle.bernstein_slack(n, var, span, K_SIGMA)
    if abs(observed - n * mean) > slack:
        sigma = math.sqrt(n * var)
        return [f"{name} {observed} vs exact {n * mean:.1f} (sigma {sigma:.2f}, allowed {slack:.1f})"]
    return []


def record_reasons(rec: dict, cell: Cell) -> list[str]:
    """Why a result record disagrees with its cell's exact statistics; empty if it agrees."""
    n = cell.symbols
    m_tx = len(cell.tx_points).bit_length() - 1
    m_rx = len(cell.rx_points).bit_length() - 1
    reasons = []
    if abs(rec["snr_db"] - cell.snr_db) > SNR_TOLERANCE_DB:
        reasons.append(f"snr_db {rec['snr_db']!r}, expected {cell.snr_db!r}")
    if rec["tx_bits"] != n * m_tx or rec["compared_bits"] != n * m_rx:
        reasons.append(f"bit counts {rec['tx_bits']}/{rec['compared_bits']} for {n} symbols")
        return reasons
    sym, bit = rec["symbol_errors"], rec["bit_errors"]
    if rec["ber"] != bit / rec["compared_bits"] or rec["ser"] != sym / n:
        reasons.append("stored rates differ from the counts")
    if not sym <= bit <= m_rx * sym:
        reasons.append(f"BER outside [SER/m, SER]: {bit} bit errors, {sym} symbol errors")
    n0 = oracle.noise_density(cell.snr_db)
    if cell.rectangular:
        law = oracle.error_law(cell.tx_points, cell.rx_points, n0)
        reasons += _count_reasons("symbol errors", sym, n, law.ser, law.ser * (1 - law.ser), 1.0)
        reasons += _count_reasons("bit errors", bit, n, law.bit_mean, law.bit_var, m_rx)
    else:
        lower, upper = oracle.nearest_point_ser_bounds(cell.rx_points, n0)
        var = 0.25 if lower <= 0.5 <= upper else max(p * (1 - p) for p in (lower, upper))
        slack = oracle.bernstein_slack(n, var, 1.0, K_SIGMA)
        if not n * lower - slack <= sym <= n * upper + slack:
            reasons.append(
                f"symbol errors {sym} outside bounds [{n * lower:.1f}, {n * upper:.1f}]"
                f" +- {slack:.1f}"
            )
    return reasons


def check_cells(report: Report, prefix: str, cells, records, shared_reasons=()) -> None:
    """One operation per cell; records are matched to cells per label in SNR order."""
    by_label: dict[str, list[dict]] = {}
    for rec in records:
        by_label.setdefault(rec["receiver_label"], []).append(rec)
    expected: dict[str, list[Cell]] = {}
    for cell in cells:
        expected.setdefault(cell.label, []).append(cell)
    for label, label_cells in expected.items():
        got = sorted(by_label.pop(label, []), key=lambda r: r["snr_db"])
        label_cells = sorted(label_cells, key=lambda c: c.snr_db)
        for i, cell in enumerate(label_cells):
            reasons = list(shared_reasons)
            if len(got) != len(label_cells):
                reasons.append(f"{len(got)} records for {len(label_cells)} sweep points")
            else:
                reasons += record_reasons(got[i], cell)
            report.add(f"{prefix}/{label}@{cell.snr_db:g}dB", reasons)
    for label in by_label:
        report.add(f"{prefix}/{label}", [f"unexpected receiver {label!r}"])


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln.split(",") for ln in text.splitlines() if ln]
    return lines[0], lines[1:]


def series_reasons(text: str, records) -> list[str]:
    """A fig7..fig12 series must pivot exactly the records it was made from."""
    header, rows = _parse_csv(text)
    if header != ["snr_db", *SERIES_LABELS]:
        return [f"series header {header}"]
    ber = {(r["receiver_label"], r["snr_db"]): r["ber"] for r in records}
    snrs = sorted({r["snr_db"] for r in records})
    if [float(row[0]) for row in rows] != snrs:
        return ["series SNR column differs from the records"]
    for row in rows:
        for label, value in zip(SERIES_LABELS, row[1:]):
            if float(value) != ber.get((label, float(row[0]))):
                return [f"series {label} at {row[0]} dB differs from its record"]
    return []


def representative_correct(snr_db: float) -> float:
    """The paper's closed-form aggregate: four representative labels at nominal scale."""
    return oracle.label_correct_probability(
        oracle.NOMINAL_TWO_RING, oracle.GEOMETRY["qam16_rect"],
        oracle.noise_density(snr_db), oracle.REPRESENTATIVE_VALUES,
    )


def all_symbols_correct(snr_db: float) -> float:
    """Correct-label probability over all sixteen labels at the operational gain."""
    return oracle.label_correct_probability(
        oracle.GEOMETRY["qam16_circ"], oracle.GEOMETRY["qam16_rect"],
        oracle.noise_density(snr_db), range(16),
    )


def analytic_row_reasons(row, snr_db: float) -> list[str]:
    """One (snr_db, p_correct, p_error) row against the oracle."""
    snr, p_correct, p_error = (float(v) for v in row)
    reasons = []
    if abs(snr - snr_db) > ANALYTIC_TOLERANCE:
        reasons.append(f"grid value {snr!r}, expected {snr_db!r}")
    exact = representative_correct(snr_db)
    if abs(p_correct - exact) > ANALYTIC_TOLERANCE:
        reasons.append(f"p_correct {p_correct!r} vs oracle {exact!r} at {snr_db} dB")
    if p_error != 1.0 - p_correct:
        reasons.append("p_error != 1 - p_correct")
    return reasons


def check_rows(report: Report, prefix: str, rows, snr_grid, row_reasons) -> None:
    """One operation per grid point; a missing or extra row fails its point."""
    for i, snr_db in enumerate(snr_grid):
        reasons = row_reasons(rows[i], snr_db) if i < len(rows) else ["missing row"]
        report.add(f"{prefix}@{snr_db:g}dB", reasons)
    if len(rows) > len(snr_grid):
        report.add(f"{prefix}/extra", [f"{len(rows) - len(snr_grid)} rows beyond the grid"])


def fig13_reasons(text: str, pool: list[float], expected_count: int) -> list[str]:
    header, rows = _parse_csv(text)
    stats = {name: float(value) for name, value in rows}
    if header != ["statistic", "value"] or set(stats) != {"count", "min", "q1", "median", "q3", "max"}:
        return [f"fig13 layout {header} {sorted(stats)}"]
    reasons = []
    if not stats["count"] == len(pool) == expected_count:
        reasons.append(f"pooled count {stats['count']}, {len(pool)} eavesdropper records")
    elif not (stats["min"], stats["max"]) == (min(pool), max(pool)):
        reasons.append("pooled min/max differ from the records")
    elif abs(stats["median"] - statistics.median(pool)) > 1e-15:
        reasons.append(f"pooled median {stats['median']!r} vs {statistics.median(pool)!r}")
    lo, hi = FIG13_MEDIAN_RANGE
    if not lo <= stats["median"] <= hi:
        reasons.append(f"pooled eavesdropper median BER {stats['median']!r} outside [{lo}, {hi}]")
    order = [stats[k] for k in ("min", "q1", "median", "q3", "max")]
    if order != sorted(order):
        reasons.append("quartiles out of order")
    return reasons


def check_paper_figures(inp: dict, outputs: dict) -> Report:
    report = Report()
    codes, files = outputs["codes"], outputs["files"]
    records_by_fig = {}
    for fig, cfg in inp["configs"].items():
        shared = []
        if codes.get(f"run {fig}") != 0:
            shared.append(f"sim run exited {codes.get(f'run {fig}')}")
        records = []
        try:
            records = parse_results(files[f"results {fig}"] or "")
        except (ValueError, IndexError) as exc:
            shared.append(f"unreadable results: {exc}")
        records_by_fig[fig] = records
        check_cells(report, fig, cells_from_config(cfg), records, shared)

    def figure(fig, reasons_of):
        code, text = codes.get(f"figure {fig}"), files[f"figure {fig}"]
        if code != 0 or text is None:
            report.add(f"figure {fig}", [f"sim figure exited {code}"])
            return
        try:
            report.add(f"figure {fig}", reasons_of(text))
        except (ValueError, IndexError, KeyError) as exc:
            report.add(f"figure {fig}", [f"unreadable figure: {exc!r}"])

    def fig5(text):
        header, rows = _parse_csv(text)
        reasons = [] if header == ["snr_db", "p_correct", "p_error"] else [f"header {header}"]
        snr_grid = grid(*FIG5_GRID_DB)
        if len(rows) != len(snr_grid):
            return reasons + [f"{len(rows)} rows for {len(snr_grid)} grid points"]
        for row, snr_db in zip(rows, snr_grid):
            reasons += analytic_row_reasons(row, snr_db)
        return reasons

    figure("fig5", fig5)
    for fig in inp["configs"]:
        figure(fig, lambda text, fig=fig: series_reasons(text, records_by_fig[fig]))
    pool = [
        r["ber"] for records in records_by_fig.values() for r in records
        if not r["receiver_label"].startswith("intended")
    ]
    expected_pool = sum(
        not cell.label.startswith("intended")
        for cfg in inp["configs"].values() for cell in cells_from_config(cfg)
    )
    figure("fig13", lambda text: fig13_reasons(text, pool, expected_pool))
    return report


def check_link(cfg, records) -> Report:
    """Records of ``run_experiment`` against the cells of its config ``cfg``."""
    report = Report()
    cells = sweep_cells(
        (cfg.sender_scheme, cfg.sender_key.perm if cfg.sender_key else None),
        [(r.label, r.scheme, r.key.perm if r.key else None, r.distance_m) for r in cfg.receivers],
        cfg.path_loss.alpha, cfg.path_loss.d_ref, cfg.snr_sweep_db, cfg.sweep_mode,
        cfg.symbols_per_point,
    )
    rows = [{name: getattr(r, name) for name in RESULT_HEADER} for r in records]
    check_cells(report, "link", cells, rows)
    return report


def check_exact_analytics(inp: dict, outputs: dict) -> Report:
    report = Report()
    snr_grid = grid(*ANALYTIC_GRID_DB)
    check_rows(report, "analytic.sweep", outputs["sweep"], snr_grid, analytic_row_reasons)

    def all_symbols(value, snr_db):
        exact = all_symbols_correct(snr_db)
        if abs(value - exact) > ANALYTIC_TOLERANCE:
            return [f"p_correct_all_symbols {value!r} vs oracle {exact!r} at {snr_db} dB"]
        return []

    check_rows(report, "analytic.all_symbols", outputs["all_symbols"], snr_grid, all_symbols)

    for (order, prior), result in zip(inp["priors"].items(), outputs["verify"]):
        reasons = []
        if not (result.passed and result.max_deviation == 0):
            reasons.append(f"order {order}: passed={result.passed}, deviation {result.max_deviation}")
        if result.n_keys != math.factorial(order) or list(result.prior) != [Fraction(p) for p in prior]:
            reasons.append(f"order {order}: {result.n_keys} keys, prior {result.prior}")
        report.add(f"secrecy.verify[{order}]", reasons)

    for order, result in zip(KEYSPACE_ORDERS, outputs["keyspace"]):
        size, n = result.keyspace_size, result.shannon_bound_max_symbols
        entropy = math.lgamma(order + 1) / math.log(2)
        reasons = []
        if size != math.factorial(order):
            reasons.append(f"M={order}: keyspace {size} != M!")
        if abs(result.key_entropy_bits - entropy) > 1e-12 * entropy:
            reasons.append(f"M={order}: entropy {result.key_entropy_bits!r} vs {entropy!r}")
        if not order**n <= math.factorial(order) < order ** (n + 1):
            reasons.append(f"M={order}: length bound {n} fails M^n <= M! < M^(n+1)")
        report.add(f"secrecy.keyspace[{order}]", reasons)

    for matrix, value in zip(inp["matrices"], outputs["permanent"]):
        n = len(matrix)
        exact = oracle.permanent_dp(matrix)
        reasons = [] if value == exact else [f"n={n}: permanent {value} vs subset DP {exact}"]
        if all(all(row) for row in matrix) and value != math.factorial(n):
            reasons.append(f"n={n}: all-ones permanent {value} != n!")
        report.add(f"secrecy.permanent[{n}]", reasons)
    for name, expected in (("verify", inp["priors"]), ("keyspace", KEYSPACE_ORDERS),
                           ("permanent", inp["matrices"])):
        if len(outputs[name]) != len(expected):
            report.add(f"secrecy.{name}/count", [f"{len(outputs[name])} results for {len(expected)} inputs"])
    return report
