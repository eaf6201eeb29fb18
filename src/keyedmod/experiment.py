"""Monte Carlo BER experiments: seeded sweeps, persistence, figure data.

One experiment fixes a sender scheme and a roster of receivers (each
with its own scheme, key, and distance), then sweeps SNR. Per sweep
point and receiver, fresh uniform bits are modulated, passed through
AWGN at the receiver's effective SNR, and decoded with the receiver's
scheme. RNG substreams derive from (seed, sweep index, receiver
label), so results are bit-reproducible and adding, removing, or
reordering receivers never perturbs the other series; sweep points x
receivers parallelize with no shared state, and the record list is
canonically ordered before persistence.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .analytic import snr_grid_db, sweep as analytic_sweep
from .channel import ChannelSpec, PathLossModel, add_awgn, snr_at_distance
from .constellations import (
    ConstellationScheme,
    MappingKey,
    make_keyed_scheme,
    make_standard_scheme,
    parse_key,
    serialize_key,
)
from .modem import bits_to_values, count_prefix_errors, nearest_point_values

__all__ = [
    "IntegrityError",
    "ReceiverSpec",
    "ExperimentConfig",
    "BerRecord",
    "RESULT_FIELDS",
    "FIGURE_SCENARIOS",
    "REQUIRED_RECEIVER_LABELS",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "scenario_config",
    "run_experiment",
    "write_results",
    "read_results",
    "emit_figure_data",
]

MIN_SYMBOLS_PER_POINT = 10_000

RESULT_FIELDS = (
    "receiver_label",
    "snr_db",
    "tx_bits",
    "compared_bits",
    "bit_errors",
    "ber",
    "symbol_errors",
    "ser",
)

#: Receiver roster every per-scenario BER figure expects.
REQUIRED_RECEIVER_LABELS = ("intended", "eve_rect", "eve_qpsk", "eve_bpsk")

#: (path-loss exponent, distance in meters) for the six scenario figures.
FIGURE_SCENARIOS = {
    "fig7": (2.0, 10.0),
    "fig8": (2.0, 50.0),
    "fig9": (2.0, 100.0),
    "fig10": (1.4, 10.0),
    "fig11": (1.4, 50.0),
    "fig12": (1.4, 100.0),
}


class IntegrityError(ValueError):
    """Persisted data failed an internal consistency check."""


@dataclass(frozen=True)
class ReceiverSpec:
    label: str
    scheme: str
    key: MappingKey | None = None
    distance_m: float = 1.0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("receiver label must not be empty")
        if "," in self.label:
            raise ValueError("receiver label must not contain commas")
        if not 0 < self.distance_m < math.inf:
            raise ValueError(
                f"distance must be positive and finite, got {self.distance_m}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Sender, receiver roster, path loss, SNR sweep, and sampling budget.

    ``sweep_mode`` selects how a sweep value becomes a receiver's
    effective SNR: ``"receive"`` uses it directly (co-located receivers
    all see it), ``"reference"`` treats it as the SNR at the path-loss
    reference distance and attenuates per receiver distance.
    """

    sender_scheme: str
    sender_key: MappingKey | None
    receivers: tuple[ReceiverSpec, ...]
    path_loss: PathLossModel
    snr_sweep_db: tuple[float, ...]
    sweep_mode: str
    symbols_per_point: int
    seed: int

    def __post_init__(self) -> None:
        if not self.receivers:
            raise ValueError("at least one receiver is required")
        labels = [r.label for r in self.receivers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate receiver labels: {labels}")
        if not self.snr_sweep_db:
            raise ValueError("SNR sweep must not be empty")
        if not all(math.isfinite(s) for s in self.snr_sweep_db):
            raise ValueError(
                f"SNR sweep values must be finite, got {list(self.snr_sweep_db)}"
            )
        if list(self.snr_sweep_db) != sorted(self.snr_sweep_db):
            raise ValueError("SNR sweep must be sorted ascending")
        if self.sweep_mode not in ("receive", "reference"):
            raise ValueError(f"unknown sweep mode {self.sweep_mode!r}")
        if self.symbols_per_point < MIN_SYMBOLS_PER_POINT:
            raise ValueError(
                f"symbols_per_point must be >= {MIN_SYMBOLS_PER_POINT},"
                f" got {self.symbols_per_point}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for r in self.receivers:
            if r.distance_m < self.path_loss.d_ref:
                raise ValueError(
                    f"receiver {r.label!r} at {r.distance_m} m is inside the"
                    f" path-loss reference distance {self.path_loss.d_ref} m"
                )

    def resolve_schemes(self) -> tuple[ConstellationScheme, list[ConstellationScheme]]:
        """Build all schemes up front so bad references fail before simulating."""
        sender = _build_scheme(self.sender_scheme, self.sender_key)
        receivers = [_build_scheme(r.scheme, r.key) for r in self.receivers]
        for spec, rx in zip(self.receivers, receivers):
            if rx.bits_per_symbol > sender.bits_per_symbol:
                raise ValueError(
                    f"receiver {spec.label!r} resolves {rx.bits_per_symbol}"
                    f" bits/symbol but the sender packs only {sender.bits_per_symbol}"
                )
        return sender, receivers


def _build_scheme(name: str, key: MappingKey | None) -> ConstellationScheme:
    scheme = make_standard_scheme(name)
    if key is not None:
        scheme = make_keyed_scheme(scheme, key)
    return scheme


@dataclass(frozen=True)
class BerRecord:
    """Error accounting for one (receiver, SNR) cell of a sweep."""

    receiver_label: str
    snr_db: float
    tx_bits: int
    compared_bits: int
    bit_errors: int
    ber: float
    symbol_errors: int
    ser: float

    def __post_init__(self) -> None:
        if self.compared_bits <= 0 or self.compared_bits > self.tx_bits:
            raise ValueError(
                f"compared_bits must be in 1..tx_bits, got {self.compared_bits}"
                f" of {self.tx_bits}"
            )
        if not 0 <= self.bit_errors <= self.compared_bits:
            raise ValueError(f"bit_errors out of range: {self.bit_errors}")
        if self.ber != self.bit_errors / self.compared_bits:
            raise ValueError(
                f"ber {self.ber!r} != bit_errors/compared_bits"
                f" ({self.bit_errors}/{self.compared_bits})"
            )
        if self.symbol_errors < 0:
            raise ValueError(f"symbol_errors must be nonnegative: {self.symbol_errors}")
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError(f"ser out of range: {self.ser}")
        if (self.symbol_errors == 0) != (self.ser == 0.0):
            raise ValueError("symbol_errors and ser disagree about being zero")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "sender": {
            "scheme": cfg.sender_scheme,
            "key": serialize_key(cfg.sender_key) if cfg.sender_key else None,
        },
        "receivers": [
            {
                "label": r.label,
                "scheme": r.scheme,
                "key": serialize_key(r.key) if r.key else None,
                "distance_m": r.distance_m,
            }
            for r in cfg.receivers
        ],
        "path_loss": {"alpha": cfg.path_loss.alpha, "d_ref_m": cfg.path_loss.d_ref},
        "snr_sweep_db": list(cfg.snr_sweep_db),
        "sweep_mode": cfg.sweep_mode,
        "symbols_per_point": cfg.symbols_per_point,
        "seed": cfg.seed,
    }


def _check_keys(doc, allowed: tuple[str, ...], where: str) -> dict:
    """Return ``doc`` if it is a JSON object holding only ``allowed`` keys."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be an object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key {unknown[0]!r} in {where}; expected some of {list(allowed)}"
        )
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from its JSON form, rejecting unknown keys at every level."""
    try:
        _check_keys(
            doc,
            (
                "sender",
                "receivers",
                "path_loss",
                "snr_sweep_db",
                "sweep_mode",
                "symbols_per_point",
                "seed",
            ),
            "experiment config",
        )
        sender = _check_keys(doc["sender"], ("scheme", "key"), "sender")
        sweep_spec = doc["snr_sweep_db"]
        if isinstance(sweep_spec, dict):
            _check_keys(sweep_spec, ("start", "stop", "step"), "snr_sweep_db")
            sweep = tuple(
                snr_grid_db(
                    float(sweep_spec["start"]),
                    float(sweep_spec["stop"]),
                    float(sweep_spec["step"]),
                )
            )
        else:
            sweep = tuple(float(v) for v in sweep_spec)
        receivers = []
        for i, r in enumerate(doc["receivers"]):
            _check_keys(r, ("label", "scheme", "key", "distance_m"), f"receiver {i}")
            receivers.append(
                ReceiverSpec(
                    label=r["label"],
                    scheme=r["scheme"],
                    key=parse_key(r["key"]) if r.get("key") else None,
                    distance_m=float(r.get("distance_m", 1.0)),
                )
            )
        path_loss = _check_keys(
            doc.get("path_loss", {}), ("alpha", "d_ref_m"), "path_loss"
        )
        return ExperimentConfig(
            sender_scheme=sender["scheme"],
            sender_key=parse_key(sender["key"]) if sender.get("key") else None,
            receivers=tuple(receivers),
            path_loss=PathLossModel(
                alpha=float(path_loss.get("alpha", 2.0)),
                d_ref=float(path_loss.get("d_ref_m", 1.0)),
            ),
            snr_sweep_db=sweep,
            sweep_mode=doc.get("sweep_mode", "receive"),
            symbols_per_point=int(doc["symbols_per_point"]),
            seed=int(doc["seed"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed experiment config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read an :class:`ExperimentConfig` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_digest(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def scenario_config(
    alpha: float,
    distance_m: float,
    snr_sweep_db,
    symbols_per_point: int = 1_000_000,
    seed: int = 1,
) -> ExperimentConfig:
    """Standard scenario: two-ring sender, matched receiver, three mismatched listeners."""
    receivers = (
        ReceiverSpec("intended", "qam16_circ", distance_m=distance_m),
        ReceiverSpec("eve_rect", "qam16_rect", distance_m=distance_m),
        ReceiverSpec("eve_qpsk", "qpsk", distance_m=distance_m),
        ReceiverSpec("eve_bpsk", "bpsk", distance_m=distance_m),
    )
    return ExperimentConfig(
        sender_scheme="qam16_circ",
        sender_key=None,
        receivers=receivers,
        path_loss=PathLossModel(alpha=alpha),
        snr_sweep_db=tuple(float(s) for s in snr_sweep_db),
        sweep_mode="receive",
        symbols_per_point=symbols_per_point,
        seed=seed,
    )


def _substream_seed(seed: int, sweep_idx: int, receiver_label: str, lane: int) -> int:
    label_word = int.from_bytes(
        hashlib.sha256(receiver_label.encode()).digest()[:8], "big"
    )
    ss = np.random.SeedSequence((seed, sweep_idx, label_word, lane))
    return int(ss.generate_state(1, np.uint64)[0])


def run_experiment(cfg: ExperimentConfig) -> list[BerRecord]:
    """Run the full sweep and return records ordered by (receiver, SNR)."""
    sender, rx_schemes = cfg.resolve_schemes()
    m_tx = sender.bits_per_symbol
    n_sym = cfg.symbols_per_point
    records = []
    for sweep_idx, snr_db in enumerate(cfg.snr_sweep_db):
        for spec, rx_scheme in zip(cfg.receivers, rx_schemes):
            if cfg.sweep_mode == "receive":
                eff_snr = float(snr_db)
            else:
                model = PathLossModel(
                    alpha=cfg.path_loss.alpha,
                    d_ref=cfg.path_loss.d_ref,
                    snr_ref_db=float(snr_db),
                )
                eff_snr = snr_at_distance(model, spec.distance_m)
            bits_rng = np.random.default_rng(
                _substream_seed(cfg.seed, sweep_idx, spec.label, 0)
            )
            tx_values = bits_to_values(
                bits_rng.integers(0, 2, n_sym * m_tx, dtype=np.uint8), m_tx
            )
            rx_symbols = add_awgn(
                sender.mapped_points[tx_values],
                ChannelSpec(
                    es_over_n0_db=eff_snr,
                    rng_seed=_substream_seed(cfg.seed, sweep_idx, spec.label, 1),
                ),
            )
            m_rx = rx_scheme.bits_per_symbol
            errors, symbol_errors = count_prefix_errors(
                tx_values, m_tx, nearest_point_values(rx_symbols, rx_scheme), m_rx
            )
            compared = n_sym * m_rx
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
    records.sort(key=lambda r: (r.receiver_label, r.snr_db))
    return records


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_results(records, path, metadata: dict | None = None) -> None:
    """Write records as CSV with ``#``-prefixed metadata lines, then the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)
        for rec in records:
            writer.writerow(
                [_format_value(getattr(rec, field)) for field in RESULT_FIELDS]
            )


def read_results(path) -> list[BerRecord]:
    """Read a results CSV, re-deriving and checking the stored rates."""
    records = []
    metadata: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = None
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if ":" in line:
                    key, _, value = line[1:].partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            row = next(csv.reader([line]))
            if header is None:
                header = tuple(row)
                if header != RESULT_FIELDS:
                    raise IntegrityError(
                        f"{path}:{lineno}: unexpected header {header!r}"
                    )
                continue
            if len(row) != len(RESULT_FIELDS):
                raise IntegrityError(
                    f"{path}:{lineno}: expected {len(RESULT_FIELDS)} fields,"
                    f" got {len(row)}"
                )
            try:
                rec = BerRecord(
                    receiver_label=row[0],
                    snr_db=float(row[1]),
                    tx_bits=int(row[2]),
                    compared_bits=int(row[3]),
                    bit_errors=int(row[4]),
                    ber=float(row[5]),
                    symbol_errors=int(row[6]),
                    ser=float(row[7]),
                )
            except ValueError as exc:
                raise IntegrityError(f"{path}:{lineno}: {exc}") from exc
            if "symbols_per_point" in metadata:
                n_sym = int(metadata["symbols_per_point"])
                if rec.ser != rec.symbol_errors / n_sym:
                    raise IntegrityError(
                        f"{path}:{lineno}: ser {rec.ser!r} != symbol_errors/symbols"
                        f" ({rec.symbol_errors}/{n_sym})"
                    )
            records.append(rec)
    if header is None:
        raise IntegrityError(f"{path}: missing header row")
    return records


def _figure_series(records, figure_id):
    present = {r.receiver_label for r in records}
    missing = [lab for lab in REQUIRED_RECEIVER_LABELS if lab not in present]
    if missing:
        raise IntegrityError(
            f"{figure_id}: missing receiver series {missing};"
            f" present: {sorted(present)}"
        )
    by_label: dict[str, dict[float, float]] = {}
    for rec in records:
        by_label.setdefault(rec.receiver_label, {})[rec.snr_db] = rec.ber
    snrs = sorted({r.snr_db for r in records})
    header = ["snr_db"] + list(REQUIRED_RECEIVER_LABELS)
    rows = []
    for snr in snrs:
        row = [snr]
        for label in REQUIRED_RECEIVER_LABELS:
            if snr not in by_label[label]:
                raise IntegrityError(
                    f"{figure_id}: series {label!r} has no record at {snr} dB"
                )
            row.append(by_label[label][snr])
        rows.append(row)
    return header, rows


def _eavesdropper_summary(records):
    bers = [r.ber for r in records if not r.receiver_label.startswith("intended")]
    if not bers:
        raise IntegrityError("no eavesdropper records to summarize")
    arr = np.asarray(bers)
    return ["statistic", "value"], [
        ["count", int(arr.size)],
        ["min", float(arr.min())],
        ["q1", float(np.quantile(arr, 0.25))],
        ["median", float(np.median(arr))],
        ["q3", float(np.quantile(arr, 0.75))],
        ["max", float(arr.max())],
    ]


def emit_figure_data(records, figure_id: str):
    """Build plot-ready rows for one figure id.

    ``fig7``..``fig12`` pivot one scenario's records into one BER column
    per required receiver. ``fig13`` summarizes the pooled eavesdropper
    BER distribution (records may span several scenarios). ``fig5``
    tabulates the analytic correct/error decode curves and needs no
    records. Returns ``(header, rows)``.
    """
    if figure_id == "fig5":
        header = ["snr_db", "p_correct", "p_error"]
        return header, [list(row) for row in analytic_sweep(snr_grid_db(0, 25, 0.5))]
    if figure_id in FIGURE_SCENARIOS:
        return _figure_series(records or [], figure_id)
    if figure_id == "fig13":
        return _eavesdropper_summary(records or [])
    raise ValueError(
        f"unknown figure id {figure_id!r}; expected fig5, fig7..fig13"
    )
