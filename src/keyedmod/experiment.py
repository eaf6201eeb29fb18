"""Monte Carlo BER experiments: seeded sweeps, persistence, figure data.

One experiment fixes a sender scheme and a roster of receivers (each
with its own scheme, key, and distance), then sweeps SNR. The sender
makes one broadcast transmission of uniform m-bit values, mapped once
through its scheme. At each sweep point every receiver hears that same
transmission through its own AWGN at its effective SNR and decodes it
with its own scheme.

RNG stream contract, version 4 (:data:`RNG_STREAM`). Every stream is
cut into blocks of 2**16 symbols, the last one shorter when the budget
is not a multiple, and each block draws from its own ``SeedSequence``
keyed by (seed, lane, block index). Lane 0 holds the broadcast values;
lane 1 holds the block's unit normals, drawn in the order
:mod:`keyedmod.channel` states. No key holds a receiver or a sweep
index: every receiver at every sweep point scales the same unit normals
by its own sigma (common random numbers across SNR and across
listeners). So records are bit-reproducible, adding, removing, or
reordering receivers never perturbs the other series, and a point's
records do not depend on the other points of the sweep. Each record
keeps its distribution, so every BER and SER stays an unbiased estimate
for its listener at its SNR; the errors of different receivers, and of
one receiver at different SNRs, are correlated, and no output reports a
joint statistic. The record list is canonically ordered before
persistence.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .analytic import snr_grid_db, sweep as analytic_sweep
from .channel import (
    PathLossModel,
    _noise_fill,
    _scale_noise,
    noise_spectral_density,
    snr_at_distance,
)
from .constellations import (
    ConstellationScheme,
    MappingKey,
    _integer,
    _real_float,
    make_keyed_scheme,
    make_standard_scheme,
    parse_key,
    serialize_key,
)
from .modem import count_prefix_errors, nearest_point_values, value_dtype

__all__ = [
    "IntegrityError",
    "ReceiverSpec",
    "ExperimentConfig",
    "BerRecord",
    "RESULT_FIELDS",
    "RNG_STREAM",
    "FIGURE_SCENARIOS",
    "FIGURE_IDS",
    "REQUIRED_RECEIVER_LABELS",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "config_digest",
    "run_experiment",
    "write_csv_rows",
    "write_results",
    "read_results",
    "emit_figure_data",
]

MIN_SYMBOLS_PER_POINT = 10_000

#: Version of the RNG stream contract that records follow; see the module
#: docstring. Any change to the draws that changes a record bumps it.
RNG_STREAM = 4

#: Symbols per RNG block. Part of the stream contract: changing it
#: changes every record.
_BLOCK = 1 << 16

#: Symbols per column tile of a block's cell work. Not part of the
#: contract: counts are integer sums over disjoint columns, so any tile
#: gives the same records. 2**15 keeps a tile's sent and received pairs
#: (0.5 MiB each) and the decoder's scratch within a 2 MiB L2 cache.
_TILE = 1 << 15

#: Lane words of a block's substream key.
_VALUE_LANE = 0
_NOISE_LANE = 1

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

#: Receiver roster every per-scenario BER figure expects: the matched
#: receiver and three mismatched listeners.
REQUIRED_RECEIVER_LABELS = ("intended", "eve_rect", "eve_qpsk", "eve_bpsk")

#: (path-loss exponent, distance in meters) for the six scenario figures;
#: ``configs/<figure id>.json`` is the full config of each.
FIGURE_SCENARIOS = {
    "fig7": (2.0, 10.0),
    "fig8": (2.0, 50.0),
    "fig9": (2.0, 100.0),
    "fig10": (1.4, 10.0),
    "fig11": (1.4, 50.0),
    "fig12": (1.4, 100.0),
}

#: Every figure id that :func:`emit_figure_data` accepts.
FIGURE_IDS = ("fig5", *FIGURE_SCENARIOS, "fig13")


class IntegrityError(ValueError):
    """Persisted data failed an internal consistency check."""


@dataclass(frozen=True)
class ReceiverSpec:
    label: str
    scheme: str
    key: MappingKey | None = None
    distance_m: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"receiver label must be a string, got {self.label!r}")
        if not self.label:
            raise ValueError("receiver label must not be empty")
        if "," in self.label:
            raise ValueError("receiver label must not contain commas")
        # A results file is read line by line, and "#" starts a metadata line.
        if self.label.startswith("#") or "\n" in self.label or "\r" in self.label:
            raise ValueError(
                f"receiver label {self.label!r} must not start with '#'"
                " or hold a line break"
            )
        if not 0 < _real_float(self.distance_m, "distance_m") < math.inf:
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
        for name in ("symbols_per_point", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not self.receivers:
            raise ValueError("at least one receiver is required")
        labels = [r.label for r in self.receivers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate receiver labels: {labels}")
        if not self.snr_sweep_db:
            raise ValueError("SNR sweep must not be empty")
        for i, snr_db in enumerate(self.snr_sweep_db):
            if not math.isfinite(_real_float(snr_db, f"snr_sweep_db[{i}]")):
                raise ValueError(
                    f"SNR sweep values must be finite; snr_sweep_db[{i}] is not"
                )
        for low, high in zip(self.snr_sweep_db, self.snr_sweep_db[1:]):
            if high < low:
                raise ValueError("SNR sweep must be sorted ascending")
            if high == low:
                raise ValueError(f"SNR sweep repeats {high!r} dB")
        if self.sweep_mode not in ("receive", "reference"):
            raise ValueError(f"unknown sweep mode {self.sweep_mode!r}")
        if self.symbols_per_point < MIN_SYMBOLS_PER_POINT:
            raise ValueError(
                f"symbols_per_point must be >= {MIN_SYMBOLS_PER_POINT},"
                f" got {self.symbols_per_point}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.seed >= 1 << 64:
            raise ValueError(
                f"seed must be below 2**64, got {self.seed}: the RNG stream"
                " keys hold it in one 64-bit word"
            )
        if self.path_loss.snr_ref_db != 0.0:
            raise ValueError(
                f"path-loss snr_ref_db must be 0, got {self.path_loss.snr_ref_db}:"
                " the SNR sweep sets the reference SNR"
            )
        for r in self.receivers:
            if r.distance_m < self.path_loss.d_ref:
                raise ValueError(
                    f"receiver {r.label!r} at {r.distance_m} m is inside the"
                    f" path-loss reference distance {self.path_loss.d_ref} m"
                )
        # Effective SNR is lowest at the first sweep value, where N0 is largest.
        lowest = self.snr_sweep_db[0]
        for r in self.receivers:
            try:
                noise_spectral_density(self._effective_snr_db(lowest, r))
            except ValueError as exc:
                raise ValueError(
                    f"SNR sweep value {lowest} dB is too low for receiver"
                    f" {r.label!r}: {exc}"
                ) from None

    def _effective_snr_db(self, snr_db: float, receiver: ReceiverSpec) -> float:
        """Receive-side SNR of ``receiver`` at sweep value ``snr_db``."""
        if self.sweep_mode == "receive":
            return float(snr_db)
        model = replace(self.path_loss, snr_ref_db=float(snr_db))
        return snr_at_distance(model, receiver.distance_m)

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
        if not math.isfinite(_real_float(self.snr_db, "snr_db")):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
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


def _number(value, field: str) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} exceeds the float64 range") from None


def _key(value, field: str) -> MappingKey | None:
    """A config key: null (unkeyed) or a comma-separated permutation string."""
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ValueError(
            f"{field} must be null or a comma-separated permutation, got {value!r}"
        )
    try:
        return parse_key(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


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
            start, stop, step = (
                _number(sweep_spec[name], f"snr_sweep_db.{name}")
                for name in ("start", "stop", "step")
            )
            sweep = tuple(snr_grid_db(start, stop, step))
        elif isinstance(sweep_spec, (list, tuple)):
            sweep = tuple(
                _number(v, f"snr_sweep_db[{i}]") for i, v in enumerate(sweep_spec)
            )
        else:
            raise ValueError(
                "snr_sweep_db must be an array or a {start, stop, step} object,"
                f" got {sweep_spec!r}"
            )
        if not isinstance(doc["receivers"], (list, tuple)):
            raise ValueError(f"receivers must be an array, got {doc['receivers']!r}")
        receivers = []
        for i, r in enumerate(doc["receivers"]):
            _check_keys(r, ("label", "scheme", "key", "distance_m"), f"receiver {i}")
            receivers.append(
                ReceiverSpec(
                    label=r["label"],
                    scheme=r["scheme"],
                    key=_key(r.get("key"), f"receiver {i} key"),
                    distance_m=_number(
                        r.get("distance_m", 1.0), f"receiver {i} distance_m"
                    ),
                )
            )
        path_loss = _check_keys(
            doc.get("path_loss", {}), ("alpha", "d_ref_m"), "path_loss"
        )
        return ExperimentConfig(
            sender_scheme=sender["scheme"],
            sender_key=_key(sender.get("key"), "sender.key"),
            receivers=tuple(receivers),
            path_loss=PathLossModel(
                alpha=_number(path_loss.get("alpha", 2.0), "path_loss.alpha"),
                d_ref=_number(path_loss.get("d_ref_m", 1.0), "path_loss.d_ref_m"),
            ),
            snr_sweep_db=sweep,
            sweep_mode=doc.get("sweep_mode", "receive"),
            symbols_per_point=doc["symbols_per_point"],
            seed=doc["seed"],
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
    # Imported here: hashlib maps OpenSSL's libcrypto, about 3.4 MB of RSS
    # that a process which never hashes a config need not carry.
    import hashlib

    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _substream(seed: int, lane: int, block: int) -> np.random.SeedSequence:
    """The ``SeedSequence`` of one block of one lane.

    Each key is three 64-bit words, each given as two 32-bit words, low
    first. numpy would split a plain int into as many words as it needs
    and treat short entropy as zero-padded, so two different keys could
    meet; a fixed width keeps every key distinct.
    """
    words = []
    for value in (seed, lane, block):
        words += (value & 0xFFFFFFFF, value >> 32)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def run_experiment(cfg: ExperimentConfig) -> list[BerRecord]:
    """Run the full sweep and return records ordered by (receiver, SNR).

    One loop on the caller, block by block. A block's values are drawn
    once, and its unit normals z are drawn once into one noise pair of
    float64 rows. Then the block's cells run tile by tile, over columns
    of at most ``_TILE`` symbols: a tile's values are mapped into the
    sent planes, and at each sweep point each receiver decodes and
    counts the received rows, sigma * z plus the sent planes, which are
    written only when its effective SNR differs from the last one
    written at that point: in ``receive`` mode one scale and sum serves
    the whole roster. A block-sized noise pair and tile-sized sent and
    received pairs hold the work, and die with the call.
    """
    sender, rx_schemes = cfg.resolve_schemes()
    m_tx = sender.bits_per_symbol
    n_sym = cfg.symbols_per_point
    tx_axes = (sender.mapped_points.real, sender.mapped_points.imag)
    tx_dtype = value_dtype(m_tx)
    eff_snrs = [
        [cfg._effective_snr_db(snr_db, spec) for spec in cfg.receivers]
        for snr_db in cfg.snr_sweep_db
    ]
    # Flat buffers reshaped per block and per tile keep a ragged last one
    # C-contiguous.
    noise_flat = np.empty(2 * min(n_sym, _BLOCK))
    tile_flats = np.empty((2, 2 * min(n_sym, _TILE)))
    totals = [[[0, 0] for _ in cfg.receivers] for _ in cfg.snr_sweep_db]
    for block in range(-(-n_sym // _BLOCK)):
        size = min(_BLOCK, n_sym - block * _BLOCK)
        noise = noise_flat[: 2 * size].reshape(2, size)
        value_rng = np.random.default_rng(_substream(cfg.seed, _VALUE_LANE, block))
        block_values = value_rng.integers(0, sender.order, size, dtype=tx_dtype)
        _noise_fill(_substream(cfg.seed, _NOISE_LANE, block), noise)
        for start in range(0, size, _TILE):
            tx_values = block_values[start : start + _TILE]
            width = tx_values.size
            sent, received = (flat[: 2 * width].reshape(2, width) for flat in tile_flats)
            z = noise[:, start : start + width]
            # The values lie in range by construction; "clip" writes straight into
            # ``sent``, where the default "raise" would fill a temporary copy first.
            for axis, row in zip(tx_axes, sent):
                np.take(axis, tx_values, out=row, mode="clip")
            for snrs, point_totals in zip(eff_snrs, totals):
                written = None
                for snr, rx_scheme, counts in zip(snrs, rx_schemes, point_totals):
                    # Receivers in a row at one SNR share ``received``: a decode only reads it.
                    if snr != written:
                        _scale_noise(z, snr, out=received)
                        received += sent
                        written = snr
                    rx_values = nearest_point_values(received, rx_scheme)
                    bit_errors, symbol_errors = count_prefix_errors(
                        tx_values, m_tx, rx_values, rx_scheme.bits_per_symbol
                    )
                    counts[0] += bit_errors
                    counts[1] += symbol_errors

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
    records.sort(key=lambda r: (r.receiver_label, r.snr_db))
    return records


def write_csv_rows(fh, header, rows) -> None:
    """Write a header and rows as CSV; floats as ``repr``, so they read back exactly."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])


def _metadata_lines(metadata: dict) -> list[str]:
    """The ``# key: value`` lines of ``metadata``; see ``write_results``."""
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    for key, line in zip(metadata, lines):
        if "\n" in line or "\r" in line:
            raise ValueError(f"metadata {key!r} holds a line break")
    return [line + "\n" for line in lines]


def write_results(records, path, metadata: dict | None = None) -> None:
    """Write records as CSV with ``#``-prefixed metadata lines, then the header.

    A metadata key or value holding a line break is refused before the
    file is opened: its second line would not read back as metadata.
    """
    generated = f"# generated: {datetime.now(timezone.utc).isoformat()}\n"
    lines = [generated, *_metadata_lines(metadata or {})]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
        rows = ([getattr(rec, field) for field in RESULT_FIELDS] for rec in records)
        write_csv_rows(fh, RESULT_FIELDS, rows)


def _count(text: str, field: str) -> int:
    """``text`` as an int if it is ASCII decimal digits only; else ``ValueError``.

    ``int()`` alone would also take signs, underscores, surrounding
    whitespace and non-ASCII digits, none of which a results file holds.
    """
    if text.isascii() and text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"{field} must be ASCII decimal digits, got {text!r}")


def read_results(path) -> list[BerRecord]:
    """Read a results CSV, re-deriving and checking the stored rates.

    Each data line is one row, parsed on its own with strict quoting: a
    quote left open at a line's end or followed by more text is refused,
    never continued on the next line. A ``symbols_per_point`` metadata
    line applies to the rows after it.
    """
    records = []
    n_sym = None
    header = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#"):
                    key, colon, value = line[1:].partition(":")
                    if colon and key.strip() == "symbols_per_point":
                        value = value.strip()
                        n_sym = _count(value, "symbols_per_point")
                        if n_sym < 1:
                            raise ValueError(f"symbols_per_point must be positive, got {value!r}")
                    continue
                row = next(csv.reader([line], strict=True))
                if header is None:
                    header = tuple(row)
                    if header != RESULT_FIELDS:
                        raise ValueError(f"unexpected header {header!r}")
                    continue
                if len(row) != len(RESULT_FIELDS):
                    raise ValueError(f"expected {len(RESULT_FIELDS)} fields, got {len(row)}")
                rec = BerRecord(
                    receiver_label=row[0],
                    snr_db=float(row[1]),
                    tx_bits=_count(row[2], "tx_bits"),
                    compared_bits=_count(row[3], "compared_bits"),
                    bit_errors=_count(row[4], "bit_errors"),
                    ber=float(row[5]),
                    symbol_errors=_count(row[6], "symbol_errors"),
                    ser=float(row[7]),
                )
                if n_sym is not None and rec.ser != rec.symbol_errors / n_sym:
                    raise ValueError(
                        f"ser {rec.ser!r} != symbol_errors/symbols ({rec.symbol_errors}/{n_sym})"
                    )
            except (ValueError, csv.Error) as exc:
                # csv's own errors include a field over csv.field_size_limit().
                raise IntegrityError(f"{path}:{lineno}: {exc}") from exc
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
        series = by_label.setdefault(rec.receiver_label, {})
        if rec.snr_db in series:
            raise IntegrityError(
                f"{figure_id}: series {rec.receiver_label!r} has two records"
                f" at {rec.snr_db} dB"
            )
        series[rec.snr_db] = rec.ber
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
        f"unknown figure id {figure_id!r}; expected one of {', '.join(FIGURE_IDS)}"
    )
