"""Golden values of RNG stream contract 4, pinned layer by layer.

numpy keeps its bit generators stream-stable, but not its distributions
(NEP 19): a release that changes ``Generator.integers`` or the ziggurat
``standard_normal`` would change every record while the other tests,
which rebuild records from the same draws, still pass. These values were
taken with numpy 2.4.6. If one fails after a numpy upgrade, the first
failing test names the layer that moved: the substream keys, the value
lane, the noise lane, or the records built on them. Records that change
need an ``RNG_STREAM`` bump, recorded in CHANGES.md. After a bump, print
every value pinned here, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and paste the lines over the constants below.
"""

import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from keyedmod import experiment
from keyedmod.experiment import (
    RESULT_FIELDS,
    RNG_STREAM,
    load_config,
    run_experiment,
    write_csv_rows,
)

SEED = 2011

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN_STREAM = 4
SUBSTREAM_KEY_WORDS = [2011, 0, 1, 0, 1, 0]
VALUE_LANE_FIRST_VALUES = [13, 13, 14, 5, 4, 6, 14, 2]
NOISE_LANE_FIRST_FLOATS = [
    "-0x1.081ea3ae9a0eep-2",
    "0x1.062ac67bca67dp-6",
    "0x1.68c4b01d419d5p-5",
    "0x1.5ebf21d663e23p+1",
]
DEMO_ROSTER_DIGEST = "248df079d45041125534616a03a6b3eceea74826d8d1639d9169263313e68117"
REFERENCE_ROSTER_DIGEST = "4336b7d1ca06add577b6a1a6d815ef175ad7bd970048cef8e237425a01f4df0b"


def substream_key_words():
    # (seed, noise lane, block 1), each 64-bit word as two 32-bit words,
    # low first.
    return experiment._substream(SEED, 1, 1).entropy.tolist()


def value_lane_first_values():
    rng = np.random.default_rng(experiment._substream(SEED, 0, 0))
    return rng.integers(0, 16, 8, dtype=np.uint8).tolist()


def noise_lane_first_floats():
    rng = np.random.default_rng(experiment._substream(SEED, 1, 0))
    return [float(z).hex() for z in rng.standard_normal(4)]


def demo_config():
    # Two blocks, the last of one symbol, at three sweep points that share
    # one noise draw per block.
    return replace(
        load_config(CONFIGS / "demo.json"),
        snr_sweep_db=(-45.0, 0.0, 10.0),
        symbols_per_point=(1 << 16) + 1,
        seed=SEED,
    )


def demo_roster_digest():
    # Every receiver hears the same effective SNR, so one received pair
    # serves the whole roster; at -45 dB the noise reaches the decoders'
    # outer bins.
    return records_digest(demo_config())


def reference_roster_digest():
    # Receivers at 10, 10, 20 and 10 m from the sender, with the reference
    # SNR at 1 m: the first two share one received pair, the third writes
    # its own, and the fourth writes one again at the first two's SNR.
    cfg = demo_config()
    distances = (10.0, 10.0, 20.0, 10.0)
    return records_digest(
        replace(
            cfg,
            sweep_mode="reference",
            snr_sweep_db=(-25.0, 20.0, 30.0),
            receivers=tuple(
                replace(r, distance_m=d) for r, d in zip(cfg.receivers, distances)
            ),
        )
    )


def records_digest(cfg):
    records = run_experiment(cfg)
    body = io.StringIO()
    rows = ([getattr(rec, field) for field in RESULT_FIELDS] for rec in records)
    write_csv_rows(body, RESULT_FIELDS, rows)
    return hashlib.sha256(body.getvalue().encode()).hexdigest()


def test_substream_key_words():
    assert substream_key_words() == SUBSTREAM_KEY_WORDS


def test_value_lane_first_values():
    assert value_lane_first_values() == VALUE_LANE_FIRST_VALUES


def test_noise_lane_first_floats():
    assert noise_lane_first_floats() == NOISE_LANE_FIRST_FLOATS


def test_demo_roster_records():
    assert RNG_STREAM == GOLDEN_STREAM
    assert demo_roster_digest() == DEMO_ROSTER_DIGEST


def test_reference_roster_records():
    assert RNG_STREAM == GOLDEN_STREAM
    assert reference_roster_digest() == REFERENCE_ROSTER_DIGEST


if __name__ == "__main__":
    print(f"GOLDEN_STREAM = {RNG_STREAM!r}")
    print(f"SUBSTREAM_KEY_WORDS = {substream_key_words()!r}")
    print(f"VALUE_LANE_FIRST_VALUES = {value_lane_first_values()!r}")
    print(f"NOISE_LANE_FIRST_FLOATS = {noise_lane_first_floats()!r}")
    print(f"DEMO_ROSTER_DIGEST = {demo_roster_digest()!r}")
    print(f"REFERENCE_ROSTER_DIGEST = {reference_roster_digest()!r}")
