"""Golden values of RNG stream contract 3, pinned layer by layer.

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
LABEL = "eve_bpsk"

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN_STREAM = 3
SUBSTREAM_KEY_WORDS = [2011, 0, 1, 0, 3040340892, 1947217987, 1, 0]
VALUE_LANE_FIRST_VALUES = [0, 9, 13, 14, 14, 6, 4, 2]
NOISE_LANE_FIRST_FLOATS = [
    "-0x1.53b033fcd8d42p-3",
    "0x1.f068fd7462f8fp-4",
    "0x1.f43bf4b088a07p-1",
    "0x1.5d38b6da26ff7p-3",
]
DEMO_ROSTER_DIGEST = "16d7defc83fc5bc33a59d9c6063f0dbe3da4b5c57b21a87f78515964514b3333"


def substream_key_words():
    # (seed, noise lane, the label's word, block 1), each 64-bit word as
    # two 32-bit words, low first.
    ss = experiment._substream(SEED, 1, experiment._label_word(LABEL), 1)
    return ss.entropy.tolist()


def value_lane_first_values():
    rng = np.random.default_rng(experiment._substream(SEED, 0, 0, 0))
    return rng.integers(0, 16, 8, dtype=np.uint8).tolist()


def noise_lane_first_floats():
    word = experiment._label_word(LABEL)
    rng = np.random.default_rng(experiment._substream(SEED, 1, word, 0))
    return [float(z).hex() for z in rng.standard_normal(4)]


def demo_roster_digest():
    # Two blocks, the last of one symbol, at three sweep points that share
    # each receiver's noise; at -45 dB the noise reaches the decoders'
    # outer bins.
    cfg = replace(
        load_config(CONFIGS / "demo.json"),
        snr_sweep_db=(-45.0, 0.0, 10.0),
        symbols_per_point=(1 << 16) + 1,
        seed=SEED,
    )
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


if __name__ == "__main__":
    print(f"GOLDEN_STREAM = {RNG_STREAM!r}")
    print(f"SUBSTREAM_KEY_WORDS = {substream_key_words()!r}")
    print(f"VALUE_LANE_FIRST_VALUES = {value_lane_first_values()!r}")
    print(f"NOISE_LANE_FIRST_FLOATS = {noise_lane_first_floats()!r}")
    print(f"DEMO_ROSTER_DIGEST = {demo_roster_digest()!r}")
