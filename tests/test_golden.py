"""Golden values of RNG stream contract 2, pinned layer by layer.

numpy keeps its bit generators stream-stable, but not its distributions
(NEP 19): a release that changes ``Generator.integers`` or the ziggurat
``standard_normal`` would change every record while the other tests,
which rebuild records from the same draws, still pass. These values were
taken with numpy 2.4.6. If one fails after a numpy upgrade, the first
failing test names the layer that moved: the substream keys, the value
lane, the noise lane, or the records built on them. Records that change
need an ``RNG_STREAM`` bump, recorded in CHANGES.md.
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


def test_substream_key_words():
    # (seed, sweep index 2, noise lane, the label's word, block 1), each
    # 64-bit word as two 32-bit words, low first.
    ss = experiment._substream(SEED, 2, 1, experiment._label_word(LABEL), 1)
    assert ss.entropy.tolist() == [2011, 0, 2, 0, 1, 0, 3040340892, 1947217987, 1, 0]


def test_value_lane_first_values():
    rng = np.random.default_rng(experiment._substream(SEED, 0, 0, 0, 0))
    values = rng.integers(0, 16, 8, dtype=np.uint8)
    assert values.tolist() == [1, 10, 11, 13, 6, 10, 2, 10]


def test_noise_lane_first_floats():
    word = experiment._label_word(LABEL)
    rng = np.random.default_rng(experiment._substream(SEED, 0, 1, word, 0))
    assert [float(z).hex() for z in rng.standard_normal(4)] == [
        "0x1.502a33b4ff7edp-1",
        "-0x1.a2cdb616e9a88p+0",
        "0x1.a1fb061da7e35p+0",
        "-0x1.b024a02f1d863p-4",
    ]


def test_demo_roster_records():
    # Two blocks, the last of one symbol. At -45 dB the BPSK listener's
    # noise can reach the decoder's outer imaginary bins, so it decodes on
    # both axes; at 0 and 10 dB it needs the real axis only.
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
    digest = hashlib.sha256(body.getvalue().encode()).hexdigest()
    assert RNG_STREAM == 2
    assert digest == "95430190f41e7357450da231a062f2068dfe90d6fee107b193c8222d429dcab8"
