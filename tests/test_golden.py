"""Golden values of RNG stream contract 4, pinned layer by layer.

numpy keeps its bit generators stream-stable, but not its distributions
(NEP 19): a release that changes ``Generator.integers`` or the ziggurat
``standard_normal`` would change every record while the other tests,
which rebuild records from the same draws, still pass. These values were
taken with numpy 2.4.6. If one fails after a numpy upgrade, the first
failing test names the layer that moved: the substream keys, the value
lane, the noise lane, or the records built on them. Records that change
need an ``RNG_STREAM`` bump, recorded in CHANGES.md. The stock
geometries' cell tables draw no random numbers and are pinned beside
them, with the identity key and with one random key each: a change to
the table build that moves any of their bytes fails ``test_cell_tables``
or ``test_keyed_cell_tables``. After a bump, print
every value pinned here, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and paste the lines over the constants below.
"""

import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from keyedmod import experiment, modem
from keyedmod.constellations import (
    STANDARD_SCHEME_NAMES,
    make_keyed_scheme,
    make_standard_scheme,
    random_key,
)
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
CELL_TABLE_DIGESTS = {
    "bpsk": {
        "values": "5a1e93370fe5bd2a319f5faa21f2c5eebc3ad06d99db6a1732fa12231fbdef74",
        "pairs": "53b7943b5031034153ddf6e04a6b7a0132b729d5357250e9b208a9df0b30b25e",
        "edges": "1a24f52bca0314251695a693f7489f0c7d69e0a3219cdf987c988b13a5c8fdd5",
        "scale": None,
    },
    "qpsk": {
        "values": "419c5242bb55f072b9446a28af4efb215fecab748b2e321d146f24eb82881924",
        "pairs": "e0e377a4887df820da2c958381350441e1181a3b53ab73f124805f9c0ed8a7f2",
        "edges": "1a24f52bca0314251695a693f7489f0c7d69e0a3219cdf987c988b13a5c8fdd5",
        "scale": None,
    },
    "qam16_rect": {
        "values": "c33cbe9258d094c6bc6ee5b36cc537b0173e8de473ca0d59744743b036a08313",
        "pairs": "df7ef136ae3cb8066a0aa75a68ed1a957635fefd763de82b0c1abfdc220c537a",
        "edges": "e4e91bd9fb1a4d0b83e39552d703181c1283ef8fd3a4bf3a9d83e7e47d502f87",
        "scale": None,
    },
    "qam16_circ": {
        "values": "3a590f7c33932ba20e0b7cac1f4d95ec60583aa5f3cecadf0670d86b1a04ca4b",
        "pairs": "02bc0908d3cece0a728b38d0f700d8717fb2d16223ae95970ed7326437abd9e4",
        "edges": "96687744304b4d8b7b0d3962adbfafd64156623fe36e72dbecda444bf0719921",
        "scale": 50.563392040604604,
    },
}
KEYED_CELL_TABLE_DIGESTS = {
    "bpsk": {
        "values": "49236ec40a4169192b1c21f3ca68a48aaccfd3c5aa9bd5bbfb2e4deee78ae328",
        "pairs": "53b7943b5031034153ddf6e04a6b7a0132b729d5357250e9b208a9df0b30b25e",
        "edges": "1a24f52bca0314251695a693f7489f0c7d69e0a3219cdf987c988b13a5c8fdd5",
        "scale": None,
    },
    "qpsk": {
        "values": "03af0ec8991825136bfa32008ae7f2ec2bcd3647cb7fc3a72a12826369af83a6",
        "pairs": "5bb01891aa03f92fcbf5785fc60ffb870c3f06d01036466fdb76342bef4cf3d8",
        "edges": "1a24f52bca0314251695a693f7489f0c7d69e0a3219cdf987c988b13a5c8fdd5",
        "scale": None,
    },
    "qam16_rect": {
        "values": "1ac002ff508c4026d39c928d23703a577ee11b2156405e4ef1c5bbc5f373cc3f",
        "pairs": "3dcf5bc46fb42903c2136ee32e318eb1adde6b647c534ad39268f6ccfc00096d",
        "edges": "e4e91bd9fb1a4d0b83e39552d703181c1283ef8fd3a4bf3a9d83e7e47d502f87",
        "scale": None,
    },
    "qam16_circ": {
        "values": "f06ec0c5b65f5a4a505bf62feb28b1d73b26968dde1d7399f343abe34fd2716b",
        "pairs": "6fce163ab19256bf4d06ea352d6ce9bd192d81af5ea71cbda24efcd25b15d560",
        "edges": "96687744304b4d8b7b0d3962adbfafd64156623fe36e72dbecda444bf0719921",
        "scale": 50.563392040604604,
    },
}


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


def table_digests(table):
    # The sha256 of the bytes of a cell table's values, pairs and edges,
    # then its scale: every decode reads these.
    digests = {
        field: hashlib.sha256(getattr(table, field).tobytes()).hexdigest()
        for field in ("values", "pairs", "edges")
    }
    digests["scale"] = table.scale
    return digests


def cell_table_digests():
    # Per stock geometry, the identity-keyed table: its values are point indices.
    return {
        name: table_digests(modem._scheme_cell_table.__wrapped__(make_standard_scheme(name)))
        for name in STANDARD_SCHEME_NAMES
    }


def keyed_cell_table_digests():
    # Per stock geometry, the table of one random key: its values are bit values.
    digests = {}
    for name in STANDARD_SCHEME_NAMES:
        base = make_standard_scheme(name)
        scheme = make_keyed_scheme(base, random_key(base.order, SEED))
        digests[name] = table_digests(modem._scheme_cell_table.__wrapped__(scheme))
    return digests


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


def test_cell_tables():
    assert cell_table_digests() == CELL_TABLE_DIGESTS


def test_keyed_cell_tables():
    assert keyed_cell_table_digests() == KEYED_CELL_TABLE_DIGESTS


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
    for constant, tables in (
        ("CELL_TABLE_DIGESTS", cell_table_digests()),
        ("KEYED_CELL_TABLE_DIGESTS", keyed_cell_table_digests()),
    ):
        print(f"{constant} = {{")
        for name, digests in tables.items():
            print(f"    {name!r}: {{")
            for field, digest in digests.items():
                print(f"        {field!r}: {digest!r},")
            print("    },")
        print("}")
