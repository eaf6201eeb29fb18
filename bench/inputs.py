"""Workload inputs, generated from the workload seed alone.

Only the standard library is used here, so generating inputs is never
counted in the set-up time. The same (workload, seed) pair always gives
the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("paper_figures", "low_order_link", "exact_analytics")

#: (path-loss exponent, distance in metres) of the paper's six scenario figures.
PAPER_SCENARIOS = {
    "fig7": (2.0, 10.0),
    "fig8": (2.0, 50.0),
    "fig9": (2.0, 100.0),
    "fig10": (1.4, 10.0),
    "fig11": (1.4, 50.0),
    "fig12": (1.4, 100.0),
}

#: Receiver roster of every scenario figure: (label, scheme).
PAPER_ROSTER = (
    ("intended", "qam16_circ"),
    ("eve_rect", "qam16_rect"),
    ("eve_qpsk", "qpsk"),
    ("eve_bpsk", "bpsk"),
)

PAPER_SNR_DB = tuple(float(s) for s in range(26))
PAPER_SYMBOLS_PER_POINT = 10_000

#: Low-order link: QPSK sender with a secret key, reference-mode sweep.
LINK_SYMBOLS_PER_POINT = 1_000_000
LINK_ALPHA = 2.0
LINK_REFERENCE_SNR_DB = (20.0, 26.0, 32.0, 38.0, 44.0)
#: (label, scheme, keyed, distance in metres); "keyed" receivers get a random key.
LINK_ROSTER = (
    ("intended", "qpsk", "sender", 10.0),
    ("eve_key", "qpsk", "other", 20.0),
    ("eve_bpsk", "bpsk", None, 40.0),
)

#: Exact analytics: grid for the analytic sweep and all-symbols curve.
ANALYTIC_GRID_DB = (0.0, 25.0, 0.0025)
SECRECY_VERIFY_ORDERS = tuple(range(2, 7))
KEYSPACE_ORDERS = tuple(range(2, 65))
RANDOM_MATRIX_SIZES = (14, 15, 16, 17, 18)
RANDOM_MATRIX_DENSITY = 0.5
ALL_ONES_SIZES = (8, 10, 12)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def paper_figure_config(figure: str, seed: int) -> dict:
    alpha, distance = PAPER_SCENARIOS[figure]
    return {
        "sender": {"scheme": "qam16_circ", "key": None},
        "receivers": [
            {"label": label, "scheme": scheme, "key": None, "distance_m": distance}
            for label, scheme in PAPER_ROSTER
        ],
        "path_loss": {"alpha": alpha, "d_ref_m": 1.0},
        "snr_sweep_db": {"start": PAPER_SNR_DB[0], "stop": PAPER_SNR_DB[-1], "step": 1.0},
        "sweep_mode": "receive",
        "symbols_per_point": PAPER_SYMBOLS_PER_POINT,
        "seed": seed,
    }


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Inputs of one workload. Config files it names live under ``workdir``."""
    rng = _rng(workload, seed)
    if workload == "paper_figures":
        sim_seed = rng.randrange(2**31)
        configs = {fig: paper_figure_config(fig, sim_seed) for fig in PAPER_SCENARIOS}
        return {
            "configs": configs,
            "config_paths": {fig: str(workdir / f"{fig}.json") for fig in configs},
        }
    if workload == "low_order_link":
        return {
            "sender_key_seed": rng.randrange(2**31),
            "other_key_seed": rng.randrange(2**31),
            "sim_seed": rng.randrange(2**31),
        }
    if workload == "exact_analytics":
        priors = {}
        for order in SECRECY_VERIFY_ORDERS:
            weights = [rng.randint(1, 64) for _ in range(order)]
            priors[order] = [f"{w}/{sum(weights)}" for w in weights]
        random_matrices = [
            [[int(rng.random() < RANDOM_MATRIX_DENSITY) for _ in range(n)] for _ in range(n)]
            for n in RANDOM_MATRIX_SIZES
        ]
        ones = [[[1] * n for _ in range(n)] for n in ALL_ONES_SIZES]
        return {"priors": priors, "matrices": random_matrices + ones}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_files(inputs: dict) -> None:
    """Write the config files an input set refers to."""
    for fig, path in inputs.get("config_paths", {}).items():
        Path(path).write_text(json.dumps(inputs["configs"][fig], indent=2) + "\n", encoding="utf-8")
