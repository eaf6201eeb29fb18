"""Set-up and one round of each workload, through keyedmod's public API.

Every call goes through a module attribute (``experiment.run_experiment``,
``cli.main``, ...) so that the tracer in ``spans.py`` can wrap it.
Importing this module imports keyedmod; that import is part of set-up.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from keyedmod import analytic, channel, cli, constellations, experiment, modem, secrecy

import inputs as bench_inputs

FIGURE_IDS = ("fig5",) + tuple(bench_inputs.PAPER_SCENARIOS) + ("fig13",)


@dataclass
class Built:
    """Objects a workload builds through the program before its timed rounds."""

    workload: str
    workdir: Path
    configs: dict = field(default_factory=dict)
    config_paths: dict = field(default_factory=dict)
    grid_db: list = field(default_factory=list)
    snr_points: list = field(default_factory=list)
    point_scale: float = 1.0
    priors: dict = field(default_factory=dict)
    matrices: list = field(default_factory=list)


def build(workload: str, inp: dict, workdir: Path) -> Built:
    built = Built(workload, workdir)
    if workload == "paper_figures":
        built.config_paths = inp["config_paths"]
        for fig, path in built.config_paths.items():
            cfg = experiment.load_config(path)
            cfg.resolve_schemes()
            built.configs[fig] = cfg
    elif workload == "low_order_link":
        built.configs["link"] = _link_config(inp)
    elif workload == "exact_analytics":
        circ = constellations.make_standard_scheme("qam16_circ")
        built.point_scale = abs(circ.points[0]) / abs(analytic.circular_tx_point(0))
        built.grid_db = analytic.snr_grid_db(*bench_inputs.ANALYTIC_GRID_DB)
        built.snr_points = [analytic.SnrPoint.from_db(s) for s in built.grid_db]
        built.priors = {o: [Fraction(p) for p in prior] for o, prior in inp["priors"].items()}
        built.matrices = inp["matrices"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return built


def _link_config(inp: dict):
    sender_key = constellations.random_key(4, inp["sender_key_seed"])
    other_seed = inp["other_key_seed"]
    other_key = constellations.random_key(4, other_seed)
    while other_key == sender_key:
        other_seed += 1
        other_key = constellations.random_key(4, other_seed)
    keys = {"sender": sender_key, "other": other_key, None: None}
    receivers = tuple(
        experiment.ReceiverSpec(label, scheme, key=keys[keyed], distance_m=distance)
        for label, scheme, keyed, distance in bench_inputs.LINK_ROSTER
    )
    cfg = experiment.ExperimentConfig(
        sender_scheme="qpsk",
        sender_key=sender_key,
        receivers=receivers,
        path_loss=channel.PathLossModel(alpha=bench_inputs.LINK_ALPHA),
        snr_sweep_db=bench_inputs.LINK_REFERENCE_SNR_DB,
        sweep_mode="reference",
        symbols_per_point=bench_inputs.LINK_SYMBOLS_PER_POINT,
        seed=inp["sim_seed"],
    )
    cfg.resolve_schemes()
    return cfg


def result_path(built: Built, fig: str) -> Path:
    return built.workdir / f"{fig}_results.csv"


def figure_path(built: Built, fig: str) -> Path:
    return built.workdir / f"{fig}_series.csv"


def run_round(built: Built):
    """One complete, fixed-size pass of the workload; returns its raw outputs."""
    if built.workload == "paper_figures":
        return _paper_round(built)
    if built.workload == "low_order_link":
        return experiment.run_experiment(built.configs["link"])
    return {
        "sweep": analytic.sweep(built.grid_db),
        "all_symbols": [
            analytic.p_correct_all_symbols(p, point_scale=built.point_scale)
            for p in built.snr_points
        ],
        "verify": [secrecy.verify_perfect_secrecy(o, prior) for o, prior in built.priors.items()],
        "keyspace": [secrecy.keyspace_report(o) for o in bench_inputs.KEYSPACE_ORDERS],
        "permanent": [secrecy.permanent(m) for m in built.matrices],
    }


def _paper_round(built: Built) -> dict:
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for fig, path in built.config_paths.items():
            codes[f"run {fig}"] = cli.main(
                ["sim", "run", "--config", str(path), "--out", str(result_path(built, fig))]
            )
        pooled = built.workdir / "pooled_results.csv"
        _pool(pooled, [result_path(built, fig) for fig in built.config_paths])
        for fig in FIGURE_IDS:
            argv = ["sim", "figure", "--id", fig, "--out", str(figure_path(built, fig))]
            if fig in built.config_paths:
                argv += ["--in", str(result_path(built, fig))]
            elif fig == "fig13":
                argv += ["--in", str(pooled)]
            codes[f"figure {fig}"] = cli.main(argv)
    return codes


def _pool(out: Path, parts) -> None:
    """Concatenate result files under the first file's metadata and header."""
    lines = []
    for i, part in enumerate(parts):
        text = part.read_text(encoding="utf-8").splitlines(keepends=True) if part.exists() else []
        if i == 0:
            lines += text
        else:
            lines += [ln for ln in text if not ln.startswith("#")][1:]
    out.write_text("".join(lines), encoding="utf-8")


def experiment_configs(built: Built) -> list:
    """The configs a Monte Carlo workload hands to ``run_experiment``."""
    return list(built.configs.values())



def clear_outputs(built: Built) -> None:
    """Delete the files a round writes, so a failed step cannot leave stale output."""
    for path in built.workdir.glob("*.csv"):
        path.unlink()


def collect(built: Built, raw):
    """A round's outputs in a form that compares equal across identical rounds."""
    if built.workload == "low_order_link":
        return tuple(raw)
    if built.workload == "exact_analytics":
        return raw
    files = {}
    for fig in built.config_paths:
        files[f"results {fig}"] = _read_or_none(result_path(built, fig), skip_prefix="# generated:")
    for fig in FIGURE_IDS:
        files[f"figure {fig}"] = _read_or_none(figure_path(built, fig))
    return {"codes": raw, "files": files}


def _read_or_none(path: Path, skip_prefix: str | None = None):
    if not path.exists():
        return None
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(ln for ln in lines if not (skip_prefix and ln.startswith(skip_prefix)))


def replay_cells(built: Built, span) -> None:
    """Re-run every Monte Carlo cell through the layer functions ``run_experiment`` uses.

    The draw and the symbol-error count are not public functions, so they
    run under their own ``span`` here; modulate, AWGN and decoding are
    called through their modules and are timed by the tracer's wrappers.
    The substream seeds are the replay's own: the work per cell, not the
    exact bits, is what the replay reproduces.
    """
    for cfg_index, cfg in enumerate(experiment_configs(built)):
        sender, rx_schemes = cfg.resolve_schemes()
        m_tx = sender.bits_per_symbol
        n_bits = cfg.symbols_per_point * m_tx
        for sweep_index, snr_db in enumerate(cfg.snr_sweep_db):
            for rx_index, (spec, rx_scheme) in enumerate(zip(cfg.receivers, rx_schemes)):
                if cfg.sweep_mode == "receive":
                    eff_snr = float(snr_db)
                else:
                    model = channel.PathLossModel(cfg.path_loss.alpha, cfg.path_loss.d_ref, float(snr_db))
                    eff_snr = channel.snr_at_distance(model, spec.distance_m)
                stream = np.random.SeedSequence((cfg.seed, cfg_index, sweep_index, rx_index))
                bits_seed, noise_seed = (int(s) for s in stream.generate_state(2, np.uint64))
                with span("experiment.draw"):
                    bits = np.random.default_rng(bits_seed).integers(0, 2, n_bits, dtype=np.uint8)
                tx = modem.modulate(bits, sender)
                rx = channel.add_awgn(tx, channel.ChannelSpec(eff_snr, noise_seed))
                rx_bits, _, _ = modem.cross_decode_bits(bits, sender, rx_scheme, received=rx)
                with span("experiment.error_count"):
                    m_rx = rx_scheme.bits_per_symbol
                    mismatch = bits.reshape(-1, m_tx)[:, :m_rx] != rx_bits.reshape(-1, m_rx)
                    np.count_nonzero(mismatch.any(axis=1))
