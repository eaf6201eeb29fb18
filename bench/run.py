"""Run one keyedmod benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload repeats whole rounds, each a complete result at a fixed
size, until S seconds have passed. With ``--trace 0`` it reports the
end-to-end metrics (set-up time, median round time, peak RSS); with
``--trace 1`` it alternates plain and traced rounds, replays every Monte
Carlo cell layer by layer, and reports per-layer self times. The last
line of standard output is one JSON object; the exit code is 1 if any
output check failed. Results and span files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import locate

#: Fewest fresh interpreters timed for the set-up metric; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

#: Per-layer metric name -> (span name, where it is measured). "rounds" are
#: the traced rounds (median per round); "replay" is the layer-by-layer cell replay.
LAYER_METRICS = {
    "experiment.draw.self_s": ("experiment.draw", "replay"),
    "modem.modulate.self_s": ("modem.modulate", "rounds"),
    "channel.add_awgn.self_s": ("channel.add_awgn", "rounds"),
    "modem.nearest_point.qam16_circ.self_s": ("modem.nearest_point.qam16_circ", "rounds"),
    "modem.nearest_point.qam16_rect.self_s": ("modem.nearest_point.qam16_rect", "rounds"),
    "modem.nearest_point.qpsk.self_s": ("modem.nearest_point.qpsk", "rounds"),
    "modem.nearest_point.bpsk.self_s": ("modem.nearest_point.bpsk", "rounds"),
    "modem.cross_decode.self_s": ("modem.cross_decode", "rounds"),
    "experiment.error_count.self_s": ("experiment.error_count", "replay"),
    "experiment.config.self_s": ("experiment.config", "rounds"),
    "experiment.results_io.self_s": ("experiment.results_io", "rounds"),
    "experiment.figure.self_s": ("experiment.figure", "rounds"),
    "cli.main.self_s": ("cli.main", "rounds"),
    "constellations.build.self_s": ("constellations.build", "rounds"),
    "analytic.sweep.self_s": ("analytic.sweep", "rounds"),
    "analytic.all_symbols.self_s": ("analytic.all_symbols", "rounds"),
    "secrecy.permanent.self_s": ("secrecy.permanent", "rounds"),
    "secrecy.verify.self_s": ("secrecy.verify", "rounds"),
    "secrecy.keyspace.self_s": ("secrecy.keyspace", "rounds"),
}

#: Spans the replay records for one cell; their sum is the replayed layer time.
CELL_LAYERS = (
    "experiment.draw", "modem.modulate", "channel.add_awgn", "modem.cross_decode",
    "modem.nearest_point.qam16_circ", "modem.nearest_point.qam16_rect",
    "modem.nearest_point.qpsk", "modem.nearest_point.bpsk", "experiment.error_count",
)


def layer_functions() -> dict:
    """Each public layer function the tracer wraps, with the name of its span."""
    from keyedmod import analytic, channel, cli, constellations, experiment, modem, secrecy

    def nearest_point(symbols, scheme):
        return f"modem.nearest_point.{scheme.label}"

    names = {
        cli.main: "cli.main",
        experiment.run_experiment: "experiment.run_experiment",
        experiment.emit_figure_data: "experiment.figure",
        modem.modulate: "modem.modulate",
        modem.cross_decode_bits: "modem.cross_decode",
        modem.nearest_point_values: nearest_point,
        channel.add_awgn: "channel.add_awgn",
        analytic.sweep: "analytic.sweep",
        analytic.p_correct_all_symbols: "analytic.all_symbols",
        secrecy.permanent: "secrecy.permanent",
        secrecy.verify_perfect_secrecy: "secrecy.verify",
        secrecy.keyspace_report: "secrecy.keyspace",
    }
    groups = {
        "experiment.config": (experiment.load_config, experiment.config_from_dict,
                              experiment.config_to_dict, experiment.config_digest),
        "experiment.results_io": (experiment.write_results, experiment.read_results),
        "constellations.build": (constellations.make_standard_scheme, constellations.make_keyed_scheme,
                                 constellations.random_key, constellations.parse_key),
    }
    for name, functions in groups.items():
        names.update(dict.fromkeys(functions, name))
    return names


def keyedmod_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "keyedmod" or name.startswith("keyedmod.")]


class Rounds:
    """Runs whole rounds, keeps the first round's outputs and times every round."""

    def __init__(self, built) -> None:
        self.built = built
        self.first = None
        self.count = 0
        self.diverged = 0
        self.times: dict[str, list[float]] = {"plain": [], "traced": []}

    def run(self, kind: str, context=None) -> None:
        import workloads

        workloads.clear_outputs(self.built)
        with context or contextlib.nullcontext():
            start = time.perf_counter()
            raw = workloads.run_round(self.built)
            elapsed = time.perf_counter() - start
        outputs = workloads.collect(self.built, raw)
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            self.diverged += 1
        self.count += 1
        self.times[kind].append(elapsed)


def setup_time(workload: str, seed: int, workdir) -> float:
    """Set-up time of one fresh interpreter (see ``probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(locate.BENCH_DIR / "probe.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def check(workload: str, inp: dict, built, outputs):
    import checks

    if workload == "paper_figures":
        return checks.check_paper_figures(inp, outputs)
    if workload == "exact_analytics":
        return checks.check_exact_analytics(inp, outputs)
    return checks.check_link(built.configs["link"], outputs)


def plain_metrics(rounds: Rounds, seconds: float, probe) -> dict:
    """Untimed set-up probes alternate with the timed rounds, so both sample the whole run."""
    setup = []
    start = time.perf_counter()
    while True:
        rounds.run("plain")
        setup.append(probe())
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(rounds.times["plain"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_metrics(rounds: Rounds, seconds: float, inp: dict, tracer) -> dict:
    import workloads
    from keyedmod import experiment

    built = rounds.built
    modules = keyedmod_modules()
    functions = layer_functions()
    tracer.trace = "build"
    with tracer.instrument(modules, functions):
        workloads.build(built.workload, inp, built.workdir)
    traced = []
    start = time.perf_counter()
    while True:
        rounds.run("plain")
        tracer.trace = f"round{rounds.count}"
        traced.append(tracer.trace)
        rounds.run("traced", tracer.instrument(modules, functions))
        if time.perf_counter() - start >= seconds:
            break

    configs = workloads.experiment_configs(built)
    call_s = peak_alloc_mb = 0.0
    if configs:
        call_start = time.perf_counter()
        for cfg in configs:
            experiment.run_experiment(cfg)
        call_s = time.perf_counter() - call_start
        tracemalloc.start()
        try:
            experiment.run_experiment(configs[0])
            peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        tracer.trace = "replay"
        with tracer.instrument(modules, functions):
            workloads.replay_cells(built, tracer.span)

    build = tracer.self_times("build")
    per_round = [tracer.self_times(trace) for trace in traced]
    replay = tracer.self_times("replay")
    metrics = {}
    for metric, (span, source) in LAYER_METRICS.items():
        if source == "replay":
            value = replay.get(span, 0.0)
        else:
            value = build.get(span, 0.0) + statistics.median(r.get(span, 0.0) for r in per_round)
        metrics[metric] = (value, "s")
    replayed = sum(replay.get(span, 0.0) for span in CELL_LAYERS)
    metrics["experiment.run_experiment.s"] = (call_s, "s")
    metrics["experiment.cell_coverage"] = (replayed / call_s if call_s else 0.0, "ratio")
    metrics["experiment.run_experiment.peak_alloc_mb"] = (peak_alloc_mb, "MB")
    overhead = statistics.median(rounds.times["traced"]) - statistics.median(rounds.times["plain"])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    import inputs  # standard library only

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Imported only now, so that keyedmod and numpy load from this checkout
    # with single-threaded native pools.
    locate.use_source_tree()
    import spans
    import workloads

    workdir = locate.OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inp = inputs.generate(args.workload, args.seed, workdir)
        inputs.write_files(inp)
        built = workloads.build(args.workload, inp, workdir)
        rounds = Rounds(built)
        if args.trace:
            tracer = spans.Tracer()
            metrics = traced_metrics(rounds, args.seconds, inp, tracer)
            tracer.write(locate.OUT / f"spans_{args.workload}_seed{args.seed}.json")
        else:
            metrics = plain_metrics(
                rounds, args.seconds, lambda: setup_time(args.workload, args.seed, workdir)
            )
        report = check(args.workload, inp, built, rounds.first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_round = len(report.operations)
    failed = (rounds.count - rounds.diverged) * len(report.failures) + rounds.diverged * per_round
    result = {
        "correct": failed == 0,
        "attempted": rounds.count * per_round,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for operation, reasons in list(report.failures.items())[:20]:
        print(f"FAILED {operation}: {'; '.join(reasons)}", file=sys.stderr)
    if rounds.diverged:
        print(f"FAILED {rounds.diverged} rounds differ from the first round", file=sys.stderr)
    (locate.OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
