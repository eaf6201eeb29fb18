"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data or integrity
errors (bad names, malformed files, failed consistency checks). A reader
that closes standard output early, as ``| head`` does, is not an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from fractions import Fraction

import numpy as np

from . import __version__, analytic, secrecy
from .constellations import (
    make_keyed_scheme,
    make_standard_scheme,
    parse_key,
    random_key,
    serialize_key,
)
from .experiment import (
    FIGURE_IDS,
    RNG_STREAM,
    _metadata_lines,
    config_digest,
    emit_figure_data,
    load_config,
    read_results,
    run_experiment,
    write_csv_rows,
    write_results,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write_csv(path, header, rows):
    out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        write_csv_rows(out, header, rows)
    finally:
        if path:
            out.close()


def _cmd_scheme_show(args):
    scheme = make_standard_scheme(args.name)
    if args.key:
        scheme = make_keyed_scheme(scheme, parse_key(args.key))
    print(f"label: {scheme.label}")
    print(f"order: {scheme.order}")
    print(f"bits_per_symbol: {scheme.bits_per_symbol}")
    print(f"key: {serialize_key(scheme.key)}")
    print("bit_value,point_re,point_im")
    # tolist() gives Python complexes, whose parts repr as plain floats.
    for value, p in enumerate(scheme.mapped_points.tolist()):
        print(f"{value:0{scheme.bits_per_symbol}b},{p.real!r},{p.imag!r}")
    return 0


def _cmd_scheme_make_key(args):
    print(serialize_key(random_key(args.order, args.seed)))
    return 0


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be START:STOP:STEP, got {text!r}")
    return analytic.snr_grid_db(float(parts[0]), float(parts[1]), float(parts[2]))


def _cmd_analytic_sweep(args):
    rows = analytic.sweep(_parse_sweep(args.snr_db))
    _write_csv(args.out, ["snr_db", "p_correct", "p_error"], rows)
    return 0


def _print_doc(doc, as_json):
    """Print ``doc`` as indented JSON or as ``key: value`` lines."""
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _cmd_secrecy_report(args):
    report = secrecy.keyspace_report(args.order)
    zero_redundancy = secrecy.unicity(report.key_entropy_bits, 0.0).distance
    doc = {
        "order": report.order,
        "keyspace_size": report.keyspace_size,
        "key_entropy_bits": report.key_entropy_bits,
        "shannon_bound_max_symbols": report.shannon_bound_max_symbols,
        "unicity_distance_zero_redundancy": (
            "infinite" if math.isinf(zero_redundancy) else zero_redundancy
        ),
    }
    _print_doc(doc, args.json)
    return 0


def _cmd_secrecy_verify(args):
    prior = None
    if args.prior:
        prior = [Fraction(p) for p in args.prior.split(",")]
    report = secrecy.verify_perfect_secrecy(args.order, prior)
    doc = {
        "order": report.order,
        "n_keys": report.n_keys,
        "prior": [str(p) for p in report.prior],
        "n_checked": report.n_checked,
        "max_deviation": str(report.max_deviation),
        "passed": report.passed,
    }
    _print_doc(doc, args.json)
    if not report.passed:
        print("perfect-secrecy check FAILED", file=sys.stderr)
        return DATA_ERROR
    return 0


def _cmd_permanent(args):
    path = args.matrix
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            row = []
            for v in line.replace(",", " ").split():
                try:
                    row.append(int(v))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: entry {v!r} is not an integer") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: row length {len(row)} differs from"
                    f" the first row's {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: the file holds no rows")
    print(secrecy.permanent(rows))
    return 0


def _cmd_sim_run(args):
    cfg = load_config(args.config)
    metadata = {
        "config": args.config,
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "symbols_per_point": cfg.symbols_per_point,
        "sweep_mode": cfg.sweep_mode,
        "path_loss_alpha": cfg.path_loss.alpha,
        "path_loss_d_ref_m": cfg.path_loss.d_ref,
        "swept_snr_db": ",".join(repr(s) for s in cfg.snr_sweep_db),
        "keyedmod_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "rng_stream": RNG_STREAM,
    }
    # Fail before the sweep on bad metadata or --out; only a finished sweep replaces --out.
    _metadata_lines(metadata)
    try:
        open(args.out, "x").close()
        os.remove(args.out)
    except FileExistsError:
        open(args.out, "a").close()
    records = run_experiment(cfg)
    write_results(records, args.out, metadata)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_sim_figure(args):
    records = None
    if args.infile:
        records = read_results(args.infile)
    elif args.id != "fig5":
        raise ValueError(f"figure {args.id} requires --in RESULTS.csv")
    header, rows = emit_figure_data(records, args.id)
    _write_csv(args.out, header, rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones.

    Parsing leaves the parser as it was: each call gets a new namespace, and
    the handlers look up the module's functions when they run.
    """
    parser = _Parser(prog="keyedmod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scheme = sub.add_parser("scheme", help="inspect schemes and generate keys")
    scheme_sub = scheme.add_subparsers(dest="scheme_command", required=True)
    show = scheme_sub.add_parser("show", help="print a scheme's bit-to-point table")
    show.add_argument("--name", required=True)
    show.add_argument("--key", help="comma-separated permutation to apply")
    show.set_defaults(func=_cmd_scheme_show)
    make_key = scheme_sub.add_parser("make-key", help="draw a uniform random key")
    make_key.add_argument("--order", type=int, required=True)
    make_key.add_argument("--seed", type=int, required=True)
    make_key.set_defaults(func=_cmd_scheme_make_key)

    an = sub.add_parser("analytic", help="closed-form decode probabilities")
    an_sub = an.add_subparsers(dest="analytic_command", required=True)
    an_sweep = an_sub.add_parser("sweep", help="tabulate P(correct)/P(error) vs SNR")
    an_sweep.add_argument("--snr-db", required=True, metavar="START:STOP:STEP")
    an_sweep.add_argument("--out", help="output CSV (default stdout)")
    an_sweep.set_defaults(func=_cmd_analytic_sweep)

    sec = sub.add_parser("secrecy", help="keyspace and perfect-secrecy analytics")
    sec_sub = sec.add_subparsers(dest="secrecy_command", required=True)
    rep = sec_sub.add_parser("report", help="keyspace size, entropy, length bound")
    rep.add_argument("--order", type=int, required=True)
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(func=_cmd_secrecy_report)
    ver = sec_sub.add_parser("verify", help="exact perfect-secrecy check")
    ver.add_argument("--order", type=int, required=True)
    ver.add_argument("--prior", help='plaintext prior, e.g. "1/2,1/4,1/8,1/8"')
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_secrecy_verify)

    perm = sub.add_parser("permanent", help="exact permanent of a 0/1 matrix")
    perm.add_argument("--matrix", required=True, help="text file, one row per line")
    perm.set_defaults(func=_cmd_permanent)

    sim = sub.add_parser("sim", help="Monte Carlo BER experiments")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    run = sim_sub.add_parser("run", help="run a configured sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.set_defaults(func=_cmd_sim_run)
    fig = sim_sub.add_parser("figure", help="emit plot data from results")
    fig.add_argument("--id", required=True, choices=FIGURE_IDS)
    fig.add_argument("--in", dest="infile")
    fig.add_argument("--out", help="output CSV (default stdout)")
    fig.set_defaults(func=_cmd_sim_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        code = args.func(args)
        # Flush here, so a reader that has gone is caught below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"keyedmod: error: {exc}", file=sys.stderr)
        return DATA_ERROR
