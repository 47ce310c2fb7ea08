"""Command-line front end.

Subcommands:

* ``detect``: one observation file in, decision report out.
* ``roc``: Monte Carlo ROC sweep of a detector over a synthetic scenario.
* ``table``: numerical cross-validation tables for the low-level kernels.
* ``count``: posterior over the number of sources for one observation.

Exit codes: 0 success, 2 usage or input problems, 3 numerical failure.
The detection decision is part of the report, never the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .detectors import (
    BoundedCount,
    ExactCount,
    ExactNoise,
    NoiseGrid,
    PriorConfig,
    detection_log_ratio,
    source_count_posteriors,
)
from .errors import DomainError, InputError, NumericError
from .io import read_observation, write_roc_csv, write_roc_sidecar
from .montecarlo import (
    BayesDetector,
    EnergyDetector,
    Scenario,
    roc_metrics,
    run_roc,
)
from .special import j_integral, j_via_bessel, kappa, lemma1_determinant
from .spectra import SampleMatrix, gram_eigenvalues

_LN10 = math.log(10.0)

# Fixed grids for the `table` subcommand.
_TABLE_J_ORDERS = range(-12, 7)
_TABLE_J_X = (0.1, 0.5, 1.0, 2.0, 5.0)
_TABLE_J_Y = (0.1, 1.0, 10.0, 100.0)
_TABLE_LEMMA_N = (2, 3, 4, 5, 6)
_TABLE_LEMMA_DRAWS = 25


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:K (e.g. 0.5:2.0:8), got {text!r}")
    try:
        lo, hi, k = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi, k


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensense",
        description="Bayesian multi-sensor signal detection from sample eigenvalues.")
    parser.add_argument("--version", action="version", version=f"eigensense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_prior_flags(p, need_noise: bool):
        noise = p.add_mutually_exclusive_group(required=need_noise)
        noise.add_argument("--sigma2", type=float,
                           help="known noise power")
        noise.add_argument("--sigma2-range", type=_parse_range, metavar="LO:HI:K",
                           help="marginalise the noise power over a K-point grid")
        p.add_argument("--grid-scale", choices=("linear", "db"), default="linear",
                       help="how --sigma2-range bounds are read (default linear)")
        count = p.add_mutually_exclusive_group()
        count.add_argument("--m", type=int, help="known source count (default 1)")
        count.add_argument("--m-max", type=int,
                           help="marginalise the source count over 1..M_MAX")

    def add_precision_flag(p):
        p.add_argument("--precision", choices=("standard", "extended"),
                       default="standard",
                       help="force extended-precision evaluation (default standard)")

    p_detect = sub.add_parser("detect", help="decide signal vs noise for one observation")
    p_detect.add_argument("--input", required=True, help="observation file (matrix or eigenvalues)")
    add_prior_flags(p_detect, need_noise=True)
    add_precision_flag(p_detect)
    thr = p_detect.add_mutually_exclusive_group()
    thr.add_argument("--threshold", type=float,
                     help="decision threshold on the linear ratio C (default 1.0)")
    thr.add_argument("--threshold-db", type=float,
                     help="decision threshold as 10*log10(C)")
    p_detect.add_argument("--output", help="write the report here instead of stdout")
    p_detect.add_argument("--format", choices=("json", "csv"), default="json")
    p_detect.set_defaults(handler=_cmd_detect)

    p_roc = sub.add_parser("roc", help="Monte Carlo ROC sweep on synthetic trials")
    p_roc.add_argument("--n", type=int, default=4, help="sensors (default 4)")
    p_roc.add_argument("--l", type=int, default=8, help="snapshots (default 8)")
    p_roc.add_argument("--snr-db", type=float, default=-3.0,
                       help="per-sensor SNR in dB (default -3)")
    p_roc.add_argument("--trials", type=int, default=10000,
                       help="trials per hypothesis (default 10000)")
    p_roc.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
    p_roc.add_argument("--detector", choices=("bayes", "energy"), default="bayes")
    p_roc.add_argument("--threads", type=int, default=1,
                       help="worker threads; results are identical for any value")
    add_prior_flags(p_roc, need_noise=False)
    p_roc.add_argument("--output", default="roc",
                       help="output base path; writes BASE.csv and BASE.json (default roc)")
    p_roc.set_defaults(handler=_cmd_roc)

    p_table = sub.add_parser("table", help="kernel cross-validation tables")
    p_table.add_argument("--seed", type=int, default=7, help="seed for the determinant draws")
    p_table.add_argument("--output", help="write the tables here instead of stdout")
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.set_defaults(handler=_cmd_table)

    p_count = sub.add_parser("count", help="posterior over the number of sources")
    p_count.add_argument("--input", required=True)
    p_count.add_argument("--sigma2", type=float, required=True, help="known noise power")
    p_count.add_argument("--m-max", type=int, required=True,
                         help="largest source count to consider")
    p_count.add_argument("--include-noise", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="include the zero-source hypothesis (default yes)")
    add_precision_flag(p_count)
    p_count.add_argument("--output", help="write the report here instead of stdout")
    p_count.add_argument("--format", choices=("json", "csv"), default="json")
    p_count.set_defaults(handler=_cmd_count)

    return parser


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report(args, body: dict, csv_lines) -> int:
    """Write a subcommand's report: csv_lines as CSV, or body as JSON under
    the tool/version/command envelope."""
    if args.format == "csv":
        _emit("\n".join(csv_lines), args.output)
    else:
        report = {"tool": "eigensense", "version": __version__,
                  "command": args.command, **body}
        _emit(json.dumps(report, indent=2), args.output)
    return 0


def _load_spectrum(path):
    obs = read_observation(path)
    if isinstance(obs, SampleMatrix):
        return gram_eigenvalues(obs)
    return obs


def _noise_from_args(args):
    if args.sigma2 is not None:
        return ExactNoise(args.sigma2)
    if args.sigma2_range is not None:
        lo, hi, k = args.sigma2_range
        return NoiseGrid(lo, hi, k, scale=args.grid_scale)
    return None


def _source_count_from_args(args):
    if args.m_max is not None:
        return BoundedCount(args.m_max)
    return ExactCount(args.m if args.m is not None else 1)


def _cmd_detect(args) -> int:
    spectrum = _load_spectrum(args.input)
    prior = PriorConfig(_source_count_from_args(args), _noise_from_args(args))
    stat = detection_log_ratio(spectrum, prior, precision=args.precision)
    if args.threshold_db is not None:
        log_thr = args.threshold_db * _LN10 / 10.0
    elif args.threshold is not None:
        if not args.threshold > 0.0:
            raise InputError("--threshold must be > 0")
        log_thr = math.log(args.threshold)
    else:
        log_thr = 0.0
    decision = "signal" if stat.decides_signal(log_thr) else "noise"

    result = {
        "log10_ratio": stat.log10_ratio,
        "decision": decision,
        "detector": stat.detector_id,
        "cancellation_digits": stat.cancellation.cancellation_digits,
        "extended_used": stat.extended_used,
        "perturbed_spectrum": stat.perturbed,
    }
    body = {
        "input": args.input,
        "config": {
            "n_sensors": spectrum.n_sensors,
            "n_snapshots": spectrum.n_snapshots,
            "source_count": repr(prior.source_count),
            "noise": repr(prior.noise),
            "log10_threshold": log_thr / _LN10,
            "precision": args.precision,
        },
        "result": result,
    }
    return _report(args, body, [",".join(result.keys()),
                                ",".join(str(v) for v in result.values())])


def _cmd_roc(args) -> int:
    truth_m = args.m if args.m is not None else 1
    scenario = Scenario(args.n, args.l, truth_m, args.snr_db, args.trials, args.seed)
    noise = _noise_from_args(args)
    if args.detector == "energy":
        if isinstance(noise, NoiseGrid):
            raise InputError("the energy detector needs a scalar --sigma2, not a grid")
        detector = EnergyDetector(noise.sigma2 if noise else None)
    else:
        if noise is None:
            noise = ExactNoise(scenario.sigma2)
        detector = BayesDetector(PriorConfig(_source_count_from_args(args), noise))

    started = time.perf_counter()
    curve = run_roc(scenario, detector, n_threads=args.threads)
    runtime = time.perf_counter() - started

    write_roc_csv(f"{args.output}.csv", curve)
    config = {
        "detector": args.detector,
        "source_count": repr(_source_count_from_args(args)),
        "noise": repr(noise),
        "threads": args.threads,
        "thresholds": "auto",
    }
    write_roc_sidecar(f"{args.output}.json", curve, config, runtime)

    point = roc_metrics(curve, 1e-2)
    print(f"wrote {args.output}.csv and {args.output}.json "
          f"({curve.n_noise_trials + curve.n_signal_trials} valid trials, "
          f"{curve.n_failed_noise + curve.n_failed_signal} failed, {runtime:.1f}s)")
    print(f"detection rate at 1% false alarms: {point.cdr:.4f}"
          f"{' (clipped)' if point.clipped else ''}")
    return 0


def _table_j_rows():
    rows = []
    for k in _TABLE_J_ORDERS:
        for x in _TABLE_J_X:
            for y in _TABLE_J_Y:
                log_quad = j_integral(k, x, y).log_magnitude
                via_bessel = j_via_bessel(k, x, y)
                rel_dev = abs(math.expm1(log_quad - math.log(via_bessel)))
                rows.append({"k": k, "x": x, "y": y,
                             "log_j_quadrature": log_quad,
                             "j_via_bessel": via_bessel,
                             "rel_deviation": rel_dev})
    return rows


def _table_lemma_rows(seed: int):
    rng = np.random.default_rng(seed)
    rows = []
    for n in _TABLE_LEMMA_N:
        for draw in range(_TABLE_LEMMA_DRAWS):
            while True:
                a = np.sort(rng.uniform(0.1, 5.0, size=n))
                if np.all(np.diff(a) >= 0.05):
                    break
            b = float(rng.uniform(0.5, 2.5))
            det = lemma1_determinant(a, b)
            closed = float(b ** (-n * (n - 1)) * np.prod(
                [a[j] - a[i] for i in range(n) for j in range(i + 1, n)]))
            rel = abs(det - closed) / abs(closed)
            rows.append({"n": n, "draw": draw, "b": b,
                         "determinant": det, "closed_form": closed,
                         "rel_residual": rel})
    return rows


def _cmd_table(args) -> int:
    j_rows = _table_j_rows()
    lemma_rows = _table_lemma_rows(args.seed)
    max_j = max(r["rel_deviation"] for r in j_rows)
    max_lemma = max(r["rel_residual"] for r in lemma_rows)

    lines = ["k,x,y,log_j_quadrature,j_via_bessel,rel_deviation"]
    for r in j_rows:
        lines.append(f"{r['k']},{r['x']:.17g},{r['y']:.17g},"
                     f"{r['log_j_quadrature']:.17g},{r['j_via_bessel']:.17g},"
                     f"{r['rel_deviation']:.3e}")
    lines += ["", "n,draw,b,determinant,closed_form,rel_residual"]
    for r in lemma_rows:
        lines.append(f"{r['n']},{r['draw']},{r['b']:.17g},"
                     f"{r['determinant']:.17g},{r['closed_form']:.17g},"
                     f"{r['rel_residual']:.3e}")
    body = {
        "max_j_rel_deviation": max_j,
        "max_lemma_rel_residual": max_lemma,
        "j_table": j_rows,
        "lemma_table": lemma_rows,
    }
    return _report(args, body, lines)


def _cmd_count(args) -> int:
    spectrum = _load_spectrum(args.input)
    posterior = source_count_posteriors(
        spectrum, args.sigma2, args.m_max,
        include_noise_hypothesis=args.include_noise,
        precision=args.precision)
    lines = ["count,probability,ratio"]
    for k, p, r in zip(posterior.counts, posterior.probabilities, posterior.ratios):
        lines.append(f"{k},{p:.17g},{r:.17g}")
    body = {
        "input": args.input,
        "config": {
            "sigma2": args.sigma2,
            "m_max": args.m_max,
            "include_noise_hypothesis": args.include_noise,
            "precision": args.precision,
        },
        "counts": list(posterior.counts),
        "probabilities": list(posterior.probabilities),
        # Strict JSON has no infinity: overflowing odds are written as null.
        "ratios": [r if math.isfinite(r) else None for r in posterior.ratios],
        "argmax_count": posterior.argmax_count(),
    }
    return _report(args, body, lines)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.handler(args)
    except (InputError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
