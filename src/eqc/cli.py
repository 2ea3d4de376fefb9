"""Command-line harness.

Subcommands: simulate (write a synthetic dataset), fit (tune and train a
classifier, write a model file), predict (apply a model file), bench
(run an experiment config), selftest (fast invariant battery). Exit
codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    CLASSIFIERS, _parse_grid_token, _read, classifier_grid, config_from_file, run_experiment,
)
from .binary import eqc_scores, labels_from_scores
from .data import Dataset
from .errors import EqcError
from .ingest import load_dense_csv, open_new, save_dense_csv
from .modelio import load_model, save_model
from .multiclass import probabilities_from_scores
from .scenarios import FAMILIES, ScenarioSpec, generate
from .selection import DEFAULT_ALPHA_GRID, DEFAULT_THETA_GRID, tune_and_train
from .selftest import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eqc-bench",
        description="Quantile-ensemble classifiers and their benchmark harness",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset as dense CSV")
    sim.add_argument("--family", required=True, choices=FAMILIES)
    sim.add_argument("--n", type=int, required=True, help="training sample size")
    sim.add_argument("--p", type=int, required=True, help="number of variables")
    sim.add_argument("--noise", type=float, default=0.0,
                     help="fraction of pure-noise variables (e.g. 0, 0.5, 0.9)")
    sim.add_argument("--delta", type=float, default=None,
                     help="class-2 shift; family default when omitted")
    sim.add_argument("--dependent", action="store_true",
                     help="impose Gaussian-copula dependence")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="training CSV path")
    sim.add_argument("--test-out", default=None, help="optional test CSV path")
    sim.add_argument("--n-test", type=int, default=1000)

    fit = sub.add_parser("fit", help="tune and train a classifier, save the model")
    fit.add_argument("--data", required=True, help="dense CSV dataset")
    fit.add_argument("--classifier", required=True, choices=CLASSIFIERS)
    fit.add_argument("--theta-grid", default=None,
                     help="comma list or range:lo:hi:n (default 0.05..0.95 x19)")
    fit.add_argument("--alpha-grid", default=None,
                     help="comma list or logrange:lo:hi:n (default 1e-4..1e2 x15)")
    fit.add_argument("--folds", type=int, default=5)
    fit.add_argument("--no-stratify", action="store_true")
    fit.add_argument("--scaling", choices=("sd", "mad"), default=None)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True, help="model file path")
    fit.add_argument("--cv-out", default=None, help="optional CV table CSV path")

    pred = sub.add_parser("predict", help="apply a model file to a dataset")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True, help="predictions CSV path")

    ben = sub.add_parser("bench", help="run an experiment config file")
    ben.add_argument("--config", required=True)
    ben.add_argument("--out", default=None, help="override the output directory")
    ben.add_argument("--seed", type=int, default=None, help="override the seed")

    sub.add_parser("selftest", help="run the fast invariant battery")
    return top


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec(
        family=args.family, n_train=args.n, p=args.p,
        noise_fraction=args.noise, delta=args.delta,
        dependent=args.dependent, seed=args.seed,
    )
    data = generate(spec, max(args.n_test, 2))
    save_dense_csv(data.train, args.out)
    if args.test_out:
        save_dense_csv(data.test, args.test_out)
    print(f"wrote {args.out} ({data.train.n} x {data.train.p})")
    return 0


def _cmd_fit(args) -> int:
    data = load_dense_csv(args.data)
    theta_grid = (DEFAULT_THETA_GRID if args.theta_grid is None
                  else _read("--theta-grid", args.theta_grid, _parse_grid_token))
    alpha_grid = (DEFAULT_ALPHA_GRID if args.alpha_grid is None
                  else _read("--alpha-grid", args.alpha_grid, _parse_grid_token))
    learner, grid = classifier_grid(args.classifier, theta_grid, alpha_grid,
                                    args.folds, not args.no_stratify, args.seed)
    model, cv = tune_and_train(data, grid, learner, scaling=args.scaling)
    save_model(model, args.out)
    if args.cv_out:
        cv.write_csv(args.cv_out)
    theta_hat, alpha_hat = cv.chosen
    alpha_s = "-" if not np.isfinite(alpha_hat) else f"{alpha_hat:g}"
    print(f"wrote {args.out} (theta={theta_hat:g}, alpha={alpha_s})")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    data = load_dense_csv(args.data)
    scores = eqc_scores(data.X, model)
    if model.kind == "multiclass-ridge":
        header = "index,prediction,max_probability"
        shown = probabilities_from_scores(scores).max(axis=1)
    else:
        header = "index,prediction,score"
        shown = scores[:, 0]
    cols = zip(labels_from_scores(scores, model.class_ids), shown)
    with open_new(args.out) as fh:
        fh.write(header + "\n")
        for i, (pred, score) in enumerate(cols):
            fh.write(f"{i},{int(pred)},{float(score)!r}\n")
    print(f"wrote {args.out} ({data.n} predictions)")
    return 0


def _cmd_bench(args) -> int:
    config = config_from_file(args.config, {"out": args.out, "seed": args.seed})
    report = run_experiment(config)
    for row in report.summary:
        print(f"{row['classifier']:>16}  {row['formatted']}  ({row['runs']} runs)")
    for fail in report.failures:
        print(f"warning: {fail}", file=sys.stderr)
    if report.summary_path:
        print(f"wrote {report.long_path} and {report.summary_path}")
    return 0


def cli_entry(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code) if exc.code is not None else 2
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "selftest":
            return 0 if run_selftest() else 1
    except EqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(cli_entry())


if __name__ == "__main__":
    main()
