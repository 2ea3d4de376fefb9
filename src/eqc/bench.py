"""Experiment orchestration: replications, scoring, and CSV reports.

Two protocols:

* scenario mode: every replication draws a fresh train/test pair from a
  synthetic population, tunes each classifier on the train set, and
  scores on the independent test set;
* dataset mode (dense CSV or sparse DTM): every replication is one
  repetition of an outer stratified K-fold cross-validation, with tuning
  and any feature selection done inside each training fold.

Both yield (replication, outer fold, train, test) task sets, and one
function tunes, predicts and scores every classifier on each of them.

All randomness derives from the master seed by replication index, so a
run is reproducible. Task sets are drawn (and any Fisher selection made)
in order in the calling process; their tasks may run in worker processes,
but results are collected in task order, so rows and reports do not
depend on how many workers ran them. Every fit runs the metalearners
solvers at their module settings (TOL, MAX_ITER, ARMIJO, BACKTRACK); a
run has no solver options of its own.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .binary import predict_binary
from .data import Dataset
from .errors import DomainError, EqcError
from .features import fisher_exact_select, remove_low_frequency
from .ingest import SparseDtm, load_dense_csv, load_sparse_dtm, read_key_values
from .multiclass import predict_multiclass
from .scenarios import FAMILIES, ScenarioSpec, generate
from .selection import TuningGrid, make_folds, misclassification_rate, tune_and_train

CLASSIFIERS = (
    "qc", "mc", "emc", "eqc-ridge", "eqc-lasso", "eqc-hinge",
    "eqc-logistic", "eqc-multiclass",
)

# classifier -> (learner kind, tunes theta?, tunes alpha?)
_RECIPES = {
    "qc": ("unit-weights", True, False),
    "mc": ("unit-weights", False, False),
    "emc": ("ridge", False, True),
    "eqc-ridge": ("ridge", True, True),
    "eqc-lasso": ("lasso", True, True),
    "eqc-hinge": ("hinge", True, True),
    "eqc-logistic": ("logistic", True, False),
    "eqc-multiclass": ("multiclass-ridge", True, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `bench` run needs; config_from_file lists the file keys."""

    classifiers: tuple[str, ...]
    replications: int
    grid: TuningGrid
    scenario: ScenarioSpec | None = None
    test_size: int = 5000
    dataset_path: str | None = None
    dtm_path: str | None = None
    labels_path: str | None = None
    outer_folds: int = 10
    feature_selection: str = "none"
    fisher_l: int = 50
    min_docs: int = 0
    scaling: str | None = None
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        names = tuple(c.lower() for c in self.classifiers)
        for c in names:
            if c not in CLASSIFIERS:
                raise DomainError(f"unknown classifier {c!r}")
        if not names:
            raise DomainError("at least one classifier is required")
        sources = [self.scenario is not None, self.dataset_path is not None,
                   self.dtm_path is not None]
        if sum(sources) != 1:
            raise DomainError("exactly one of scenario / dataset / dtm is required")
        if self.dtm_path is not None and self.labels_path is None:
            raise DomainError("a dtm needs a labels file")
        if self.feature_selection not in ("none", "fisher"):
            raise DomainError(f"unknown feature selection {self.feature_selection!r}")
        object.__setattr__(self, "classifiers", names)

    @property
    def label(self) -> str:
        if self.scenario is not None:
            s = self.scenario
            dep = "dep" if s.dependent else "ind"
            return f"{s.family}-n{s.n_train}-p{s.p}-noise{int(100 * s.noise_fraction)}-{dep}"
        return os.path.basename(self.dataset_path or self.dtm_path or "data")


@dataclass
class ExperimentReport:
    """Rows and emitted files of one run."""

    rows: list[tuple]
    summary: list[dict]
    sensitivities: list[dict]
    failures: list[str]
    long_path: str | None = None
    summary_path: str | None = None
    sensitivity_path: str | None = None


def _sub_seed(master: int, *idx: int):
    return (int(master),) + tuple(int(i) for i in idx)


def _seed_int(master: int, *idx: int) -> int:
    """Derived 32-bit seed, deterministic in (master, indices)."""
    return int(np.random.SeedSequence(_sub_seed(master, *idx)).generate_state(1)[0])


def classifier_grid(name: str, theta_grid, alpha_grid, folds: int, stratified: bool,
                    seed: int) -> tuple[str, TuningGrid]:
    """The learner of a classifier and the grid it is tuned on.

    theta is fixed at 0.5 and alpha at 1.0 where the classifier's recipe
    does not tune them.
    """
    learner, tune_theta, tune_alpha = _RECIPES[name]
    grid = TuningGrid(theta_grid if tune_theta else (0.5,),
                      alpha_grid if tune_alpha else (1.0,), folds, stratified, seed)
    return learner, grid


def _sensitivities(pred, truth, class_ids) -> dict[int, float]:
    out = {}
    for k in class_ids:
        mask = truth == k
        out[int(k)] = float(np.mean(pred[mask] == k)) if mask.any() else float("nan")
    return out


def _load_dataset(config: ExperimentConfig) -> Dataset | SparseDtm:
    """The dense CSV, or the triples after the low-frequency filter, still sparse."""
    if config.dataset_path is not None:
        return load_dense_csv(config.dataset_path)
    dtm = load_sparse_dtm(config.dtm_path, config.labels_path)
    if config.min_docs > 1:
        dtm, _ = remove_low_frequency(dtm, config.min_docs)
    return dtm


def _task_sets(config: ExperimentConfig):
    """(replication, outer fold, train, test) of every task set, in run order.

    Scenario mode draws one train/test pair per replication, with fold
    None. Dataset mode yields every outer fold of every replication, after
    any Fisher selection on the training part; a fold whose training part
    misses a class comes with train and test None. A sparse corpus is
    densified fold by fold, never whole: the training part at every term,
    as Fisher selection reads it, then cut to the selected terms; the
    held-out part directly at the selected terms (every term without
    selection).
    """
    if config.scenario is not None:
        for rep in range(config.replications):
            data = generate(replace(config.scenario, seed=_sub_seed(config.seed, rep)),
                            config.test_size)
            yield rep, None, data.train, data.test
        return
    data = _load_dataset(config)
    classes = set(np.unique(data.y))
    for rep in range(config.replications):
        folds = make_folds(data.y, config.outer_folds, stratified=True,
                           seed=_seed_int(config.seed, rep))
        for f in range(config.outer_folds):
            if set(np.unique(data.y[folds != f])) != classes:
                yield rep, f, None, None
                continue
            train, cols = data.subset(folds != f), None
            if config.feature_selection == "fisher":
                # rebinding train frees the full training part before tuning
                cols = fisher_exact_select(train, train.y, config.fisher_l)
                train = Dataset(train.X[:, cols], train.y)
            yield rep, f, train, data.subset(folds == f, cols)


def summarize(rows) -> list[dict]:
    """Mean error, standard error, and the paper-style 'm(se)' string.

    The standard error is the sample standard deviation of the
    per-replication (or per-fold) errors divided by sqrt(count).
    """
    by_name: dict[str, list[float]] = {}
    for _, name, _, _, err in rows:
        by_name.setdefault(name, []).append(err)
    out = []
    for name in sorted(by_name):
        errs = np.asarray(by_name[name])
        mean = float(errs.mean())
        se = float(errs.std(ddof=1) / np.sqrt(errs.size)) if errs.size > 1 else 0.0
        out.append({
            "classifier": name,
            "runs": errs.size,
            "mean_error": mean,
            "std_error": se,
            "formatted": f"{100 * mean:.1f}({100 * se:.1f})",
        })
    return out


def _write_csv(out_dir: str, name: str, header, records) -> str:
    """One CSV of str() cells; a float's str is its repr, so values round-trip."""
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        for cells in (header, *records):
            fh.write(",".join(map(str, cells)) + "\n")
    return path


def _run_task_set(config: ExperimentConfig, rep: int, fold: int | None,
                  train: Dataset | None, test: Dataset | None):
    """Tune, predict and score every classifier on one task set.

    Returns the set's rows, its eqc-multiclass sensitivities and its
    failure strings, each in classifier order; an EqcError fails only its
    own task.
    """
    rows, sens_rows, failures = [], [], []
    g = config.grid
    where = f"rep {rep} " if fold is None else f"rep {rep} fold {fold} "
    task = rep if fold is None else rep * config.outer_folds + fold
    for name in config.classifiers:
        if train is None:
            failures.append(f"{where}{name}: training part misses a class")
            continue
        try:
            learner, grid = classifier_grid(
                name, g.theta_grid, g.alpha_grid, g.folds, g.stratified,
                _seed_int(config.seed, task, CLASSIFIERS.index(name)),
            )
            model, _ = tune_and_train(train, grid, learner, config.scaling)
            predict = (predict_multiclass if model.kind == "multiclass-ridge"
                       else predict_binary)
            pred = predict(test.X, model)
            rows.append((config.label, name, rep, fold,
                         misclassification_rate(pred, test.y)))
            if name == "eqc-multiclass":
                sens_rows.append(_sensitivities(pred, test.y, train.class_ids))
        except EqcError as exc:
            failures.append(f"{where}{name}: {exc}")
    return rows, sens_rows, failures


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _task_set_results(config: ExperimentConfig):
    """_run_task_set's result for every task set of _task_sets, in task order.

    One worker per usable CPU, at most one per task set. With one worker,
    or where fork is not available, every set runs in this process;
    otherwise in forked worker processes, which reuse this process's
    imports, with at most two sets per worker pending at a time. The task
    sets themselves are drawn here either way. The pool is closed before
    this generator finishes or raises.
    """
    import multiprocessing

    n_sets = config.replications * (1 if config.scenario is not None else config.outer_folds)
    workers = min(_usable_cpus(), n_sets)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        for task_set in _task_sets(config):
            yield _run_task_set(config, *task_set)
        return
    from concurrent.futures import ProcessPoolExecutor

    # np.unique imports numpy.ma on its first call (about 14 ms); imported
    # here, the workers, forked afresh on every call, need not import it
    import numpy.ma  # noqa: F401

    pending = deque()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for task_set in _task_sets(config):
            pending.append(pool.submit(_run_task_set, config, *task_set))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every task, write report CSVs, and return the summary.

    A task is one classifier on one (replication, outer fold) task set, so
    a run has classifier x replication x outer fold tasks (one fold per
    replication in scenario mode). Failed tasks are recorded and skipped;
    the run aborts if at least 20% of them fail.

    Task sets run in forked worker processes, one per CPU that this
    process may run on (its affinity), at most one per task set; results
    are collected in task order, so rows, failures and every report file
    are the same as from one process. A single usable CPU (for example
    under `taskset -c 0`), or a platform without fork, runs every task set
    in this process. No worker outlives the call.
    """
    rows, sens_rows, failures = [], [], []
    for set_rows, set_sens, set_failures in _task_set_results(config):
        rows += set_rows
        sens_rows += set_sens
        failures += set_failures

    total_tasks = len(rows) + len(failures)
    if failures and len(failures) >= 0.2 * total_tasks:
        detail = "; ".join(failures[:5])
        raise EqcError(
            f"{len(failures)} of {total_tasks} tasks failed (>= 20%): {detail}"
        )

    summary = summarize(rows)
    sensitivities = []
    if sens_rows:
        sensitivities.append({
            "classifier": "eqc-multiclass",
            "mean_error": next(row["mean_error"] for row in summary
                               if row["classifier"] == "eqc-multiclass"),
            "sensitivities": {k: float(np.nanmean([s[k] for s in sens_rows]))
                              for k in sorted(sens_rows[0])},
        })
    report = ExperimentReport(rows, summary, sensitivities, failures)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        report.long_path = _write_csv(
            config.out_dir, "errors_long.csv",
            ("scenario", "classifier", "replication", "fold", "error"),
            [(label, name, rep, "" if fold is None else fold, err)
             for label, name, rep, fold, err in rows])
        header = ("classifier", "runs", "mean_error", "std_error", "formatted")
        report.summary_path = _write_csv(
            config.out_dir, "summary.csv", header,
            [[row[k] for k in header] for row in summary])
        if sensitivities:
            row = sensitivities[0]
            report.sensitivity_path = _write_csv(
                config.out_dir, "sensitivities.csv",
                ["classifier", "mean_error", *(f"class_{k}" for k in row["sensitivities"])],
                [[row["classifier"], row["mean_error"], *row["sensitivities"].values()]])
    return report


def _parse_grid_token(token: str) -> tuple:
    """A comma list, range:lo:hi:n (n evenly spaced, rounded to 12 decimals so
    that 0.5 is 0.5) or logrange:lo:hi:n (n log-spaced); a ValueError for
    anything else."""
    token = token.strip()
    try:
        with np.errstate(divide="raise", invalid="raise"):  # log10 of lo or hi <= 0
            if token.startswith("range:"):
                _, lo, hi, num = token.split(":")
                return tuple(np.round(np.linspace(float(lo), float(hi), int(num)), 12))
            if token.startswith("logrange:"):
                _, lo, hi, num = token.split(":")
                return tuple(np.logspace(np.log10(float(lo)), np.log10(float(hi)), int(num)))
            return tuple(float(t) for t in token.split(","))
    except (ValueError, FloatingPointError):
        raise ValueError("expected a comma list, range:lo:hi:n or logrange:lo:hi:n "
                         "with lo, hi > 0") from None


def _read(name: str, value: str, convert):
    """convert(value), for the config key or command-line flag name; a value
    that convert cannot read raises a DomainError naming both."""
    try:
        return convert(value)
    except ValueError as exc:
        raise DomainError(f"{name}: cannot read {value!r} ({exc})") from None


def config_from_file(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the flat 'key = value' experiment file; '#' starts a comment.

    Keys, defaults in brackets: mode = scenario | dense | dtm [scenario];
    classifiers, a comma list of CLASSIFIERS [qc]; replications [1]; seed
    [0]; out, the output directory [.]; scaling = none | sd | mad [none];
    theta_grid and alpha_grid, each a comma list, range:lo:hi:n or
    logrange:lo:hi:n [TuningGrid's: 0.05, 0.10, ..., 0.95 and 15 log-spaced
    values 1e-4..1e2]; folds [5]; stratified [1]. Scenario mode: family
    [t3], n_train [100], p [50], noise_fraction [0], delta [family default],
    dependent [0], test_size [5000]. Dense mode: dataset, a CSV path. Dtm
    mode: dtm and labels, the triple and label files; min_docs [0]. Both
    data modes: outer_folds [10], feature_selection = none | fisher [none],
    fisher_l [50]. Unknown keys are ignored. overrides, when given, replace
    file values.
    """
    raw = read_key_values(path)
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    return config_from_mapping(raw)


def _flag(value: str) -> bool:
    return bool(int(value))


def _scaling(value: str) -> str | None:
    value = value.lower()
    return None if value in ("none", "") else value


# key -> converter, for the keys whose defaults are those of the type built
_GRID_KEYS = {"theta_grid": _parse_grid_token, "alpha_grid": _parse_grid_token,
              "folds": int, "stratified": _flag, "seed": int}
_SCENARIO_KEYS = {"noise_fraction": float, "delta": lambda v: float(v) if v else None,
                  "dependent": _flag}
_CONFIG_KEYS = {"test_size": int, "outer_folds": int, "feature_selection": str,
                "fisher_l": int, "min_docs": int, "scaling": _scaling, "seed": int}


def _given(raw: dict[str, str], keys: dict) -> dict:
    """The keys that raw holds, converted; the others keep their defaults."""
    return {k: _read(k, raw[k], convert) for k, convert in keys.items() if k in raw}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    mode = raw.get("mode", "scenario")
    fields = {}
    if mode == "scenario":
        family = raw.get("family", "t3").lower()
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}")
        fields["scenario"] = ScenarioSpec(
            family=family,
            n_train=_read("n_train", raw.get("n_train", "100"), int),
            p=_read("p", raw.get("p", "50"), int),
            **_given(raw, _SCENARIO_KEYS),
        )
    elif mode == "dense":
        fields["dataset_path"] = raw.get("dataset")
        if not fields["dataset_path"]:
            raise DomainError("dense mode requires dataset = <path>")
    elif mode == "dtm":
        fields["dtm_path"] = raw.get("dtm")
        fields["labels_path"] = raw.get("labels")
        if not fields["dtm_path"] or not fields["labels_path"]:
            raise DomainError("dtm mode requires dtm = <path> and labels = <path>")
    else:
        raise DomainError(f"unknown mode {mode!r}")
    if "out" in raw:
        fields["out_dir"] = raw["out"]
    classifiers = tuple(
        t.strip().lower() for t in raw.get("classifiers", "qc").split(",") if t.strip()
    )
    return ExperimentConfig(
        classifiers=classifiers,
        replications=_read("replications", raw.get("replications", "1"), int),
        grid=TuningGrid(**_given(raw, _GRID_KEYS)),
        **fields,
        **_given(raw, _CONFIG_KEYS),
    )
