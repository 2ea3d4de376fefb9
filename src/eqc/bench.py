"""Experiment orchestration: replications, scoring, and CSV reports.

Two protocols:

* scenario mode: every replication draws a fresh train/test pair from a
  synthetic population, tunes each classifier on the train set, and
  scores on the independent test set;
* dataset mode (dense CSV or sparse DTM): every replication is one
  repetition of an outer stratified K-fold cross-validation, with tuning
  and any feature selection done inside each training fold.

All randomness derives from the master seed by replication index, so a
run is reproducible; replications run one after another, in order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .binary import predict_binary
from .data import Dataset
from .errors import DomainError, EqcError, ParseError
from .features import fisher_exact_select, remove_low_frequency
from .ingest import load_dense_csv, load_sparse_dtm
from .metalearners import SolverConfig
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


def _tune_grid_for(config: ExperimentConfig, name: str, rep: int) -> TuningGrid:
    learner, tune_theta, tune_alpha = _RECIPES[name]
    theta_grid = config.grid.theta_grid if tune_theta else (0.5,)
    alpha_grid = config.grid.alpha_grid if tune_alpha else (1.0,)
    return TuningGrid(
        theta_grid, alpha_grid, config.grid.folds, config.grid.stratified,
        seed=_seed_int(config.seed, rep, CLASSIFIERS.index(name)),
    )


def _fit_and_predict(train: Dataset, test_X, name: str, grid: TuningGrid,
                     scaling, solver: SolverConfig) -> np.ndarray:
    learner = _RECIPES[name][0]
    model, _ = tune_and_train(train, grid, learner, solver, scaling)
    predict = predict_multiclass if model.kind == "multiclass-ridge" else predict_binary
    return predict(test_X, model)


def _sensitivities(pred, truth, class_ids) -> dict[int, float]:
    out = {}
    for k in class_ids:
        mask = truth == k
        out[int(k)] = float(np.mean(pred[mask] == k)) if mask.any() else float("nan")
    return out


def _score_classifiers(config: ExperimentConfig, train: Dataset, test: Dataset,
                       rep: int, fold: int | None, solver: SolverConfig):
    """Tune, predict and score each classifier: rows, sensitivities, failures."""
    where = f"rep {rep} " if fold is None else f"rep {rep} fold {fold} "
    task = rep if fold is None else rep * config.outer_folds + fold
    rows, sens, fails = [], [], []
    for name in config.classifiers:
        try:
            grid = _tune_grid_for(config, name, task)
            pred = _fit_and_predict(train, test.X, name, grid, config.scaling, solver)
            rows.append((config.label, name, rep, fold, misclassification_rate(pred, test.y)))
            if name == "eqc-multiclass":
                sens.append((name, rep, _sensitivities(pred, test.y, train.class_ids)))
        except EqcError as exc:
            fails.append(f"{where}{name}: {exc}")
    return rows, sens, fails


def _scenario_replication(config: ExperimentConfig, rep: int, solver: SolverConfig):
    spec = replace(config.scenario, seed=_sub_seed(config.seed, rep))
    data = generate(spec, config.test_size)
    return _score_classifiers(config, data.train, data.test, rep, None, solver)


def _select_columns(train: Dataset, config: ExperimentConfig) -> np.ndarray | None:
    if config.feature_selection == "fisher":
        return fisher_exact_select(train, train.y, config.fisher_l)
    return None


def _dataset_replication(config: ExperimentConfig, data: Dataset, rep: int,
                         solver: SolverConfig, trace: list | None = None,
                         folds: np.ndarray | None = None):
    if folds is None:
        folds = make_folds(
            data.y, config.outer_folds, stratified=True,
            seed=_seed_int(config.seed, rep),
        )
    rows, sens, fails = [], [], []
    for f in range(config.outer_folds):
        tr = data.subset(folds != f)
        te = data.subset(folds == f)
        if set(tr.class_ids) != set(data.class_ids):
            fails.append(f"rep {rep} fold {f}: training part misses a class")
            continue
        cols = _select_columns(tr, config)
        if trace is not None:
            trace.append((rep, f, None if cols is None else cols.copy()))
        tr_f = tr if cols is None else Dataset(tr.X[:, cols], tr.y)
        te_f = te if cols is None else Dataset(te.X[:, cols], te.y)
        scored = _score_classifiers(config, tr_f, te_f, rep, f, solver)
        for out, new in zip((rows, sens, fails), scored):
            out += new
    return rows, sens, fails


def _load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset_path is not None:
        return load_dense_csv(config.dataset_path)
    dtm = load_sparse_dtm(config.dtm_path, config.labels_path)
    if config.min_docs > 1:
        dtm, _ = remove_low_frequency(dtm, config.min_docs)
    return dtm.to_dense()


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


def run_experiment(config: ExperimentConfig,
                   solver: SolverConfig = SolverConfig()) -> ExperimentReport:
    """Run all replications, write report CSVs, and return the summary.

    Replication failures are recorded and skipped; the run aborts if at
    least 20% of (classifier x replication) tasks fail.
    """
    data = None if config.scenario is not None else _load_dataset(config)
    rows, sens_rows, failures = [], [], []
    for rep in range(config.replications):
        if config.scenario is not None:
            r_rows, r_sens, r_fails = _scenario_replication(config, rep, solver)
        else:
            r_rows, r_sens, r_fails = _dataset_replication(config, data, rep, solver)
        rows.extend(r_rows)
        sens_rows.extend(r_sens)
        failures.extend(r_fails)

    total_tasks = config.replications * len(config.classifiers) * (
        1 if config.scenario is not None else config.outer_folds
    )
    if failures and len(failures) >= 0.2 * total_tasks:
        detail = "; ".join(failures[:5])
        raise EqcError(
            f"{len(failures)} of {total_tasks} tasks failed (>= 20%): {detail}"
        )

    summary = summarize(rows)
    sens_summary = _summarize_sensitivities(sens_rows, summary)
    report = ExperimentReport(rows, summary, sens_summary, failures)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        report.long_path = os.path.join(config.out_dir, "errors_long.csv")
        with open(report.long_path, "w") as fh:
            fh.write("scenario,classifier,replication,fold,error\n")
            for label, name, rep, fold, err in rows:
                fold_s = "" if fold is None else str(fold)
                fh.write(f"{label},{name},{rep},{fold_s},{err!r}\n")
        report.summary_path = os.path.join(config.out_dir, "summary.csv")
        with open(report.summary_path, "w") as fh:
            fh.write("classifier,runs,mean_error,std_error,formatted\n")
            for row in summary:
                fh.write(
                    f"{row['classifier']},{row['runs']},{row['mean_error']!r},"
                    f"{row['std_error']!r},{row['formatted']}\n"
                )
        if sens_summary:
            report.sensitivity_path = os.path.join(config.out_dir, "sensitivities.csv")
            classes = sorted(sens_summary[0]["sensitivities"])
            with open(report.sensitivity_path, "w") as fh:
                fh.write("classifier,mean_error," +
                         ",".join(f"class_{k}" for k in classes) + "\n")
                for row in sens_summary:
                    cells = [row["classifier"], repr(row["mean_error"])]
                    cells += [repr(row["sensitivities"][k]) for k in classes]
                    fh.write(",".join(cells) + "\n")
    return report


def _summarize_sensitivities(sens_rows, summary) -> list[dict]:
    if not sens_rows:
        return []
    by_name: dict[str, list[dict]] = {}
    for name, _, sens in sens_rows:
        by_name.setdefault(name, []).append(sens)
    mean_err = {row["classifier"]: row["mean_error"] for row in summary}
    out = []
    for name, entries in sorted(by_name.items()):
        classes = sorted(entries[0])
        agg = {
            k: float(np.nanmean([e[k] for e in entries])) for k in classes
        }
        out.append({
            "classifier": name,
            "mean_error": mean_err.get(name, float("nan")),
            "sensitivities": agg,
        })
    return out


def _parse_grid_token(token: str) -> tuple:
    token = token.strip()
    if token.startswith("range:"):
        _, lo, hi, num = token.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(num)))
    if token.startswith("logrange:"):
        _, lo, hi, num = token.split(":")
        return tuple(np.logspace(np.log10(float(lo)), np.log10(float(hi)), int(num)))
    return tuple(float(t) for t in token.split(","))


def config_from_file(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the flat 'key = value' experiment file; '#' starts a comment.

    Keys, defaults in brackets: mode = scenario | dense | dtm [scenario];
    classifiers, a comma list of CLASSIFIERS [qc]; replications [1]; seed
    [0]; out, the output directory [.]; scaling = none | sd | mad [none];
    theta_grid [range:0.05:0.95:19] and alpha_grid [logrange:1e-4:1e2:15],
    each a comma list, range:lo:hi:n or logrange:lo:hi:n; folds [5];
    stratified [1]. Scenario mode: family [t3], n_train [100], p [50],
    noise_fraction [0], delta [family default], dependent [0], test_size
    [5000]. Dense mode: dataset, a CSV path. Dtm mode: dtm and labels, the
    triple and label files; min_docs [0]. Both data modes: outer_folds
    [10], feature_selection = none | fisher [none], fisher_l [50]. Unknown
    keys are ignored. overrides, when given, replace file values.
    """
    raw: dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", line=lineno)
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    return config_from_mapping(raw)


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    def get(key, default=None):
        return raw.get(key, default)

    grid = TuningGrid(
        theta_grid=_parse_grid_token(get("theta_grid", "range:0.05:0.95:19")),
        alpha_grid=_parse_grid_token(get("alpha_grid", "logrange:1e-4:1e2:15")),
        folds=int(get("folds", 5)),
        stratified=bool(int(get("stratified", 1))),
        seed=int(get("seed", 0)),
    )
    mode = get("mode", "scenario")
    scenario = None
    dataset_path = dtm_path = labels_path = None
    if mode == "scenario":
        family = get("family", "t3").lower()
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}")
        delta = get("delta", "")
        scenario = ScenarioSpec(
            family=family,
            n_train=int(get("n_train", 100)),
            p=int(get("p", 50)),
            noise_fraction=float(get("noise_fraction", 0.0)),
            delta=float(delta) if delta not in ("", None) else None,
            dependent=bool(int(get("dependent", 0))),
            seed=int(get("seed", 0)),
        )
    elif mode == "dense":
        dataset_path = get("dataset")
        if not dataset_path:
            raise DomainError("dense mode requires dataset = <path>")
    elif mode == "dtm":
        dtm_path = get("dtm")
        labels_path = get("labels")
        if not dtm_path or not labels_path:
            raise DomainError("dtm mode requires dtm = <path> and labels = <path>")
    else:
        raise DomainError(f"unknown mode {mode!r}")
    classifiers = tuple(
        t.strip().lower() for t in get("classifiers", "qc").split(",") if t.strip()
    )
    scaling = get("scaling", "none").lower()
    return ExperimentConfig(
        classifiers=classifiers,
        replications=int(get("replications", 1)),
        grid=grid,
        scenario=scenario,
        test_size=int(get("test_size", 5000)),
        dataset_path=dataset_path,
        dtm_path=dtm_path,
        labels_path=labels_path,
        outer_folds=int(get("outer_folds", 10)),
        feature_selection=get("feature_selection", "none"),
        fisher_l=int(get("fisher_l", 50)),
        min_docs=int(get("min_docs", 0)),
        scaling=None if scaling in ("none", "") else scaling,
        seed=int(get("seed", 0)),
        out_dir=get("out", "."),
    )
