"""Stratified T-fold cross-validation over a (theta, alpha) grid.

For every fold and every theta, class quantiles are estimated on the
training part only (no leakage). Every learner, multiclass-ridge too, is
fitted at every (theta, alpha) of the fold by one fit_path call on the
stack of the fold's training designs; per theta, the held-out transforms
score every alpha in one linear_scores product, the one a fitted model
predicts with. The (theta, alpha) cell with the lowest mean
misclassification wins and the model is refit on the full data. Cells
whose fold-mean errors are equal up to floating-point rounding are tied;
ties prefer stronger regularization, then theta nearest 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binary import class_transforms, compute_scaling, fit_binary_eqc, labels_from_scores
from .data import Dataset
from .errors import DomainError, TuningError
from .metalearners import fit_path, linear_scores
from .multiclass import fit_multiclass_eqc
from .quantiles import QuantileParams, estimate_quantile_table

LEARNERS = ("ridge", "lasso", "hinge", "logistic", "unit-weights", "multiclass-ridge")
_ALPHA_FREE = ("logistic", "unit-weights")

DEFAULT_THETA_GRID = tuple(np.round(np.arange(0.05, 0.951, 0.05), 2))
DEFAULT_ALPHA_GRID = tuple(np.logspace(-4, 2, 15))


@dataclass(frozen=True)
class TuningGrid:
    """Finite search grid plus the fold layout.

    theta_grid holds common-theta values (one level shared by all
    variables); alpha_grid holds penalty values (lambda or cost,
    depending on the learner) and is ignored by learners without a
    penalty. Defaults: 19 thetas 0.05..0.95, 15 log-spaced alphas
    1e-4..1e2, 5 stratified folds.
    """

    theta_grid: tuple = DEFAULT_THETA_GRID
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    folds: int = 5
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        th = np.asarray(self.theta_grid, dtype=float)
        al = np.asarray(self.alpha_grid, dtype=float)
        if th.size == 0 or al.size == 0:
            raise DomainError("grids must be non-empty")
        if np.any(th <= 0) or np.any(th >= 1):
            raise DomainError("every theta must lie strictly in (0, 1)")
        if np.any(al <= 0) or not np.all(np.isfinite(al)):
            raise DomainError("every alpha must be positive and finite")
        if self.folds < 2:
            raise DomainError("need at least 2 folds")
        object.__setattr__(self, "theta_grid", tuple(float(t) for t in th))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in al))


@dataclass
class CvResult:
    """Grid of mean misclassification rates and the chosen cell.

    per_fold has shape (folds, |theta_grid|, |alpha_grid|) with NaN for
    skipped folds; table is the fold mean. Learners without an alpha get
    a single NaN alpha column.
    """

    thetas: np.ndarray
    alphas: np.ndarray
    table: np.ndarray
    per_fold: np.ndarray
    chosen: tuple[float, float]
    warnings: list[str] = field(default_factory=list)

    def to_csv_rows(self) -> list[str]:
        """Long-format rows 'theta,alpha,fold,error' (header included)."""
        rows = ["theta,alpha,fold,error"]
        T = self.per_fold.shape[0]
        for t in range(T):
            for h, th in enumerate(self.thetas):
                for a, al in enumerate(self.alphas):
                    err = self.per_fold[t, h, a]
                    if np.isnan(err):
                        continue
                    rows.append(f"{th!r},{al!r},{t},{err!r}")
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_csv_rows()) + "\n")


def make_folds(labels, T: int, stratified: bool = True, seed: int = 0) -> np.ndarray:
    """Fold index (0..T-1) per observation; deterministic for a seed.

    Stratified mode deals each class's shuffled members around the folds,
    continuing the dealing position across classes, which keeps class
    proportions per fold within one member.
    """
    y = np.asarray(labels)
    n = y.size
    if T < 2:
        raise DomainError("need at least 2 folds")
    if T > n:
        raise DomainError(f"cannot make {T} folds from {n} observations")
    rng = np.random.Generator(np.random.PCG64(seed))
    fold = np.empty(n, dtype=int)
    if not stratified:
        perm = rng.permutation(n)
        fold[perm] = np.arange(n) % T
        return fold
    offset = 0
    for k in np.unique(y):
        idx = np.flatnonzero(y == k)
        perm = rng.permutation(idx.size)
        fold[idx[perm]] = (offset + np.arange(idx.size)) % T
        offset = (offset + idx.size) % T
    return fold


def misclassification_rate(predictions, truth) -> float:
    pred = np.asarray(predictions)
    tru = np.asarray(truth)
    if pred.shape != tru.shape:
        raise DomainError("prediction and truth lengths differ")
    if pred.size == 0:
        raise DomainError("cannot score empty predictions")
    return float(np.mean(pred != tru))


def _fold_errors(tr: Dataset, te: Dataset, thetas, alphas, learner, scaling) -> np.ndarray:
    """Errors (H, A) for one fold; scaling and quantiles come from tr only.

    Both parts are scaled once, then per theta made features once (the
    training part not for unit-weights, whose weights are fixed). The
    learner is fitted at every (theta, alpha) by one fit_path call on the
    stack, multiclass-ridge as ridge. Per theta, one linear_scores product
    scores every alpha, with the product and label rule of predict.
    """
    errs = np.full((len(thetas), len(alphas)), np.nan)
    if scaling is not None:
        scaler = compute_scaling(tr.X, scaling)
        tr, te = (Dataset(scaler.apply(d.X), d.y) for d in (tr, te))
    tables = [estimate_quantile_table(tr, QuantileParams.common(th, tr.p)) for th in thetas]
    if learner == "unit-weights":  # QC's weights are fixed: only p is read
        Q = np.empty((len(tables), 1, 0, tr.p))
    else:
        Q = np.stack([class_transforms(tr.X, table) for table in tables])
    positions = np.searchsorted(tr.class_ids, tr.y)
    X, _ = fit_path(Q, positions, "ridge" if learner == "multiclass-ridge" else learner, alphas)
    for h, table in enumerate(tables):
        pred = labels_from_scores(linear_scores(class_transforms(te.X, table), X[h]),
                                  table.class_ids)
        errs[h] = (pred != te.y).mean(axis=1)
    return errs


def _choose_cell(
    table: np.ndarray, thetas, alphas, learner: str, folds: int
) -> tuple[int, int]:
    """Minimum mean error; ties prefer stronger regularization (larger
    lambda for ridge/lasso, smaller cost for hinge), then theta nearest
    0.5, then grid order.

    table holds means of at most ``folds`` per-fold rates c_t/n_t, so
    cells whose exact means are equal can differ by a few ulps. Such
    cells are tied: a cell counts as a minimum when its error is within
    2 (folds + 1) eps of the smallest one, relative to it. That bounds
    the rounding of a mean of nonnegative terms, and it lies far below
    the smallest real gap between two fold means, 1/(folds n_a n_b) for
    fold sizes n_a, n_b. So with unequal fold sizes an equal total count
    is not a tie. Theta distances are compared after rounding as well,
    so that 0.3 and 0.7 are equally near 0.5.
    """
    if np.all(np.isnan(table)):
        raise TuningError("all cross-validation cells are empty")
    lowest = np.nanmin(table)
    bound = lowest + 2 * (folds + 1) * np.finfo(float).eps * lowest
    best = None
    for h, th in enumerate(thetas):
        for a, al in enumerate(alphas):
            if not table[h, a] <= bound:  # also skips NaN cells
                continue
            if not np.isfinite(al):
                alpha_key = 0.0
            elif learner == "hinge":
                alpha_key = al
            else:
                alpha_key = -al
            key = (alpha_key, round(abs(th - 0.5), 12), h, a)
            if best is None or key < best:
                best = key
    return best[2], best[3]


def tune_and_train(
    train: Dataset,
    grid: TuningGrid,
    learner: str,
    scaling: str | None = None,
):
    """Grid-tune (theta, alpha) by CV misclassification and refit on all data.

    learner is one of 'ridge', 'lasso', 'hinge', 'logistic',
    'unit-weights' (pure QC tuning), 'multiclass-ridge'. Folds missing a
    class in their training part are skipped with a recorded warning; if
    every fold is skipped a TuningError is raised. Returns
    (FittedEqc, CvResult).

    The hinge alpha is a cost (larger = weaker regularization); ridge and
    lasso alphas are penalties (larger = stronger). Cells whose mean
    errors are equal up to rounding are tied, so the tie-break, not the
    summation order, decides; with unequal fold sizes an equal total
    error count is not a tie. Ties at the minimum prefer the stronger
    regularization in both conventions, then theta nearest 0.5. Every fit
    runs the metalearners solvers at their module settings (TOL, MAX_ITER).
    """
    if learner not in LEARNERS:
        raise DomainError(f"unknown learner {learner!r}")
    multiclass = learner == "multiclass-ridge"
    ids = train.class_ids
    if not multiclass and ids.size != 2:
        raise DomainError("binary learners require exactly 2 classes")
    thetas = list(grid.theta_grid)
    alphas = [np.nan] if learner in _ALPHA_FREE else list(grid.alpha_grid)
    folds = make_folds(train.y, grid.folds, grid.stratified, grid.seed)
    per_fold = np.full((grid.folds, len(thetas), len(alphas)), np.nan)
    warnings: list[str] = []
    all_ids = set(int(k) for k in ids)
    for t in range(grid.folds):
        tr = train.subset(folds != t)
        te = train.subset(folds == t)
        if te.n == 0:
            warnings.append(f"fold {t} empty; skipped")
            continue
        if set(int(k) for k in tr.class_ids) != all_ids:
            warnings.append(f"fold {t} training part misses a class; skipped")
            continue
        per_fold[t] = _fold_errors(tr, te, thetas, alphas, learner, scaling)
    if np.all(np.isnan(per_fold)):
        raise TuningError("no fold produced a usable score")
    with np.errstate(invalid="ignore"):
        table = np.nanmean(per_fold, axis=0)
    h, a = _choose_cell(table, thetas, alphas, learner, grid.folds)
    theta_hat, alpha_hat = thetas[h], alphas[a]

    theta = QuantileParams.common(theta_hat, train.p)
    if multiclass:
        model = fit_multiclass_eqc(train, theta, alpha_hat, scaling)
    else:
        model = fit_binary_eqc(train, theta, learner, alpha_hat, scaling)
    result = CvResult(
        np.asarray(thetas), np.asarray(alphas), table, per_fold,
        (theta_hat, alpha_hat), warnings,
    )
    return model, result
