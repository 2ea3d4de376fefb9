"""The EQC linear model, and binary discriminants on quantile differences.

The plain quantile classifier (QC) sums the transformed features with
unit weights; its theta = 0.5 special case is the median classifier (MC).
The ensemble variants (EQC) learn an intercept and weights with one of
the regularized metalearners, which recovers QC exactly at unit weights
and zero intercept. A fitted model is an immutable bundle of quantile
parameters, quantile table, coefficients, and optional pre-scaling.

One model type serves every class count K >= 2, the multiclass fits of
`multiclass` included. It scores a point against the last class by
S_k = b_k + w . Q^{(k,K)}(x), k < K, and labels it with the argmin of
[S | 0]. For K = 2 that is the binary discriminant and its s <= 0 rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, FitError
from .metalearners import Coefficients, SolverReport, fit_path
from .quantiles import (
    QuantileParams,
    QuantileTable,
    estimate_quantile_table,
    quantile_difference_transform,
)

METALEARNER_KINDS = (
    "ridge", "lasso", "hinge", "logistic", "unit-weights", "oracle", "multiclass-ridge",
)


@dataclass(frozen=True)
class VariableScaling:
    """Per-variable (center, scale) applied before transformation."""

    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.scale, dtype=float)
        if c.shape != s.shape or c.ndim != 1:
            raise DomainError("center and scale must be vectors of equal length")
        if np.any(s <= 0) or not np.all(np.isfinite(s)) or not np.all(np.isfinite(c)):
            raise DomainError("scales must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "scale", s)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.center) / self.scale


def compute_scaling(X: np.ndarray, method: str) -> VariableScaling:
    """Training-set scaling: 'sd' (mean/sd) or 'mad' (median/1.4826*MAD).

    Zero spreads fall back to scale 1 so constant columns stay well-defined.
    """
    X = np.asarray(X, dtype=float)
    if method == "sd":
        center = X.mean(axis=0)
        scale = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.ones(X.shape[1])
    elif method == "mad":
        center = np.median(X, axis=0)
        scale = 1.4826 * np.median(np.abs(X - center), axis=0)
    else:
        raise DomainError(f"unknown scaling method {method!r}")
    scale = np.where(scale > 0, scale, 1.0)
    return VariableScaling(center, scale)


@dataclass(frozen=True)
class FittedEqc:
    """Frozen linear model for K >= 2 classes: everything prediction needs.

    kind names the metalearner that fitted coef. The binary ones need
    K = 2; 'multiclass-ridge' takes any K.
    """

    theta: QuantileParams
    table: QuantileTable
    coef: Coefficients
    kind: str
    scaling: VariableScaling | None = None
    report: SolverReport | None = None

    def __post_init__(self):
        if self.kind not in METALEARNER_KINDS:
            raise DomainError(f"unknown metalearner kind {self.kind!r}")
        K = self.table.n_classes
        if self.kind != "multiclass-ridge" and K != 2:
            raise DomainError(f"{self.kind} model requires a 2-class quantile table")
        if self.coef.n_classes != K:
            raise DomainError(f"a {K}-class model needs {K - 1} intercepts")
        if self.coef.weights.size != self.table.p:
            raise DomainError("weight vector length does not match the table")
        if self.scaling is not None and self.scaling.center.size != self.table.p:
            raise DomainError("scaling length does not match the table")

    @property
    def class_ids(self) -> np.ndarray:
        return self.table.class_ids


def qc_discriminant(x, table: QuantileTable):
    """Unit-weight sum of transformed features; class 1 when <= 0.

    At theta = 0.5 this is the median classifier's discriminant
    sum_j (|x_j - m_1j| - |x_j - m_2j|) / 2.
    """
    if table.n_classes != 2:
        raise DomainError("QC requires exactly 2 classes")
    k1, k2 = table.class_ids
    z = quantile_difference_transform(x, table, int(k1), int(k2))
    # accumulate exactly like the weighted discriminant so the
    # unit-weight reduction identity is bit-exact
    return z @ np.ones(table.p)


def class_transforms(x, table: QuantileTable | list[QuantileTable]):
    """The K-1 transforms Q^(k,K)(x) against the last class, on the class axis.

    x is a point (p,) or a matrix (n, p) in the table's units (scaled, for
    a scaled fit); the result has shape (K-1,) + x.shape. For K = 2 its one
    entry is the binary transform, first class against second. table may
    also be a theta stack, a list of H tables over the same classes (as
    estimate_quantile_table returns for a sequence of levels); the result
    then has shape (H, K-1) + x.shape, from one transform call per class.
    """
    one = isinstance(table, QuantileTable)
    ids = (table if one else table[0]).class_ids
    ref = int(ids[-1])
    return np.stack([quantile_difference_transform(x, table, int(k), ref) for k in ids[:-1]],
                    axis=0 if one else 1)


def eqc_scores(x, model: FittedEqc) -> np.ndarray:
    """Scores S[..., k] = b_k + w . Q^(k,K)(x) of raw inputs, scaling applied.

    x is in raw units; the model's scaling, if any, is applied here. Shape
    (n, K-1) for a matrix, (K-1,) for a point.
    """
    x = x if model.scaling is None else model.scaling.apply(x)
    return model.coef.scores(class_transforms(x, model.table))


def eqc_discriminant(x, model: FittedEqc):
    """Intercept plus weighted sum of transformed (optionally scaled) inputs.

    The score of a 2-class model; class 1 when <= 0.
    """
    if model.table.n_classes != 2:
        raise DomainError("the discriminant is defined for 2-class models")
    return eqc_scores(x, model).T[0]  # the one column; a float for a point


def labels_from_scores(scores, class_ids) -> np.ndarray:
    """Labels from scores: the one rule that CV and predict share.

    The label is the argmin of [S | 0] along the last axis, ties going to
    the smallest class id; the appended 0 is the reference class. For K = 2
    that sends s <= 0, the tie included, to the first class.
    """
    s = np.asarray(scores)
    full = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
    return class_ids[np.argmin(full, axis=-1)]


def predict_binary(x, model: FittedEqc):
    """Class label(s); the tie s = 0 goes to the first class."""
    out = labels_from_scores(eqc_scores(x, model), model.class_ids)
    return int(out) if out.ndim == 0 else out


def fit_binary_eqc(
    train: Dataset,
    theta: QuantileParams,
    learner: str,
    alpha: float = np.nan,
    scaling: str | None = None,
) -> FittedEqc:
    """Estimate quantiles on train, transform, and fit the metalearner.

    learner and alpha are fit_path's: 'ridge' or 'lasso' with the penalty
    lambda, 'hinge' with the cost, or 'logistic' (unregularized logistic
    regression) and 'unit-weights' (pure QC: intercept 0, weights 1, no
    solver), which ignore alpha. Constant transformed columns get weight
    exactly 0. EMC is this with theta fixed at 0.5 and a ridge penalty.

    train is in raw units. A scaling ('sd' or 'mad') is computed from it
    and applied once: the table and the transforms are in scaled units,
    and the model scales what it scores. Both classes must be present, at
    any size.
    """
    ids = train.class_ids
    if ids.size != 2:
        raise FitError(f"binary fit requires exactly 2 classes, got {ids.size}")
    scaler = compute_scaling(train.X, scaling) if scaling is not None else None
    train = train if scaler is None else Dataset(scaler.apply(train.X), train.y)
    table = estimate_quantile_table(train, theta)

    if learner == "unit-weights":
        Q = np.empty((1, 0, train.p))  # QC's weights are fixed: only p is read
    else:
        Q = class_transforms(train.X, table)
    X, reports = fit_path(Q[None], np.searchsorted(ids, train.y), learner, [alpha])
    return FittedEqc(theta, table, Coefficients(X[0, 0, :1], X[0, 0, 1:]), learner, scaler,
                     None if reports is None else reports[0][0])


def oracle_classifier(pop, rescaled: bool = False) -> FittedEqc:
    """Bayes-optimal model for an asymmetric Laplace population.

    Assembles the closed-form parameters into a FittedEqc; with
    rescaled=True the matching per-coordinate (0, sd) scaling is attached
    so the discriminant is unchanged.
    """
    from .asymlaplace import al_oracle_coefficients

    theta, coef, table = al_oracle_coefficients(pop, rescaled=rescaled)
    scaler = None
    if rescaled:
        sd = np.array([a.sd for a in pop.class1])
        scaler = VariableScaling(np.zeros(pop.p), sd)
    return FittedEqc(theta, table, coef, "oracle", scaler, None)
