"""Multiclass fit: softmax over quantile-difference features.

One shared weight vector w plus K-1 intercepts (the last class is the
reference with intercept 0), so only p + K - 1 coefficients. Class k
scores S_k = b_k + w . Q^{(k,K)}(x) against the reference and has logit
-S_k. The design is the stack Q of the K-1 transforms that
`binary.class_transforms` returns, with the position of each label among
the class ids. The fit minimizes the mean negative log-likelihood plus
(lam/2)||w||^2 (intercepts unpenalized): it is the ridge learner of
`metalearners.fit_path`, fitted on a CV fold's stack of designs or on one.

The fit is a FittedEqc of kind 'multiclass-ridge' for any K >= 2. It
scores and labels by the rule of `binary`: the logits are [-S | 0], so
its class probabilities are their softmax, and at K = 2 its labels are
those of the binary discriminant.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import DomainError, FitError
from .metalearners import Coefficients, SolverReport, fit_path
from .quantiles import QuantileParams, QuantileTable, estimate_quantile_table
from .binary import (
    FittedEqc,
    class_transforms,
    compute_scaling,
    eqc_scores,
    labels_from_scores,
)


def build_design(data: Dataset, table: QuantileTable) -> tuple[np.ndarray, np.ndarray]:
    """The class transforms and label positions of a dataset: the design.

    data is in the table's units (scaled, for a scaled fit). Q[k, i] =
    Q^{(k,K)}(x_i), shape (K-1, n, p), as class_transforms gives them;
    positions[i] is the index of x_i's class in the table's class ids, so
    K-1 marks the reference class.
    """
    ids = table.class_ids
    if not np.all(np.isin(data.y, ids)):
        raise DomainError("data contains labels missing from the table")
    positions = np.searchsorted(ids, data.y)
    return class_transforms(data.X, table), positions


def fit_on_design(Q: np.ndarray, positions: np.ndarray,
                  lam: float) -> tuple[Coefficients, SolverReport]:
    """Fit the softmax to the design (Q, positions): metalearners.fit_path's
    ridge fit at lam (positive and finite) on this one design.

    Returns the coefficients of fit_path's one solution row and the report
    of that point, whose final_loss is the penalized mean negative
    log-likelihood; columns constant within every class transform get
    weight exactly 0; at K = 2 this is the binary ridge fit, which fit_path
    solves through metalearners._fit_logistic_newton. A function of its own
    only because the benchmark traces it as a layer apart from that entry.
    """
    (x,), [[report]] = fit_path(Q[None], positions, "ridge", [lam])
    return Coefficients(x[0, :len(Q)], x[0, len(Q):]), report


def fit_multiclass_eqc(
    train: Dataset,
    theta: QuantileParams,
    lam: float,
    scaling: str | None = None,
) -> FittedEqc:
    """Estimate quantiles, assemble the design, and run the Newton fit; train
    is in raw units and scaled once, as in binary.fit_binary_eqc."""
    ids = train.class_ids
    if ids.size < 2:
        raise FitError("need at least 2 classes")
    scaler = compute_scaling(train.X, scaling) if scaling is not None else None
    train = train if scaler is None else Dataset(scaler.apply(train.X), train.y)
    table = estimate_quantile_table(train, theta)
    coef, report = fit_on_design(*build_design(train, table), lam)
    return FittedEqc(theta, table, coef, "multiclass-ridge", scaler, report)


def probabilities_from_scores(scores) -> np.ndarray:
    """Softmax of [-S | 0] along the last axis, overflow-safe.

    The class-k logit is -S_k; the reference class has logit 0. Rows sum
    to 1 along the classes.
    """
    s = np.asarray(scores, dtype=float)
    a = np.concatenate([-s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def class_probabilities(x, model: FittedEqc) -> np.ndarray:
    """Class probabilities of raw inputs, the model's scaling applied first.

    Accepts a point (p,) or a matrix (n, p); returns (K,) or (n, K).
    """
    return probabilities_from_scores(eqc_scores(x, model))


def predict_multiclass(x, model: FittedEqc):
    """Label(s) by the shared score rule; ties go to the smallest class id."""
    out = labels_from_scores(eqc_scores(x, model), model.class_ids)
    return int(out) if out.ndim == 0 else out
