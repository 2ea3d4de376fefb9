"""Multiclass fit: softmax over quantile-difference features.

One shared weight vector beta plus K-1 intercepts (the last class is the
reference with intercept 0), so only p + K - 1 coefficients. The class-k
logit is -C(Q^{(k,K)}(x)) = beta . (-Q^{(k,K)}(x)) - beta_{0,k}; stacking
the negated transforms as per-observation K x p blocks makes the model a
plain softmax regression in an augmented design, fitted by Newton ascent
on the concave L2-regularized log-likelihood (intercepts unpenalized).

The fit is a FittedEqc of kind 'multiclass-ridge' for any K >= 2. It
scores and labels by the rule of `binary`: the logits are [-S | 0], so
its class probabilities are their softmax, and at K = 2 its labels are
those of the binary discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, FitError
from .metalearners import Coefficients, SolverConfig, SolverReport
from .quantiles import QuantileParams, QuantileTable, degenerate_columns, estimate_quantile_table
from .binary import (
    FittedEqc,
    VariableScaling,
    class_transforms,
    compute_scaling,
    eqc_scores,
    labels_from_scores,
)


@dataclass(frozen=True)
class MulticlassDesign:
    """Per-observation negated-transform blocks plus one-hot labels.

    blocks[i, k] = -Q^{(k,K)}(x_i); row K-1 (the reference class) is
    exactly zero. Y is the K x n one-hot indicator.
    """

    blocks: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if blocks.ndim != 3:
            raise DomainError("blocks must have shape (n, K, p)")
        n, K, _ = blocks.shape
        if Y.shape != (K, n):
            raise DomainError("Y must have shape (K, n)")
        if not np.allclose(Y.sum(axis=0), 1.0):
            raise DomainError("each Y column must sum to 1")
        if np.any(blocks[:, K - 1, :] != 0.0):
            raise DomainError("reference-class rows must be exactly zero")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_classes(self) -> int:
        return self.blocks.shape[1]

    @property
    def p(self) -> int:
        return self.blocks.shape[2]


def build_design(data: Dataset, table: QuantileTable,
                 scaling: VariableScaling | None = None) -> MulticlassDesign:
    """Assemble the (n, K, p) blocks and one-hot labels for a dataset."""
    ids = table.class_ids
    if not np.all(np.isin(data.y, ids)):
        raise DomainError("data contains labels missing from the table")
    Q = class_transforms(data.X, table, scaling)
    blocks = np.zeros((data.n, ids.size, table.p))
    blocks[:, :-1, :] = -Q.transpose(1, 0, 2)
    Y = (data.y[None, :] == ids[:, None]).astype(float)
    return MulticlassDesign(blocks, Y)


def _logits(blocks: np.ndarray, coef: Coefficients) -> np.ndarray:
    """(n, K) array of class logits -C_k = blocks . beta - beta_{0,k}."""
    a = blocks @ coef.weights
    a[:, : coef.intercepts.size] -= coef.intercepts
    return a


def _softmax_parts(coef: Coefficients, blocks: np.ndarray):
    """Logits, their log-sum-exp and the class probabilities of blocks."""
    a = _logits(blocks, coef)
    shift = a.max(axis=1, keepdims=True)
    e = np.exp(a - shift)
    denom = e.sum(axis=1)
    lse = np.log(denom) + shift[:, 0]
    probs = e / denom[:, None]
    return a, lse, probs


def regularized_loglik(coef: Coefficients, design: MulticlassDesign,
                       lam: float) -> float:
    """(1/n) sum log P(y_i | x_i) - (lam/2) sum beta_j^2 (intercepts free)."""
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    a, lse, _ = _softmax_parts(coef, design.blocks)
    picked = np.sum(design.Y.T * a, axis=1)
    w = coef.weights
    return float(np.mean(picked - lse) - 0.5 * lam * np.sum(w * w))


def _augmented(design: MulticlassDesign) -> np.ndarray:
    """(n, K, p+K-1) blocks with unpenalized intercept indicator columns."""
    n, K, p = design.blocks.shape
    D = np.zeros((n, K, p + K - 1))
    D[:, :, :p] = design.blocks
    for k in range(K - 1):
        D[:, k, p + k] = -1.0
    return D


def _pack(coef: Coefficients) -> np.ndarray:
    return np.concatenate([coef.weights, coef.intercepts])


def _unpack(v: np.ndarray, p: int) -> Coefficients:
    return Coefficients(v[p:].copy(), v[:p].copy())


def loglik_gradient(coef: Coefficients, design: MulticlassDesign,
                    lam: float) -> np.ndarray:
    """Analytic gradient over (weights, intercepts), length p + K - 1."""
    _, _, probs = _softmax_parts(coef, design.blocks)
    D = _augmented(design)
    resid = design.Y.T - probs  # (n, K)
    g = np.einsum("ikm,ik->m", D, resid) / design.n
    g[: design.p] -= lam * coef.weights
    return g


def loglik_hessian(coef: Coefficients, design: MulticlassDesign,
                   lam: float) -> np.ndarray:
    """Analytic Hessian over (weights, intercepts); negative semi-definite."""
    _, _, probs = _softmax_parts(coef, design.blocks)
    D = _augmented(design)
    term1 = np.einsum("ikm,ik,ikl->ml", D, probs, D)
    V = np.einsum("ikm,ik->im", D, probs)
    H = -(term1 - V.T @ V) / design.n
    H[np.arange(design.p), np.arange(design.p)] -= lam
    return H


def fit_on_design(
    design: MulticlassDesign, lam: float, config: SolverConfig = SolverConfig(),
    trace: list | None = None,
) -> tuple[Coefficients, SolverReport]:
    """Newton ascent with backtracking on the concave objective.

    Falls back to a gradient step whenever the Newton direction is not an
    ascent direction. Feature columns whose blocks are identically zero
    (degenerate transforms) are dropped for the solve and refilled with
    zero weights. trace, when given, collects the objective after every
    accepted step.
    """
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    drop = degenerate_columns(design.blocks.reshape(-1, design.p))
    slim = MulticlassDesign(design.blocks[:, :, ~drop], design.Y)

    p_eff = slim.p
    K = slim.n_classes
    v = np.zeros(p_eff + K - 1)
    coef = _unpack(v, p_eff)
    f = regularized_loglik(coef, slim, lam)
    if trace is not None:
        trace.append(f)
    converged = False
    grad_norm = np.inf
    it = 0
    for it in range(1, config.max_iter + 1):
        g = loglik_gradient(coef, slim, lam)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm < config.tol:
            converged = True
            break
        H = loglik_hessian(coef, slim, lam)
        try:
            d = np.linalg.solve(H - 1e-12 * np.eye(H.shape[0]), -g)
        except np.linalg.LinAlgError:
            d = g
        if g @ d <= 0:
            d = g
        step = 1.0
        gd = g @ d
        accepted = False
        while step > 1e-14:
            cand = _unpack(v + step * d, p_eff)
            f_new = regularized_loglik(cand, slim, lam)
            if f_new >= f + config.armijo * step * gd:
                accepted = True
                break
            step *= config.backtrack
        if not accepted:
            break
        v = v + step * d
        coef = _unpack(v, p_eff)
        f = f_new
        if trace is not None:
            trace.append(f)

    weights = np.zeros(design.p)
    weights[~drop] = coef.weights
    full = Coefficients(coef.intercepts, weights)
    return full, SolverReport(f, max(it, 1), converged, grad_norm)


def fit_multiclass_eqc(
    train: Dataset,
    theta: QuantileParams,
    lam: float,
    config: SolverConfig = SolverConfig(),
    scaling: str | None = None,
) -> FittedEqc:
    """Estimate quantiles, assemble the design, and run the Newton fit."""
    ids = train.class_ids
    if ids.size < 2:
        raise FitError("need at least 2 classes")
    scaler = compute_scaling(train.X, scaling) if scaling is not None else None
    fit_data = train if scaler is None else Dataset(scaler.apply(train.X), train.y)
    table = estimate_quantile_table(fit_data, theta)
    design = build_design(train, table, scaler)
    coef, report = fit_on_design(design, lam, config)
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
