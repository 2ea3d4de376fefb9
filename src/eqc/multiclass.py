"""Multiclass (K > 2) classifier: softmax over quantile-difference features.

One shared weight vector beta plus K-1 intercepts (the last class is the
reference with intercept 0), so only p + K - 1 coefficients. The class-k
logit is -C(Q^{(k,K)}(x)) = beta . (-Q^{(k,K)}(x)) - beta_{0,k}; stacking
the negated transforms as per-observation K x p blocks makes the model a
plain softmax regression in an augmented design, fitted by Newton ascent
on the concave L2-regularized log-likelihood (intercepts unpenalized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, FitError
from .metalearners import SolverConfig, SolverReport
from .quantiles import (
    QuantileParams,
    QuantileTable,
    degenerate_columns,
    estimate_quantile_table,
    quantile_difference_transform,
)
from .binary import VariableScaling, compute_scaling


@dataclass(frozen=True)
class MulticlassCoefficients:
    """Shared weights (length p) and K-1 intercepts; the K-th is fixed at 0."""

    weights: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.intercepts, dtype=float)
        if w.ndim != 1 or b.ndim != 1:
            raise DomainError("weights and intercepts must be vectors")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercepts", b)

    @property
    def n_classes(self) -> int:
        return self.intercepts.size + 1


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


@dataclass(frozen=True)
class FittedMulticlassEqc:
    """Frozen multiclass model."""

    theta: QuantileParams
    table: QuantileTable
    coef: MulticlassCoefficients
    lam: float
    scaling: VariableScaling | None = None
    report: SolverReport | None = None

    def __post_init__(self):
        if self.coef.n_classes != self.table.n_classes:
            raise DomainError("coefficients and table disagree on class count")
        if self.coef.weights.size != self.table.p:
            raise DomainError("weight vector length does not match the table")

    @property
    def class_ids(self) -> np.ndarray:
        return self.table.class_ids


def build_design(data: Dataset, table: QuantileTable,
                 scaling: VariableScaling | None = None) -> MulticlassDesign:
    """Assemble the (n, K, p) blocks and one-hot labels for a dataset."""
    ids = table.class_ids
    if not np.all(np.isin(data.y, ids)):
        raise DomainError("data contains labels missing from the table")
    X = data.X if scaling is None else scaling.apply(data.X)
    n, K = data.n, ids.size
    ref = int(ids[-1])
    blocks = np.zeros((n, K, table.p))
    for k, cid in enumerate(ids[:-1]):
        blocks[:, k, :] = -quantile_difference_transform(X, table, int(cid), ref)
    Y = (data.y[None, :] == ids[:, None]).astype(float)
    return MulticlassDesign(blocks, Y)


def _logits(blocks: np.ndarray, coef: MulticlassCoefficients) -> np.ndarray:
    """(n, K) array of class logits -C_k = blocks . beta - beta_{0,k}."""
    a = blocks @ coef.weights
    a[:, : coef.intercepts.size] -= coef.intercepts
    return a


def class_probabilities(x, table: QuantileTable, coef: MulticlassCoefficients):
    """Softmax class probabilities, overflow-safe via max subtraction.

    Accepts a point (p,) or matrix (n, p); returns (K,) or (n, K) summing
    to 1 along classes.
    """
    if table.n_classes < 2:
        raise DomainError("need at least 2 classes")
    if coef.n_classes != table.n_classes:
        raise DomainError("coefficients and table disagree on class count")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    X = np.atleast_2d(x)
    ids = table.class_ids
    ref = int(ids[-1])
    blocks = np.zeros((X.shape[0], ids.size, table.p))
    for k, cid in enumerate(ids[:-1]):
        blocks[:, k, :] = -quantile_difference_transform(X, table, int(cid), ref)
    a = _logits(blocks, coef)
    a -= a.max(axis=1, keepdims=True)
    e = np.exp(a)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs[0] if squeeze else probs


def _softmax_parts(coef, design: MulticlassDesign):
    a = _logits(design.blocks, coef)
    shift = a.max(axis=1, keepdims=True)
    e = np.exp(a - shift)
    denom = e.sum(axis=1)
    lse = np.log(denom) + shift[:, 0]
    probs = e / denom[:, None]
    return a, lse, probs


def regularized_loglik(coef: MulticlassCoefficients, design: MulticlassDesign,
                       lam: float) -> float:
    """(1/n) sum log P(y_i | x_i) - (lam/2) sum beta_j^2 (intercepts free)."""
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    a, lse, _ = _softmax_parts(coef, design)
    picked = np.sum(design.Y.T * a, axis=1)
    w = coef.weights
    return float(np.mean(picked - lse) - 0.5 * lam * np.sum(w * w))


def loglik_matrix_form(beta: np.ndarray, design: MulticlassDesign) -> float:
    """Intercept-free log-likelihood in stacked-matrix form (not 1/n scaled).

    vec(Y)' Q beta - 1_n . log(B1 exp(Q beta)) with Q the (nK, p) stack of
    blocks. Literal and not overflow-safe; used as the second computation
    path when validating the stable evaluation.
    """
    n, K, p = design.blocks.shape
    Q = design.blocks.reshape(n * K, p)
    vecY = design.Y.T.reshape(n * K)  # row i*K+k matches Y[k, i]
    qb = Q @ beta
    per_obs = np.exp(qb).reshape(n, K).sum(axis=1)
    return float(vecY @ qb - np.sum(np.log(per_obs)))


def loglik_gradient_matrix_form(beta: np.ndarray, design: MulticlassDesign) -> np.ndarray:
    """Intercept-free gradient in stacked-matrix form (not 1/n scaled)."""
    n, K, p = design.blocks.shape
    Q = design.blocks.reshape(n * K, p)
    vecY = design.Y.T.reshape(n * K)
    E = np.exp(Q @ beta)
    A = (design.blocks * E.reshape(n, K)[:, :, None]).sum(axis=1)  # B1 (Q o E1)
    C = E.reshape(n, K).sum(axis=1)
    return vecY @ Q - (A / C[:, None]).sum(axis=0)


def _augmented(design: MulticlassDesign) -> np.ndarray:
    """(n, K, p+K-1) blocks with unpenalized intercept indicator columns."""
    n, K, p = design.blocks.shape
    D = np.zeros((n, K, p + K - 1))
    D[:, :, :p] = design.blocks
    for k in range(K - 1):
        D[:, k, p + k] = -1.0
    return D


def _pack(coef: MulticlassCoefficients) -> np.ndarray:
    return np.concatenate([coef.weights, coef.intercepts])


def _unpack(v: np.ndarray, p: int) -> MulticlassCoefficients:
    return MulticlassCoefficients(v[:p].copy(), v[p:].copy())


def loglik_gradient(coef: MulticlassCoefficients, design: MulticlassDesign,
                    lam: float) -> np.ndarray:
    """Analytic gradient over (weights, intercepts), length p + K - 1."""
    _, _, probs = _softmax_parts(coef, design)
    D = _augmented(design)
    resid = design.Y.T - probs  # (n, K)
    g = np.einsum("ikm,ik->m", D, resid) / design.n
    g[: design.p] -= lam * coef.weights
    return g


def loglik_hessian(coef: MulticlassCoefficients, design: MulticlassDesign,
                   lam: float) -> np.ndarray:
    """Analytic Hessian over (weights, intercepts); negative semi-definite."""
    _, _, probs = _softmax_parts(coef, design)
    D = _augmented(design)
    term1 = np.einsum("ikm,ik,ikl->ml", D, probs, D)
    V = np.einsum("ikm,ik->im", D, probs)
    H = -(term1 - V.T @ V) / design.n
    H[np.arange(design.p), np.arange(design.p)] -= lam
    return H


def fit_on_design(
    design: MulticlassDesign, lam: float, config: SolverConfig = SolverConfig(),
    trace: list | None = None,
) -> tuple[MulticlassCoefficients, SolverReport]:
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
    full = MulticlassCoefficients(weights, coef.intercepts)
    return full, SolverReport(f, max(it, 1), converged, grad_norm)


def fit_multiclass_eqc(
    train: Dataset,
    theta: QuantileParams,
    lam: float,
    config: SolverConfig = SolverConfig(),
    scaling: str | None = None,
) -> FittedMulticlassEqc:
    """Estimate quantiles, assemble the design, and run the Newton fit."""
    ids = train.class_ids
    if ids.size < 2:
        raise FitError("need at least 2 classes")
    scaler = compute_scaling(train.X, scaling) if scaling is not None else None
    fit_data = train if scaler is None else Dataset(scaler.apply(train.X), train.y)
    table = estimate_quantile_table(fit_data, theta)
    design = build_design(train, table, scaler)
    coef, report = fit_on_design(design, lam, config)
    return FittedMulticlassEqc(theta, table, coef, lam, scaler, report)


def multiclass_probabilities(x, model: FittedMulticlassEqc):
    """Class probabilities of a fitted model, its scaling applied first.

    The model's table and coefficients live on the scaled inputs, so this
    is the one entry that turns raw inputs into the probabilities the model
    was tuned and scored on.
    """
    x = np.asarray(x, dtype=float)
    if model.scaling is not None:
        x = model.scaling.apply(x)
    return class_probabilities(x, model.table, model.coef)


def predict_multiclass(x, model: FittedMulticlassEqc):
    """argmax-probability label(s); ties go to the smallest class id."""
    probs = multiclass_probabilities(x, model)
    idx = np.argmax(np.atleast_2d(probs), axis=1)
    out = model.class_ids[idx]
    return int(out[0]) if np.asarray(x).ndim == 1 else out
