"""Metalearners over transformed features.

Convex objectives on the class transforms of a design, a matrix Z (n x p)
with labels y in {1, 2} for the binary learners:

* the softmax deviance with one shared weight vector, for any K >= 2
  classes, ridge- or lasso-penalized, minimized by the one damped Newton
  solver (proximal Newton for the lasso). At K = 2 it is the binomial
  deviance of the ridge, logistic (lambda = 0), EMC and lasso learners;
  the multiclass-ridge fit of `multiclass` uses it at any K,
* L2-regularized linear hinge loss (a linear C-SVM), minimized exactly by
  SMO on its dual; the report carries the duality gap as a certificate.

The intercepts are never penalized. Labels enter the binomial losses as
y - 1 in {0, 1} and the hinge loss through the margin labels
2(y - 1) - 1 in {-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FitError
from .quantiles import degenerate_columns

VALID_PENALTIES = ("ridge", "lasso", "hinge")

# Solver settings, deliberately strict; the solvers read them at call time.
# TOL is the threshold on the minimum-norm subgradient norm for Newton
# (ridge, logistic, EMC, multiclass-ridge and lasso; the gradient norm
# without the lasso penalty) and the maximal KKT violation of the hinge
# dual at which SMO stops. MAX_ITER bounds the Newton steps; on n
# observations the hinge solver may make MAX_ITER * n pair updates.
# ARMIJO (the sufficient-decrease fraction) and BACKTRACK (the step shrink
# factor) set the Newton line search, the lasso's too; SMO ignores them.
TOL = 1e-8
MAX_ITER = 500
ARMIJO = 1e-4
BACKTRACK = 0.5


@dataclass(frozen=True)
class Coefficients:
    """K-1 intercepts plus one shared weight vector of a linear model.

    Class k (all but the last) scores b_k + w . Q^(k,K)(x) against the
    last class, the reference. A binary model has one intercept; a scalar
    is taken as that one.
    """

    intercepts: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if b.ndim != 1 or b.size == 0 or w.ndim != 1:
            raise DomainError("intercepts and weights must be non-empty vectors")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(w))):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "intercepts", b)
        object.__setattr__(self, "weights", w)

    @property
    def n_classes(self) -> int:
        return self.intercepts.size + 1

    def scores(self, Q) -> np.ndarray:
        """Scores b_k + Q[k] . w of the K-1 transforms stacked on axis 0.

        Q has shape (K-1, n, p) or (K-1, p); the scores have the classes on
        the last axis, shape (n, K-1) or (K-1,). Each class is one product
        of its own transform, so K = 2 gives exactly b + Z . w.
        """
        Q = np.asarray(Q, dtype=float)
        if Q.shape[0] != self.intercepts.size:
            raise DomainError("transform count does not match the intercepts")
        return np.stack([b + Qk @ self.weights for b, Qk in zip(self.intercepts, Q)],
                        axis=-1)


@dataclass(frozen=True)
class SolverReport:
    """What a solve reached.

    final_loss is the objective the solver minimizes, at the returned
    coefficients: the penalized mean negative log-likelihood (Newton, every
    K, and lasso; the penalized binomial deviance at K = 2) or hinge_loss
    (hinge). iterations counts Newton steps (proximal Newton steps for the
    lasso) or hinge pair updates; converged is True only when the stopping
    rule, at TOL, was met within the MAX_ITER budget (and, for an
    unpenalized Newton fit at K = 2, when the fit does not separate the
    classes).
    grad_norm_at_exit is the norm of the last
    minimum-norm subgradient, the gradient itself without the lasso penalty
    (Newton and lasso), or the duality gap in hinge_loss units (hinge).
    """

    final_loss: float
    iterations: int
    converged: bool
    grad_norm_at_exit: float


def _check_design(Z, y) -> tuple[np.ndarray, np.ndarray]:
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y)
    if Z.ndim != 2:
        raise DomainError("Z must be a matrix")
    if y.shape != (Z.shape[0],):
        raise DomainError(
            f"labels have shape {y.shape}, expected ({Z.shape[0]},)"
        )
    if not np.all(np.isin(y, (1, 2))):
        raise DomainError("labels must be in {1, 2}")
    return Z, y.astype(int)


def _require_both_labels(y):
    if np.unique(y).size < 2:
        raise FitError("both labels must be present to fit a metalearner")


def _softmax_terms(Q, Y, lam, x):
    """Objective of the shared-weight softmax at x, and two functions that
    give its gradient and its Hessian over x there.

    Q is the (K-1, n, p) stack of class transforms against the reference
    class K, Y the (K-1, n) indicators of the classes 1..K-1, and x holds
    the intercepts b_1..b_{K-1} and then the shared weights w. Class k < K
    scores S_k = b_k + Q_k w and has logit -S_k; the reference has logit 0.
    The objective is the mean negative log-likelihood plus (lam/2)||w||^2,
    the intercepts unpenalized; at K = 2 it is the binomial deviance of
    b + Z w with the second class as the event. Its Hessian over the scores
    is A_kl = P_k ([k = l] - P_l) per observation, so the weight block sums
    one product Q_k' diag(A_kl) Q_l per class pair, one product at K = 2.
    The scores are computed once; the derivatives are formed on call.
    """
    m, n, p = Q.shape
    F = Q.reshape(m * n, p)
    b, w = x[:m], x[m:]
    S = (F @ w).reshape(m, n) + b[:, None]
    lse = np.logaddexp.reduce(-S, axis=0, initial=0.0)  # log(1 + sum_k e^{-S_k})
    f = float((lse + (Y * S).sum(axis=0)).sum() / n + 0.5 * lam * (w * w).sum())

    def gradient():
        R = (Y - np.exp(-S - lse)) / n  # over the scores, per observation
        return np.concatenate((R.sum(axis=1), F.T @ R.ravel() + lam * w))

    def hessian():
        P = np.exp(-S - lse)  # probabilities of the classes 1..K-1
        A = P[:, None] * (np.eye(m)[:, :, None] - P) / n  # A[k, l] = A_kl / n
        Hbw = A.reshape(m, m * n) @ F
        Hww = np.zeros((p, p))
        for k in range(m):
            for l in range(k, m):  # A is symmetric in (k, l)
                T = (Q[k] * A[k, l][:, None]).T @ Q[l]
                Hww += T if k == l else T + T.T
        Hww.flat[:: p + 1] += lam
        H = np.empty((m + p, m + p))
        H[:m, :m] = A.sum(axis=2)
        H[:m, m:] = Hbw
        H[m:, :m] = Hbw.T
        H[m:, m:] = Hww
        return H

    return f, gradient, hessian


def _softmax_newton(
    Q: np.ndarray,
    Y: np.ndarray,
    lam: float,
    x0: np.ndarray | None = None,
    l1: float = 0.0,
) -> tuple[Coefficients, SolverReport]:
    """Damped Newton on the shared-weight softmax of _softmax_terms.

    The one Newton solver: ridge, logistic, EMC and lasso at K = 2, and
    multiclass-ridge at any K >= 2. Each step solves the Newton system,
    falls back to the gradient when that gives no descent direction, and
    backtracks to the Armijo condition. With lam = 0 (plain logistic
    regression) separable data has no minimizer: the weights grow along a
    separating direction until the gradient norm falls below TOL, or until
    MAX_ITER steps are spent (converged=False).

    With l1 > 0 (the lasso, at lam = 0) the objective gains (l1/2)||w||_1
    and the loop is proximal Newton (Lee, Sun & Saunders, SIAM J. Optim.
    2014): _l1_newton_step minimizes the model, and the Armijo test runs on
    the penalized objective. The solve stops when the minimum-norm
    subgradient (the gradient at l1 = 0) has norm below TOL.
    """
    m, _, p = Q.shape
    t = 0.5 * l1

    def penalty(v):
        return t * float(np.abs(v[m:]).sum()) if l1 else 0.0

    x = np.zeros(m + p) if x0 is None else x0.astype(float).copy()
    f, gradient, hessian = _softmax_terms(Q, Y, lam, x)
    f += penalty(x)
    grad_norm = np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        g = gradient()
        grad_norm = float(np.linalg.norm(_min_norm_subgradient(g, x, m, t) if l1 else g))
        if grad_norm < TOL:
            return _unpack(x, m), SolverReport(f, it, True, grad_norm)
        H = hessian()
        H.flat[:: m + p + 1] += 1e-12
        if l1:
            d = _l1_newton_step(H, g, x, m, t)
            gd = g @ d + penalty(x + d) - penalty(x)
        else:
            try:
                d = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                d = -g
            if g @ d >= 0:  # not a descent direction; fall back to gradient
                d = -g
            gd = g @ d

        step = 1.0
        accepted = False
        while step > 1e-14:
            x_new = x + step * d
            f_new, gradient_new, hessian_new = _softmax_terms(Q, Y, lam, x_new)
            f_new += penalty(x_new)
            if f_new <= f + ARMIJO * step * gd:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            break
        x, f, gradient, hessian = x_new, f_new, gradient_new, hessian_new
    return _unpack(x, m), SolverReport(f, max(it, 1), False, grad_norm)


def _min_norm_subgradient(g, x, m, t):
    """Least-norm subgradient of f + t||w||_1 at x; g is the gradient of f."""
    w, gw = x[m:], g[m:]
    shrunk = np.sign(gw) * np.maximum(np.abs(gw) - t, 0.0)
    return np.concatenate((g[:m], np.where(w != 0.0, gw + t * np.sign(w), shrunk)))


def _l1_newton_step(H, g, x, m, t):
    """Minimizer d of the model g.d + d'Hd/2 + t||w + d_w||_1, for z = x + d.

    Each round is one cyclic coordinate-descent sweep (exact in each
    coordinate, soft-thresholding the weights), then one Newton step on the
    model over the orthant the sweep left, where it is quadratic: zero
    weights stay zero, the others keep their signs, and the step stops at
    the first weight that reaches zero, so no round raises the model. The
    solve stops when a sweep moves no coordinate by TOL or more, or after
    MAX_ITER rounds.
    """
    z = x.tolist()
    d = np.zeros(x.size)
    rows, gl, diag = list(H), g.tolist(), H.diagonal().tolist()
    for _ in range(MAX_ITER):
        largest = 0.0
        for i in range(x.size):
            # g[i] + H[i] . d is the model's smooth slope in coordinate i
            zi = z[i] - (gl[i] + float(rows[i] @ d)) / diag[i]
            if i >= m:
                a = abs(zi) - t / diag[i]
                zi = 0.0 if a <= 0.0 else (a if zi > 0.0 else -a)
            move = zi - z[i]
            if move != 0.0:
                z[i] = zi
                d[i] += move
                largest = max(largest, abs(move))
        if largest < TOL:
            break
        zv = np.array(z)
        s = np.sign(zv)
        s[:m] = 0.0
        F = np.concatenate((np.arange(m), np.flatnonzero(s)))  # the free coordinates
        step = np.linalg.solve(H[np.ix_(F, F)], -(g[F] + H[F] @ d + t * s[F]))
        ratios = np.divide(-zv[F], step, out=np.full(F.size, np.inf),
                           where=s[F] * step < 0.0)  # where each weight reaches zero
        tau = min(1.0, ratios.min())
        zv[F] += tau * step
        zv[F[ratios <= tau]] = 0.0
        z = zv.tolist()
        d = zv - x
    return np.array(z) - x


def _fit_logistic_newton(
    Z: np.ndarray,
    y01: np.ndarray,
    lam: float,
    x0: np.ndarray | None = None,
) -> tuple[Coefficients, SolverReport]:
    """The Newton solver at K = 2: ridge on Z and y01 in {0, 1}; lam may be 0.

    At lam = 0 a fit whose every training margin is positive has found a
    separating hyperplane, a certificate that no minimizer exists (Albert &
    Anderson 1984), and reports converged=False whatever its gradient norm.
    An entry of its own, apart from multiclass.fit_on_design, because the
    benchmark traces the two as separate layers.
    """
    coef, report = _softmax_newton(Z[None], (1.0 - y01)[None], lam, x0)
    if lam == 0 and np.all((2.0 * y01 - 1.0) * coef.scores(Z[None])[:, 0] > 0.0):
        report = replace(report, converged=False)
    return coef, report


def _unpack(x: np.ndarray, m: int = 1) -> Coefficients:
    return Coefficients(x[:m].copy(), x[m:].copy())


def _fit_lasso_prox(
    Z: np.ndarray,
    y01: np.ndarray,
    lam: float,
    x0: np.ndarray | None = None,
) -> tuple[Coefficients, SolverReport]:
    """The Newton solver at K = 2 with the lasso penalty (lam/2)||w||_1.

    Named apart from _fit_logistic_newton because the benchmark traces the
    lasso solves as a layer of their own.
    """
    return _softmax_newton(Z[None], (1.0 - y01)[None], 0.0, x0, l1=lam)


def hinge_loss(coef: Coefficients, cost: float, Z, y) -> float:
    """Regularized hinge loss (1/n) sum [1 - m_i]_+ + ||beta||^2 / (2 n c).

    m_i is the margin (2(y_i-1)-1) * (beta_0 + beta . z_i).
    """
    if not (np.isfinite(cost) and cost > 0):
        raise DomainError("cost must be positive")
    Z, y = _check_design(Z, y)
    if coef.weights.size != Z.shape[1]:
        raise DomainError("coefficient dimension does not match Z")
    s = 2.0 * (y - 1.0) - 1.0
    margins = s * coef.scores(Z[None])[:, 0]
    n = Z.shape[0]
    return float(
        np.mean(np.maximum(0.0, 1.0 - margins))
        + np.sum(coef.weights**2) / (2.0 * n * cost)
    )


def fit_linear_svm(Z, y, cost: float) -> tuple[Coefficients, SolverReport]:
    """Exact minimizer of hinge_loss: SMO on the dual of the C-SVM.

    n * cost * hinge_loss is the C-SVM primal 1/2 ||w||^2 + C sum_i xi_i
    with C = cost and an unpenalized intercept. Its dual, maximize
    sum(alpha) - 1/2 ||sum_i alpha_i s_i z_i||^2 subject to
    0 <= alpha <= C and s . alpha = 0 (s the margin labels), is solved by
    SMO pair updates (Platt 1998), each pair chosen by second-order
    working-set selection (Fan, Chen & Lin, JMLR 2005). The solve stops
    when the maximal KKT violation m(alpha) - M(alpha) is at most TOL,
    within a budget of MAX_ITER * n pair updates.
    Then w = sum_i alpha_i s_i z_i, and the intercept is the midpoint of
    the exact minimizers of the primal given w, found by sorting the n
    hinge breakpoints. Deterministic: ties go to the lowest index.

    The report holds the primal objective in hinge_loss units, the number
    of pair updates, converged=True only when the stop rule was met
    within the budget, and in grad_norm_at_exit the duality gap (primal
    minus dual objective) in hinge_loss units, a bound on how far the
    returned objective can be above the optimum. Memory is O(n^2) for
    the Gram matrix.
    """
    if not (np.isfinite(cost) and cost > 0):
        raise DomainError("cost must be positive")
    Z, y = _check_design(Z, y)
    _require_both_labels(y)
    n = Z.shape[0]
    s = 2.0 * (y - 1.0) - 1.0
    pos = s > 0
    C = float(cost)
    K = Z @ Z.T
    d = np.diag(K)
    # 1 / (K_ii + K_jj - 2 K_ij): the inverse curvature of the dual along
    # pair (i, j), floored as in LIBSVM where the pair is flat
    inv_curv = 1.0 / np.maximum(d[:, None] + d[None, :] - 2.0 * K, 1e-12)

    # v = -s * (gradient of 1/2 a'Qa - sum(a)). Moving alpha_i by +s_i t and
    # alpha_j by -s_j t keeps s . alpha = 0 and raises the dual at rate
    # v_i - v_j. off_up is 0 where alpha_i can move by +s_i (I_up: s = +1
    # below C, s = -1 above 0) and -inf elsewhere; off_low is 0 where alpha_j
    # can move by -s_j (I_low) and +inf elsewhere.
    v = s.copy()
    off_up = np.where(pos, 0.0, -np.inf)
    off_low = np.where(pos, np.inf, 0.0)
    alpha = [0.0] * n
    is_pos = pos.tolist()
    budget = MAX_ITER * n
    updates = 0
    converged = False
    while True:
        v_up = v + off_up
        i = int(v_up.argmax())
        rise = float(v_up[i]) - (v + off_low)  # m(alpha) - v_j on I_low
        if rise.max() <= TOL:  # m(alpha) - M(alpha)
            converged = True
            break
        if updates == budget:
            break
        gain = np.maximum(rise, 0.0)
        gain *= gain
        gain *= inv_curv[i]
        j = int(gain.argmax())
        room_i = C - alpha[i] if is_pos[i] else alpha[i]
        room_j = alpha[j] if is_pos[j] else C - alpha[j]
        t = min(float(rise[j] * inv_curv[i, j]), room_i, room_j)
        # written from the far bound so that t = room lands exactly on it
        alpha[i] = C - (room_i - t) if is_pos[i] else room_i - t
        alpha[j] = room_j - t if is_pos[j] else C - (room_j - t)
        for k in (i, j):
            at_c, at_0 = alpha[k] == C, alpha[k] == 0.0
            off_up[k] = -np.inf if (at_c if is_pos[k] else at_0) else 0.0
            off_low[k] = np.inf if (at_0 if is_pos[k] else at_c) else 0.0
        v -= t * (K[i] - K[j])
        updates += 1

    alpha = np.array(alpha)
    w = Z.T @ (alpha * s)
    u = Z @ w
    # the primal in b is convex piecewise linear with slope -n_pos + (number
    # of breakpoints s_i - u_i below b), so it is flat between the n_pos-th
    # and (n_pos+1)-th breakpoints
    n_pos = int(np.count_nonzero(pos))
    bp = np.sort(s - u)
    b = 0.5 * (bp[n_pos - 1] + bp[n_pos])
    coef = Coefficients(float(b), w)
    primal = hinge_loss(coef, C, Z, y)
    dual = (float(np.sum(alpha)) - 0.5 * float(w @ w)) / (n * C)
    return coef, SolverReport(primal, updates, converged, primal - dual)


def fit_path(Z, y, learner: str, alphas) -> list[tuple[Coefficients, SolverReport | None]]:
    """Fit one learner at every alpha of a grid; the one fit for CV and refit.

    learner is 'ridge' or 'lasso' (alpha is the penalty lambda), 'hinge'
    (alpha is the cost), 'logistic' (unregularized; alpha is ignored) or
    'unit-weights' (QC: intercept 0 and unit weights, no solve and no
    report; only the width of Z is read). Columns of Z that are constant
    are dropped before solving and get weight exactly 0; with the
    intercept unpenalized this is the exact optimum, not an approximation.
    Ridge and lasso run from the largest lambda down, each solve
    warm-started from the one before; the other solves start cold. A
    separated logistic fit reports converged=False (_fit_logistic_newton).
    Returns one (Coefficients, SolverReport) per alpha, in grid order.
    """
    if learner not in VALID_PENALTIES + ("logistic", "unit-weights"):
        raise DomainError(f"unknown learner {learner!r}")
    p = np.shape(Z)[1]
    alphas = np.asarray(alphas, dtype=float)
    if learner == "unit-weights":
        return [(Coefficients(0.0, np.ones(p)), None)] * alphas.size
    if learner != "logistic" and not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise DomainError("every alpha must be positive and finite")
    Z, y = _check_design(Z, y)
    _require_both_labels(y)
    keep = ~degenerate_columns(Z)
    Zs = Z[:, keep]
    y01 = (y - 1).astype(float)
    fits = [None] * alphas.size
    warm = None
    for a in np.argsort(alphas)[::-1]:
        if learner == "hinge":
            coef, report = fit_linear_svm(Zs, y, alphas[a])
        elif learner == "lasso":
            coef, report = _fit_lasso_prox(Zs, y01, alphas[a], warm)
        else:
            lam = 0.0 if learner == "logistic" else alphas[a]
            coef, report = _fit_logistic_newton(Zs, y01, lam, warm)
        if learner in ("ridge", "lasso"):
            warm = np.concatenate((coef.intercepts, coef.weights))
        fits[a] = (_zero_filled(coef, keep), report)
    return fits


def _zero_filled(coef: Coefficients, keep: np.ndarray) -> Coefficients:
    """coef, fitted on the columns in keep, with weight 0 on the others."""
    weights = np.zeros(keep.size)
    weights[keep] = coef.weights
    return Coefficients(coef.intercepts, weights)
