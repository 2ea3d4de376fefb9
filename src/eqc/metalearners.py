"""Binary metalearners over transformed features.

Three convex objectives on a design Z (n x p) with labels y in {1, 2}:

* ridge-penalized binomial deviance, minimized by damped Newton,
* lasso-penalized binomial deviance, minimized by proximal gradient
  (soft-thresholding) with backtracking,
* L2-regularized linear hinge loss (a linear C-SVM), minimized exactly by
  SMO on its dual; the report carries the duality gap as a certificate.

The intercept is never penalized. Labels enter the binomial losses as
y - 1 in {0, 1} and the hinge loss through the margin labels
2(y - 1) - 1 in {-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DomainError, FitError

VALID_PENALTIES = ("ridge", "lasso", "hinge")


@dataclass(frozen=True)
class Coefficients:
    """Intercept plus shared weight vector of a linear discriminant."""

    intercept: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DomainError("weights must be a vector")
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(w))):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "weights", w)

    def decision_values(self, Z: np.ndarray) -> np.ndarray:
        return self.intercept + np.asarray(Z, dtype=float) @ self.weights


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty kind and its positive tuning value.

    value is the deviance penalty lambda for ridge/lasso and the cost c
    for the hinge loss (larger cost = weaker regularization).
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in VALID_PENALTIES:
            raise DomainError(f"unknown penalty kind {self.kind!r}")
        if not (np.isfinite(self.value) and self.value > 0):
            raise DomainError("penalty value must be positive and finite")


@dataclass(frozen=True)
class SolverReport:
    """What a solve reached.

    final_loss is the objective at the returned coefficients; iterations
    counts Newton or proximal steps, or hinge pair updates; converged is
    True only when the stopping rule was met within the budget.
    grad_norm_at_exit is the last gradient norm (Newton), the last step's
    displacement (lasso) or the duality gap in hinge_loss units (hinge).
    """

    final_loss: float
    iterations: int
    converged: bool
    grad_norm_at_exit: float


@dataclass(frozen=True)
class SolverConfig:
    """Solver tolerances; defaults are deliberately strict.

    tol is the gradient norm threshold for Newton (ridge), the
    proximal-step displacement threshold for lasso, and the maximal KKT
    violation of the hinge dual at which SMO stops. max_iter bounds the
    Newton and proximal iterations; on n observations the hinge solver
    may make max_iter * n pair updates.
    """

    tol: float = 1e-8
    max_iter: int = 500
    armijo: float = 1e-4
    backtrack: float = 0.5


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


def _binomial_smooth(coef: Coefficients, Z: np.ndarray, y01: np.ndarray) -> float:
    c = coef.decision_values(Z)
    return float(np.mean(np.logaddexp(0.0, c) - y01 * c))


def binomial_loss(coef: Coefficients, penalty: PenaltySpec, Z, y) -> float:
    """Penalized binomial deviance (1/n normalized, intercept unpenalized).

    Ridge adds (lambda/2) * sum(beta_j^2), lasso (lambda/2) * sum(|beta_j|).
    """
    if penalty.kind not in ("ridge", "lasso"):
        raise DomainError("binomial_loss takes a ridge or lasso penalty")
    Z, y = _check_design(Z, y)
    if coef.weights.size != Z.shape[1]:
        raise DomainError("coefficient dimension does not match Z")
    base = _binomial_smooth(coef, Z, y - 1)
    w = coef.weights
    pen = np.sum(w * w) if penalty.kind == "ridge" else np.sum(np.abs(w))
    return base + 0.5 * penalty.value * pen


def binomial_gradient(coef: Coefficients, penalty: PenaltySpec, Z, y) -> np.ndarray:
    """Gradient of the smooth (ridge) objective over (intercept, weights)."""
    if penalty.kind != "ridge":
        raise DomainError("analytic gradient is defined for the smooth ridge loss")
    Z, y = _check_design(Z, y)
    y01 = (y - 1).astype(float)
    c = coef.decision_values(Z)
    r = expit(c) - y01
    g = np.empty(Z.shape[1] + 1)
    g[0] = r.mean()
    g[1:] = Z.T @ r / Z.shape[0] + penalty.value * coef.weights
    return g


def _require_both_labels(y):
    if np.unique(y).size < 2:
        raise FitError("both labels must be present to fit a metalearner")


def _fit_logistic_newton(
    Z: np.ndarray,
    y01: np.ndarray,
    lam: float,
    config: SolverConfig,
    x0: np.ndarray | None = None,
    trace: list | None = None,
) -> tuple[Coefficients, SolverReport]:
    """Damped Newton on the smooth ridge objective; lam may be 0.

    With lam = 0 (plain logistic regression) separable data drives the
    optimum to infinity; the solver then exhausts max_iter and reports
    converged=False with its best iterate, as per the solver contract.
    trace, when given, collects the objective after every accepted step.
    """
    n, p = Z.shape
    x = np.zeros(p + 1) if x0 is None else x0.astype(float).copy()

    def loss(v):
        c = v[0] + Z @ v[1:]
        return float(
            np.mean(np.logaddexp(0.0, c) - y01 * c) + 0.5 * lam * np.sum(v[1:] ** 2)
        )

    f = loss(x)
    if trace is not None:
        trace.append(f)
    grad_norm = np.inf
    it = 0
    for it in range(1, config.max_iter + 1):
        c = x[0] + Z @ x[1:]
        mu = expit(c)
        r = mu - y01
        g = np.empty(p + 1)
        g[0] = r.mean()
        g[1:] = Z.T @ r / n + lam * x[1:]
        grad_norm = float(np.linalg.norm(g))
        if grad_norm < config.tol:
            return _unpack(x), SolverReport(f, it, True, grad_norm)

        w = mu * (1.0 - mu)
        H = np.empty((p + 1, p + 1))
        H[0, 0] = w.sum() / n
        zw = Z.T @ w / n
        H[0, 1:] = zw
        H[1:, 0] = zw
        H[1:, 1:] = (Z * w[:, None]).T @ Z / n
        H[1:, 1:][np.diag_indices(p)] += lam
        try:
            d = np.linalg.solve(H + 1e-12 * np.eye(p + 1), -g)
        except np.linalg.LinAlgError:
            d = -g
        if g @ d >= 0:  # not a descent direction; fall back to gradient
            d = -g

        step = 1.0
        gd = g @ d
        accepted = False
        while step > 1e-14:
            f_new = loss(x + step * d)
            if f_new <= f + config.armijo * step * gd:
                accepted = True
                break
            step *= config.backtrack
        if not accepted:
            break
        x = x + step * d
        f = f_new
        if trace is not None:
            trace.append(f)
    return _unpack(x), SolverReport(f, max(it, 1), False, grad_norm)


def _unpack(x: np.ndarray) -> Coefficients:
    return Coefficients(float(x[0]), x[1:].copy())


def _fit_lasso_prox(
    Z: np.ndarray,
    y01: np.ndarray,
    lam: float,
    config: SolverConfig,
    x0: np.ndarray | None = None,
) -> tuple[Coefficients, SolverReport]:
    """FISTA with backtracking on the lasso objective.

    Smooth part: mean binomial deviance over (intercept, beta); nonsmooth
    part (lambda/2)*||beta||_1 handled by soft-thresholding (intercept
    exempt). Monotonicity is kept by restarting the momentum whenever the
    objective would rise.
    """
    n, p = Z.shape
    thresh = 0.5 * lam

    def smooth(v):
        c = v[0] + Z @ v[1:]
        return float(np.mean(np.logaddexp(0.0, c) - y01 * c))

    def grad(v):
        c = v[0] + Z @ v[1:]
        r = expit(c) - y01
        g = np.empty(p + 1)
        g[0] = r.mean()
        g[1:] = Z.T @ r / n
        return g

    def objective(v):
        return smooth(v) + thresh * np.sum(np.abs(v[1:]))

    def prox(v, step):
        out = v.copy()
        out[1:] = np.sign(v[1:]) * np.maximum(np.abs(v[1:]) - step * thresh, 0.0)
        return out

    x = np.zeros(p + 1) if x0 is None else x0.astype(float).copy()
    z = x.copy()
    t_mom = 1.0
    # Lipschitz constant of the deviance gradient is at most ||[1 Z]||^2 / (4n)
    L = max(np.sum(Z * Z) / n + 1.0, 1e-3) / 4.0
    f_x = objective(x)
    disp = np.inf
    it = 0
    for it in range(1, config.max_iter + 1):
        g = grad(z)
        f_z = smooth(z)
        while True:
            x_new = prox(z - g / L, 1.0 / L)
            dlt = x_new - z
            if smooth(x_new) <= f_z + g @ dlt + 0.5 * L * np.sum(dlt * dlt):
                break
            L *= 2.0
        f_new = objective(x_new)
        if f_new > f_x:  # momentum overshoot: restart from the last iterate
            z = x.copy()
            t_mom = 1.0
            g = grad(z)
            f_z = smooth(z)
            while True:
                x_new = prox(z - g / L, 1.0 / L)
                dlt = x_new - z
                if smooth(x_new) <= f_z + g @ dlt + 0.5 * L * np.sum(dlt * dlt):
                    break
                L *= 2.0
            f_new = objective(x_new)
        disp = float(np.linalg.norm(x_new - x))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = x_new + (t_mom - 1.0) / t_next * (x_new - x)
        x, f_x, t_mom = x_new, f_new, t_next
        if disp < config.tol:
            return _unpack(x), SolverReport(f_x, it, True, disp)
    return _unpack(x), SolverReport(f_x, max(it, 1), False, disp)


def fit_penalized_logistic(
    Z,
    y,
    penalty: PenaltySpec,
    config: SolverConfig = SolverConfig(),
    warm_start: Coefficients | None = None,
    trace: list | None = None,
) -> tuple[Coefficients, SolverReport]:
    """Minimize the penalized binomial deviance; ridge or lasso.

    Non-convergence within max_iter returns the best iterate with
    converged=False rather than raising.
    """
    if penalty.kind not in ("ridge", "lasso"):
        raise DomainError("fit_penalized_logistic takes a ridge or lasso penalty")
    Z, y = _check_design(Z, y)
    _require_both_labels(y)
    x0 = None
    if warm_start is not None:
        x0 = np.concatenate(([warm_start.intercept], warm_start.weights))
    y01 = (y - 1).astype(float)
    if penalty.kind == "ridge":
        return _fit_logistic_newton(Z, y01, penalty.value, config, x0, trace)
    return _fit_lasso_prox(Z, y01, penalty.value, config, x0)


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
    margins = s * coef.decision_values(Z)
    n = Z.shape[0]
    return float(
        np.mean(np.maximum(0.0, 1.0 - margins))
        + np.sum(coef.weights**2) / (2.0 * n * cost)
    )


def fit_linear_svm(
    Z, y, cost: float, config: SolverConfig = SolverConfig()
) -> tuple[Coefficients, SolverReport]:
    """Exact minimizer of hinge_loss: SMO on the dual of the C-SVM.

    n * cost * hinge_loss is the C-SVM primal 1/2 ||w||^2 + C sum_i xi_i
    with C = cost and an unpenalized intercept. Its dual, maximize
    sum(alpha) - 1/2 ||sum_i alpha_i s_i z_i||^2 subject to
    0 <= alpha <= C and s . alpha = 0 (s the margin labels), is solved by
    SMO pair updates (Platt 1998), each pair chosen by second-order
    working-set selection (Fan, Chen & Lin, JMLR 2005). The solve stops
    when the maximal KKT violation m(alpha) - M(alpha) is at most
    config.tol, within a budget of config.max_iter * n pair updates.
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
    budget = config.max_iter * n
    updates = 0
    converged = False
    while True:
        v_up = v + off_up
        i = int(v_up.argmax())
        rise = float(v_up[i]) - (v + off_low)  # m(alpha) - v_j on I_low
        if rise.max() <= config.tol:  # m(alpha) - M(alpha)
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

