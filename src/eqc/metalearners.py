"""Metalearners over transformed features.

Convex objectives on a design: the K-1 class transforms Q (K-1, n, p) of
`binary.class_transforms`, and the class position 0..K-1 of each label:

* the softmax deviance with one shared weight vector, for any K >= 2
  classes, ridge- or lasso-penalized, minimized by the one damped Newton
  solver (orthant-wise Newton for the lasso), which solves a stack of such
  problems in lockstep. At K = 2 it is the binomial deviance of the ridge,
  logistic (lambda = 0), EMC and lasso learners; at K >= 3 it is the
  multiclass-ridge learner,
* L2-regularized linear hinge loss (a linear C-SVM), minimized by the one
  primal-dual interior-point solver on its dual, which also solves a stack
  of such problems (designs and costs) in lockstep; the report carries the
  duality gap as a certificate.

The intercepts are never penalized. The hinge loss takes labels y in
{1, 2} (y - 1 is the class position) and margin labels 2(y - 1) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .quantiles import degenerate_columns

VALID_PENALTIES = ("ridge", "lasso", "hinge")

# Solver settings, deliberately strict; the solvers read them at call time.
# TOL is the threshold on the minimum-norm subgradient norm for Newton
# (ridge, logistic, EMC, multiclass-ridge and lasso; the gradient norm
# without the lasso penalty); the hinge solver stops at a duality gap of
# TOL / 10 in hinge_loss units. MAX_ITER bounds the Newton steps, with no
# inner loop for the lasso, and the hinge interior-point steps. ARMIJO and
# BACKTRACK (sufficient-decrease fraction, step shrink factor) set the
# Newton line search, the lasso's too; the hinge solver ignores them.
TOL = 1e-8
MAX_ITER = 500
ARMIJO = 1e-4
BACKTRACK = 0.5
# The working set of one lockstep hinge solve, in floats (64 MB): a larger
# stack is solved in runs that fit it.
HINGE_STACK_FLOATS = 1 << 23
# Above this C max_i |z_i|^2 a hinge problem is solved in the direct form,
# where the Woodbury form would lose its digits (see _hinge_ipm).
WOODBURY_SCALE = 1e6


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

        Q has shape (K-1, n, p) or (K-1, p), a point scored as a one-row
        matrix; the scores have the classes on the last axis, shape (n, K-1)
        or (K-1,). They are linear_scores, the product that CV scores with.
        """
        Q = np.asarray(Q, dtype=float)
        if Q.shape[0] != self.intercepts.size:
            raise DomainError("transform count does not match the intercepts")
        x = np.concatenate((self.intercepts, self.weights))
        return linear_scores(Q, x) if Q.ndim == 3 else linear_scores(Q[:, None], x)[0]


def linear_scores(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Scores b_k + Q[k] . w (..., n, m) of the models X (..., m + p), each
    m intercepts b then weights w as fit_path returns them, on the m class
    transforms Q (m, n, p): the one product of CV and predict. It gives each
    model the bits of Q[k] @ w alone, whether Q is in C or Fortran order."""
    m = Q.shape[0]
    S = np.matmul(Q[(slice(None),) + (None,) * (X.ndim - 1)], X[..., m:, None])
    return np.moveaxis(S[..., 0], 0, -1) + X[..., None, :m]


@dataclass(frozen=True)
class SolverReport:
    """What a solve reached: final_loss, converged and grad_norm_at_exit
    all describe the returned coefficients, whatever ended the solve.

    final_loss is the objective the solver minimizes: the penalized mean
    negative log-likelihood (Newton, every K, and lasso; the penalized
    binomial deviance at K = 2) or hinge_loss (hinge). iterations counts
    the steps taken, at most MAX_ITER: Newton steps (orthant-wise Newton
    steps for the lasso) or hinge interior-point steps. converged is True only
    when the stopping rule, at TOL (TOL / 10 for the hinge gap), holds
    (and, for an unpenalized Newton fit at K = 2, when the fit does not
    separate the classes). grad_norm_at_exit is the norm of the
    minimum-norm subgradient, the gradient itself without the lasso
    penalty (Newton and lasso), or the duality gap in hinge_loss units
    (hinge).
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
    if not ((y == 1) | (y == 2)).all():
        raise DomainError("labels must be in {1, 2}")
    return Z, y.astype(int)


def _require_both_labels(y):
    if np.count_nonzero(y == 1) in (0, y.size):
        raise FitError("both labels must be present to fit a metalearner")


def _softmax_terms(Q, Y, lam, X):
    """Objectives at X of a stack of shared-weight softmax problems, and the
    scores and log-normalizers that their derivatives are formed from.

    Q is a (B, m, n, p) stack: problem i has the (m, n, p) transforms of
    K = m + 1 classes against the reference class K. Y holds the (m, n)
    indicators of the classes 1..K-1, shared by the stack, and row i of X
    the intercepts b_1..b_m and then the shared weights w of problem i.
    Class k < K scores S_k = b_k + Q_k w and has logit -S_k; the reference
    has logit 0. The objective is the mean negative log-likelihood plus
    (lam/2)||w||^2, the intercepts unpenalized; at K = 2 it is the binomial
    deviance of b + Z w with the second class as the event. Every operation
    acts on each problem alone, in the same order whatever B is, so a
    problem's numbers do not depend on the stack it is in.

    Returns f (B,), the scores S (B, m, n) and lse = log(1 + sum_k e^{-S_k})
    (B, n).
    """
    B, m, n, p = Q.shape
    w = X[:, m:]
    S = np.matmul(Q.reshape(B, m * n, p), w[:, :, None]).reshape(B, m, n) + X[:, :m, None]
    lse = np.logaddexp.reduce(-S, axis=1, initial=0.0)
    f = (lse + (Y * S).sum(axis=1)).sum(axis=1) / n
    if lam:
        f += 0.5 * lam * (w * w).sum(axis=1)
    return f, S, lse


def _softmax_gradient(Q, Y, lam, X, S, lse):
    """Gradients (B, m + p) over X of the objectives of _softmax_terms, and
    the probabilities P (B, m, n) of the classes 1..K-1 at X."""
    B, m, n, p = Q.shape
    P = np.exp(-S - lse[:, None])
    R = (Y - P) / n  # over the scores, per observation
    Gw = np.matmul(Q.reshape(B, m * n, p).transpose(0, 2, 1), R.reshape(B, m * n, 1))[:, :, 0]
    if lam:
        Gw += lam * X[:, m:]
    return np.concatenate((R.sum(axis=2), Gw), axis=1), P


def _softmax_hessian(Q, lam, P):
    """Hessians (B, m + p, m + p) of the objectives of _softmax_terms, from
    the probabilities P that _softmax_gradient returns.

    Over the scores the Hessian is A_kl = P_k ([k = l] - P_l) per
    observation, so the weight block sums one product Q_k' diag(A_kl) Q_l
    per class pair, one product at K = 2.
    """
    B, m, n, p = Q.shape
    A = P[:, :, None] * (np.eye(m)[:, :, None] - P[:, None]) / n  # A[:, k, l] = A_kl / n
    H = np.empty((B, m + p, m + p))
    H[:, :m, :m] = A.sum(axis=3)
    Hbw = np.matmul(A.reshape(B, m, m * n), Q.reshape(B, m * n, p))
    H[:, :m, m:] = Hbw
    H[:, m:, :m] = Hbw.transpose(0, 2, 1)
    Hww = H[:, m:, m:]
    for k in range(m):
        for l in range(k, m):  # A is symmetric in (k, l)
            T = np.matmul((Q[:, k] * A[:, k, l, :, None]).transpose(0, 2, 1), Q[:, l])
            if k != l:
                T = T + T.transpose(0, 2, 1)
            if k == l == 0:
                Hww[...] = T
            else:
                Hww += T
    H.reshape(B, -1)[:, m * (m + p + 1):: m + p + 1] += lam  # the weights' diagonal
    return H


def _rowdot(U, V):
    """u . v for each row pair, each row summed on its own."""
    return np.add.reduce(U * V, axis=1)


def _softmax_newton(
    Q: np.ndarray,
    positions: np.ndarray,
    lam: float,
    X0: np.ndarray | None = None,
    l1: float = 0.0,
) -> tuple[np.ndarray, list[SolverReport]]:
    """Damped Newton on a stack of shared-weight softmax problems.

    The one Newton solver: ridge, logistic, EMC and lasso at K = 2, and
    multiclass-ridge at any K >= 2. Q is a (B, m, n, p) stack of problems
    of equal shape that share the class positions 0..m of the n
    observations (fit_path), lam and l1 (_softmax_terms takes the
    indicators of the positions 0..m-1); X0 (B, m + p) holds their
    starting points, zeros when None. Returns the (B, m + p) solutions,
    intercepts first, and one SolverReport each.

    The B problems advance in lockstep, and each keeps its own iterate,
    gradient-norm stop, Newton direction, descent check, step and report.
    Each pass first retires, in one place, the problems whose gradient norm
    is below TOL, those whose last pass left the iterate bitwise unchanged
    (no step accepted, or one below its rounding, which every later pass
    would repeat), and, once MAX_ITER steps are taken, all the rest; a
    retired problem leaves the active stack, and its report, made there
    once, is that of the point it returns. Each step solves the Newton
    systems of the active problems in one batched solve (_solve_each),
    falls back to the gradient wherever that gives no finite descent
    direction (a singular system among them), and backtracks to the Armijo
    condition, every problem from the full step until it accepts one. Every
    operation acts on each problem alone, so each problem's solution and
    report equal, bit for bit, those of its solve on its own (B = 1). The
    stack holds B (n p + (m + p)^2) floats of designs and Hessians: about
    1 MB for 19 problems at n = 80, p = 50.

    Each Newton system is the Hessian with every diagonal entry H_ii raised
    by 1e-12 max(H_ii, 1), which keeps a system definite where equal
    columns leave the Hessian singular. The shift is relative because the
    weight block grows like s^2 with the units s of the features: an
    absolute 1e-12 stops acting from about s = 1e4, the direction is then
    rounding noise along the null space, and no backtrack passes.

    Near the optimum the Armijo test compares numbers equal up to rounding:
    a predicted decrease -g.d below ulp(f) cannot show in f. So the full
    step is also accepted when -g.d <= 16 ulp(f) and it raises f by at most
    4 ulp(f) (in the spirit of the approximate Armijo condition of Hager &
    Zhang, SIAM J. Optim. 2005); the gradient-norm stop is unchanged.

    With lam = 0 (plain logistic regression, m = 1) separable data has no
    minimizer: the weights grow along a separating direction until the
    gradient norm falls below TOL, or until MAX_ITER steps are spent
    (converged=False). A fit whose every training margin is positive has
    found a separating hyperplane, a certificate that no minimizer exists
    (Albert & Anderson 1984), and reports converged=False whatever its
    gradient norm.

    With l1 > 0 (the lasso, at lam = 0) the objective gains (l1/2)||w||_1
    and each step is orthant-wise Newton (OWL-QN, Andrew & Gao, ICML 2007;
    orthant-based Newton, Byrd, Chin, Nocedal & Oztoprak, Math. Prog.
    2016) in the same batched solve, with the minimum-norm subgradient V
    in place of the gradient. Each weight keeps its sign, or at zero takes
    that of -V (fixed where V = 0); fixed coordinates get identity rows
    and zero right-hand sides, and a zero weight whose step leaves its
    orthant stays at zero. The line search tries the full step with each
    weight that crosses zero stopped there, then the step to the first
    zero (the half step if no weight reaches zero before the full step)
    and its halves, Armijo against V . (X_new - X). Where more
    coordinates are free than the design has rows, the system is singular
    but for the shift, the step runs far along its null space, where the
    loss is flat, and only the stop at the first zero passes. The solve
    stops when V has norm below TOL.
    """
    Q = np.ascontiguousarray(Q, dtype=float)
    B, m, _, p = Q.shape
    Y = (positions == np.arange(m)[:, None]).astype(float)
    # the margin signs of a logistic fit, whose separation is certified
    signs = 2.0 * positions - 1.0 if m == 1 and not lam and not l1 else None
    t = 0.5 * l1

    def penalty(V):
        return t * np.abs(V[:, m:]).sum(axis=1)

    X = np.zeros((B, m + p)) if X0 is None else np.array(X0, dtype=float)
    out = X.copy()
    reports: list[SolverReport | None] = [None] * B
    live = np.arange(B)  # the stack position of each active problem
    stuck = np.zeros(B, dtype=bool)  # whose last pass left X unchanged

    f, S, lse = _softmax_terms(Q, Y, lam, X)
    if l1:
        f = f + penalty(X)
    for it in range(MAX_ITER + 1):
        G, P = _softmax_gradient(Q, Y, lam, X, S, lse)
        V = _min_norm_subgradient(G, X, m, t) if l1 else G
        grad_norm = np.sqrt(_rowdot(V, V))
        converged = grad_norm < TOL
        ending = converged | stuck | (it == MAX_ITER)
        if np.count_nonzero(ending):
            if signs is not None:
                converged &= ~np.all(signs * S[:, 0] > 0.0, axis=1)
            ids, fs, gs, flags = live.tolist(), f.tolist(), grad_norm.tolist(), converged.tolist()
            for j in ending.nonzero()[0].tolist():
                out[ids[j]] = X[j]
                reports[ids[j]] = SolverReport(fs[j], it - int(stuck[j]), flags[j], gs[j])
            rest = ~ending
            if not np.count_nonzero(rest):
                return out, reports
            live, Q, X, f, S, lse, G, P = (v[rest] for v in (live, Q, X, f, S, lse, G, P))
            V = V[rest] if l1 else G
        H = _softmax_hessian(Q, lam, P)
        diagonal = H.reshape(live.size, -1)[:, :: m + p + 1]
        diagonal += 1e-12 * np.maximum(diagonal, 1.0)
        if l1:
            # each weight's orthant: its sign, or at zero the sign of -V;
            # a zero weight with V = 0 stays fixed (identity row, zero V)
            orthant = np.where(X != 0.0, np.sign(X), -np.sign(V))
            orthant[:, :m] = 0.0
            free = orthant != 0.0
            free[:, :m] = True
            H = np.where(free[:, :, None] & free[:, None, :], H, np.eye(m + p))
        D = _solve_each(H, -V[:, :, None])[:, :, 0]
        if l1:  # a zero weight whose step leaves its orthant stays at zero
            D[(X == 0.0) & (D * orthant < 0.0)] = 0.0
        gd = _rowdot(V, D)
        fallback = ~((gd < 0.0) & np.isfinite(gd))  # not a finite descent direction
        if np.count_nonzero(fallback):
            D[fallback] = -V[fallback]
            gd[fallback] = _rowdot(V[fallback], D[fallback])
        if l1:  # the step to where the first weight reaches zero, exactly
            ratios = np.divide(-X, D, out=np.full(X.shape, np.inf), where=D * orthant < 0.0)
            tau = ratios.min(axis=1, keepdims=True)
            tau[tau >= 1.0] = BACKTRACK  # none before the full step: its half
            D_stop = np.where(ratios <= tau, -X, tau * D)

        # backtrack the positions todo whose step is not accepted yet; they
        # all share the current step. A problem whose X the pass leaves
        # bitwise unchanged (left at the floor, or accepted below X's
        # rounding) is stuck.
        # While todo is the whole stack it is read, not gathered, and if all
        # of it accepts, the trial arrays are kept rather than scattered.
        X_before = X.copy()
        step = 1.0
        todo = np.arange(live.size)
        while todo.size and step > 1e-14:
            at = todo if todo.size < live.size else slice(None)
            f0, gd0 = f[at], gd[at]
            if l1 and step < 1.0:  # D_stop, then its halves
                X_new = X[at] + (step / BACKTRACK) * D_stop[at]
            else:
                X_new = X[at] + step * D[at]
                if l1:  # each weight that crosses zero stops there
                    X_new[X_new * orthant[at] < 0.0] = 0.0
            f_new, S_new, lse_new = _softmax_terms(Q[at], Y, lam, X_new)
            if l1:
                f_new = f_new + penalty(X_new)
                ok = f_new <= f0 + ARMIJO * _rowdot(V[at], X_new - X[at])
            else:
                ok = f_new <= f0 + ARMIJO * step * gd0
            if step == 1.0 and np.count_nonzero(ok) < ok.size:
                ulp = np.spacing(np.abs(f0))
                ok |= (-gd0 <= 16 * ulp) & (f_new - f0 <= 4 * ulp)
            done = todo[ok]
            if done.size == live.size:
                X, f, S, lse = X_new, f_new, S_new, lse_new
            else:
                X[done], f[done], S[done], lse[done] = X_new[ok], f_new[ok], S_new[ok], lse_new[ok]
            todo = todo[~ok]
            step *= BACKTRACK
        stuck = np.all(X == X_before, axis=1)


def _min_norm_subgradient(G, X, m, t):
    """Least-norm subgradients of f + t||w||_1 at the rows of X; G holds the
    gradients of f."""
    W, Gw = X[:, m:], G[:, m:]
    shrunk = np.sign(Gw) * np.maximum(np.abs(Gw) - t, 0.0)
    return np.concatenate((G[:, :m], np.where(W != 0.0, Gw + t * np.sign(W), shrunk)), axis=1)


def _fit_logistic_newton(
    Z: np.ndarray,
    positions: np.ndarray,
    lam: float,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """The Newton solver at K = 2 on one design: ridge on Z (n, p) and the
    class positions y - 1 in {0, 1}; lam may be 0, and a separated fit then
    reports converged=False (_softmax_newton). Returns the solver vector
    (intercept, then the weights of Z's columns) and its report.

    fit_path's solve of a group of one at K = 2, an entry of its own
    because the benchmark traces it apart from _fit_lasso_prox and
    multiclass.fit_on_design.
    """
    X, [report] = _softmax_newton(Z[None, None], positions, lam,
                                  None if x0 is None else x0[None])
    return X[0], report


def _fit_lasso_prox(
    Z: np.ndarray,
    positions: np.ndarray,
    lam: float,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """The Newton solver at K = 2 on one design with the lasso penalty
    (lam/2)||w||_1; arguments and result as in _fit_logistic_newton.

    Named apart from _fit_logistic_newton because the benchmark traces the
    lasso solves as a layer of their own.
    """
    X, [report] = _softmax_newton(Z[None, None], positions, 0.0,
                                  None if x0 is None else x0[None], l1=lam)
    return X[0], report


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
    """Exact minimizer of hinge_loss on one design: _hinge_ipm on a stack
    of one.

    n * cost * hinge_loss is the C-SVM primal 1/2 ||w||^2 + C sum_i xi_i
    with C = cost and an unpenalized intercept. The report holds the primal
    objective in hinge_loss units, the number of interior-point steps,
    converged=True only when the duality gap fell to TOL / 10 within
    MAX_ITER steps, and in grad_norm_at_exit that gap (primal minus dual
    objective) in hinge_loss units, a bound on how far the returned
    objective can be above the optimum. fit_path's solve of a group of one
    at one cost, an entry of its own because the benchmark traces it.
    """
    if not (np.isfinite(cost) and cost > 0):
        raise DomainError("cost must be positive")
    Z, y = _check_design(Z, y)
    _require_both_labels(y)
    X, [report] = _hinge_ipm(Z[None], y - 1, np.array([float(cost)]))
    return Coefficients(X[0, 0], X[0, 1:]), report


def _hinge_ipm(Z: np.ndarray, positions: np.ndarray,
               costs: np.ndarray) -> tuple[np.ndarray, list[SolverReport]]:
    """Primal-dual interior-point method on a stack of C-SVM duals: every
    design of Z (G, n, p) at every cost of costs (A,), problem g A + k
    being design g at cost costs[k].

    The class positions 0/1 (margin labels s = 2 positions - 1) are shared
    by the stack. With the cost folded into the design, alpha = C a, the
    dual of design Z at cost C is minimize 1/2 a'Ga - sum(a) subject to
    0 <= a <= 1 and s . a = 0, with G = C S Z Z' S and S = diag(s): every
    problem has the same box and the same units. The variables are a, its
    complement t = 1 - a, kept apart so that a point near the upper bound
    keeps its digits, the multipliers lam of a >= 0 and mu of t >= 0, and
    beta of s . a = 0. Each step is Mehrotra's predictor-corrector from a
    feasible, centred start. Its system D + G, D = lam / a + mu / t + 1e-8
    diagonal, is solved in one of two forms. For p < n and
    C max_i |z_i|^2 <= WOODBURY_SCALE it goes through the Woodbury identity
    on the p x p matrix I / C + Z' D^-1 Z (Ferris & Munson, SIAM J. Optim.
    2003); the 1e-8 is a proximal term there: near the optimum D^-1 of the
    points on the margin grows like 1 / (complementarity), and without that
    floor the Woodbury form loses the step's digits to cancellation.
    Otherwise it is solved directly on the n x n matrix, from S Z Z' S
    built once per design: the smaller system when p >= n, and the form
    that still converges up to C max_i |z_i|^2 of about 1e9, where the
    Woodbury steps stall from about 1e8. Each form takes one batched
    np.linalg.solve per right-hand-side group, two per step: numpy has no
    batched triangular solve that would reuse one factorization, and its
    batched inverse costs more than both solves.

    Every iterate is certified as fit_linear_svm reports: w = C Z'(s a),
    the intercept at the midpoint of the exact minimizers of the primal
    given w (the middle two of the sorted hinge breakpoints), and the gap
    hinge_loss minus the dual objective. A problem stops, and leaves the
    stack, when its gap is at most TOL / 10; after MAX_ITER steps the rest
    stop at their best-certified iterates with converged=False. So does a
    problem whose step is not finite (a system singular in floating point,
    or a bound variable that underflows, both seen from C max_i |z_i|^2 of
    about 1e9 on); that step is neither taken nor counted. The report is
    fit_linear_svm's, with final_loss = hinge_loss at the returned
    coefficients. Every operation acts on each problem alone, and its form
    depends on its design and cost only, so a problem's solution and
    report equal, bit for bit, those of its solve on its own. Each form's
    problems are solved in runs whose working set fits HINGE_STACK_FLOATS:
    about p (3 n + 2 p) floats a problem in the Woodbury form and
    n (2 p + 3 n) in the direct one, its design gathered once for the run.
    Returns the (G A, 1 + p) solutions, intercept first, and one
    SolverReport each.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    G, n, p = Z.shape
    costs = np.asarray(costs, dtype=float)
    s = 2.0 * np.asarray(positions) - 1.0
    scale = np.max(np.add.reduce(Z * Z, axis=2), axis=1)[:, None] * costs  # (G, A)
    direct = (scale > WOODBURY_SCALE) | (p >= n)
    X = np.empty((G * costs.size, 1 + p))
    reports: list[SolverReport | None] = [None] * (G * costs.size)
    for form in (False, True):
        g, k = np.nonzero(direct == form)  # member-major
        if not g.size:
            continue
        used = np.flatnonzero(np.any(direct == form, axis=1))
        Zf, design = (Z, g) if used.size == G else (Z[used], np.searchsorted(used, g))
        gram = s[:, None] * np.matmul(Zf, Zf.transpose(0, 2, 1)) * s if form else None
        per_problem = (n * (2 * p + 3 * n) if form else p * (3 * n + 2 * p)) + 32 * n
        run = max(1, HINGE_STACK_FLOATS // per_problem)
        for first in range(0, g.size, run):
            part = slice(first, first + run)
            ids = g[part] * costs.size + k[part]
            X[ids], fits = _hinge_run(Zf, gram, positions, design[part], costs[k[part]])
            for i, report in zip(ids.tolist(), fits):
                reports[i] = report
    return X, reports


def _solve_each(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """np.linalg.solve(M, R) on a stack, where a matrix singular in
    floating point gets NaN instead of failing the stack: the others are
    then solved one by one, each as a stack of one."""
    try:
        return np.linalg.solve(M, R)
    except np.linalg.LinAlgError:
        X = np.full(R.shape, np.nan)
        for i in range(len(M)):
            try:
                X[i] = np.linalg.solve(M[i:i + 1], R[i:i + 1])[0]
            except np.linalg.LinAlgError:
                pass
        return X


def _hinge_run(Z: np.ndarray, gram: np.ndarray | None, positions: np.ndarray,
               design: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, list[SolverReport]]:
    """_hinge_ipm's lockstep solve of design Z[design[i]] at cost C[i] for
    each i: in the direct form with gram, S Z Z' S of each design, else in
    the Woodbury form."""
    _, n, p = Z.shape
    B = design.size
    y = np.asarray(positions) + 1  # the labels hinge_loss takes
    s = 2.0 * y - 3.0
    n_pos = int(np.count_nonzero(s > 0))
    half = 0.5 * min(n_pos, n - n_pos)
    V = np.ones((B, 4, n))  # a, t, lam, mu
    V[:, 0] = np.where(s > 0, half / n_pos, half / (n - n_pos))  # s . a = 0
    V[:, 1] = 1.0 - V[:, 0]
    beta = np.zeros(B)
    best = np.full(B, np.inf)  # the smallest certified gap, its dual and solution
    best_dual = np.zeros(B)
    best_x = np.zeros((B, 1 + p))
    broken = np.zeros(B, dtype=bool)  # whose last step was not finite
    out = np.zeros((B, 1 + p))
    reports: list[SolverReport | None] = [None] * B
    live = np.arange(B)  # the run position of each active problem
    Zl = Z[design]  # each live problem's design

    for it in range(MAX_ITER + 1):
        a, t, lam, mu = V[:, 0], V[:, 1], V[:, 2], V[:, 3]
        w = C[:, None] * np.matmul(Zl.transpose(0, 2, 1), (s * a)[:, :, None])[:, :, 0]
        u = np.matmul(Zl, w[:, :, None])[:, :, 0]
        penalty = np.add.reduce(w * w, axis=1) / (2.0 * n * C)
        bp = np.sort(s - u, axis=1)
        b = 0.5 * (bp[:, n_pos - 1] + bp[:, n_pos])
        primal = np.add.reduce(np.maximum(0.0, 1.0 - s * (b[:, None] + u)), axis=1) / n + penalty
        dual = np.add.reduce(a, axis=1) / n - penalty
        gap = primal - dual
        better = gap < best
        if np.count_nonzero(better):
            best[better], best_dual[better] = gap[better], dual[better]
            best_x[better, 0], best_x[better, 1:] = b[better], w[better]
        converged = gap <= TOL / 10
        ending = converged | broken if it < MAX_ITER else np.ones(live.size, dtype=bool)
        if np.count_nonzero(ending):
            ids, flags = live.tolist(), converged.tolist()
            for j in ending.nonzero()[0].tolist():
                out[ids[j]] = best_x[j]
                loss = hinge_loss(Coefficients(best_x[j, 0], best_x[j, 1:]), C[j], Zl[j], y)
                reports[ids[j]] = SolverReport(loss, it - int(broken[j]), flags[j],
                                               loss - float(best_dual[j]))
            rest = ~ending
            if not np.count_nonzero(rest):
                return out, reports
            live, design, C, V, beta, u, Zl, best, best_dual, best_x = (
                v[rest] for v in (live, design, C, V, beta, u, Zl, best, best_dual, best_x))
            a, t, lam, mu = V[:, 0], V[:, 1], V[:, 2], V[:, 3]

        # a breakdown (overflow at a bound, a singular system) shows as a
        # step that is not finite, found below
        with np.errstate(all="ignore"):
            rd = s * u - 1.0 - lam + mu - beta[:, None] * s  # G a = s u
            re = np.add.reduce(s * a, axis=1)
            rt = (a + t) - 1.0
            D = lam / a + mu / t + 1e-8
            if gram is None:
                dinv = 1.0 / D
                ZtD = (Zl * dinv[:, :, None]).transpose(0, 2, 1)
                M = np.matmul(ZtD, Zl)
                M.reshape(live.size, -1)[:, :: p + 1] += 1.0 / C[:, None]

                def solve(R):
                    """(D + G)^-1 R for the columns of R (B, n, k)."""
                    Y = _solve_each(M, np.matmul(ZtD, s[:, None] * R))
                    return dinv[:, :, None] * (R - s[:, None] * np.matmul(Zl, Y))
            else:
                H = C[:, None, None] * gram[design]  # D + C S Z Z' S
                H.reshape(live.size, -1)[:, :: n + 1] += D

                def solve(R):
                    """(D + G)^-1 R for the columns of R (B, n, k)."""
                    return _solve_each(H, R)

            def rhs(R):
                """The reduced right-hand side for complementarity residuals R."""
                return -rd - R[:, 0] / a + (R[:, 1] - mu * rt) / t

            def direction(R, x, v):
                """The step (B, 4, n) and its beta part, from x = (D + G)^-1 rhs(R)
                and v = (D + G)^-1 s."""
                dbeta = (-re - np.add.reduce(s * x, axis=1)) / np.add.reduce(s * v, axis=1)
                dV = np.empty_like(V)
                dV[:, 0] = x + dbeta[:, None] * v
                dV[:, 1] = -rt - dV[:, 0]
                dV[:, 2:] = (-R - V[:, 2:] * dV[:, :2]) / V[:, :2]
                return dV, dbeta

            def to_boundary(dV):
                """The largest step in (0, 1] that keeps every variable >= 0."""
                ratio = np.divide(-V, dV, out=np.full(V.shape, np.inf), where=dV < 0.0)
                return np.minimum(1.0, ratio.reshape(-1, 4 * n).min(axis=1))[:, None, None]

            products = V[:, :2] * V[:, 2:]  # a lam, t mu
            mean_gap = np.add.reduce(products.reshape(-1, 2 * n), axis=1) / (2 * n)
            # predictor: the affine step, solved together with v
            X = solve(np.stack((rhs(products), np.broadcast_to(s, a.shape)), axis=2))
            v = X[:, :, 1]
            dV, _ = direction(products, X[:, :, 0], v)
            ahead = V + to_boundary(dV) * dV
            affine = np.add.reduce((ahead[:, :2] * ahead[:, 2:]).reshape(-1, 2 * n), axis=1) / (2 * n)
            # corrector: centre toward sigma mean_gap, sigma = (affine / mean_gap)^3
            R = products + dV[:, :2] * dV[:, 2:] - ((affine / mean_gap) ** 3 * mean_gap)[:, None, None]
            dV, dbeta = direction(R, solve(rhs(R)[:, :, None])[:, :, 0], v)
            step = 0.995 * to_boundary(dV)
            V_next = V + step * dV
            beta_next = beta + step[:, 0, 0] * dbeta
            broken = ~np.isfinite(np.add.reduce(V_next.reshape(live.size, -1), axis=1) + beta_next)
        if np.count_nonzero(broken):
            V_next[broken], beta_next[broken] = V[broken], beta[broken]
        V, beta = V_next, beta_next


def fit_path(Q, positions, learner: str,
             alphas) -> tuple[np.ndarray, list[list[SolverReport]] | None]:
    """Fit one learner at every alpha of a grid on each design of a stack;
    the one fit for CV and refit, at every class count K.

    Q is a (B, m, n, p) stack of designs, each the m = K - 1 class
    transforms of one theta: the B thetas of one CV fold, or B = 1. They
    share the grid and the labels, given as the class positions 0..m of
    multiclass.build_design (y - 1 at K = 2). learner is 'ridge' (alpha is
    the penalty lambda), or at K = 2 only 'lasso' (alpha is lambda),
    'hinge' (alpha is the cost), 'logistic' (unregularized; alpha is
    ignored) or 'unit-weights' (QC: intercept 0 and unit weights, no solve
    and no report; only the width of Q is read). Columns constant in every
    class transform of a design are dropped before solving and get weight
    exactly 0; with the intercepts unpenalized this is the exact optimum,
    not an approximation. Ridge and lasso run from the largest lambda down,
    each solve warm-started from the one before; the other solves start
    cold. A separated logistic fit reports converged=False
    (_softmax_newton).

    Designs with the same dropped columns form a group. A group's Newton
    solves at each alpha (ridge, lasso, logistic) are one stacked solve of
    _softmax_newton, the lasso's alpha as its l1 (its orthant-wise steps
    keep the same lockstep), and its hinge solves at every cost are one
    stacked solve of _hinge_ipm; at K = 2 a group of one goes through the
    one-problem entries that the benchmark traces: _fit_logistic_newton and
    _fit_lasso_prox at each alpha, and fit_linear_svm at one cost. Every
    problem's result equals its solve on its own bit for bit, whatever the
    stack. A stack of B designs holds B (m n p + (m + p)^2) floats while it
    solves (hinge: at most HINGE_STACK_FLOATS).

    Returns (X, reports): X (B, A, m + p) holds each design's intercepts and
    then weights at each of the A alphas, in grid order; reports is the
    B x A grid of their SolverReports, None for unit-weights.
    """
    if learner not in VALID_PENALTIES + ("logistic", "unit-weights"):
        raise DomainError(f"unknown learner {learner!r}")
    if np.ndim(Q) != 4 or 0 in np.shape(Q)[:2]:
        raise DomainError("Q must be a (B, m, n, p) stack of B >= 1 designs, m >= 1")
    B, m, n, p = np.shape(Q)
    if m > 1 and learner != "ridge":
        raise DomainError(f"{learner} fits two classes only")
    alphas = np.asarray(alphas, dtype=float)
    A = alphas.size
    X = np.zeros((B, A, m + p))
    if learner == "unit-weights":
        X[..., m:] = 1.0
        return X, None
    if learner != "logistic" and not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise DomainError("every alpha must be positive and finite")
    positions = np.asarray(positions)
    if (positions.shape != (n,) or positions.dtype.kind not in "iu"
            or np.any((positions < 0) | (positions > m))):
        raise DomainError(f"positions must be {n} integers in 0..{m}")
    if np.count_nonzero(np.bincount(positions, minlength=m + 1)) <= m:
        raise FitError("every class must be present to fit a metalearner")
    Q = np.asarray(Q, dtype=float)
    keeps = ~degenerate_columns(Q).all(axis=1)
    groups: dict[bytes, list[int]] = {}
    for i, keep in enumerate(keeps):
        groups.setdefault(keep.tobytes(), []).append(i)
    reports = np.empty((B, A), dtype=object)
    for members in groups.values():
        keep = keeps[members[0]]
        Qg = np.compress(keep, Q[members], axis=3)
        if learner == "hinge":
            if len(members) == 1 and A == 1:
                coef, report = fit_linear_svm(Qg[0, 0], positions + 1, alphas[0])
                Xg, fits = np.append(coef.intercepts, coef.weights), [report]
            else:  # every member at every cost, member-major
                Xg, fits = _hinge_ipm(Qg[:, 0], positions, alphas)
            Xg, reports[members] = Xg.reshape(len(members), A, -1), np.reshape(fits, (-1, A))
        else:
            Xg = np.empty((len(members), A, m + Qg.shape[3]))
            x = None  # the group's solutions at the last alpha, the warm start
            for a in np.argsort(alphas)[::-1]:
                warm = x if learner in ("ridge", "lasso") else None
                lam = 0.0 if learner == "logistic" else alphas[a]
                if len(members) == 1 and m == 1:
                    entry = _fit_lasso_prox if learner == "lasso" else _fit_logistic_newton
                    x, report = entry(Qg[0, 0], positions, lam, None if warm is None else warm[0])
                    x, fits = x[None], [report]
                else:
                    ridge, l1 = (0.0, lam) if learner == "lasso" else (lam, 0.0)
                    x, fits = _softmax_newton(Qg, positions, ridge, warm, l1)
                Xg[:, a], reports[members, a] = x, fits
        X[np.ix_(members, range(A), np.r_[:m, m + np.flatnonzero(keep)])] = Xg
    return X, reports.tolist()
