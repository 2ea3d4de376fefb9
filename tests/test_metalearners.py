import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from eqc import (
    Coefficients,
    Dataset,
    DomainError,
    QuantileParams,
    ScenarioSpec,
    TuningGrid,
    estimate_quantile_table,
    fit_linear_svm,
    generate,
    hinge_loss,
    tune_and_train,
)
from eqc import metalearners
from eqc.binary import class_transforms
from eqc.metalearners import _fit_logistic_newton, _softmax_newton, fit_path
from eqc.quantiles import degenerate_columns
from eqc.selection import DEFAULT_ALPHA_GRID, make_folds


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def binomial_loss(coef, penalty, Z, y):
    """Penalized binomial deviance (1/n normalized, intercept unpenalized),
    the referee for SolverReport.final_loss at K = 2.

    penalty is a (kind, lambda) pair: ridge adds (lambda/2) sum(w_j^2),
    lasso (lambda/2) sum(|w_j|).
    """
    kind, lam = penalty
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y)
    if coef.weights.size != Z.shape[1]:
        raise DomainError("coefficient dimension does not match Z")
    c = coef.scores(Z[None])[:, 0]
    base = float(np.mean(np.logaddexp(0.0, c) - (y - 1) * c))
    w = coef.weights
    pen = np.sum(w * w) if kind == "ridge" else np.sum(np.abs(w))
    return base + 0.5 * lam * pen


def binomial_gradient(coef, penalty, Z, y):
    """Analytic gradient of the ridge objective over (intercept, weights)."""
    _, lam = penalty
    Z = np.asarray(Z, dtype=float)
    r = expit(coef.intercepts[0] + Z @ coef.weights) - (np.asarray(y) - 1)
    g = np.empty(Z.shape[1] + 1)
    g[0] = r.mean()
    g[1:] = Z.T @ r / Z.shape[0] + lam * coef.weights
    return g


def _objective_per_budget(monkeypatch, solve):
    """final_loss of solve(), a report, at Newton budgets 1, 2, ... up to
    the full solve's steps: the objective after each accepted step."""
    full = solve()
    losses = []
    for budget in range(1, full.iterations + 1):
        monkeypatch.setattr(metalearners, "MAX_ITER", budget)
        losses.append(solve().final_loss)
    monkeypatch.undo()
    return losses


def _naive_binomial(coef, lam, Z, y, kind):
    """Independent per-sample summation oracle for the penalized deviance."""
    n = len(y)
    total = 0.0
    for i in range(n):
        c = coef.intercepts[0] + float(np.dot(Z[i], coef.weights))
        total += -((y[i] - 1) * c - math.log(1.0 + math.exp(c)))
    total /= n
    if kind == "ridge":
        total += 0.5 * lam * float(np.sum(coef.weights**2))
    else:
        total += 0.5 * lam * float(np.sum(np.abs(coef.weights)))
    return total


def _naive_hinge(coef, cost, Z, y):
    n = len(y)
    total = 0.0
    for i in range(n):
        s = 2 * (y[i] - 1) - 1
        c = coef.intercepts[0] + float(np.dot(Z[i], coef.weights))
        total += max(0.0, 1.0 - s * c)
    return total / n + float(np.sum(coef.weights**2)) / (2 * n * cost)


def _smo_svm(Z, y, cost):
    """SMO referee for fit_linear_svm: the solver eqc shipped before the
    interior-point one, kept here as an independent check.

    Pair updates (Platt 1998) on the C-SVM dual, each pair by second-order
    working-set selection (Fan, Chen & Lin, JMLR 2005), until the maximal
    KKT violation is at most TOL, within MAX_ITER * n pair updates. Returns the coefficients (w from alpha, the intercept at
    the midpoint of the sorted hinge breakpoints) and a SolverReport with
    hinge_loss, the updates, converged and the duality gap.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y).astype(int)
    n = Z.shape[0]
    s = 2.0 * (y - 1.0) - 1.0
    pos = s > 0
    C = float(cost)
    K = Z @ Z.T
    d = np.diag(K)
    # inverse curvature of the dual along pair (i, j), floored as in LIBSVM
    inv_curv = 1.0 / np.maximum(d[:, None] + d[None, :] - 2.0 * K, 1e-12)
    # v = -s * (gradient of 1/2 a'Qa - sum(a)); moving alpha_i by +s_i t and
    # alpha_j by -s_j t keeps s . alpha = 0 and raises the dual at rate
    # v_i - v_j; off_up / off_low mask the indices that cannot move so
    v = s.copy()
    off_up = np.where(pos, 0.0, -np.inf)
    off_low = np.where(pos, np.inf, 0.0)
    alpha = [0.0] * n
    is_pos = pos.tolist()
    budget = metalearners.MAX_ITER * n
    updates = 0
    converged = False
    while True:
        v_up = v + off_up
        i = int(v_up.argmax())
        rise = float(v_up[i]) - (v + off_low)
        if rise.max() <= metalearners.TOL:
            converged = True
            break
        if updates == budget:
            break
        gain = np.maximum(rise, 0.0) ** 2 * inv_curv[i]
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
    n_pos = int(np.count_nonzero(pos))
    bp = np.sort(s - Z @ w)
    coef = Coefficients(0.5 * (bp[n_pos - 1] + bp[n_pos]), w)
    primal = hinge_loss(coef, C, Z, y)
    dual = (float(np.sum(alpha)) - 0.5 * float(w @ w)) / (n * C)
    return coef, metalearners.SolverReport(primal, updates, converged, primal - dual)


def _slsqp_svm(Z, y, cost):
    """SLSQP referee for fit_linear_svm: hinge_loss at the minimizer of the
    primal QP with slacks over (b, w, xi), in hinge_loss units:
    min |w|^2 / (2 n cost) + mean(xi) subject to s_i (b + w . z_i) >= 1 - xi_i
    and xi >= 0."""
    from scipy.optimize import minimize

    n, p = Z.shape
    s = 2.0 * (y - 1.0) - 1.0
    A = np.hstack([s[:, None], s[:, None] * Z, np.eye(n)])
    q = 1.0 / (n * cost)
    weight = np.concatenate([np.zeros(p + 1), np.full(n, 1.0 / n)])
    res = minimize(
        lambda x: 0.5 * q * x[1 : p + 1] @ x[1 : p + 1] + weight @ x,
        np.concatenate([np.zeros(p + 1), np.ones(n)]),
        jac=lambda x: np.concatenate([[0.0], q * x[1 : p + 1], np.zeros(n)]) + weight,
        method="SLSQP",
        bounds=[(None, None)] * (p + 1) + [(0.0, None)] * n,
        constraints=[{"type": "ineq", "fun": lambda x: A @ x - 1.0, "jac": lambda x: A}],
        options={"ftol": 1e-12, "maxiter": 2000},
    )
    assert res.success, res.message
    return hinge_loss(Coefficients(res.x[0], res.x[1 : p + 1]), cost, Z, y)


class TestBinomialLoss:
    def test_zero_coefficients_log2(self):
        coef = Coefficients(0.0, np.zeros(3))
        pen = ("ridge", 5.0)
        for label in (1, 2):
            loss = binomial_loss(coef, pen, np.zeros((1, 3)), [label])
            assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_matches_naive_summation(self):
        rng = _rng(3)
        Z = rng.standard_normal((17, 4))
        y = rng.integers(1, 3, size=17)
        y[:2] = [1, 2]
        coef = Coefficients(0.3, rng.standard_normal(4))
        for kind in ("ridge", "lasso"):
            pen = (kind, 0.37)
            ours = binomial_loss(coef, pen, Z, y)
            oracle = _naive_binomial(coef, 0.37, Z, y, kind)
            assert ours == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        coef = Coefficients(0.0, np.zeros(2))
        with pytest.raises(DomainError):
            binomial_loss(coef, ("ridge", 1.0), np.zeros((3, 3)), [1, 2, 1])

    def test_convexity_witness(self):
        rng = _rng(11)
        Z = rng.standard_normal((25, 3))
        y = np.append(rng.integers(1, 3, size=23), [1, 2])
        for kind in ("ridge", "lasso"):
            pen = (kind, 0.2)
            for _ in range(50):
                a = Coefficients(rng.normal(), rng.standard_normal(3))
                b = Coefficients(rng.normal(), rng.standard_normal(3))
                t = rng.uniform(0.05, 0.95)
                mid = Coefficients(
                    t * a.intercepts[0] + (1 - t) * b.intercepts[0],
                    t * a.weights + (1 - t) * b.weights,
                )
                lhs = binomial_loss(mid, pen, Z, y)
                rhs = t * binomial_loss(a, pen, Z, y) + (1 - t) * binomial_loss(b, pen, Z, y)
                assert lhs <= rhs + 1e-10


class TestRidgeNewton:
    def test_all_zero_design_balanced(self):
        Z = np.zeros((10, 2))
        y = np.array([1, 2] * 5)
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "ridge", [0.5])
        assert report.converged
        assert coef.intercepts[0] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(coef.weights, 0.0, atol=1e-9)

    def test_beats_grid_search_oracle(self):
        rng = _rng(7)
        Z = rng.standard_normal((20, 2))
        y = np.where(Z[:, 0] + 0.5 * rng.standard_normal(20) > 0, 2, 1)
        y[:2] = [1, 2]
        lam = 0.1
        pen = ("ridge", lam)
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "ridge", [lam])
        assert report.converged
        ours = binomial_loss(coef, pen, Z, y)
        # every point of the 41^3 grid at once; the best is re-scored below
        grid = np.linspace(-3, 3, 41)
        b0, b1, b2 = (g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij"))
        W = np.column_stack((b1, b2))
        c = b0[:, None] + W @ Z.T
        losses = (np.mean(np.logaddexp(0.0, c) - (y - 1) * c, axis=1)
                  + 0.5 * lam * np.sum(W * W, axis=1))
        i = int(losses.argmin())
        best = binomial_loss(Coefficients(b0[i], W[i]), pen, Z, y)
        assert ours <= best + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = _rng(19)
        Z = rng.standard_normal((30, 4))
        y = np.append(rng.integers(1, 3, size=28), [1, 2])
        pen = ("ridge", 0.3)
        coef = Coefficients(0.2, rng.standard_normal(4))
        g = binomial_gradient(coef, pen, Z, y)
        eps = 1e-6
        x = np.concatenate(([coef.intercepts[0]], coef.weights))
        for j in range(5):
            lo, hi = x.copy(), x.copy()
            lo[j] -= eps
            hi[j] += eps
            f_lo = binomial_loss(Coefficients(lo[0], lo[1:]), pen, Z, y)
            f_hi = binomial_loss(Coefficients(hi[0], hi[1:]), pen, Z, y)
            fd = (f_hi - f_lo) / (2 * eps)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_monotone_loss_trace(self, monkeypatch):
        rng = _rng(23)
        Z = rng.standard_normal((40, 3))
        y = np.where(Z @ np.array([1.0, -0.5, 0.2]) > 0, 2, 1)
        y[:2] = [1, 2]
        # ridge, and the lasso (l1 > 0), whose objective is the penalized one
        for lam, l1 in ((0.05, 0.0), (0.0, 0.05)):
            losses = _objective_per_budget(
                monkeypatch, lambda: _softmax_newton(Z[None, None], y - 1, lam, l1=l1)[1][0])
            assert len(losses) >= 2
            diffs = np.diff(np.asarray(losses))
            assert np.all(diffs <= 1e-12)

    def test_doubling_lambda_shrinks_weights(self):
        rng = _rng(29)
        Z = rng.standard_normal((30, 3))
        y = np.where(Z[:, 0] > 0, 2, 1)
        y[:2] = [1, 2]
        norms = []
        for lam in (0.01, 0.02, 0.04, 0.08, 0.16):
            [[(coef, _)]] = fit_path(Z[None, None], y - 1, "ridge", [lam])
            norms.append(np.linalg.norm(coef.weights))
        # heavier penalty never grows the optimum's weight norm
        assert np.all(np.diff(norms) <= 1e-8)

    def test_nonconvergence_reports_not_raises(self, monkeypatch):
        rng = _rng(67)
        Z = rng.standard_normal((30, 3))
        y = np.where(Z[:, 0] > 0, 2, 1)
        y[:2] = [1, 2]
        # a one-step budget cannot reach the 1e-8 (sub)gradient tolerance
        monkeypatch.setattr(metalearners, "MAX_ITER", 1)
        for kind in ("ridge", "lasso"):
            [[(coef, report)]] = fit_path(Z[None, None], y - 1, kind, [0.01])
            assert not report.converged
            assert np.isfinite(coef.weights).all()
            assert report.iterations == 1
            assert report.grad_norm_at_exit > 1e-8

    def test_report_describes_the_returned_point(self, monkeypatch):
        # the problem above; whatever ends the solve, the report's gradient
        # norm and convergence are those of the coefficients returned
        rng = _rng(67)
        Z = rng.standard_normal((30, 3))
        y = np.where(Z[:, 0] > 0, 2, 1)
        y[:2] = [1, 2]
        Q, Y, lam = Z[None, None], (y == 1)[None].astype(float), 0.01
        [[(_, full)]] = fit_path(Q, y - 1, "ridge", [lam])
        assert full.converged and full.iterations == 5
        for budget in range(1, full.iterations + 1):
            monkeypatch.setattr(metalearners, "MAX_ITER", budget)
            [[(coef, report)]] = fit_path(Q, y - 1, "ridge", [lam])
            x = np.concatenate((coef.intercepts, coef.weights))[None]
            _, S, lse = metalearners._softmax_terms(Q, Y, lam, x)
            G, _ = metalearners._softmax_gradient(Q, Y, lam, x, S, lse)
            assert report.grad_norm_at_exit == np.sqrt(metalearners._rowdot(G, G))[0]
            assert report.iterations == budget
            assert report.converged == (budget == full.iterations)
        assert report == full


def _fold_stack(family="t3", n=60, p=8, seed=0, thetas=None, counts=False, K=2):
    """One CV fold's training designs, one per theta, stacked as fit_path
    takes them, and the class positions of their labels."""
    if counts:  # count data full of zeros and ties, as in a term matrix
        rng = _rng(seed)
        y = np.repeat([1, 2], n // 2)
        X = rng.poisson(np.where(y[:, None] == 1, 0.4, 0.9), (n, p)).astype(float)
        data = Dataset(X, y)
    elif K == 2:
        data = generate(ScenarioSpec(family, n, p, seed=seed), 2).train
    else:  # K classes of t3 draws, class k shifted by 0.5 (k - 1) on every column
        rng = _rng(seed)
        y = np.repeat(np.arange(1, K + 1), n // K)
        data = Dataset(rng.standard_t(3, (y.size, p)) + 0.5 * (y[:, None] - 1), y)
    thetas = np.round(np.arange(0.05, 0.951, 0.05), 2) if thetas is None else thetas
    tables = [estimate_quantile_table(data, QuantileParams.common(th, p)) for th in thetas]
    return np.stack([class_transforms(data.X, t) for t in tables]), data.y - 1


def _stack_equals_one_at_a_time(Z, positions, learner, alphas):
    """fit_path on the stack Z, after checking that every design's fits,
    coefficients and reports equal bit for bit those of its own call."""
    stacked = fit_path(Z, positions, learner, alphas)
    for Zi, fits in zip(Z, stacked):
        [alone] = fit_path(Zi[None], positions, learner, alphas)
        for (c, r), (c1, r1) in zip(fits, alone):
            assert np.array_equal(c.intercepts, c1.intercepts)
            assert np.array_equal(c.weights, c1.weights)
            assert r == r1
    return stacked


def _mask(Zi):
    """The columns of design Zi (m, n, p) that fit_path keeps, as bytes."""
    return (~degenerate_columns(Zi).all(axis=0)).tobytes()


class TestStackedNewton:
    # fit_path solves the designs of a stack in lockstep; each must get
    # exactly the fit it gets alone

    @pytest.mark.parametrize("learner, alphas", [
        ("ridge", [3.0, 0.1, 0.003]),
        ("lasso", [0.1, 0.01]),
        ("logistic", [np.nan]),
        ("multiclass-ridge", [3.0, 0.1, 0.003]),  # fit_path's ridge at K = 3
        ("hinge", [0.003, 0.1, 3.0, 100.0]),  # one stack of every theta and cost
    ])
    def test_stack_equals_one_at_a_time(self, learner, alphas):
        K = 3 if learner == "multiclass-ridge" else 2
        Z, pos = _fold_stack(K=K)
        assert Z.shape[1] == K - 1
        assert len({_mask(Zi) for Zi in Z}) < len(Z)  # some designs do share a stack
        learner = "ridge" if K == 3 else learner
        stacked = _stack_equals_one_at_a_time(Z, pos, learner, alphas)
        iterations = {r.iterations for fits in stacked for _, r in fits}
        assert len(iterations) > 1  # the designs stop at different steps

    def test_separated_design_beside_overlapping_ones(self):
        rng = _rng(41)
        y = np.repeat([1, 2], 20)
        noise = rng.standard_normal((3, 40, 3))
        Z = noise.copy()
        Z[0, :, 0] = (2.0 * y - 3.0) + 0.1 * noise[0, :, 0]  # separates the classes
        assert _strictly_separable(Z[0], y) and not _strictly_separable(Z[1], y)
        stacked = _stack_equals_one_at_a_time(Z[:, None], y - 1, "logistic", [np.nan])
        converged = [fits[0][1].converged for fits in stacked]
        assert converged == [False, True, True]  # the certificate is per design

    def test_budget_ends_some_designs(self, monkeypatch):
        Z, pos = _fold_stack(seed=3)
        full = [fits[0][1].iterations for fits in fit_path(Z, pos, "logistic", [np.nan])]
        budget = (min(full) + max(full)) // 2
        assert min(full) < budget < max(full)
        monkeypatch.setattr(metalearners, "MAX_ITER", budget)
        stacked = _stack_equals_one_at_a_time(Z, pos, "logistic", [np.nan])
        ended = [fits[0][1] for fits in stacked]
        assert any(r.converged for r in ended)
        assert any(not r.converged and r.iterations == budget for r in ended)

    @pytest.mark.parametrize("lam, l1", [pytest.param(1e-3, 0.0, id="0.001"),
                                         pytest.param(0.0, 0.0, id="0.0"),
                                         pytest.param(0.0, 0.05, id="lasso")])
    def test_backtracking_and_singular_problems_stay_apart(self, lam, l1):
        # problem 1 starts far out, where full Newton steps overshoot, so it
        # backtracks while problem 0 takes full steps; problem 2 has two
        # equal columns of scale 1e8, so its Hessian is singular but for
        # the diagonal shift, which is relative to the diagonal and so
        # still fixes the null direction at that scale; the lasso's free
        # blocks are singular too and take the same shift, with the same
        # gradient fallback behind it
        rng = _rng(3)
        y = np.repeat([1, 2], 20)
        Z = rng.standard_normal((3, 40, 3)) + (y[:, None] - 1.5)
        Z[2, :, 1] = Z[2, :, 0] = 1e8 * rng.standard_normal(40)
        X0 = np.zeros((3, 4))
        X0[1, 1:] = [-40.0, 25.0, -30.0]
        X, reports = _softmax_newton(Z[:, None], y - 1, lam, X0, l1=l1)
        for i in range(3):
            Xi, [ri] = _softmax_newton(Z[i:i + 1, None], y - 1, lam, X0[i:i + 1], l1=l1)
            assert np.array_equal(Xi[0], X[i]) and ri == reports[i]
        assert all(r.converged for r in reports)
        assert reports[1].iterations > reports[0].iterations

    @pytest.mark.parametrize("learner", ["ridge", "lasso", "hinge"])
    def test_count_data_with_two_column_masks(self, learner):
        Z, pos = _fold_stack(n=40, p=6, counts=True, thetas=[0.1, 0.3, 0.5, 0.5, 0.7, 0.9])
        masks = [_mask(Zi) for Zi in Z]
        assert len(set(masks)) >= 2
        assert max(masks.count(m) for m in masks) >= 2
        _stack_equals_one_at_a_time(Z, pos, learner, [1.0, 0.05])

    @pytest.mark.parametrize("learner", ["lasso", "hinge", "logistic", "unit-weights"])
    def test_two_class_learners_reject_more_classes(self, learner):
        Z, pos = _fold_stack(K=3, thetas=[0.5])
        with pytest.raises(DomainError):
            fit_path(Z, pos, learner, [0.1])

    def test_column_dropped_only_when_constant_in_every_transform(self):
        # K = 3: column 1 is constant in the first class transform only,
        # column 2 in both; only column 2 is dropped, and the fit on the
        # other columns is the fit without column 2, bit for bit
        rng = _rng(53)
        pos = np.repeat([0, 1, 2], 20)
        Q = rng.standard_normal((2, 60, 4)) + 0.7 * (pos == np.arange(2)[:, None])[:, :, None]
        Q[0, :, 1] = 0.25
        Q[:, :, 2] = [[-0.5], [1.5]]
        [[(coef, report)]] = fit_path(Q[None], pos, "ridge", [0.1])
        assert report.converged
        assert coef.weights[1] != 0.0 and coef.weights[2] == 0.0
        [[(without, without_report)]] = fit_path(Q[None][..., [0, 1, 3]], pos, "ridge", [0.1])
        assert np.array_equal(coef.intercepts, without.intercepts)
        assert np.array_equal(coef.weights[[0, 1, 3]], without.weights)
        assert report == without_report



class TestStackedHinge:
    # fit_path solves a group's hinge problems, every design at every cost,
    # in one lockstep interior-point solve; each must get exactly the fit
    # it gets alone, and the fit of the refit's entry, fit_linear_svm
    COSTS = [0.003, 0.1, 3.0, 100.0]

    @pytest.mark.parametrize("n, p", [(60, 8), (24, 40)])  # p >= n: the direct form
    def test_stack_equals_the_refit_entry(self, n, p):
        # every (theta, cost) of the fold's stack equals fit_linear_svm on
        # its design alone, as the refit at that cell solves it
        Z, pos = _fold_stack(n=n, p=p)
        for Zi, fits in zip(Z, fit_path(Z, pos, "hinge", self.COSTS)):
            keep = ~degenerate_columns(Zi).all(axis=0)
            assert (np.count_nonzero(keep) >= n) == (p >= n)
            for (coef, report), cost in zip(fits, self.COSTS):
                assert report.converged
                alone, alone_report = fit_linear_svm(Zi[0][:, keep], pos + 1, cost)
                assert np.array_equal(coef.intercepts, alone.intercepts)
                assert np.array_equal(coef.weights[keep], alone.weights)
                assert report == alone_report

    def test_budget_ends_some_problems(self, monkeypatch):
        Z, pos = _fold_stack(seed=3)
        full = [r.iterations for fits in fit_path(Z, pos, "hinge", self.COSTS) for _, r in fits]
        budget = (min(full) + max(full)) // 2
        assert min(full) < budget < max(full)
        monkeypatch.setattr(metalearners, "MAX_ITER", budget)
        stacked = _stack_equals_one_at_a_time(Z, pos, "hinge", self.COSTS)
        ended = 0
        for Zi, fits in zip(Z, stacked):
            keep = ~degenerate_columns(Zi).all(axis=0)
            for (coef, report), cost in zip(fits, self.COSTS):
                if report.converged:
                    continue
                ended += 1
                # the best-certified iterate, reported as fit_linear_svm does
                assert report.iterations == budget
                assert report.grad_norm_at_exit > metalearners.TOL / 10
                kept = Coefficients(coef.intercepts, coef.weights[keep])
                Z_kept = np.compress(keep, Zi[0], axis=1)  # the C-ordered copy fit_path solves
                assert report.final_loss == hinge_loss(kept, cost, Z_kept, pos + 1)
        assert 0 < ended < len(full)

    @pytest.mark.parametrize("n, p", [(60, 8), (24, 40)])
    def test_runs_equal_one_stack(self, monkeypatch, n, p):
        # a stack larger than HINGE_STACK_FLOATS is solved in runs; here
        # one problem a run, with the fits of the whole stack
        Z, pos = _fold_stack(n=n, p=p, thetas=[0.2, 0.5, 0.8])
        whole = fit_path(Z, pos, "hinge", self.COSTS)
        monkeypatch.setattr(metalearners, "HINGE_STACK_FLOATS", 1)
        for fits, ones in zip(whole, fit_path(Z, pos, "hinge", self.COSTS)):
            for (c, r), (c1, r1) in zip(fits, ones):
                assert np.array_equal(c.intercepts, c1.intercepts)
                assert np.array_equal(c.weights, c1.weights)
                assert r == r1

    def test_refit_alone_goes_through_fit_linear_svm(self, monkeypatch):
        # the benchmark traces fit_linear_svm: a group of one at one cost
        # (the refit) passes it, stacked CV solves do not
        calls = []
        entry = metalearners.fit_linear_svm

        def recording(*args):
            calls.append(args[2])
            return entry(*args)

        monkeypatch.setattr(metalearners, "fit_linear_svm", recording)
        Z, pos = _fold_stack(thetas=[0.3, 0.5])
        fit_path(Z, pos, "hinge", self.COSTS)
        fit_path(Z[:1], pos, "hinge", self.COSTS)
        assert calls == []
        fit_path(Z[:1], pos, "hinge", [3.0])
        assert calls == [3.0]


class TestRoundingLevelArmijo:
    def test_stalled_fit_converges(self):
        # the ridge fit at lambda = 5.18 of fold 4, theta 0.5, of the default
        # grid's tuning on t3 (n = 100, p = 50, seed 0), warm-started along
        # its path: near the optimum the predicted decrease fell below
        # ulp(f), so the plain Armijo test took steps near 2^-31 and ran out
        # the 500-step budget at a gradient norm just above TOL
        stalled_loss, stalled_grad = 0.691218358508312, 1.1845227332587175e-08
        data = generate(ScenarioSpec("t3", 100, 50, seed=0), 2).train
        tr = data.subset(make_folds(data.y, 5, True, 0) != 4)
        table = estimate_quantile_table(tr, QuantileParams.common(0.5, 50))
        Z = class_transforms(tr.X, table)
        lam = DEFAULT_ALPHA_GRID[11]
        assert lam == pytest.approx(5.18, abs=0.01)
        [fits] = fit_path(Z[None], tr.y - 1, "ridge", DEFAULT_ALPHA_GRID[11:])
        coef, report = fits[0]
        assert report.converged and report.iterations <= 10
        # both objectives are the optimum up to the rounding of f
        assert report.final_loss <= stalled_loss + 4 * np.spacing(stalled_loss)
        # and in exact arithmetic the new one is lower: with L an upper
        # bound on the Hessian, f - f* >= |g|^2 / (2L) at the stalled point,
        # while f - f* <= |g|^2 / (2 mu) here (mu halved for rounding)
        keep = ~degenerate_columns(Z[0])
        Zk = Z[:, :, keep]
        A = np.column_stack((np.ones(len(tr.y)), Zk[0]))  # the weights P(1 - P) are <= 1/4
        L = lam + np.linalg.eigvalsh(A.T @ A).max() / (4 * len(tr.y))
        x = np.concatenate((coef.intercepts, coef.weights[keep]))[None]
        Q, Y = Zk[:, None], (tr.y == 1)[None].astype(float)
        _, S, lse = metalearners._softmax_terms(Q, Y, lam, x)
        _, P = metalearners._softmax_gradient(Q, Y, lam, x, S, lse)
        mu = np.linalg.eigvalsh(metalearners._softmax_hessian(Q, lam, P)[0]).min() / 2
        assert report.grad_norm_at_exit ** 2 / (2 * mu) < stalled_grad ** 2 / (2 * L)


class TestSigmoidOverflow:
    def test_separable_fits_raise_no_runtime_warning(self):
        # margins reach thousands, where exp(-c) overflows a double
        Z = np.array([[-100.0], [-1.0], [1.0], [100.0]])
        y = np.array([1, 1, 2, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plain, report = _fit_logistic_newton(Z, (y - 1).astype(float), 0.0)
            [[(ridge, _)]] = fit_path(Z[None, None], y - 1, "ridge", [1e-12])
            g = binomial_gradient(
                Coefficients(0.0, np.array([1000.0])), ("ridge", 1.0), Z, y
            )
        # the 4 points are separable, so the unpenalized fit has no minimizer
        assert not report.converged
        assert plain[1] > 0 and ridge.weights[0] > 0
        assert np.all(np.isfinite(g))


def _strictly_separable(Z, y):
    """LP referee: is some (b, w) with s_i (b + z_i . w) >= 1 for every i,
    s_i the margin label, feasible? (HiGHS)"""
    from scipy.optimize import linprog

    n, p = Z.shape
    s = 2.0 * (np.asarray(y) - 1.0) - 1.0
    A = -s[:, None] * np.column_stack((np.ones(n), Z))
    res = linprog(np.zeros(p + 1), A_ub=A, b_ub=-np.ones(n),
                  bounds=[(None, None)] * (p + 1), method="highs")
    assert res.status in (0, 2)  # feasible or infeasible, nothing else
    return res.status == 0


def _t3_design(p, seed):
    data = generate(ScenarioSpec("t3", 100, p, seed=seed), 2).train
    table = estimate_quantile_table(data, QuantileParams.common(0.5, p))
    return class_transforms(data.X, table)[0], data.y


class TestLogisticSeparation:
    # with every training margin positive the logistic likelihood has no
    # maximizer (Albert & Anderson, Biometrika 1984); the solver still stops
    # on its gradient norm, and _fit_logistic_newton, the solve fit_path
    # makes, reports such fits as not converged

    @pytest.mark.parametrize("Z, y", [
        (np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([1, 1, 2, 2])),
        _t3_design(50, 0),
    ])
    def test_separable_reports_not_converged(self, Z, y):
        assert _strictly_separable(Z, y)
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "logistic", [np.nan])
        assert not report.converged
        s = 2.0 * (y - 1.0) - 1.0
        assert np.all(s * coef.scores(Z[None])[:, 0] > 0)
        # the solver entry itself says so, not only fit_path
        keep = ~degenerate_columns(Z)
        _, plain_report = _fit_logistic_newton(Z[:, keep], (y - 1).astype(float), 0.0)
        assert plain_report == report

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overlapping_t3_unchanged(self, seed):
        Z, y = _t3_design(5, seed)
        assert not _strictly_separable(Z, y)
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "logistic", [np.nan])
        # the solve fit_path makes, on the same copy of the columns
        keep = ~degenerate_columns(Z)
        plain, plain_report = _fit_logistic_newton(Z[:, keep], (y - 1).astype(float), 0.0)
        assert report.converged
        assert report == plain_report
        assert np.array_equal(coef.intercepts, plain[:1])
        assert np.array_equal(coef.weights[keep], plain[1:])
        assert not coef.weights[~keep].any()


def _lasso_referee(Z, y, lam):
    """Independent lasso minimizer: L-BFGS-B on the split form w = u - v.

    With u, v >= 0 the penalty (lam/2)(sum u + sum v) is smooth, so a
    bound-constrained quasi-Newton method solves the problem without any
    of the proximal machinery under test.
    """
    from scipy.optimize import minimize

    n, p = Z.shape
    y01 = (np.asarray(y) - 1).astype(float)

    def fun(v):
        c = v[0] + Z @ (v[1 : p + 1] - v[p + 1 :])
        r = expit(c) - y01
        gw = Z.T @ r / n
        f = np.mean(np.logaddexp(0.0, c) - y01 * c) + 0.5 * lam * v[1:].sum()
        return f, np.concatenate(([r.mean()], gw + 0.5 * lam, -gw + 0.5 * lam))

    res = minimize(fun, np.zeros(2 * p + 1), jac=True, method="L-BFGS-B",
                   bounds=[(None, None)] + [(0.0, None)] * (2 * p),
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
    return Coefficients(res.x[0], res.x[1 : p + 1] - res.x[p + 1 :])


class TestLassoProx:
    @pytest.mark.parametrize("seed, n, p, lam", [(81, 30, 3, 0.02), (83, 50, 6, 0.1),
                                                 (89, 80, 10, 0.005),
                                                 (114, 20, 60, 0.03)])  # p > n
    def test_not_above_lbfgsb_referee(self, seed, n, p, lam):
        rng = _rng(seed)
        Z = rng.standard_normal((n, p))
        y = np.where(Z[:, 0] - 0.5 * Z[:, 1] + rng.standard_normal(n) > 0, 2, 1)
        y[:2] = [1, 2]
        pen = ("lasso", lam)
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "lasso", [lam])
        referee = binomial_loss(_lasso_referee(Z, y, lam), pen, Z, y)
        assert binomial_loss(coef, pen, Z, y) <= referee + 1e-9
        assert report.converged
        assert report.grad_norm_at_exit <= 1e-8
        assert report.final_loss == pytest.approx(binomial_loss(coef, pen, Z, y), abs=1e-14)

    def test_converges_where_proximal_gradient_stalled(self):
        # heterogeneous scenario with half noise columns, theta = 0.05: an
        # ill-conditioned path on which plain proximal gradient (FISTA) does
        # not converge within 500 steps at lambda = 0.003
        spec = ScenarioSpec("heterogeneous", 100, 50, noise_fraction=0.5, delta=0.2, seed=0)
        data = generate(spec, 2).train
        table = estimate_quantile_table(data, QuantileParams.common(0.05, 50))
        Z = class_transforms(data.X, table)[0]
        [fits] = fit_path(Z[None, None], data.y - 1, "lasso", [3.0, 0.1, 0.003])
        for _, report in fits:
            assert report.converged
            assert report.grad_norm_at_exit <= 1e-8
            assert report.iterations < 50
        referee = binomial_loss(_lasso_referee(Z, data.y, 0.003), ("lasso", 0.003),
                                Z, data.y)
        assert fits[2][1].final_loss <= referee + 1e-9

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_duplicated_column_at_a_large_scale(self, scale):
        # the two equal columns make the lasso's Newton system singular once
        # both weights are free; the relative diagonal shift and the
        # gradient fallback that ridge uses serve it too, so CV and the
        # refit go on
        data = generate(ScenarioSpec("t3", 100, 5, seed=0), 2).train
        X = data.X.copy()
        X[:, 1] = X[:, 0]
        grid = TuningGrid((0.3, 0.5, 0.7), (0.001, 0.1, 10.0), folds=3)
        model, cv = tune_and_train(Dataset(scale * X, data.y), grid, "lasso")
        assert model.report.converged
        if scale == 1e4:
            assert cv.chosen == (0.5, 0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_path_converges_at_another_backtrack(self, monkeypatch, seed):
        # the trial after the full step is the first-zero step at any shrink
        # factor; with the factor 1/BACKTRACK fixed at 2, BACKTRACK = 0.25
        # tried half of it, and fits of this path got stuck or ran out
        monkeypatch.setattr(metalearners, "BACKTRACK", 0.25)
        Z, y = _t3_design(50, seed)
        [fits] = fit_path(Z[None, None], y - 1, "lasso", DEFAULT_ALPHA_GRID)
        for _, report in fits:
            assert report.converged
            assert report.grad_norm_at_exit <= metalearners.TOL

    def test_fit_in_the_rounding_band_retires(self):
        # EQC transforms in units of 1e3 (t3, n = 30, p = 50, half noise,
        # seed 1, theta = 0.3): at the 8th alpha of the path the subgradient
        # norm stays above TOL, and each step the line search accepts leaves
        # the iterate bitwise unchanged. The fit retires as not converged
        # instead of repeating that pass until MAX_ITER, at a point that a
        # further solve does not move
        data = generate(ScenarioSpec("t3", 30, 50, noise_fraction=0.5, seed=1), 2).train
        data = Dataset(1e3 * data.X, data.y)
        table = estimate_quantile_table(data, QuantileParams.common(0.3, 50))
        Z = class_transforms(data.X, table)[0]
        [fits] = fit_path(Z[None, None], data.y - 1, "lasso", DEFAULT_ALPHA_GRID)
        assert [a for a, (_, report) in enumerate(fits) if not report.converged] == [7]
        coef, report = fits[7]
        assert report.iterations < metalearners.MAX_ITER
        keep = ~degenerate_columns(Z)
        x = np.concatenate((coef.intercepts, coef.weights[keep]))
        again, [rerun] = _softmax_newton(Z[None, None][..., keep], data.y - 1, 0.0,
                                         x[None], l1=DEFAULT_ALPHA_GRID[7])
        assert np.array_equal(again[0], x)
        assert rerun.iterations == 0 and not rerun.converged
        assert rerun.final_loss == report.final_loss

    def test_above_critical_threshold_weights_zero(self):
        rng = _rng(31)
        Z = rng.standard_normal((40, 5))
        y = np.append(rng.integers(1, 3, size=38), [1, 2])
        y01 = (y - 1).astype(float)
        # at the intercept-only optimum mu = mean(y01); the subgradient
        # condition for an all-zero weight vector is
        # max_j |(1/n) sum z_ij (y01_i - ybar)| <= lambda/2
        corr = np.abs(Z.T @ (y01 - y01.mean())) / len(y)
        lam = 2.0 * corr.max() * 1.0001
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "lasso", [lam])
        assert report.converged
        assert np.all(coef.weights == 0.0)

    def test_kkt_stationarity(self):
        rng = _rng(37)
        Z = rng.standard_normal((60, 6))
        beta_true = np.array([2.0, -1.5, 0.0, 0.0, 0.0, 0.0])
        y = np.where(Z @ beta_true + 0.3 * rng.standard_normal(60) > 0, 2, 1)
        y[:2] = [1, 2]
        lam = 0.05
        [[(coef, report)]] = fit_path(Z[None, None], y - 1, "lasso", [lam])
        y01 = (y - 1).astype(float)
        c = coef.intercepts[0] + Z @ coef.weights
        r = 1.0 / (1.0 + np.exp(-c)) - y01
        grad_smooth = Z.T @ r / len(y)
        for j, bj in enumerate(coef.weights):
            if bj == 0.0:
                assert abs(grad_smooth[j]) <= 0.5 * lam + 1e-6
            else:
                assert abs(grad_smooth[j] + 0.5 * lam * np.sign(bj)) <= 1e-5
        assert abs(r.mean()) <= 1e-6  # intercept stationarity

    def test_recovers_sparse_signal_support(self):
        rng = _rng(41)
        Z = rng.standard_normal((200, 8))
        beta_true = np.zeros(8)
        beta_true[:2] = [3.0, -3.0]
        y = np.where(Z @ beta_true > 0, 2, 1)
        [[(coef, _)]] = fit_path(Z[None, None], y - 1, "lasso", [0.1])
        assert np.all(np.abs(coef.weights[:2]) > 0.1)
        assert np.all(np.abs(coef.weights[2:]) < np.abs(coef.weights[:2]).min())


class TestNewtonInAnyUnits:
    @pytest.mark.parametrize("duplicated", [False, True], ids=["plain", "duplicated"])
    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_scale_sweep_converges(self, monkeypatch, scale, duplicated):
        # raw features keep their units; with two equal columns the weight
        # block is singular but for the diagonal shift, and both grow like
        # scale^2, so every CV and refit fit of the Newton learners
        # converges at every scale
        data = generate(ScenarioSpec("t3", 100, 5, seed=0), 2).train
        X = data.X.copy()
        if duplicated:
            X[:, 1] = X[:, 0]
        grid = TuningGrid((0.3, 0.5, 0.7), (0.001, 0.1, 10.0), folds=3)
        reports = []

        def recording(*args):
            fits = fit_path(*args)
            reports.extend(report for row in fits for _, report in row)
            return fits

        monkeypatch.setattr("eqc.selection.fit_path", recording)
        monkeypatch.setattr("eqc.binary.fit_path", recording)
        for learner, count in (("ridge", 28), ("logistic", 10), ("lasso", 28)):
            reports.clear()
            tune_and_train(Dataset(scale * X, data.y), grid, learner)
            assert len(reports) == count  # every cell of every fold, and the refit
            assert all(r.converged for r in reports), learner


class TestHinge:
    def test_zero_coefficients_loss_one(self):
        coef = Coefficients(0.0, np.zeros(2))
        rng = _rng(43)
        Z = rng.standard_normal((12, 2))
        y = np.append(rng.integers(1, 3, size=10), [1, 2])
        assert hinge_loss(coef, 1.0, Z, y) == pytest.approx(1.0, abs=1e-15)

    def test_margin_above_one_leaves_penalty_only(self):
        Z = np.array([[-5.0], [5.0]])
        y = np.array([1, 2])
        coef = Coefficients(0.0, np.array([1.0]))
        expect = 1.0 / (2 * 2 * 3.0)
        assert hinge_loss(coef, 3.0, Z, y) == pytest.approx(expect, abs=1e-15)

    def test_matches_naive_summation(self):
        rng = _rng(47)
        Z = rng.standard_normal((15, 3))
        y = np.append(rng.integers(1, 3, size=13), [1, 2])
        coef = Coefficients(-0.2, rng.standard_normal(3))
        assert hinge_loss(coef, 0.7, Z, y) == pytest.approx(
            _naive_hinge(coef, 0.7, Z, y), abs=1e-12
        )

    def test_cost_must_be_positive(self):
        coef = Coefficients(0.0, np.zeros(1))
        with pytest.raises(DomainError):
            hinge_loss(coef, 0.0, np.zeros((2, 1)), [1, 2])

    def test_convexity_witness(self):
        rng = _rng(53)
        Z = rng.standard_normal((20, 2))
        y = np.append(rng.integers(1, 3, size=18), [1, 2])
        for _ in range(50):
            a = Coefficients(rng.normal(), rng.standard_normal(2))
            b = Coefficients(rng.normal(), rng.standard_normal(2))
            t = rng.uniform(0.05, 0.95)
            mid = Coefficients(
                t * a.intercepts[0] + (1 - t) * b.intercepts[0],
                t * a.weights + (1 - t) * b.weights,
            )
            lhs = hinge_loss(mid, 2.0, Z, y)
            rhs = t * hinge_loss(a, 2.0, Z, y) + (1 - t) * hinge_loss(b, 2.0, Z, y)
            assert lhs <= rhs + 1e-10


class TestSvmSolver:
    def test_separable_symmetric_pair(self):
        Z = np.array([[-1.0], [1.0]])
        y = np.array([1, 2])
        coef, _ = fit_linear_svm(Z, y, 100.0)
        assert coef.weights[0] > 0
        assert coef.intercepts[0] + coef.weights[0] > 0
        assert coef.intercepts[0] - coef.weights[0] < 0

    def test_zero_design_zero_weights(self):
        Z = np.zeros((8, 2))
        y = np.array([1, 2] * 4)
        coef, _ = fit_linear_svm(Z, y, 1.0)
        assert np.allclose(coef.weights, 0.0, atol=1e-12)

    def test_within_tolerance_of_grid_oracle(self):
        rng = _rng(59)
        Z = rng.standard_normal((10, 1))
        y = np.where(Z[:, 0] + 0.3 * rng.standard_normal(10) > 0, 2, 1)
        y[:2] = [1, 2]
        cost = 2.0
        coef, report = fit_linear_svm(Z, y, cost)
        ours = hinge_loss(coef, cost, Z, y)
        # every point of the 301^2 grid at once; the best is re-scored below
        grid = np.linspace(-3, 3, 301)
        b0, b1 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        s = 2.0 * (y - 1.0) - 1.0
        margins = s * (b0[:, None] + b1[:, None] * Z[:, 0])
        losses = (np.mean(np.maximum(0.0, 1.0 - margins), axis=1)
                  + b1**2 / (2.0 * len(y) * cost))
        i = int(losses.argmin())
        best = hinge_loss(Coefficients(b0[i], np.array([b1[i]])), cost, Z, y)
        assert ours <= best + 1e-3

    def test_not_above_slsqp_referee(self):
        rng = _rng(71)
        n, p = 20, 3
        Z = rng.standard_normal((n, p))
        y = np.where(Z[:, 0] + 0.5 * rng.standard_normal(n) > 0, 2, 1)
        y[:2] = [1, 2]
        for cost in (0.05, 1.0, 20.0):
            referee = _slsqp_svm(Z, y, cost)
            coef, report = fit_linear_svm(Z, y, cost)
            ours = hinge_loss(coef, cost, Z, y)
            assert ours <= referee + 1e-9
            assert report.converged
            assert report.final_loss == ours
            # grad_norm_at_exit is the duality gap in hinge_loss units
            assert -1e-12 <= report.grad_norm_at_exit <= metalearners.TOL / 10

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_not_above_smo_referee(self, seed):
        rng = _rng(seed)
        Z = rng.standard_normal((40, 4))
        y = np.where(Z[:, 0] - Z[:, 1] + rng.standard_normal(40) > 0, 2, 1)
        for cost in (0.01, 0.3, 10.0):
            smo, smo_report = _smo_svm(Z, y, cost)
            assert smo_report.converged
            coef, report = fit_linear_svm(Z, y, cost)
            assert report.converged and report.grad_norm_at_exit <= metalearners.TOL / 10
            assert hinge_loss(coef, cost, Z, y) <= hinge_loss(smo, cost, Z, y) + 1e-9

    def test_converges_where_smo_ran_out(self):
        # low-dimensional noisy data at a high cost: SMO's 500 n pair
        # updates end short of its KKT tolerance (gap 1.6e-5 on seed 0);
        # the interior-point solve takes a few steps whatever the cost
        def problem(seed):
            rng = np.random.default_rng(seed)
            Z = rng.standard_normal((83, 11))
            return Z, np.where(Z[:, 0] + rng.standard_normal(83) > 0, 2, 1)

        Z, y = problem(0)
        _, smo_report = _smo_svm(Z, y, 81.1)
        assert not smo_report.converged and smo_report.grad_norm_at_exit > 1e-6
        for seed in range(30):
            Z, y = problem(seed)
            coef, report = fit_linear_svm(Z, y, 81.1)
            assert report.converged and report.iterations <= 15
            assert report.grad_norm_at_exit <= metalearners.TOL / 10
            if seed in (0, 2, 3):
                assert hinge_loss(coef, 81.1, Z, y) <= _slsqp_svm(Z, y, 81.1) + 1e-9

    def test_budget_exhausted_reports_not_converged(self, monkeypatch):
        rng = _rng(73)
        Z = rng.standard_normal((20, 2))
        y = np.where(Z[:, 0] + rng.standard_normal(20) > 0, 2, 1)
        y[:2] = [1, 2]
        # MAX_ITER = 3 interior-point steps cannot reach the TOL / 10 gap
        monkeypatch.setattr(metalearners, "MAX_ITER", 3)
        coef, report = fit_linear_svm(Z, y, 50.0)
        assert not report.converged
        assert report.iterations == 3
        assert report.final_loss == hinge_loss(coef, 50.0, Z, y)
        assert report.grad_norm_at_exit > metalearners.TOL / 10
        monkeypatch.undo()
        _, full = fit_linear_svm(Z, y, 50.0)
        assert full.converged
        assert full.final_loss < report.final_loss

    def test_deterministic(self):
        rng = _rng(61)
        Z = rng.standard_normal((12, 2))
        y = np.append(rng.integers(1, 3, size=10), [1, 2])
        c1, _ = fit_linear_svm(Z, y, 1.5)
        c2, _ = fit_linear_svm(Z, y, 1.5)
        assert c1.intercepts[0] == c2.intercepts[0]
        assert np.array_equal(c1.weights, c2.weights)


def _noisy_gaussian(seed, n=40, p=5):
    """A design of standard normal columns, its first informative under
    unit label noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    return X, np.where(X[:, 0] + rng.standard_normal(n) > 0, 2, 1)


class TestHingeForms:
    # the step's system is solved through the p x p Woodbury matrix when
    # p < n and C max_i |z_i|^2 <= WOODBURY_SCALE, else directly on n x n

    def test_forms_agree_where_both_hold(self, monkeypatch):
        X, y = _noisy_gaussian(101)
        cost = 1e5 / np.max(np.sum(X * X, axis=1))
        woodbury, woodbury_report = fit_linear_svm(X, y, cost)
        monkeypatch.setattr(metalearners, "WOODBURY_SCALE", 0.0)
        direct, direct_report = fit_linear_svm(X, y, cost)
        assert not np.array_equal(woodbury.weights, direct.weights)  # two solves
        for report in (woodbury_report, direct_report):
            assert report.converged and report.grad_norm_at_exit <= metalearners.TOL / 10
        assert abs(woodbury_report.final_loss - direct_report.final_loss) <= metalearners.TOL / 10

    def test_wide_design_not_above_referees(self):
        rng = _rng(103)
        Z = rng.standard_normal((20, 40))
        y = np.where(Z[:, 0] + 0.5 * rng.standard_normal(20) > 0, 2, 1)
        y[:2] = [1, 2]
        for cost in (0.01, 1.0, 100.0):
            coef, report = fit_linear_svm(Z, y, cost)
            assert report.converged and report.grad_norm_at_exit <= metalearners.TOL / 10
            smo, smo_report = _smo_svm(Z, y, cost)
            assert smo_report.converged
            assert report.final_loss <= hinge_loss(smo, cost, Z, y) + 1e-9
            assert report.final_loss <= _slsqp_svm(Z, y, cost) + 1e-9

    @pytest.mark.parametrize("seed, scale", [(0, 1e7), (1, 1e8), (2, 1e9)])
    def test_large_scale_converges_in_the_direct_form(self, seed, scale):
        # C max_i |z_i|^2 of 1e7 to 1e9, as raw features in large units
        # reach at the grid's top costs: the Woodbury steps stalled from
        # about 1e8 and SMO's budget ran out (gaps 0.3 to 1.5 at 1e9)
        X, y = _noisy_gaussian(seed)
        Z = 1e3 * X
        cost = scale / np.max(np.sum(Z * Z, axis=1))
        coef, report = fit_linear_svm(Z, y, cost)
        assert report.converged and report.grad_norm_at_exit <= metalearners.TOL / 10
        smo, _ = _smo_svm(Z, y, cost)
        assert report.final_loss <= hinge_loss(smo, cost, Z, y) + 1e-9

    def test_duplicated_large_column_at_a_high_cost(self):
        # two equal columns of scale 1e3 at cost 1e3 (C max_i |z_i|^2 about
        # 1e10): np.linalg.solve found the Woodbury matrix singular and
        # failed the stack. Every cost of the stack gets a finite fit, as
        # good as SMO's; past the reach of double precision, the top cost
        # ends when a bound variable underflows, at its best iterate
        X, y = _noisy_gaussian(1)
        X[:, 1] = X[:, 0]
        Z = 1e3 * X
        costs = [1e-3, 1.0, 1e3]
        [fits] = fit_path(Z[None, None], y - 1, "hinge", costs)
        for (coef, report), cost in zip(fits, costs):
            assert np.all(np.isfinite(coef.weights)) and np.isfinite(coef.intercepts[0])
            assert report.final_loss == hinge_loss(coef, cost, Z, y)
            assert report.grad_norm_at_exit <= 1e-6
            smo, _ = _smo_svm(Z, y, cost)
            assert report.final_loss <= hinge_loss(smo, cost, Z, y) + 1e-9
        top = fits[-1][1]
        assert not top.converged and top.iterations < metalearners.MAX_ITER
        assert top.grad_norm_at_exit > metalearners.TOL / 10

    def test_singular_system_leaves_the_rest_of_the_stack(self):
        # np.linalg.solve fails a stack for one singular matrix; the others
        # are solved as alone, and the singular one gets NaN
        rng = _rng(107)
        M = rng.standard_normal((3, 4, 4)) + 4.0 * np.eye(4)
        M[1, 3] = M[1, 2]
        R = rng.standard_normal((3, 4, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, R)
        X = metalearners._solve_each(M, R)
        assert np.all(np.isnan(X[1]))
        for i in (0, 2):
            assert np.array_equal(X[i], np.linalg.solve(M[i:i + 1], R[i:i + 1])[0])


def _weight_bound(n, cost, gap):
    """How far the weights of a fit with duality gap `gap` can be from the
    optimal ones: hinge_loss is 1/(n cost)-strongly convex in w, so
    |w - w*|^2 / (2 n cost) <= hinge_loss - optimum <= gap."""
    return math.sqrt(2.0 * n * cost * max(gap, 0.0))


class TestHingeEdgeCases:
    def test_ties_in_the_margin_set(self):
        # every point lies on the hard margin of w* = (1, 0), b* = 0: 12
        # margin points, more than p + 1 = 3, with duplicated rows, so the
        # dual's free block is rank-deficient; at cost >= 1 the optimum is
        # that hard margin, with hinge_loss |w*|^2 / (2 n cost)
        heights = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
        Z = np.concatenate([np.column_stack([np.ones(6), heights]),
                            np.column_stack([-np.ones(6), heights])])
        y = np.repeat([2, 1], 6)
        n = y.size
        for cost in (1.0, 10.0, 100.0):
            coef, report = fit_linear_svm(Z, y, cost)
            assert report.converged
            assert report.final_loss <= 1.0 / (2 * n * cost) + 1e-9
            bound = _weight_bound(n, cost, report.grad_norm_at_exit)
            assert np.linalg.norm(coef.weights - [1.0, 0.0]) <= bound
            assert abs(coef.intercepts[0]) <= 2.0 * bound + 1e-12

    def test_separable_weights_fixed_above_the_hard_margin_cost(self):
        # separable data: above the largest hard-margin multiplier every
        # cost has the hard-margin solution, so the weights of all costs
        # agree within what their certificates allow, every training margin
        # is at least 1, and n cost hinge_loss = |w*|^2 / 2 is constant
        rng = _rng(89)
        y = np.repeat([1, 2], 15)
        Z = rng.standard_normal((30, 3)) + 3.0 * (y[:, None] - 1.5) * np.array([1.0, 0.5, 0.0])
        assert _strictly_separable(Z, y)
        costs = np.array([10.0, 100.0, 1000.0, 10000.0])
        [fits] = fit_path(Z[None, None], y - 1, "hinge", costs)
        hard = [coef for coef, _ in fits]
        half_norm = 30 * costs[0] * fits[0][1].final_loss  # |w*|^2 / 2 up to 30 costs[0] gap
        for (coef, report), cost in zip(fits, costs):
            assert report.converged
            s = 2.0 * (y - 1.5)
            assert np.all(s * coef.scores(Z[None])[:, 0] >= 1.0 - 1e-6)
            assert (abs(30 * cost * report.final_loss - half_norm)
                    <= 30 * cost * 1e-9 + 30 * costs[0] * 1e-9)
            for other, (_, other_report), other_cost in zip(hard, fits, costs):
                assert (np.linalg.norm(coef.weights - other.weights)
                        <= _weight_bound(30, cost, report.grad_norm_at_exit)
                        + _weight_bound(30, other_cost, other_report.grad_norm_at_exit))

    @pytest.mark.parametrize("cost", [1e-4, 0.01])
    def test_minority_class_entirely_at_bound(self, cost):
        # 5 against 45 at a small cost: the penalty keeps w near 0, the
        # intercept serves the majority, and every minority point violates
        # its margin, so each of their multipliers sits at the upper bound
        rng = _rng(97)
        y = np.repeat([2, 1], [5, 45])
        Z = rng.standard_normal((50, 3)) + 0.5 * (y[:, None] - 1)
        coef, report = fit_linear_svm(Z, y, cost)
        assert report.converged and report.grad_norm_at_exit <= metalearners.TOL / 10
        smo, smo_report = _smo_svm(Z, y, cost)
        assert smo_report.converged
        assert report.final_loss <= hinge_loss(smo, cost, Z, y) + 1e-9
        assert report.final_loss <= _slsqp_svm(Z, y, cost) + 1e-9
        margins = coef.scores(Z[None])[:5, 0]  # the minority, s = +1
        assert np.all(margins < 1.0)
