import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from eqc import (
    Coefficients,
    DomainError,
    QuantileParams,
    ScenarioSpec,
    estimate_quantile_table,
    fit_linear_svm,
    generate,
    hinge_loss,
)
from eqc import metalearners
from eqc.binary import class_transforms
from eqc.metalearners import _fit_logistic_newton, _softmax_newton, fit_path
from eqc.quantiles import degenerate_columns


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
    """final_loss of solve() at Newton budgets 1, 2, ... up to convergence:
    the objective after each accepted step."""
    _, full = solve()
    losses = []
    for budget in range(1, full.iterations):
        monkeypatch.setattr(metalearners, "MAX_ITER", budget)
        losses.append(solve()[1].final_loss)
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
        [(coef, report)] = fit_path(Z, y, "ridge", [0.5])
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
        [(coef, report)] = fit_path(Z, y, "ridge", [lam])
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
                monkeypatch, lambda: _softmax_newton(
                    Z[None], (y == 1)[None].astype(float), lam, l1=l1))
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
            [(coef, _)] = fit_path(Z, y, "ridge", [lam])
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
            [(coef, report)] = fit_path(Z, y, kind, [0.01])
            assert not report.converged
            assert np.isfinite(coef.weights).all()
            assert report.iterations == 1
            assert report.grad_norm_at_exit > 1e-8


class TestSigmoidOverflow:
    def test_separable_fits_raise_no_runtime_warning(self):
        # margins reach thousands, where exp(-c) overflows a double
        Z = np.array([[-100.0], [-1.0], [1.0], [100.0]])
        y = np.array([1, 1, 2, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plain, report = _fit_logistic_newton(Z, (y - 1).astype(float), 0.0)
            [(ridge, _)] = fit_path(Z, y, "ridge", [1e-12])
            g = binomial_gradient(
                Coefficients(0.0, np.array([1000.0])), ("ridge", 1.0), Z, y
            )
        # the 4 points are separable, so the unpenalized fit has no minimizer
        assert not report.converged
        assert plain.weights[0] > 0 and ridge.weights[0] > 0
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
        [(coef, report)] = fit_path(Z, y, "logistic", [np.nan])
        assert not report.converged
        s = 2.0 * (y - 1.0) - 1.0
        assert np.all(s * coef.scores(Z[None])[:, 0] > 0)
        # the solver entry itself says so, not only fit_path
        Zs = Z[:, ~degenerate_columns(Z)]
        _, plain_report = _fit_logistic_newton(Zs, (y - 1).astype(float), 0.0)
        assert plain_report == report

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overlapping_t3_unchanged(self, seed):
        Z, y = _t3_design(5, seed)
        assert not _strictly_separable(Z, y)
        [(coef, report)] = fit_path(Z, y, "logistic", [np.nan])
        # the solve fit_path makes, on the same copy of the columns
        Zs = Z[:, ~degenerate_columns(Z)]
        plain, plain_report = _fit_logistic_newton(Zs, (y - 1).astype(float), 0.0)
        assert report.converged
        assert report == plain_report
        assert np.array_equal(coef.intercepts, plain.intercepts)
        assert np.array_equal(coef.weights, plain.weights)


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
                                                 (89, 80, 10, 0.005)])
    def test_not_above_lbfgsb_referee(self, seed, n, p, lam):
        rng = _rng(seed)
        Z = rng.standard_normal((n, p))
        y = np.where(Z[:, 0] - 0.5 * Z[:, 1] + rng.standard_normal(n) > 0, 2, 1)
        y[:2] = [1, 2]
        pen = ("lasso", lam)
        [(coef, report)] = fit_path(Z, y, "lasso", [lam])
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
        fits = fit_path(Z, data.y, "lasso", [3.0, 0.1, 0.003])
        for _, report in fits:
            assert report.converged
            assert report.grad_norm_at_exit <= 1e-8
            assert report.iterations < 50
        referee = binomial_loss(_lasso_referee(Z, data.y, 0.003), ("lasso", 0.003),
                                Z, data.y)
        assert fits[2][1].final_loss <= referee + 1e-9

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
        [(coef, report)] = fit_path(Z, y, "lasso", [lam])
        assert report.converged
        assert np.all(coef.weights == 0.0)

    def test_kkt_stationarity(self):
        rng = _rng(37)
        Z = rng.standard_normal((60, 6))
        beta_true = np.array([2.0, -1.5, 0.0, 0.0, 0.0, 0.0])
        y = np.where(Z @ beta_true + 0.3 * rng.standard_normal(60) > 0, 2, 1)
        y[:2] = [1, 2]
        lam = 0.05
        [(coef, report)] = fit_path(Z, y, "lasso", [lam])
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
        [(coef, _)] = fit_path(Z, y, "lasso", [0.1])
        assert np.all(np.abs(coef.weights[:2]) > 0.1)
        assert np.all(np.abs(coef.weights[2:]) < np.abs(coef.weights[:2]).min())


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
        # independent referee: SLSQP on the primal QP with slacks over
        # (b, w, xi): min 1/2 |w|^2 + cost * sum(xi)
        # subject to s_i (b + w . z_i) >= 1 - xi_i and xi >= 0
        from scipy.optimize import minimize

        rng = _rng(71)
        n, p = 20, 3
        Z = rng.standard_normal((n, p))
        y = np.where(Z[:, 0] + 0.5 * rng.standard_normal(n) > 0, 2, 1)
        y[:2] = [1, 2]
        s = 2.0 * (y - 1.0) - 1.0
        A = np.hstack([s[:, None], s[:, None] * Z, np.eye(n)])
        bounds = [(None, None)] * (p + 1) + [(0.0, None)] * n
        x0 = np.concatenate([np.zeros(p + 1), np.ones(n)])
        for cost in (0.05, 1.0, 20.0):
            weight = np.concatenate([np.zeros(p + 1), np.full(n, cost)])
            res = minimize(
                lambda x: 0.5 * x[1 : p + 1] @ x[1 : p + 1] + weight @ x,
                x0,
                jac=lambda x: np.concatenate([[0.0], x[1 : p + 1], np.zeros(n)]) + weight,
                method="SLSQP",
                bounds=bounds,
                constraints=[{"type": "ineq", "fun": lambda x: A @ x - 1.0,
                              "jac": lambda x: A}],
                options={"ftol": 1e-12, "maxiter": 1000},
            )
            assert res.success
            referee = hinge_loss(Coefficients(res.x[0], res.x[1 : p + 1]), cost, Z, y)
            coef, report = fit_linear_svm(Z, y, cost)
            ours = hinge_loss(coef, cost, Z, y)
            assert ours <= referee + 1e-9
            assert report.converged
            assert report.final_loss == ours
            # grad_norm_at_exit is the duality gap in hinge_loss units
            assert -1e-12 <= report.grad_norm_at_exit <= 1e-8

    def test_budget_exhausted_reports_not_converged(self, monkeypatch):
        rng = _rng(73)
        Z = rng.standard_normal((20, 2))
        y = np.where(Z[:, 0] + rng.standard_normal(20) > 0, 2, 1)
        y[:2] = [1, 2]
        # MAX_ITER * n = 20 pair updates cannot reach the 1e-8 KKT tolerance
        monkeypatch.setattr(metalearners, "MAX_ITER", 1)
        coef, report = fit_linear_svm(Z, y, 50.0)
        assert not report.converged
        assert report.iterations == 20
        assert report.final_loss == hinge_loss(coef, 50.0, Z, y)
        assert report.grad_norm_at_exit > 1e-8
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
