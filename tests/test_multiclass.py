import math
from dataclasses import replace

import numpy as np
import pytest

from eqc import (
    Coefficients,
    Dataset,
    DomainError,
    FittedEqc,
    QuantileParams,
    build_design,
    class_probabilities,
    class_transforms,
    estimate_quantile_table,
    fit_multiclass_eqc,
    predict_multiclass,
)
from eqc import metalearners
from eqc.metalearners import (
    _softmax_gradient,
    _softmax_hessian,
    _softmax_newton,
    _softmax_terms,
    fit_path,
)
from eqc.multiclass import fit_on_design


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# Referees in the padded block format: blocks[i, k] = -Q^{(k,K)}(x_i) for
# k < K and a zero reference row, Y the K x n one-hot labels, parameters
# ordered (weights, intercepts), and the log-likelihood maximized. A second
# computation path for the solver's objective, gradient and Hessian. A
# design is the pair (Q, positions) that build_design returns.


def _shape(design):
    """(n, K, p) of a design."""
    m, n, p = design[0].shape
    return n, m + 1, p


def _blocks(design):
    Q, _ = design
    n, K, p = _shape(design)
    blocks = np.zeros((n, K, p))
    blocks[:, :-1, :] = -Q.transpose(1, 0, 2)
    return blocks


def _onehot(design):
    _, positions = design
    return (positions == np.arange(_shape(design)[1])[:, None]).astype(float)


def _softmax_parts(coef, blocks):
    """Logits -C_k = blocks . beta - beta_{0,k}, their log-sum-exp and the
    class probabilities."""
    a = blocks @ coef.weights
    a[:, : coef.intercepts.size] -= coef.intercepts
    shift = a.max(axis=1, keepdims=True)
    e = np.exp(a - shift)
    denom = e.sum(axis=1)
    return a, np.log(denom) + shift[:, 0], e / denom[:, None]


def regularized_loglik(coef, design, lam):
    """(1/n) sum log P(y_i | x_i) - (lam/2) sum beta_j^2 (intercepts free)."""
    a, lse, _ = _softmax_parts(coef, _blocks(design))
    picked = np.sum(_onehot(design).T * a, axis=1)
    w = coef.weights
    return float(np.mean(picked - lse) - 0.5 * lam * np.sum(w * w))


def _augmented(design):
    """(n, K, p+K-1) blocks with unpenalized intercept indicator columns."""
    n, K, p = _shape(design)
    D = np.zeros((n, K, p + K - 1))
    D[:, :, :p] = _blocks(design)
    for k in range(K - 1):
        D[:, k, p + k] = -1.0
    return D


def loglik_gradient(coef, design, lam):
    """Gradient of regularized_loglik over (weights, intercepts)."""
    _, _, probs = _softmax_parts(coef, _blocks(design))
    resid = _onehot(design).T - probs  # (n, K)
    n, _, p = _shape(design)
    g = np.einsum("ikm,ik->m", _augmented(design), resid) / n
    g[:p] -= lam * coef.weights
    return g


def loglik_hessian(coef, design, lam):
    """Hessian of regularized_loglik over (weights, intercepts)."""
    _, _, probs = _softmax_parts(coef, _blocks(design))
    D = _augmented(design)
    term1 = np.einsum("ikm,ik,ikl->ml", D, probs, D)
    V = np.einsum("ikm,ik->im", D, probs)
    n, _, p = _shape(design)
    H = -(term1 - V.T @ V) / n
    H[np.arange(p), np.arange(p)] -= lam
    return H


def loglik_matrix_form(beta, design):
    """Intercept-free log-likelihood in stacked-matrix form (not 1/n scaled).

    vec(Y)' Q beta - 1_n . log(B1 exp(Q beta)) with Q the (nK, p) stack of
    blocks. Literal and not overflow-safe: a second computation path for
    the stable evaluation.
    """
    n, K, p = _shape(design)
    Q = _blocks(design).reshape(n * K, p)
    vecY = _onehot(design).T.reshape(n * K)  # row i*K+k matches Y[k, i]
    qb = Q @ beta
    per_obs = np.exp(qb).reshape(n, K).sum(axis=1)
    return float(vecY @ qb - np.sum(np.log(per_obs)))


def loglik_gradient_matrix_form(beta, design):
    """Intercept-free gradient in stacked-matrix form (not 1/n scaled)."""
    n, K, p = _shape(design)
    blocks = _blocks(design)
    Q = blocks.reshape(n * K, p)
    vecY = _onehot(design).T.reshape(n * K)
    E = np.exp(Q @ beta)
    A = (blocks * E.reshape(n, K)[:, :, None]).sum(axis=1)  # B1 (Q o E1)
    C = E.reshape(n, K).sum(axis=1)
    return vecY @ Q - (A / C[:, None]).sum(axis=0)


def _indicators(design):
    return _onehot(design)[:-1]


def _x(coef):
    """The solver's parameter vector: intercepts, then weights."""
    return np.concatenate([coef.intercepts, coef.weights])


def _objective(coef, design, lam):
    return _softmax_terms(design[0][None], _indicators(design), lam, _x(coef)[None])[0][0]


def _derivatives(coef, design, lam):
    Q, x = design[0][None], _x(coef)[None]
    _, S, lse = _softmax_terms(Q, _indicators(design), lam, x)
    G, P = _softmax_gradient(Q, _indicators(design), lam, x, S, lse)
    return G[0], _softmax_hessian(Q, lam, P)[0]


def _from_x(x, K):
    return Coefficients(x[: K - 1], x[K - 1 :])


def _solver_order(p, K):
    """Positions of the solver's parameters in the referees' order."""
    return np.concatenate([np.arange(p, p + K - 1), np.arange(p)])


def _random_problem(seed, n=30, K=3, p=4, separation=1.0):
    rng = _rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.integers(1, K + 1, size=n)
    for k in range(1, K + 1):
        if not np.any(y == k):
            y[k - 1] = k
    for k in range(1, K + 1):
        X[y == k] += separation * (k - (K + 1) / 2) / K
    data = Dataset(X, y)
    theta = QuantileParams.common(0.5, p)
    table = estimate_quantile_table(data, theta)
    design = build_design(data, table)
    return data, table, design


def _random_coef(rng, p, K, scale=0.5):
    return Coefficients(
        scale * rng.standard_normal(K - 1), scale * rng.standard_normal(p)
    )


def _model(table, coef):
    return FittedEqc(table.theta, table, coef, "multiclass-ridge")


class TestProbabilities:
    def test_zero_coefficients_uniform(self):
        _, table, _ = _random_problem(1, K=4)
        coef = Coefficients(np.zeros(3), np.zeros(4))
        probs = class_probabilities(np.zeros(4), _model(table, coef))
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = _rng(2)
        _, table, _ = _random_problem(2, K=3)
        coef = _random_coef(rng, 4, 3, scale=3.0)
        probs = class_probabilities(rng.standard_normal((50, 4)), _model(table, coef))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        assert probs.min() >= 0.0

    def test_k2_reduces_to_logistic_link(self):
        rng = _rng(3)
        _, table, _ = _random_problem(3, K=2, p=3)
        coef = Coefficients(rng.standard_normal(1), rng.standard_normal(3))
        x = rng.standard_normal(3)
        probs = class_probabilities(x, _model(table, coef))
        from eqc.quantiles import quantile_difference_transform

        q12 = quantile_difference_transform(x, table, 1, 2)
        c1 = coef.intercepts[0] + q12 @ coef.weights
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(c1)), abs=1e-12)

    def test_extreme_intercept_drives_probability(self):
        _, table, _ = _random_problem(4, K=3)
        coef = Coefficients(np.array([-50.0, 0.0]), np.zeros(4))
        probs = class_probabilities(np.zeros(4), _model(table, coef))
        assert probs[0] > 1.0 - 1e-15

    def test_overflow_safe(self):
        _, table, _ = _random_problem(5, K=3)
        coef = Coefficients(np.array([-800.0, 900.0]), np.full(4, 300.0))
        probs = class_probabilities(np.full(4, 100.0), _model(table, coef))
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance_of_softmax(self):
        # adding a constant to every class logit leaves probabilities alone
        rng = _rng(6)
        a = rng.standard_normal(5)
        e = np.exp(a - a.max())
        base = e / e.sum()
        a2 = a + 123.456
        e2 = np.exp(a2 - a2.max())
        assert np.allclose(base, e2 / e2.sum(), atol=1e-15)


class TestLoglik:
    def test_zero_coefficients_log_k(self):
        _, _, design = _random_problem(7, K=3)
        coef = Coefficients(np.zeros(2), np.zeros(4))
        assert _objective(coef, design, 0.0) == pytest.approx(math.log(3.0), abs=1e-14)

    def test_lambda_zero_equals_unregularized(self):
        rng = _rng(8)
        _, _, design = _random_problem(8, K=3)
        coef = _random_coef(rng, 4, 3)
        base = _objective(coef, design, 0.0)
        pen = _objective(coef, design, 0.7)
        assert pen == pytest.approx(
            base + 0.35 * float(np.sum(coef.weights**2)), abs=1e-14
        )

    def test_matrix_form_matches_stable_path(self):
        # the stacked-matrix expression (sum over observations) must agree
        # with the solver's per-observation path, intercepts zeroed
        rng = _rng(9)
        for K, p in ((2, 3), (3, 2), (5, 4)):
            _, _, design = _random_problem(K * 10 + p, n=25, K=K, p=p)
            beta = 0.7 * rng.standard_normal(p)
            coef = Coefficients(np.zeros(K - 1), beta)
            stable = -_objective(coef, design, 0.0) * _shape(design)[0]
            literal = loglik_matrix_form(beta, design)
            assert stable == pytest.approx(literal, abs=1e-12 * max(1, abs(literal)))

    def test_matrix_gradient_matches_analytic(self):
        rng = _rng(10)
        _, _, design = _random_problem(11, n=20, K=3, p=4)
        beta = 0.5 * rng.standard_normal(4)
        coef = Coefficients(np.zeros(2), beta)
        g, _ = _derivatives(coef, design, 0.0)
        literal = loglik_gradient_matrix_form(beta, design)
        assert np.allclose(-g[2:] * _shape(design)[0], literal, atol=1e-10)

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_solver_terms_match_einsum_referees(self, K, lam):
        # objective, gradient and Hessian of the solver are the negated
        # log-likelihood and its derivatives, parameters reordered
        rng = _rng(30 + K)
        for seed in range(3):
            _, _, design = _random_problem(50 + 10 * K + seed, n=40, K=K, p=5)
            coef = _random_coef(rng, 5, K, scale=0.8)
            order = _solver_order(5, K)
            f = _objective(coef, design, lam)
            g, H = _derivatives(coef, design, lam)
            ref_f = -regularized_loglik(coef, design, lam)
            ref_g = -loglik_gradient(coef, design, lam)[order]
            ref_H = -loglik_hessian(coef, design, lam)[np.ix_(order, order)]
            assert abs(f - ref_f) <= 1e-12 * max(1.0, abs(ref_f))
            assert np.abs(g - ref_g).max() <= 1e-12
            assert np.abs(H - ref_H).max() <= 1e-12


class TestGradient:
    def test_two_observation_intercept_block(self):
        # at zero coefficients the intercept gradient of the log-likelihood
        # is 1/K - class freq
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        y = np.array([1, 2, 3])
        data = Dataset(X, y)
        theta = QuantileParams.common(0.5, 2)
        table = estimate_quantile_table(data, theta)
        design = build_design(data, table)
        coef = Coefficients(np.zeros(2), np.zeros(2))
        g, _ = _derivatives(coef, design, 0.0)
        freq = np.array([1 / 3, 1 / 3])
        assert np.allclose(-g[:2], 1.0 / 3.0 - freq, atol=1e-15)

    def test_penalty_gradient_is_minus_lambda_beta(self):
        # of the log-likelihood; the solver minimizes its negative
        rng = _rng(11)
        _, _, design = _random_problem(12, K=3, p=4)
        coef = _random_coef(rng, 4, 3)
        g0, _ = _derivatives(coef, design, 0.0)
        g1, _ = _derivatives(coef, design, 0.9)
        diff = g0 - g1
        assert np.allclose(diff[2:], -0.9 * coef.weights, atol=1e-12)
        assert np.allclose(diff[:2], 0.0, atol=1e-15)

    def test_finite_difference_agreement(self):
        rng = _rng(12)
        for seed in range(5):
            _, _, design = _random_problem(20 + seed, n=25, K=3, p=4)
            coef = _random_coef(rng, 4, 3)
            lam = 0.2
            g, _ = _derivatives(coef, design, lam)
            v = _x(coef)
            eps = 1e-6
            for j in range(v.size):
                hi, lo = v.copy(), v.copy()
                hi[j] += eps
                lo[j] -= eps
                f_hi = _objective(_from_x(hi, 3), design, lam)
                f_lo = _objective(_from_x(lo, 3), design, lam)
                fd = (f_hi - f_lo) / (2 * eps)
                assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestHessian:
    def test_symmetric_and_negative_semidefinite(self):
        # the log-likelihood Hessian, the negated solver Hessian
        rng = _rng(13)
        for seed in range(10):
            _, _, design = _random_problem(40 + seed, n=20, K=3, p=3)
            coef = _random_coef(rng, 3, 3)
            _, H = _derivatives(coef, design, 0.0)
            assert np.abs(H - H.T).max() < 1e-10
            assert np.linalg.eigvalsh(-H).max() <= 1e-8

    def test_lambda_shifts_weight_block_diagonal(self):
        rng = _rng(14)
        _, _, design = _random_problem(15, K=4, p=3)
        coef = _random_coef(rng, 3, 4)
        _, H0 = _derivatives(coef, design, 0.0)
        _, H1 = _derivatives(coef, design, 0.6)
        delta = H1 - H0
        assert np.allclose(np.diag(delta)[3:], 0.6, atol=1e-14)
        off = delta.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() < 1e-14
        assert np.allclose(np.diag(delta)[:3], 0.0, atol=1e-14)

    def test_finite_difference_agreement(self):
        _, _, design = _random_problem(16, n=20, K=3, p=3)
        rng = _rng(15)
        coef = _random_coef(rng, 3, 3)
        lam = 0.1
        _, H = _derivatives(coef, design, lam)
        v = _x(coef)
        eps = 1e-5
        for j in range(v.size):
            hi, lo = v.copy(), v.copy()
            hi[j] += eps
            lo[j] -= eps
            g_hi, _ = _derivatives(_from_x(hi, 3), design, lam)
            g_lo, _ = _derivatives(_from_x(lo, 3), design, lam)
            fd = (g_hi - g_lo) / (2 * eps)
            assert np.abs(H[j] - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_concavity_midpoints(self):
        # the log-likelihood is concave: the solver's objective is convex
        rng = _rng(16)
        _, _, design = _random_problem(17, K=3, p=3)
        for _ in range(40):
            a = _random_coef(rng, 3, 3, scale=1.0)
            b = _random_coef(rng, 3, 3, scale=1.0)
            t = rng.uniform(0.05, 0.95)
            mid = Coefficients(
                t * a.intercepts + (1 - t) * b.intercepts,
                t * a.weights + (1 - t) * b.weights,
            )
            lhs = _objective(mid, design, 0.3)
            rhs = t * _objective(a, design, 0.3) + (1 - t) * _objective(b, design, 0.3)
            assert lhs <= rhs + 1e-10


class TestFit:
    def test_objective_trace_monotone(self, monkeypatch):
        # the final loss at budgets 1, 2, ... is the objective after each step
        _, _, design = _random_problem(18, n=40, K=3, p=4, separation=2.0)
        _, [full] = _softmax_newton(design[0][None], design[1], 0.05)
        losses = []
        for budget in range(1, full.iterations + 1):
            monkeypatch.setattr(metalearners, "MAX_ITER", budget)
            losses.append(
                _softmax_newton(design[0][None], design[1], 0.05)[1][0].final_loss)
        assert len(losses) >= 2
        assert np.all(np.diff(np.asarray(losses)) <= 1e-12)

    @pytest.mark.parametrize("K", [2, 3])
    def test_final_loss_is_penalized_negative_loglik(self, K):
        _, _, design = _random_problem(60 + K, n=45, K=K, p=4)
        coef, report = fit_on_design(*design, 0.05)
        assert report.converged
        assert report.final_loss == pytest.approx(
            -regularized_loglik(coef, design, 0.05), rel=1e-12
        )

    def test_k2_fit_is_binary_ridge_fit(self):
        # one Newton solver: at K = 2 the softmax fit on the design and the
        # binary ridge fit on the one transform are the same computation
        for seed in range(6):
            rng = _rng(100 + seed)
            X = rng.standard_normal((50, 4))
            y = np.repeat([1, 2], 25)
            X[y == 2] += 0.8
            X[:, 2] = 1.5  # a constant input: a constant transformed column
            data = Dataset(X, y)
            table = estimate_quantile_table(data, QuantileParams.common(0.4, 4))
            lam = 0.1
            soft, soft_report = fit_on_design(*build_design(data, table), lam)
            X, [[ridge_report]] = fit_path(
                class_transforms(data.X, table)[None], y - 1, "ridge", [lam]
            )
            ridge = Coefficients(X[0, 0, :1], X[0, 0, 1:])
            assert np.array_equal(soft.intercepts, ridge.intercepts)
            assert np.array_equal(soft.weights, ridge.weights)
            assert soft.weights[2] == 0.0
            assert soft_report == ridge_report

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
    def test_penalty_must_be_positive_and_finite(self, lam):
        # refused before any solve: nan and inf would give a model whose
        # final_loss is nan, and 0 (no penalty) is refused as the binary
        # ridge refuses it
        data, _, _ = _random_problem(26, n=45, K=3, p=4)
        with pytest.raises(DomainError):
            fit_multiclass_eqc(data, QuantileParams.common(0.5, 4), lam)

    def test_informative_variable_gets_largest_weight(self):
        rng = _rng(19)
        n = 120
        y = np.repeat([1, 2, 3], n // 3)
        X = rng.standard_normal((n, 4))
        X[:, 0] += (y - 2) * 2.5  # only column 0 separates the classes
        model = fit_multiclass_eqc(Dataset(X, y), QuantileParams.common(0.5, 4), 0.05)
        w = np.abs(model.coef.weights)
        assert w[0] == w.max()
        assert model.report.converged

    def test_every_class_required(self):
        from eqc import FitError

        with pytest.raises(FitError):
            fit_multiclass_eqc(
                Dataset(np.zeros((3, 1)), [1, 1, 1]), QuantileParams.common(0.5, 1), 0.1
            )


class TestPredict:
    def test_uniform_tie_goes_to_first_class(self):
        _, table, _ = _random_problem(20, K=3)
        coef = Coefficients(np.zeros(2), np.zeros(4))
        assert predict_multiclass(np.zeros(4), _model(table, coef)) == 1

    def test_argmax_probability_equals_argmax_logit(self):
        rng = _rng(21)
        _, table, _ = _random_problem(21, K=4)
        coef = _random_coef(rng, 4, 4, scale=2.0)
        X = rng.standard_normal((50, 4))
        model = _model(table, coef)
        probs = class_probabilities(X, model)
        preds = predict_multiclass(X, model)
        assert np.array_equal(preds, table.class_ids[np.argmax(probs, axis=1)])

    def test_multiclass_round_trip_model_file(self, tmp_path):
        from eqc import load_model, save_model

        data, _, _ = _random_problem(22, n=60, K=3, p=3, separation=2.0)
        model = fit_multiclass_eqc(data, QuantileParams.common(0.5, 3), 0.2)
        path = tmp_path / "multi.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.coef.weights, model.coef.weights)
        assert np.array_equal(back.coef.intercepts, model.coef.intercepts)
        assert back.kind == "multiclass-ridge"
        pts = _rng(23).standard_normal((40, 3))
        assert np.array_equal(predict_multiclass(pts, back), predict_multiclass(pts, model))


def _scaled_toy():
    """Three classes of 50, four columns on scales 1 to 100."""
    rng = _rng(0)
    y = np.repeat([1, 2, 3], 50)
    scales = np.array([1.0, 10.0, 50.0, 100.0])
    X = (rng.standard_normal((150, 4)) + 0.8 * (y[:, None] - 1)) * scales
    return Dataset(X, y)


def _cv_predictions(data, model):
    """Labels as CV scores them: scaled design, shared weights, intercepts."""
    design = build_design(Dataset(model.scaling.apply(data.X), data.y), model.table)
    logits = _blocks(design) @ model.coef.weights
    logits[:, : model.coef.intercepts.size] -= model.coef.intercepts
    return model.class_ids[np.argmax(logits, axis=1)]


class TestScaling:
    def test_predict_applies_model_scaling(self):
        data = _scaled_toy()
        model = fit_multiclass_eqc(data, QuantileParams.common(0.5, 4), 0.01, scaling="sd")
        expected = _cv_predictions(data, model)
        assert np.array_equal(predict_multiclass(data.X, model), expected)
        assert predict_multiclass(data.X[0], model) == expected[0]
        assert np.mean(expected != data.y) == pytest.approx(0.32)
        probs = class_probabilities(data.X, model)
        scaled = class_probabilities(model.scaling.apply(data.X), replace(model, scaling=None))
        assert np.array_equal(probs, scaled)


class TestDesign:
    def test_transforms_and_label_positions(self):
        data, table, (Q, positions) = _random_problem(24, K=3)
        assert np.array_equal(Q, class_transforms(data.X, table))
        assert np.array_equal(table.class_ids[positions], data.y)
        assert Q.shape == (2, data.n, 4)

    def test_rejects_labels_missing_from_table(self):
        data, table, _ = _random_problem(25, K=3)
        with pytest.raises(DomainError):
            build_design(Dataset(data.X, np.where(data.y == 3, 4, data.y)), table)
