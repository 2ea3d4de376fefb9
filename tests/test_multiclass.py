import math
from dataclasses import replace

import numpy as np
import pytest

from eqc import (
    Coefficients,
    Dataset,
    DomainError,
    FittedEqc,
    PenaltySpec,
    QuantileParams,
    build_design,
    class_probabilities,
    estimate_quantile_table,
    fit_binary_eqc,
    fit_multiclass_eqc,
    loglik_gradient,
    loglik_hessian,
    predict_binary,
    predict_multiclass,
    regularized_loglik,
)
from eqc.multiclass import fit_on_design


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def loglik_matrix_form(beta, design):
    """Intercept-free log-likelihood in stacked-matrix form (not 1/n scaled).

    vec(Y)' Q beta - 1_n . log(B1 exp(Q beta)) with Q the (nK, p) stack of
    blocks. Literal and not overflow-safe: a second computation path for
    the stable evaluation.
    """
    n, K, p = design.blocks.shape
    Q = design.blocks.reshape(n * K, p)
    vecY = design.Y.T.reshape(n * K)  # row i*K+k matches Y[k, i]
    qb = Q @ beta
    per_obs = np.exp(qb).reshape(n, K).sum(axis=1)
    return float(vecY @ qb - np.sum(np.log(per_obs)))


def loglik_gradient_matrix_form(beta, design):
    """Intercept-free gradient in stacked-matrix form (not 1/n scaled)."""
    n, K, p = design.blocks.shape
    Q = design.blocks.reshape(n * K, p)
    vecY = design.Y.T.reshape(n * K)
    E = np.exp(Q @ beta)
    A = (design.blocks * E.reshape(n, K)[:, :, None]).sum(axis=1)  # B1 (Q o E1)
    C = E.reshape(n, K).sum(axis=1)
    return vecY @ Q - (A / C[:, None]).sum(axis=0)


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
        assert regularized_loglik(coef, design, 0.0) == pytest.approx(
            -math.log(3.0), abs=1e-14
        )

    def test_lambda_zero_equals_unregularized(self):
        rng = _rng(8)
        _, _, design = _random_problem(8, K=3)
        coef = _random_coef(rng, 4, 3)
        base = regularized_loglik(coef, design, 0.0)
        pen = regularized_loglik(coef, design, 0.7)
        assert pen == pytest.approx(
            base - 0.35 * float(np.sum(coef.weights**2)), abs=1e-14
        )

    def test_matrix_form_matches_stable_path(self):
        # the stacked-matrix expression (sum over observations) must agree
        # with the per-observation logsumexp path, intercepts zeroed
        rng = _rng(9)
        for K, p in ((2, 3), (3, 2), (5, 4)):
            _, _, design = _random_problem(K * 10 + p, n=25, K=K, p=p)
            beta = 0.7 * rng.standard_normal(p)
            coef = Coefficients(np.zeros(K - 1), beta)
            stable = regularized_loglik(coef, design, 0.0) * design.n
            literal = loglik_matrix_form(beta, design)
            assert stable == pytest.approx(literal, abs=1e-12 * max(1, abs(literal)))

    def test_matrix_gradient_matches_analytic(self):
        rng = _rng(10)
        _, _, design = _random_problem(11, n=20, K=3, p=4)
        beta = 0.5 * rng.standard_normal(4)
        coef = Coefficients(np.zeros(2), beta)
        analytic = loglik_gradient(coef, design, 0.0)[:4] * design.n
        literal = loglik_gradient_matrix_form(beta, design)
        assert np.allclose(analytic, literal, atol=1e-10)


class TestGradient:
    def test_two_observation_intercept_block(self):
        # at zero coefficients the intercept gradient is 1/K - class freq
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        y = np.array([1, 2, 3])
        data = Dataset(X, y)
        theta = QuantileParams.common(0.5, 2)
        table = estimate_quantile_table(data, theta)
        design = build_design(data, table)
        coef = Coefficients(np.zeros(2), np.zeros(2))
        g = loglik_gradient(coef, design, 0.0)
        freq = np.array([1 / 3, 1 / 3])
        assert np.allclose(g[2:], 1.0 / 3.0 - freq, atol=1e-15)

    def test_penalty_gradient_is_minus_lambda_beta(self):
        rng = _rng(11)
        _, _, design = _random_problem(12, K=3, p=4)
        coef = _random_coef(rng, 4, 3)
        g0 = loglik_gradient(coef, design, 0.0)
        g1 = loglik_gradient(coef, design, 0.9)
        diff = g1 - g0
        assert np.allclose(diff[:4], -0.9 * coef.weights, atol=1e-12)
        assert np.allclose(diff[4:], 0.0, atol=1e-15)

    def test_finite_difference_agreement(self):
        rng = _rng(12)
        for seed in range(5):
            _, _, design = _random_problem(20 + seed, n=25, K=3, p=4)
            coef = _random_coef(rng, 4, 3)
            lam = 0.2
            g = loglik_gradient(coef, design, lam)
            v = np.concatenate([coef.weights, coef.intercepts])
            eps = 1e-6
            for j in range(v.size):
                hi, lo = v.copy(), v.copy()
                hi[j] += eps
                lo[j] -= eps
                f_hi = regularized_loglik(
                    Coefficients(hi[4:], hi[:4]), design, lam
                )
                f_lo = regularized_loglik(
                    Coefficients(lo[4:], lo[:4]), design, lam
                )
                fd = (f_hi - f_lo) / (2 * eps)
                assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestHessian:
    def test_symmetric_and_negative_semidefinite(self):
        rng = _rng(13)
        for seed in range(10):
            _, _, design = _random_problem(40 + seed, n=20, K=3, p=3)
            coef = _random_coef(rng, 3, 3)
            H = loglik_hessian(coef, design, 0.0)
            assert np.abs(H - H.T).max() < 1e-10
            assert np.linalg.eigvalsh(H).max() <= 1e-8

    def test_lambda_shifts_weight_block_diagonal(self):
        rng = _rng(14)
        _, _, design = _random_problem(15, K=4, p=3)
        coef = _random_coef(rng, 3, 4)
        H0 = loglik_hessian(coef, design, 0.0)
        H1 = loglik_hessian(coef, design, 0.6)
        delta = H1 - H0
        assert np.allclose(np.diag(delta)[:3], -0.6, atol=1e-14)
        off = delta.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() < 1e-14
        assert np.allclose(np.diag(delta)[3:], 0.0, atol=1e-14)

    def test_finite_difference_agreement(self):
        _, _, design = _random_problem(16, n=20, K=3, p=3)
        rng = _rng(15)
        coef = _random_coef(rng, 3, 3)
        lam = 0.1
        H = loglik_hessian(coef, design, lam)
        v = np.concatenate([coef.weights, coef.intercepts])
        eps = 1e-5
        for j in range(v.size):
            hi, lo = v.copy(), v.copy()
            hi[j] += eps
            lo[j] -= eps
            g_hi = loglik_gradient(Coefficients(hi[3:], hi[:3]), design, lam)
            g_lo = loglik_gradient(Coefficients(lo[3:], lo[:3]), design, lam)
            fd = (g_hi - g_lo) / (2 * eps)
            assert np.abs(H[j] - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_concavity_midpoints(self):
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
            lhs = regularized_loglik(mid, design, 0.3)
            rhs = t * regularized_loglik(a, design, 0.3) + (1 - t) * regularized_loglik(
                b, design, 0.3
            )
            assert lhs >= rhs - 1e-10


class TestFit:
    def test_objective_trace_monotone(self):
        _, _, design = _random_problem(18, n=40, K=3, p=4, separation=2.0)
        trace: list = []
        fit_on_design(design, 0.05, trace=trace)
        assert len(trace) >= 2
        assert np.all(np.diff(np.asarray(trace)) >= -1e-12)

    def test_k2_matches_binary_ridge_predictions(self):
        for seed in range(6):
            rng = _rng(100 + seed)
            X = rng.standard_normal((50, 3))
            y = np.repeat([1, 2], 25)
            X[y == 2] += 0.8
            data = Dataset(X, y)
            theta = QuantileParams.common(0.4, 3)
            lam = 0.1
            multi = fit_multiclass_eqc(data, theta, lam)
            binary = fit_binary_eqc(data, theta, PenaltySpec("ridge", lam))
            pts = rng.standard_normal((200, 3))
            assert np.array_equal(
                predict_multiclass(pts, multi), predict_binary(pts, binary)
            )

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
    design = build_design(data, model.table, model.scaling)
    logits = design.blocks @ model.coef.weights
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
    def test_reference_row_zero_and_one_hot(self):
        data, table, design = _random_problem(24, K=3)
        assert np.all(design.blocks[:, -1, :] == 0.0)
        assert np.allclose(design.Y.sum(axis=0), 1.0)
        assert design.Y.shape == (3, data.n)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            from eqc import MulticlassDesign

            MulticlassDesign(np.zeros((2, 3, 1)), np.ones((3, 2)))  # cols sum to 3
