import math

import numpy as np
import pytest

from eqc import (
    ALParams,
    ALPopulation,
    Coefficients,
    Dataset,
    DomainError,
    QuantileParams,
    QuantileTable,
    eqc_discriminant,
    estimate_quantile_table,
    fit_binary_eqc,
    fit_multiclass_eqc,
    load_model,
    predict_binary,
    qc_discriminant,
    save_model,
)
from eqc.binary import FittedEqc, class_transforms
from eqc.metalearners import TOL
from eqc.scenarios import ScenarioSpec, _sample_features
from test_asymlaplace import sample_labeled
from test_metalearners import binomial_loss


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _loss_summands(model, X, y):
    """Per-observation unpenalized binomial loss of the model's discriminant."""
    s = eqc_discriminant(X, model)
    y01 = (y == model.class_ids[1]).astype(float)
    return np.logaddexp(0.0, s) - y01 * s


def empirical_loss(model, data):
    """Unpenalized binomial loss of the model's discriminant on data."""
    return float(np.mean(_loss_summands(model, data.X, data.y)))


def estimate_population_loss(model, X, y):
    """Monte Carlo population binomial loss and its standard error, from
    labeled draws X, y of the class mixture with its own priors."""
    vals = _loss_summands(model, X, y)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(y.size))


def _scenario_sample(spec, n, seed):
    """n labeled draws (X, y) from the equal-prior mixture of a scenario."""
    rng = _rng(seed)
    y = np.where(rng.random(n) < 0.5, 1, 2)
    X = _sample_features(spec, n, rng, spec._correlation())
    X[y == 2] += spec.effective_shifts()
    return X, y


def _table_1d(q1, q2, theta):
    return QuantileTable(
        np.array([[q1], [q2]]), QuantileParams.common(theta, 1), np.array([1, 2])
    )


def _unit_model(table):
    return FittedEqc(
        table.theta, table, Coefficients(0.0, np.ones(table.p)), "unit-weights"
    )


class TestQcDiscriminant:
    def test_common_quantiles_tie_to_class_one(self):
        table = _table_1d(1.0, 1.0, 0.4)
        model = _unit_model(table)
        assert qc_discriminant(np.array([1.0]), table) == 0.0
        assert predict_binary(np.array([1.0]), model) == 1

    def test_median_classifier_reduction(self):
        rng = _rng(1)
        X = rng.standard_normal((60, 4))
        y = np.repeat([1, 2], 30)
        X[y == 2] += 1.0
        data = Dataset(X, y)
        table = estimate_quantile_table(data, QuantileParams.common(0.5, 4))
        pts = rng.standard_normal((100, 4))
        qc = qc_discriminant(pts, table)
        m1, m2 = table.q[0], table.q[1]
        mc = (np.abs(pts - m1) - np.abs(pts - m2)) @ np.full(4, 0.5)
        assert np.allclose(qc, mc, atol=1e-12)

    def test_hand_evaluated_middle_branch(self):
        table = _table_1d(0.0, 2.0, 0.5)
        s = qc_discriminant(np.array([1.5]), table)
        assert s == pytest.approx(0.5, abs=1e-15)
        assert predict_binary(np.array([1.5]), _unit_model(table)) == 2

    def test_requires_two_classes(self):
        table = QuantileTable(
            np.zeros((3, 1)), QuantileParams.common(0.5, 1), np.array([1, 2, 3])
        )
        with pytest.raises(DomainError):
            qc_discriminant(np.array([0.0]), table)


class TestEqcDiscriminant:
    def test_unit_weights_equal_qc_exactly(self):
        rng = _rng(2)
        X = rng.standard_normal((50, 6))
        y = np.repeat([1, 2], 25)
        data = Dataset(X, y)
        theta = QuantileParams.common(0.35, 6)
        table = estimate_quantile_table(data, theta)
        model = fit_binary_eqc(data, theta, "unit-weights")
        pts = rng.standard_normal((100, 6))
        assert np.array_equal(eqc_discriminant(pts, model), qc_discriminant(pts, table))

    def test_zero_weights_constant_intercept(self):
        table = _table_1d(0.0, 2.0, 0.5)
        model = FittedEqc(table.theta, table, Coefficients(0.7, np.zeros(1)), "ridge")
        x = _rng(3).standard_normal((30, 1)) * 10
        assert np.allclose(eqc_discriminant(x, model), 0.7, atol=0)

    def test_dimension_mismatch(self):
        table = _table_1d(0.0, 2.0, 0.5)
        model = _unit_model(table)
        with pytest.raises(DomainError):
            eqc_discriminant(np.zeros((3, 2)), model)


class TestFit:
    def test_constant_column_gets_zero_weight(self):
        rng = _rng(4)
        X = rng.standard_normal((40, 3))
        X[:, 1] = 7.0  # no spread: transform is constant, weight must be 0
        y = np.repeat([1, 2], 20)
        X[y == 2, 0] += 2.0
        model = fit_binary_eqc(
            Dataset(X, y), QuantileParams.common(0.5, 3), "ridge", 0.1
        )
        assert model.coef.weights[1] == 0.0
        assert model.coef.weights[0] != 0.0

    def test_mirror_symmetry_zero_intercept(self):
        rng = _rng(5)
        A = rng.standard_normal((30, 4)) + 0.7
        X = np.vstack([A, -A])
        y = np.repeat([1, 2], 30)
        model = fit_binary_eqc(
            Dataset(X, y), QuantileParams.common(0.5, 4), "ridge", 0.05
        )
        assert abs(model.coef.intercepts[0]) < 1e-6

    def test_training_loss_beats_qc_on_lognormal(self):
        # weighted fit beats unit weights on its own training split
        # (theta = 0.3: the informative side of a right-skewed marginal)
        wins = 0
        for seed in range(50):
            spec = ScenarioSpec("lognormal", 200, 10, delta=0.6, seed=(100, seed))
            from eqc.scenarios import generate

            data = generate(spec, 10).train
            theta = QuantileParams.common(0.3, 10)
            eqc = fit_binary_eqc(data, theta, "ridge", 1e-4)
            qc = fit_binary_eqc(data, theta, "unit-weights")
            e_eqc = np.mean(predict_binary(data.X, eqc) != data.y)
            e_qc = np.mean(predict_binary(data.X, qc) != data.y)
            wins += e_eqc < e_qc
        assert wins >= 40

    def test_location_shift_invariance(self):
        rng = _rng(6)
        X = rng.standard_normal((60, 3))
        y = np.repeat([1, 2], 30)
        X[y == 2] += 0.8
        theta = QuantileParams.common(0.3, 3)
        base = fit_binary_eqc(Dataset(X, y), theta, "ridge", 0.1)
        shifted = X.copy()
        shifted[:, 1] += 123.0
        moved = fit_binary_eqc(Dataset(shifted, y), theta, "ridge", 0.1)
        pts = rng.standard_normal((50, 3))
        pts_shift = pts.copy()
        pts_shift[:, 1] += 123.0
        assert np.allclose(
            eqc_discriminant(pts, base), eqc_discriminant(pts_shift, moved), atol=1e-9
        )

    @pytest.mark.parametrize("learner, alpha", [
        ("ridge", 0.1), ("lasso", 0.1), ("hinge", 1.0),
        ("logistic", np.nan), ("unit-weights", np.nan),
    ])
    def test_one_observation_of_a_class_fits(self, learner, alpha):
        # fit_path's "every class present" is the one class-size rule, for
        # the refit as for CV and fit_multiclass_eqc
        X = _rng(3).standard_normal((21, 3))
        data = Dataset(X, np.r_[1, np.full(20, 2)])
        theta = QuantileParams.common(0.5, 3)
        model = fit_binary_eqc(data, theta, learner, alpha)
        assert np.all(np.isfinite(model.coef.weights))
        if learner == "ridge":
            soft = fit_multiclass_eqc(data, theta, alpha)
            assert np.array_equal(model.coef.intercepts, soft.coef.intercepts)
            assert np.array_equal(model.coef.weights, soft.coef.weights)
            assert model.report == soft.report
        elif learner == "logistic":  # separable: the certificate, not the stop
            assert model.report.grad_norm_at_exit < TOL
            assert not model.report.converged
            assert np.all((2 * data.y - 3) * eqc_discriminant(X, model) > 0)
        elif learner != "unit-weights":
            assert model.report.converged

    def test_needs_two_classes(self):
        from eqc import FitError

        with pytest.raises(FitError):
            fit_binary_eqc(
                Dataset(np.zeros((4, 1)), [1, 1, 1, 1]),
                QuantileParams.common(0.5, 1),
                "ridge", 1.0,
            )

    def test_scaling_recorded_and_applied(self):
        rng = _rng(7)
        X = rng.standard_normal((50, 2)) * np.array([1.0, 50.0])
        y = np.repeat([1, 2], 25)
        X[y == 2] += np.array([0.5, 25.0])
        model = fit_binary_eqc(
            Dataset(X, y), QuantileParams.common(0.5, 2),
            "ridge", 0.1, scaling="sd",
        )
        assert model.scaling is not None
        assert np.all(model.scaling.scale > 0)
        preds = predict_binary(X, model)
        assert set(np.unique(preds)) <= {1, 2}


class TestLosses:
    def test_zero_model_log2(self):
        table = _table_1d(0.0, 1.0, 0.5)
        model = FittedEqc(table.theta, table, Coefficients(0.0, np.zeros(1)), "ridge")
        data = Dataset(np.array([[0.3], [0.9]]), [1, 2])
        assert empirical_loss(model, data) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_fit_beats_zero_model_modulo_penalty(self):
        rng = _rng(8)
        X = rng.standard_normal((80, 3))
        y = np.repeat([1, 2], 40)
        X[y == 2] += 1.0
        data = Dataset(X, y)
        model = fit_binary_eqc(
            data, QuantileParams.common(0.5, 3), "ridge", 1e-6
        )
        assert empirical_loss(model, data) <= math.log(2.0) + 1e-6

    def test_matches_binomial_loss_without_penalty(self):
        rng = _rng(9)
        X = rng.standard_normal((30, 2))
        y = np.repeat([1, 2], 15)
        data = Dataset(X, y)
        theta = QuantileParams.common(0.4, 2)
        model = fit_binary_eqc(data, theta, "ridge", 0.3)
        [Z] = class_transforms(data.X, model.table)
        lam = 0.3
        with_pen = binomial_loss(model.coef, ("ridge", lam), Z, y)
        assert empirical_loss(model, data) == pytest.approx(
            with_pen - 0.5 * lam * np.sum(model.coef.weights**2), abs=1e-12
        )


class TestPopulationLoss:
    def test_zero_model_constant_integrand(self):
        pop = ALPopulation((ALParams(0.0, 1.0, 1.0),), (ALParams(1.0, 1.0, 1.0),))
        table = _table_1d(0.0, 1.0, 0.5)
        model = FittedEqc(table.theta, table, Coefficients(0.0, np.zeros(1)), "ridge")
        value, se = estimate_population_loss(model, *sample_labeled(pop, 500, seed=1))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        assert se < 1e-15  # constant integrand up to rounding

    def test_clt_consistency_across_budgets(self):
        pop = ALPopulation((ALParams(0.0, 1.0, 0.7),), (ALParams(1.0, 1.0, 0.7),))
        from eqc.binary import oracle_classifier

        model = oracle_classifier(pop)
        small, small_se = estimate_population_loss(model, *sample_labeled(pop, 2000, seed=2))
        large, large_se = estimate_population_loss(model, *sample_labeled(pop, 20000, seed=3))
        assert abs(small - large) < 4.0 * math.hypot(small_se, large_se)

    def test_scenario_generator_accepted(self):
        spec = ScenarioSpec("t3", 100, 3, seed=4)
        table = QuantileTable(
            np.array([[0.0, 0.0, 0.0], [0.3, 0.3, 0.3]]),
            QuantileParams.common(0.5, 3),
            np.array([1, 2]),
        )
        model = _unit_model(table)
        value, se = estimate_population_loss(model, *_scenario_sample(spec, 1000, seed=5))
        assert np.isfinite(value)
        assert se > 0


class TestModelIo:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = _rng(10)
        X = rng.standard_normal((40, 5))
        y = np.repeat([1, 2], 20)
        X[y == 2] += 0.6
        model = fit_binary_eqc(
            Dataset(X, y), QuantileParams.common(0.45, 5),
            "lasso", 0.02, scaling="mad",
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == "lasso"
        assert back.coef.intercepts[0] == model.coef.intercepts[0]
        assert np.array_equal(back.coef.weights, model.coef.weights)
        assert np.array_equal(back.table.q, model.table.q)
        assert np.array_equal(back.theta.theta, model.theta.theta)
        assert np.array_equal(back.scaling.center, model.scaling.center)
        assert np.array_equal(back.scaling.scale, model.scaling.scale)
        pts = rng.standard_normal((30, 5))
        assert np.array_equal(
            eqc_discriminant(pts, model), eqc_discriminant(pts, back)
        )

    def test_corrupt_file_rejected(self, tmp_path):
        from eqc import ParseError

        path = tmp_path / "bad.txt"
        path.write_text("format = something-else\nversion = 1\n")
        with pytest.raises(ParseError):
            load_model(path)
