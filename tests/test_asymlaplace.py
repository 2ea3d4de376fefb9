import math

import numpy as np
import pytest
from scipy import integrate

from eqc import (
    ALParams,
    ALPopulation,
    QuantileParams,
    QuantileTable,
    al_bayes_discriminant,
    al_oracle_coefficients,
    eqc_discriminant,
    quantile_difference_transform,
)
from eqc.binary import oracle_classifier


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def al_pdf(x, params: ALParams):
    """Density of the asymmetric Laplace distribution."""
    x = np.asarray(x, dtype=float)
    lam, kap, m = params.lam, params.kappa, params.m
    front = lam / (kap + 1.0 / kap)
    out = front * np.where(
        x < m,
        np.exp((lam / kap) * (x - m)),
        np.exp(-lam * kap * (x - m)),
    )
    return float(out) if out.ndim == 0 else out


def _inverse_cdf(u, params: ALParams):
    th = params.theta
    lam, kap, m = params.lam, params.kappa, params.m
    lower = m + (kap / lam) * np.log(np.maximum(u, 1e-300) / th)
    upper = m - np.log(np.maximum(1.0 - u, 1e-300) / (1.0 - th)) / (lam * kap)
    return np.where(u < th, lower, upper)


def al_sample(params: ALParams, n: int, seed) -> np.ndarray:
    """n inverse-CDF draws, deterministic for a given seed (PCG64)."""
    return _inverse_cdf(_rng(seed).random(n), params)


def sample_labeled(pop: ALPopulation, n: int, seed):
    """n labeled draws (X, y) from the prior mixture of pop, inverse-CDF."""
    rng = _rng(seed)
    y = np.where(rng.random(n) < pop.priors[0], 1, 2)
    X = np.empty((n, pop.p))
    for j in range(pop.p):
        u = rng.random(n)
        X[:, j] = np.where(
            y == 1,
            _inverse_cdf(u, pop.class1[j]),
            _inverse_cdf(u, pop.class2[j]),
        )
    return X, y


class TestPdf:
    def test_value_at_location(self):
        p = ALParams(2.0, 1.5, 0.7)
        assert al_pdf(2.0, p) == pytest.approx(1.5 / (0.7 + 1 / 0.7), abs=1e-15)

    def test_symmetric_at_kappa_one(self):
        p = ALParams(1.0, 2.0, 1.0)
        for d in (0.1, 0.5, 2.0):
            assert al_pdf(1.0 + d, p) == pytest.approx(al_pdf(1.0 - d, p), abs=1e-15)

    @pytest.mark.parametrize("m,lam,kap", [(0.0, 1.0, 1.0), (2.0, 0.5, 0.4), (-1.0, 3.0, 2.5)])
    def test_integrates_to_one(self, m, lam, kap):
        p = ALParams(m, lam, kap)
        total, err = integrate.quad(
            lambda x: al_pdf(x, p), m - 60.0 / lam, m + 60.0 / lam, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSampler:
    def test_location_is_theta_quantile(self):
        p = ALParams(0.7, 2.0, 0.6)
        draws = al_sample(p, 10**6, seed=1)
        emp = np.quantile(draws, p.theta)
        assert emp == pytest.approx(p.m, abs=0.01 / p.lam)

    def test_standard_deviation(self):
        p = ALParams(0.0, 1.3, 0.8)
        draws = al_sample(p, 10**6, seed=2)
        expect = math.sqrt(1 + 0.8**4) / (1.3 * 0.8)
        assert draws.std() == pytest.approx(expect, rel=0.01)
        assert p.sd == pytest.approx(expect, abs=1e-15)

    def test_symmetric_median_zero(self):
        draws = al_sample(ALParams(0.0, 1.0, 1.0), 10**5, seed=3)
        assert np.median(draws) == pytest.approx(0.0, abs=0.02)

    def test_deterministic_per_seed(self):
        p = ALParams(0.0, 1.0, 0.5)
        assert np.array_equal(al_sample(p, 100, seed=9), al_sample(p, 100, seed=9))


def _pop_1d(m1=-1.0, m2=1.0, lam=1.0, kap=1.0, priors=(0.5, 0.5)):
    return ALPopulation((ALParams(m1, lam, kap),), (ALParams(m2, lam, kap),), priors)


class TestBayesDiscriminant:
    def test_lower_branch_value(self):
        # every coordinate below both locations contributes
        # -(m2 - m1) / (kappa^2 + 1) scaled by lambda (kappa + 1/kappa)
        kap, lam = 0.6, 1.7
        pop = ALPopulation(
            (ALParams(0.0, lam, kap), ALParams(1.0, lam, kap)),
            (ALParams(2.0, lam, kap), ALParams(3.0, lam, kap)),
        )
        x = np.array([-10.0, -10.0])
        expect = sum(
            lam * (kap + 1 / kap) * (-(2.0 - 0.0) / (kap**2 + 1)) for _ in range(1)
        ) + lam * (kap + 1 / kap) * (-(3.0 - 1.0) / (kap**2 + 1))
        assert al_bayes_discriminant(x, pop) == pytest.approx(expect, abs=1e-12)

    def test_midpoint_boundary(self):
        pop = _pop_1d()
        assert al_bayes_discriminant(np.array([0.0]), pop) == pytest.approx(0.0, abs=1e-15)

    def test_equal_locations_contribute_zero(self):
        pop = _pop_1d(m1=0.5, m2=0.5, priors=(0.3, 0.7))
        x = _rng(4).standard_normal((50, 1))
        expect = math.log(0.7 / 0.3)
        assert np.allclose(al_bayes_discriminant(x, pop), expect, atol=1e-15)

    def test_swapped_locations_antisymmetric(self):
        a = _pop_1d(m1=-1.0, m2=2.0)
        b = _pop_1d(m1=2.0, m2=-1.0)
        x = _rng(5).standard_normal((100, 1)) * 3
        assert np.allclose(
            al_bayes_discriminant(x, a), -al_bayes_discriminant(x, b), atol=1e-14
        )


class TestOracleCoefficients:
    def test_rescaled_weight_at_half(self):
        pop = _pop_1d(kap=1.0)
        _, coef, _ = al_oracle_coefficients(pop, rescaled=True)
        assert coef.weights[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_rescaled_weight_at_point_two(self):
        kap = math.sqrt(0.25)  # theta = k^2/(1+k^2) = 0.2
        pop = _pop_1d(kap=kap)
        theta, coef, _ = al_oracle_coefficients(pop, rescaled=True)
        assert theta.theta[0] == pytest.approx(0.2, abs=1e-15)
        # frozen via two independent evaluations (theta-form and kappa-form)
        assert coef.weights[0] == pytest.approx(5.153882032022074, abs=1e-4)

    def test_scale_identity(self):
        rng = _rng(6)
        for kap in rng.uniform(0.2, 3.0, size=20):
            th = kap**2 / (1 + kap**2)
            lhs = kap + 1 / kap
            rhs = math.sqrt(1.0 / (th * (1 - th)))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_intercept_tracks_priors(self):
        base = _pop_1d(priors=(0.5, 0.5))
        tilted = _pop_1d(priors=(0.3, 0.7))
        _, c0, _ = al_oracle_coefficients(base)
        _, c1, _ = al_oracle_coefficients(tilted)
        shift = math.log(0.7 / 0.3) - math.log(1.0)
        assert c1.intercepts[0] - c0.intercepts[0] == pytest.approx(shift, abs=1e-14)

    def test_prior_shift_makes_class2_more_frequent(self):
        rng = _rng(13)
        x = rng.standard_normal((400, 1)) * 2
        n2 = []
        for pri in ((0.5, 0.5), (0.2, 0.8)):
            model = oracle_classifier(_pop_1d(priors=pri))
            n2.append(int(np.sum(eqc_discriminant(x, model) > 0)))
        assert n2[1] >= n2[0]


class TestTransformIdentity:
    def test_s_al_equals_transform_branchwise(self):
        # the Bayes coordinate term is exactly the quantile-difference
        # transform at theta = kappa^2/(1+kappa^2) with the locations as
        # the class quantiles
        from eqc.asymlaplace import _s_al

        rng = _rng(8)
        for _ in range(30):
            m1, gap = rng.normal(), abs(rng.normal()) + 0.1
            m2 = m1 + gap
            kap = rng.uniform(0.3, 2.5)
            th = kap**2 / (1 + kap**2)
            table = QuantileTable(
                np.array([[m1], [m2]]), QuantileParams.common(th, 1), np.array([1, 2])
            )
            xs = np.concatenate([
                rng.uniform(m1 - 5, m2 + 5, size=40),
                [m1, m2, m1 - 1e-9, m2 - 1e-9],
            ])
            got = quantile_difference_transform(xs[:, None], table, 1, 2)[:, 0]
            want = _s_al(xs, m1, m2, kap)
            assert np.allclose(got, want, atol=1e-12)

    def test_oracle_model_equals_bayes_pointwise(self):
        rng = _rng(9)
        pop = ALPopulation(
            tuple(ALParams(float(j), 1.0 + 0.3 * j, 0.4 + 0.25 * j) for j in range(4)),
            tuple(ALParams(float(j) + 1.5, 1.0 + 0.3 * j, 0.4 + 0.25 * j) for j in range(4)),
            (0.35, 0.65),
        )
        X = rng.standard_normal((1000, 4)) * 3 + 0.5
        for rescaled in (False, True):
            model = oracle_classifier(pop, rescaled=rescaled)
            diff = np.abs(eqc_discriminant(X, model) - al_bayes_discriminant(X, pop))
            assert diff.max() < 1e-10


class TestPopulationSampling:
    def test_priors_respected(self):
        pop = _pop_1d(priors=(0.25, 0.75))
        _, y = sample_labeled(pop, 200000, seed=17)
        assert np.mean(y == 1) == pytest.approx(0.25, abs=0.01)

    def test_class_conditionals_match_al_sampler(self):
        pop = _pop_1d(m1=0.0, m2=3.0, lam=1.2, kap=0.7)
        X, y = sample_labeled(pop, 200000, seed=18)
        draws1 = X[y == 1, 0]
        # the theta-quantile of class 1 draws sits at m1
        assert np.quantile(draws1, pop.class1[0].theta) == pytest.approx(0.0, abs=0.02)
