import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from eqc import (
    DomainError,
    ScenarioSpec,
    generate,
    random_correlation_matrix,
)
from eqc.scenarios import FAMILIES, _standardized_column


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def sample_base_variable(family: str, variable_index: int, n: int, seed) -> np.ndarray:
    """n standardized draws of one marginal (mean 0, variance 1).

    The heterogeneous family cycles W, exp(W), log|W|, W^2, |W|^0.5 by
    variable_index mod 5.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    return _standardized_column(family, variable_index, _rng(seed).standard_normal(n))


def class_counts(data) -> dict[int, int]:
    ids, counts = np.unique(data.y, return_counts=True)
    return {int(k): int(c) for k, c in zip(ids, counts)}


class TestBaseVariables:
    def test_t3_scaled_by_sqrt3(self):
        draws = sample_base_variable("t3", 0, 200000, seed=1)
        # t3/sqrt(3) has unit variance and heavy tails
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.var() == pytest.approx(1.0, abs=0.08)
        assert stats.kurtosis(draws) > 2.0  # t3 excess kurtosis is infinite

    def test_t3_equals_scipy_stats_bit_for_bit(self):
        # the t3 marginal is the normal cdf then the t3 quantile, as in
        # scipy.stats.t.ppf(scipy.stats.norm.cdf(z), 3), for |z| up to 24
        z = np.concatenate((_rng(5).standard_normal(10**5), np.linspace(-24, 24, 4801)))
        expect = stats.t.ppf(stats.norm.cdf(z), df=3) / math.sqrt(3.0)
        got = _standardized_column("t3", 0, z)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    @staticmethod
    def _loaded_by_import_eqc(*roots, then: str = "") -> str:
        """The printed list of modules under roots that `import eqc`, and
        the statements then, load in a fresh interpreter."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, eqc\n{then}\n"
             f"print([m for m in sys.modules if m.split('.')[0] in {roots}])"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_import_eqc_leaves_scipy_stats_unloaded(self):
        # scipy.special is imported where a t3 draw or a Fisher selection
        # first needs it, or by bench.run_experiment before it forks the
        # workers of a t3 run; no scipy module is loaded by the import itself
        assert self._loaded_by_import_eqc("scipy") == "[]"

    @pytest.mark.parametrize("family", ["heterogeneous", "t3"])
    def test_run_on_two_cpus_loads_only_what_a_draw_loads(self, family):
        # the workers draw and fit; before forking them, the calling process
        # imports what a draw of the run's family loads: scipy.special for
        # t3, no scipy module for the heterogeneous family
        run = (
            "import eqc.bench\n"
            "eqc.bench._usable_cpus = lambda: 2\n"
            "eqc.run_experiment(eqc.ExperimentConfig(\n"
            "    ('qc', 'eqc-ridge'), 2, eqc.TuningGrid((0.3, 0.7), (0.1,), folds=2),\n"
            f"    eqc.ScenarioSpec({family!r}, 30, 5), test_size=50, out_dir=''))"
        )
        loaded = self._loaded_by_import_eqc("scipy", then=run)
        if family == "t3":
            assert "'scipy.special'" in loaded and "'scipy.stats'" not in loaded
        else:
            assert loaded == "[]"

    def test_import_eqc_leaves_process_pools_unloaded(self):
        # bench.run_experiment imports them when it runs its task sets
        assert self._loaded_by_import_eqc("multiprocessing", "concurrent") == "[]"

    def test_lognormal_moments(self):
        draws = sample_base_variable("lognormal", 0, 10**6, seed=2)
        assert -0.01 < draws.mean() < 0.01
        assert 0.97 < draws.var() < 1.03
        assert stats.skew(draws) > 2.0  # strongly right-skewed

    def test_heterogeneous_square_transform(self):
        # index 3 is W^2, standardized as (W^2 - 1)/sqrt(2)
        rng = _rng(3)
        w = rng.standard_normal(10**5)
        expect = (w**2 - 1.0) / math.sqrt(2.0)
        draws = sample_base_variable("heterogeneous", 3, 10**5, seed=4)
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.var() == pytest.approx(1.0, abs=0.05)
        assert draws.min() >= expect.min() - 0.5  # same support floor -1/sqrt(2)
        assert draws.min() == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-3)

    @pytest.mark.parametrize("idx", range(5))
    def test_heterogeneous_all_transforms_standardized(self, idx):
        draws = sample_base_variable("heterogeneous", idx, 4 * 10**5, seed=10 + idx)
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.var() == pytest.approx(1.0, abs=0.05)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            sample_base_variable("cauchy", 0, 10, seed=0)


class TestGenerate:
    def test_informative_count(self):
        spec = ScenarioSpec("t3", 100, 200, noise_fraction=0.9, seed=0)
        assert spec.n_informative == 20
        # the class shift falls on the first 20 columns only
        assert np.array_equal(np.flatnonzero(spec.effective_shifts()), np.arange(20))

    def test_reproducible_bit_identical(self):
        spec = ScenarioSpec("lognormal", 60, 10, noise_fraction=0.5, seed=42)
        a = generate(spec, 50)
        b = generate(spec, 50)
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test.X, b.test.X)
        assert np.array_equal(a.train.y, b.train.y)

    def test_balanced_labels(self):
        data = generate(ScenarioSpec("t3", 101, 5, seed=1), 99)
        counts = class_counts(data.train)
        assert abs(counts[1] - counts[2]) <= 1
        counts_test = class_counts(data.test)
        assert abs(counts_test[1] - counts_test[2]) <= 1

    def test_class_shift_on_informative_columns(self):
        spec = ScenarioSpec("heterogeneous", 40000, 10, noise_fraction=0.5,
                            delta=0.3, seed=5)
        data = generate(spec, 100)
        X, y = data.train.X, data.train.y
        gaps = X[y == 2].mean(axis=0) - X[y == 1].mean(axis=0)
        # raw-scale shift: the standardized mean gap is delta / sd(raw),
        # which differs per heterogeneous transform
        assert np.allclose(gaps[:5], spec.effective_shifts()[:5], atol=0.06)
        assert gaps[4] > gaps[1]  # |W|^0.5 is far more informative than exp(W)
        assert np.allclose(gaps[5:], 0.0, atol=0.05)

    def test_effective_shift_is_delta_over_raw_sd(self):
        import math

        spec = ScenarioSpec("t3", 10, 3, delta=0.32, seed=0)
        assert np.allclose(spec.effective_shifts(), 0.32 / math.sqrt(3.0))
        spec_ln = ScenarioSpec("lognormal", 10, 2, delta=0.06, seed=0)
        assert np.allclose(
            spec_ln.effective_shifts(), 0.06 / math.sqrt((math.e - 1) * math.e)
        )

    def test_noise_columns_label_independent(self):
        spec = ScenarioSpec("lognormal", 4000, 6, noise_fraction=0.5, seed=7)
        data = generate(spec, 100)
        X, y = data.train.X, data.train.y
        for j in range(3, 6):
            _, p = stats.ks_2samp(X[y == 1, j], X[y == 2, j])
            assert p > 0.001

    def test_noise_columns_standard_normal(self):
        spec = ScenarioSpec("t3", 20000, 4, noise_fraction=0.5, seed=8)
        data = generate(spec, 100)
        noise = data.train.X[:, 2:]
        _, p = stats.kstest(noise.ravel(), "norm")
        assert p > 0.001

    def test_delta_zero_null_case(self):
        spec = ScenarioSpec("t3", 5000, 3, delta=0.0, seed=9)
        data = generate(spec, 100)
        X, y = data.train.X, data.train.y
        for j in range(3):
            _, p = stats.ks_2samp(X[y == 1, j], X[y == 2, j])
            assert p > 0.001

    def test_default_deltas_per_family(self):
        assert ScenarioSpec("t3", 10, 2, seed=0).shift == 0.32
        assert ScenarioSpec("lognormal", 10, 2, seed=0).shift == 0.06
        assert ScenarioSpec("heterogeneous", 10, 2, seed=0).shift == 0.14

    def test_zero_informative_rejected(self):
        with pytest.raises(DomainError):
            ScenarioSpec("t3", 10, 2, noise_fraction=0.9, seed=0)


class TestCorrelationMatrix:
    def test_diagonal_exactly_one_and_symmetric(self):
        C = random_correlation_matrix(6, 0.5, seed=1)
        assert np.array_equal(np.diag(C), np.ones(6))
        assert np.array_equal(C, C.T)

    def test_positive_definite_across_draws(self):
        for seed in range(300):
            C = random_correlation_matrix(5, 0.5, seed=seed)
            np.linalg.cholesky(C)  # raises if not PD
            assert np.linalg.eigvalsh(C).min() > 0

    def test_p2_offdiagonal_distribution(self):
        vals = np.array([
            random_correlation_matrix(2, 0.5, seed=s)[0, 1] for s in range(10**4)
        ])
        # 2*Beta(0.5,0.5)-1 has mean 0 and variance 1/2
        assert vals.mean() == pytest.approx(0.0, abs=0.02)
        assert vals.var() == pytest.approx(0.5, abs=0.02)
        assert vals.min() > -1 and vals.max() < 1

    def test_every_entry_follows_the_lkj_marginal(self):
        # under LKJ(eta) each off-diagonal entry of a p x p matrix is
        # 2*Beta(a, a) - 1 with a = eta + (p - 2)/2: mean 0, variance
        # 1/(2 eta + p - 1) = 0.2 here, whatever its place in the vine
        draws = np.array([random_correlation_matrix(5, 0.5, seed=s) for s in range(4000)])
        iu = np.triu_indices(5, 1)
        off = draws[:, iu[0], iu[1]]
        assert np.allclose(off.mean(axis=0), 0.0, atol=0.03)
        assert np.allclose(off.var(axis=0), 0.2, atol=0.02)

    def test_dependent_scenario_is_positive_definite_at_p50(self):
        # generate draws its correlation matrix with seed (seed, 0xC0)
        for seed in range(20):
            data = generate(ScenarioSpec("t3", 20, 50, seed=seed, dependent=True), 2)
            assert np.all(np.isfinite(data.train.X))

    def test_needs_two_dims(self):
        with pytest.raises(DomainError):
            random_correlation_matrix(1, 0.5, seed=0)


class TestCopula:
    def test_marginals_preserved_under_dependence(self):
        # the copula leaves every marginal standardized t3: t_3 / sqrt(3)
        spec = ScenarioSpec("t3", 20000, 3, seed=12, dependent=True)
        data = generate(spec, 2).train
        for j in range(3):
            col = data.X[data.y == 1, j]
            _, p = stats.kstest(col, lambda x: stats.t.cdf(math.sqrt(3.0) * x, df=3))
            assert p > 0.01

    def test_lognormal_marginal_after_copula(self):
        # standardized exp(W): (exp(W) - e^0.5) / sqrt((e - 1) e)
        mean, sd = math.exp(0.5), math.sqrt((math.e - 1.0) * math.e)
        spec = ScenarioSpec("lognormal", 20000, 2, seed=13, dependent=True)
        data = generate(spec, 2).train
        col = data.X[data.y == 1, 0]
        _, p = stats.kstest(col, lambda x: stats.norm.cdf(np.log(sd * x + mean)))
        assert p > 0.01

    def test_spearman_identity(self):
        # the copula acts on the normals before the monotone marginal
        # transforms, so within a class Spearman's rho of columns i, j is
        # that of the normals: (6/pi) asin(C_ij / 2)
        for family in ("t3", "lognormal"):
            spec = ScenarioSpec(family, 40000, 4, seed=14, dependent=True)
            data = generate(spec, 2).train
            C = spec._correlation()
            rho = stats.spearmanr(data.X[data.y == 1]).statistic
            for i, j in zip(*np.triu_indices(4, 1)):
                expect = 6.0 / math.pi * math.asin(C[i, j] / 2.0)
                assert rho[i, j] == pytest.approx(expect, abs=0.02)

    def test_dependent_generation_keeps_marginals(self):
        ind = ScenarioSpec("lognormal", 20000, 3, seed=16, dependent=False)
        dep = ScenarioSpec("lognormal", 20000, 3, seed=16, dependent=True)
        Xi = generate(ind, 100).train
        Xd = generate(dep, 100).train
        for j in range(3):
            _, p = stats.ks_2samp(
                Xi.X[Xi.y == 1, j], Xd.X[Xd.y == 1, j]
            )
            assert p > 0.001
