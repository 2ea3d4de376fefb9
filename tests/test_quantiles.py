import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqc import (
    Dataset,
    DomainError,
    QuantileParams,
    QuantileTable,
    TuningGrid,
    class_transforms,
    estimate_quantile_table,
    quantile_difference_transform,
    quantile_distance,
    tune_and_train,
)
from eqc.quantiles import _quantile_of_sorted


def empirical_quantile(sample, theta: float) -> float:
    """Theta-quantile of one sample by the interpolation of quantile tables.

    With sorted values x_(1..n) and h = (n-1)*theta + 1 the result is
    x_(floor(h)) + (h - floor(h)) * (x_(floor(h)+1) - x_(floor(h))).
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("sample must be non-empty")
    return float(_quantile_of_sorted(np.sort(x)[:, None], np.array([theta]))[0])


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
levels = st.floats(0.01, 0.99)


class TestQuantileDistance:
    def test_half_theta_is_half_abs(self):
        assert quantile_distance(-3.0, 0.5) == 1.5

    def test_asymmetric_values(self):
        assert quantile_distance(2.0, 0.3) == pytest.approx(0.6, abs=1e-15)
        assert quantile_distance(-2.0, 0.3) == pytest.approx(1.4, abs=1e-15)

    def test_zero(self):
        assert quantile_distance(0.0, 0.7) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quantile_distance(np.inf, 0.5)
        with pytest.raises(DomainError):
            quantile_distance(1.0, 0.0)
        with pytest.raises(DomainError):
            quantile_distance(1.0, 1.0)

    @given(u=finite, theta=levels)
    def test_nonnegative(self, u, theta):
        assert quantile_distance(u, theta) >= 0.0

    @given(u=finite, v=finite, theta=levels)
    def test_lipschitz(self, u, v, theta):
        lip = max(theta, 1.0 - theta)
        d = abs(quantile_distance(u, theta) - quantile_distance(v, theta))
        assert d <= lip * abs(u - v) + 1e-9 * max(1.0, abs(u), abs(v))


class TestEmpiricalQuantile:
    def test_even_midpoint(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2.5

    def test_singleton(self):
        for th in (0.1, 0.5, 0.9):
            assert empirical_quantile([5.0], th) == 5.0

    def test_interpolated_quarter(self):
        # independent order-statistic oracle: h = (n-1)*0.25 + 1 = 2 exactly
        assert empirical_quantile([1, 2, 3, 4, 5], 0.25) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_quantile([], 0.5)

    @given(
        xs=st.lists(finite, min_size=1, max_size=40),
        theta=levels,
    )
    def test_matches_numpy_linear(self, xs, theta):
        ours = empirical_quantile(xs, theta)
        ref = float(np.quantile(np.asarray(xs), theta))
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @given(
        xs=st.lists(finite, min_size=2, max_size=30),
        t1=levels,
        t2=levels,
    )
    def test_monotone_in_theta(self, xs, t1, t2):
        lo, hi = sorted([t1, t2])
        assert empirical_quantile(xs, lo) <= empirical_quantile(xs, hi) + 1e-12

    def test_location_equivariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        xs = rng.standard_normal(31)
        for th in (0.2, 0.5, 0.77):
            assert empirical_quantile(xs + 10.0, th) == pytest.approx(
                empirical_quantile(xs, th) + 10.0, abs=1e-12
            )


class TestQuantileTable:
    def test_constant_samples(self):
        data = Dataset(np.array([[0.0], [0.0], [2.0], [2.0]]), [1, 1, 2, 2])
        table = estimate_quantile_table(data, QuantileParams.common(0.5, 1))
        assert np.array_equal(table.q, [[0.0], [2.0]])

    def test_identical_classes_identical_rows(self):
        rng = np.random.Generator(np.random.PCG64(0))
        block = rng.standard_normal((10, 3))
        data = Dataset(np.vstack([block, block]), [1] * 10 + [2] * 10)
        table = estimate_quantile_table(data, QuantileParams.common(0.3, 3))
        assert np.array_equal(table.q[0], table.q[1])

    def test_matches_columnwise_oracle(self):
        rng = np.random.Generator(np.random.PCG64(42))
        X = rng.standard_normal((40, 4))
        y = np.repeat([1, 2], 20)
        theta = QuantileParams.common(0.3, 4)
        table = estimate_quantile_table(Dataset(X, y), theta)
        for i, k in enumerate([1, 2]):
            for j in range(4):
                expect = empirical_quantile(X[y == k, j], 0.3)
                assert table.q[i, j] == pytest.approx(expect, abs=1e-14)

    def test_dimension_mismatch(self):
        data = Dataset(np.zeros((4, 2)), [1, 1, 2, 2])
        with pytest.raises(DomainError):
            estimate_quantile_table(data, QuantileParams.common(0.5, 3))


def _stack_problem(K: int, order: str):
    """K classes on 6 columns, the last class a single row; column 1 is
    constant and column 2 full of ties. X in the given memory order."""
    rng = np.random.Generator(np.random.PCG64(K))
    y = np.concatenate([np.repeat(np.arange(1, K), 9), [K]])
    X = rng.standard_normal((y.size, 6)) + y[:, None]
    X[:, 1] = 2.5
    X[:, 2] = np.round(X[:, 2])
    return Dataset(np.asarray(X, order=order), y)


STACK_THETAS = [QuantileParams.common(t, 6) for t in (0.05, 0.3, 0.5, 0.95)] + [
    QuantileParams(np.linspace(0.1, 0.9, 6))]


def _per_theta_quantiles(data, params):
    """The quantile matrix of one theta vector, each class sorted for it alone."""
    return np.stack([_quantile_of_sorted(np.sort(data.X[data.y == k], axis=0), params.theta)
                     for k in data.class_ids])


def _per_theta_transforms(x, table):
    """The K-1 transforms of one table, each class pair from its two distances."""
    th = table.theta.theta
    ref = table.row(table.class_ids[-1])
    return np.stack([quantile_distance(x - table.row(k), th) - quantile_distance(x - ref, th)
                     for k in table.class_ids[:-1]])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestThetaStack:
    """A theta stack's tables and transforms are those of each theta alone."""

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_tables_equal_each_theta_alone(self, K, order):
        data = _stack_problem(K, order)
        tables = estimate_quantile_table(data, STACK_THETAS)
        assert len(tables) == len(STACK_THETAS)
        for table, params in zip(tables, STACK_THETAS):
            alone = estimate_quantile_table(data, params)
            assert table.theta is params and np.array_equal(table.class_ids, data.class_ids)
            assert _same_bits(table.q, alone.q)
            assert _same_bits(table.q, _per_theta_quantiles(data, params))
        # the constant column and the one-row class
        assert np.all(tables[0].q[:, 1] == 2.5)
        assert _same_bits(tables[0].q[-1], data.X[-1])

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_transforms_equal_each_theta_alone(self, K, order):
        data = _stack_problem(K, order)
        tables = estimate_quantile_table(data, STACK_THETAS)
        held_out = np.asarray(_stack_problem(K, "C").X[::-1] + 0.25, order=order)
        for x in (data.X, held_out, held_out[3]):
            Q = class_transforms(x, tables)
            assert Q.shape == (len(tables), K - 1) + x.shape
            for h, table in enumerate(tables):
                alone, referee = class_transforms(x, table), _per_theta_transforms(x, table)
                assert _same_bits(Q[h], alone) and _same_bits(Q[h], referee)
                # the layout of x, so that a score product gives the same bits
                assert Q[h].strides[1:] == alone.strides[1:] == referee.strides[1:]
            # every class's quantile of the constant column is 2.5
            assert np.all(Q[..., 1] == 0.0)

    def test_one_sort_per_class_and_fold(self, monkeypatch):
        import eqc.quantiles

        sorts = []
        original = eqc.quantiles._sorted_columns

        def counting(rows):
            sorts.append(rows.shape[0])
            return original(rows)

        monkeypatch.setattr(eqc.quantiles, "_sorted_columns", counting)
        rng = np.random.Generator(np.random.PCG64(5))
        y = np.repeat([1, 2], 15)
        data = Dataset(rng.standard_normal((30, 4)) + y[:, None], y)
        grid = TuningGrid((0.2, 0.4, 0.6, 0.8), (0.1, 1.0), folds=3)
        tune_and_train(data, grid, "ridge")
        # each of the 3 folds sorts its two classes once for all 4 thetas,
        # then the refit sorts them once more
        assert sorted(sorts) == sorted([10] * 6 + [15] * 2)


def _two_class_table(q1, q2, theta):
    return QuantileTable(
        np.array([[q1], [q2]]), QuantileParams.common(theta, 1), np.array([1, 2])
    )


class TestTransform:
    def test_upper_tail_constant(self):
        table = _two_class_table(0.0, 2.0, 0.5)
        assert quantile_difference_transform(np.array([5.0]), table, 1, 2)[0] == 1.0

    def test_lower_tail_constant(self):
        table = _two_class_table(0.0, 2.0, 0.5)
        assert quantile_difference_transform(np.array([-5.0]), table, 1, 2)[0] == -1.0

    def test_same_class_zero(self):
        rng = np.random.Generator(np.random.PCG64(2))
        table = _two_class_table(-1.0, 3.0, 0.4)
        x = rng.standard_normal((20, 1)) * 5
        assert np.all(quantile_difference_transform(x, table, 1, 1) == 0.0)
        assert np.all(quantile_difference_transform(x, table, 2, 2) == 0.0)

    def test_middle_branch(self):
        # between the quantiles the transform is x - (1-theta) q2 - theta q1
        table = _two_class_table(0.0, 2.0, 0.3)
        x = np.array([1.2])
        got = quantile_difference_transform(x, table, 1, 2)[0]
        assert got == pytest.approx(1.2 - 0.7 * 2.0 - 0.3 * 0.0, abs=1e-14)

    def test_invalid_class(self):
        table = _two_class_table(0.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            quantile_difference_transform(np.array([0.0]), table, 1, 9)

    @given(
        q1=finite, q2=finite, x=finite, theta=levels,
    )
    @settings(max_examples=200)
    def test_bounded_and_antisymmetric(self, q1, q2, x, theta):
        table = _two_class_table(q1, q2, theta)
        v = quantile_difference_transform(np.array([x]), table, 1, 2)[0]
        bound = abs(q2 - q1) * max(theta, 1 - theta) + 1e-9 * max(1, abs(q1), abs(q2))
        assert abs(v) <= bound
        w = quantile_difference_transform(np.array([x]), table, 2, 1)[0]
        assert v == -w

    @given(q1=finite, q2=finite, theta=levels)
    def test_tail_constancy_far_out(self, q1, q2, theta):
        table = _two_class_table(q1, q2, theta)
        lo, hi = min(q1, q2), max(q1, q2)
        far = 1e6
        left = quantile_difference_transform(np.array([lo - far]), table, 1, 2)[0]
        left2 = quantile_difference_transform(np.array([lo - 2 * far]), table, 1, 2)[0]
        right = quantile_difference_transform(np.array([hi + far]), table, 1, 2)[0]
        right2 = quantile_difference_transform(np.array([hi + 2 * far]), table, 1, 2)[0]
        assert left == pytest.approx(left2, rel=1e-9, abs=1e-6)
        assert right == pytest.approx(right2, rel=1e-9, abs=1e-6)

    @given(
        x=finite,
        theta1=levels,
        theta2=levels,
        q1=finite,
        q2=finite,
    )
    @settings(max_examples=300)
    def test_check_function_perturbation_bound(self, x, theta1, theta2, q1, q2):
        # joint continuity in (theta, q):
        # |rho_t1(x - q1) - rho_t2(x - q2)| <= |x - q2||t2 - t1| + |q1 - q2|
        # (the |x - q2| factor cannot be weakened to |x|: x=0, q1=q2=1,
        # t1=0.5, t2=0.75 gives a difference of 0.25 with |x| = 0)
        t1, t2 = sorted([theta1, theta2])
        qa, qb = sorted([q1, q2])
        lhs = abs(quantile_distance(x - qa, t1) - quantile_distance(x - qb, t2))
        rhs = abs(x - qb) * (t2 - t1) + (qb - qa)
        assert lhs <= rhs + 1e-9 * max(1.0, abs(x), abs(qa), abs(qb))


class TestParamsValidation:
    def test_theta_open_interval(self):
        with pytest.raises(DomainError):
            QuantileParams(np.array([0.0, 0.5]))
        with pytest.raises(DomainError):
            QuantileParams(np.array([0.5, 1.0]))

    def test_common_flag_requires_equal(self):
        with pytest.raises(DomainError):
            QuantileParams(np.array([0.4, 0.5]), common_theta=True)

    def test_table_requires_finite(self):
        with pytest.raises(DomainError):
            QuantileTable(
                np.array([[np.nan], [1.0]]),
                QuantileParams.common(0.5, 1),
                np.array([1, 2]),
            )
