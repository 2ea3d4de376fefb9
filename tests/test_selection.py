import time

import numpy as np
import pytest

from eqc import (
    Dataset,
    DomainError,
    QuantileParams,
    ScenarioSpec,
    TuningGrid,
    TuningError,
    fit_binary_eqc,
    fit_multiclass_eqc,
    make_folds,
    misclassification_rate,
    predict_binary,
    predict_multiclass,
    tune_and_train,
)
from eqc.binary import class_transforms, compute_scaling, labels_from_scores
from eqc.ingest import SparseDtm
from eqc.metalearners import Coefficients, fit_path
from eqc.quantiles import estimate_quantile_table
from eqc.scenarios import generate
from eqc.selection import LEARNERS, _choose_cell, _fold_errors


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestMakeFolds:
    def test_balanced_divisible_case(self):
        labels = np.array([1, 2] * 5)
        fold = make_folds(labels, 5, stratified=True, seed=1)
        for t in range(5):
            members = labels[fold == t]
            assert len(members) == 2
            assert set(members) == {1, 2}

    def test_same_seed_identical(self):
        labels = _rng(2).integers(1, 4, size=50)
        a = make_folds(labels, 5, True, 99)
        b = make_folds(labels, 5, True, 99)
        assert np.array_equal(a, b)

    def test_partition_property(self):
        labels = _rng(3).integers(1, 3, size=37)
        fold = make_folds(labels, 4, stratified=True, seed=0)
        assert fold.shape == (37,)
        assert set(np.unique(fold)) <= set(range(4))
        assert np.bincount(fold, minlength=4).sum() == 37

    def test_stratification_within_one_member(self):
        labels = np.array([1] * 30 + [2] * 11)
        fold = make_folds(labels, 5, stratified=True, seed=7)
        for k in (1, 2):
            counts = np.bincount(fold[labels == k], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_too_many_folds_rejected(self):
        with pytest.raises(DomainError):
            make_folds(np.array([1, 2, 1]), 4, True, 0)

    def test_unstratified_sizes_balanced(self):
        fold = make_folds(np.ones(23, dtype=int), 5, stratified=False, seed=5)
        sizes = np.bincount(fold, minlength=5)
        assert sizes.max() - sizes.min() <= 1


class TestMisclassification:
    def test_quarter(self):
        assert misclassification_rate([1, 2, 1, 2], [1, 1, 1, 2]) == 0.25

    def test_identical_zero(self):
        assert misclassification_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_opposite_one(self):
        assert misclassification_rate([1, 1, 1], [2, 2, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            misclassification_rate([1, 2], [1, 2, 1])


def _toy_binary(seed=0, n=60, p=3, shift=1.0):
    rng = _rng(seed)
    X = rng.standard_normal((n, p))
    y = np.repeat([1, 2], n // 2)
    X[y == 2] += shift
    return Dataset(X, y)


def _cv_fits(monkeypatch, data, grid, learner="ridge"):
    """What every fit_path call that one tune_and_train makes in CV
    returns: the solutions X and the reports."""
    calls = []

    def recording(*args):
        calls.append(fit_path(*args))
        return calls[-1]

    monkeypatch.setattr("eqc.selection.fit_path", recording)
    tune_and_train(data, grid, learner)
    monkeypatch.undo()
    return calls


class TestTuneAndTrain:
    def test_single_cell_equals_direct_fit(self):
        data = _toy_binary(1)
        grid = TuningGrid((0.4,), (0.3,), folds=3, seed=2)
        model, cv = tune_and_train(data, grid, "ridge")
        direct = fit_binary_eqc(
            data, QuantileParams.common(0.4, 3), "ridge", 0.3
        )
        assert cv.table.shape == (1, 1)
        assert model.coef.intercepts[0] == direct.coef.intercepts[0]
        assert np.array_equal(model.coef.weights, direct.coef.weights)

    def test_deterministic_per_seed(self):
        data = _toy_binary(3)
        grid = TuningGrid((0.3, 0.5, 0.7), (0.01, 1.0), folds=4, seed=9)
        m1, r1 = tune_and_train(data, grid, "lasso")
        m2, r2 = tune_and_train(data, grid, "lasso")
        assert r1.chosen == r2.chosen
        assert np.array_equal(r1.per_fold, r2.per_fold, equal_nan=True)
        assert np.array_equal(m1.coef.weights, m2.coef.weights)

    def test_qc_theta_concentrates_at_half_on_symmetric_data(self):
        # symmetric heavy-tailed population: the optimal level is 0.5, but
        # the population error curve is flat near it (held-out error about
        # 0.1435, 0.1419, 0.1433 at theta 0.45, 0.5, 0.55), and 0/1-loss
        # CV on 800 points cannot always resolve that. Minimum-CV selection
        # lands in [0.45, 0.55] on 402 of 500 seeds (s = 20..519), a rate
        # of 0.80: a correct rule gets >= 12 of 20 with probability > 0.99,
        # while a selector that picks uniformly among the 19 thetas (rate
        # 3/19) passes with probability about 1e-5. The mean of the chosen
        # thetas (sd 0.058 per seed) guards against drift to one side.
        hits = 0
        chosen = []
        for seed in range(20):
            spec = ScenarioSpec("t3", 800, 40, delta=0.45, seed=(7, seed))
            data = generate(spec, 10).train
            grid = TuningGrid(
                tuple(np.round(np.arange(0.05, 0.951, 0.05), 2)), (1.0,),
                folds=5, seed=seed,
            )
            _, cv = tune_and_train(data, grid, "unit-weights")
            hits += abs(cv.chosen[0] - 0.5) <= 0.05 + 1e-9
            chosen.append(cv.chosen[0])
        assert hits >= 12  # >= 60% of seeds
        assert abs(np.mean(chosen) - 0.5) <= 0.04

    def test_one_fit_path_call_per_fold(self, monkeypatch):
        # each fold's designs, one per theta, are fitted by one call on
        # their stack, at every alpha; multiclass-ridge at K = 3 too
        y3 = np.repeat([1, 2, 3], 14)
        three = Dataset(_rng(4).standard_normal((42, 3)) + (y3[:, None] - 1), y3)
        grid = TuningGrid((0.2, 0.5, 0.8), (0.1, 1.0), folds=4, seed=1)
        for learner, data, K in (("ridge", _toy_binary(4, n=40), 2),
                                 ("multiclass-ridge", three, 3)):
            calls = _cv_fits(monkeypatch, data, grid, learner)
            assert len(calls) == 4
            for X, reports in calls:
                assert [len(per_theta) for per_theta in reports] == [2, 2, 2]
                assert X.shape == (3, 2, K - 1 + data.p)  # K - 1 intercepts, then weights

    def test_heldout_label_corruption_leaves_fold_models_alone(self, monkeypatch):
        # models inside fold t are fit on S minus S_t; flipping the held-out
        # fold's labels must not change them (unstratified folds so the
        # partition itself does not depend on the corrupted labels)
        data = _toy_binary(5, n=40)
        grid = TuningGrid((0.3, 0.6), (0.5,), folds=2, stratified=False, seed=4)
        fold = make_folds(data.y, 2, False, 4)
        y_bad = data.y.copy()
        y_bad[fold == 1] = 3 - y_bad[fold == 1]
        # CV calls fit_path once per fold, on the stack of both thetas; the
        # refit goes through eqc.binary's fit_path and is not recorded
        [_, (X_a, _)] = _cv_fits(monkeypatch, data, grid)
        [_, (X_b, _)] = _cv_fits(monkeypatch, Dataset(data.X, y_bad), grid)
        assert X_a.shape[:2] == X_b.shape[:2] == (2, 1)  # fold 1, both thetas, one alpha
        assert np.array_equal(X_a, X_b)

    def test_missing_class_fold_skipped_with_warning(self):
        # both class-2 members sit in fold 0 (seed picked for that), so
        # fold 0's training part misses class 2 and is skipped
        X = _rng(6).standard_normal((9, 2))
        y = np.array([1, 1, 1, 1, 1, 1, 1, 2, 2])
        fold = make_folds(y, 3, stratified=False, seed=1)
        assert fold[7] == fold[8]  # construction check
        grid = TuningGrid((0.5,), (1.0,), folds=3, stratified=False, seed=1)
        model, cv = tune_and_train(Dataset(X, y), grid, "ridge")
        assert len(cv.warnings) == 1
        skipped = int(np.sum(np.isnan(cv.per_fold[:, 0, 0])))
        assert skipped == 1

    def test_all_folds_skipped_raises(self):
        # one observation per class and per fold: every training part is
        # single-class, so no fold can score
        X = _rng(8).standard_normal((2, 2))
        y = np.array([1, 2])
        grid = TuningGrid((0.5,), (1.0,), folds=2, stratified=False, seed=3)
        with pytest.raises(TuningError):
            tune_and_train(Dataset(X, y), grid, "ridge")

    def test_csv_export_layout(self, tmp_path):
        data = _toy_binary(9)
        grid = TuningGrid((0.4, 0.6), (0.1, 1.0), folds=2, seed=5)
        _, cv = tune_and_train(data, grid, "ridge")
        path = tmp_path / "cv.csv"
        cv.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,alpha,fold,error"
        assert len(lines) == 1 + 2 * 2 * 2
        first = lines[1].split(",")
        assert len(first) == 4

    def test_hinge_and_multiclass_learners_run(self):
        data = _toy_binary(10, n=40)
        grid = TuningGrid((0.5,), (1.0, 10.0), folds=2, seed=6)
        model_h, _ = tune_and_train(data, grid, "hinge")
        assert model_h.kind == "hinge"
        rng = _rng(11)
        X = rng.standard_normal((60, 2))
        y = np.repeat([1, 2, 3], 20)
        X[y == 2] += 1.2
        X[y == 3] -= 1.2
        model_m, cv = tune_and_train(Dataset(X, y), grid, "multiclass-ridge")
        assert model_m.coef.n_classes == 3

    def test_wall_time_roughly_linear_in_theta_grid(self):
        # coarse complexity check: 4x the theta grid should cost no more
        # than ~8x (factor-of-2 tolerance on linear scaling)
        spec = ScenarioSpec("t3", 500, 40, delta=0.4, seed=12)
        data = generate(spec, 10).train
        small = tuple(np.linspace(0.2, 0.8, 4))
        large = tuple(np.linspace(0.1, 0.9, 16))

        def timed(thetas):
            grid = TuningGrid(thetas, (1.0,), folds=5, seed=2)
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                tune_and_train(data, grid, "unit-weights")
                best = min(best, time.perf_counter() - t0)
            return best

        t_small = timed(small)
        t_large = timed(large)
        assert t_large <= 8.0 * t_small + 0.05


class TestFittedModelPredictsAsScored:
    # refit one fold's training part at one grid cell, predict its held-out
    # part: the error must be exactly the one CV recorded for that cell.
    # Off-centre columns on scales 1..1000 make the scaling matter (each
    # "sd" case fails if predict skips it); ridge, lasso and multiclass-ridge
    # use the largest lambda, where their path starts cold, small enough to
    # keep weights. CV solves hinge at every cost and theta of a fold in one
    # stack, so every hinge cost is checked.
    @pytest.mark.parametrize("scaling", [None, "sd"])
    @pytest.mark.parametrize(
        "learner", ["ridge", "lasso", "hinge", "logistic", "unit-weights", "multiclass-ridge"]
    )
    def test_cv_cell_equals_refit_prediction(self, learner, scaling):
        K = 3 if learner == "multiclass-ridge" else 2
        rng = _rng(21)
        y = np.repeat(np.arange(1, K + 1), 30)
        scale = np.array([1.0, 10.0, 100.0, 1000.0, 3.0])
        X = (rng.standard_t(3, size=(y.size, 5)) + 0.6 * (y[:, None] - 1) + 2.0) * scale
        data = Dataset(X, y)
        alphas = (0.0003, 0.003, 0.03)
        grid = TuningGrid((0.3, 0.6), alphas, folds=3, seed=8)
        _, cv = tune_and_train(data, grid, learner, scaling=scaling)
        folds = make_folds(y, 3, True, 8)
        alpha_free = learner in ("logistic", "unit-weights")
        t, h = 1, 1
        a = 2 if learner in ("ridge", "lasso", "multiclass-ridge") else (0 if alpha_free else 1)
        tr, te = data.subset(folds != t), data.subset(folds == t)
        theta = QuantileParams.common(cv.thetas[h], data.p)
        for a in range(len(alphas)) if learner == "hinge" else [a]:
            if learner == "multiclass-ridge":
                model = fit_multiclass_eqc(tr, theta, alphas[a], scaling=scaling)
                pred = predict_multiclass(te.X, model)
            else:
                alpha = np.nan if alpha_free else alphas[a]
                model = fit_binary_eqc(tr, theta, learner, alpha, scaling=scaling)
                pred = predict_binary(te.X, model)
            assert misclassification_rate(pred, te.y) == cv.per_fold[t, h, a]

    def test_constant_columns_score_as_refit_on_ties(self):
        # count data with a constant column: held-out points whose hinge
        # discriminant is exactly 0 (the tie goes to class 1) come out as
        # 2.8e-17, not 0, when the dropped columns are left out of the dot product
        rng = np.random.default_rng([2, 77])
        y = np.repeat([1, 2], 40)
        X = rng.poisson(np.where(y[:, None] == 1, 0.3, 0.6) * np.linspace(0.05, 2, 12))
        X[:, 0] = 1
        data = Dataset(X.astype(float), y)
        _, cv = tune_and_train(data, TuningGrid((0.3,), (1.0,), folds=3, seed=5), "hinge")
        folds = make_folds(y, 3, True, 5)
        tr, te = data.subset(folds != 2), data.subset(folds == 2)
        model = fit_binary_eqc(tr, QuantileParams.common(0.3, 12), "hinge", 1.0)
        assert misclassification_rate(predict_binary(te.X, model), te.y) == cv.per_fold[2, 0, 0]


def _count_data(K, n=90, p=12, seed=1):
    """Sparse counts of K classes with a constant column. At theta 0.2
    every column of a design is constant, so its fits are intercepts alone,
    exactly 0 for balanced classes, and held-out scores are exactly 0."""
    rng = np.random.default_rng([seed, K])
    y = np.repeat(np.arange(1, K + 1), n // K)
    X = rng.poisson(np.linspace(0.05, 0.5, p) * (1 + 0.6 * (y[:, None] - 1))).astype(float)
    X[:, 0] = 1
    return Dataset(X, y)


def _per_cell_errors(tr, te, thetas, alphas, learner, scaling):
    """The referee of _fold_errors: its per-cell scoring before the scores
    became one product per theta. Each (theta, alpha) cell builds its
    Coefficients from fit_path's solution, scores with .scores, labels by
    labels_from_scores and rates by misclassification_rate. Returns the
    errors and the number of held-out scores that are exactly 0."""
    if scaling is not None:
        scaler = compute_scaling(tr.X, scaling)
        tr, te = (Dataset(scaler.apply(d.X), d.y) for d in (tr, te))
    tables = [estimate_quantile_table(tr, QuantileParams.common(th, tr.p)) for th in thetas]
    Q = np.stack([class_transforms(tr.X, table) for table in tables])
    m = Q.shape[1]
    solver = "ridge" if learner == "multiclass-ridge" else learner
    X, _ = fit_path(Q, np.searchsorted(tr.class_ids, tr.y), solver, alphas)
    errs, ties = np.full((len(thetas), len(alphas)), np.nan), 0
    for h, table in enumerate(tables):
        Q_te = class_transforms(te.X, table)
        for a, x in enumerate(X[h]):
            scores = Coefficients(x[:m], x[m:]).scores(Q_te)
            ties += np.count_nonzero(scores == 0.0)
            errs[h, a] = misclassification_rate(labels_from_scores(scores, table.class_ids), te.y)
    return errs, ties


class TestFoldErrorsPerCellReferee:
    # _fold_errors scores each theta's alphas with one product; its errors
    # must equal the per-cell referee's bit for bit, ties included, and
    # for a held-out part in Fortran order as the text corpus builds it
    THETAS, ALPHAS = [0.2, 0.5, 0.8], [0.01, 1.0, 100.0]

    def _alphas(self, learner):
        return [np.nan] if learner in ("logistic", "unit-weights") else self.ALPHAS

    @pytest.mark.parametrize("scaling", [None, "sd"])
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_counts_with_exact_zero_scores(self, learner, scaling):
        data = _count_data(3 if learner == "multiclass-ridge" else 2)
        folds = make_folds(data.y, 3, True, 0)
        ties = 0
        for t in range(3):
            tr, te = data.subset(folds != t), data.subset(folds == t)
            referee, tied = _per_cell_errors(tr, te, self.THETAS, self._alphas(learner),
                                             learner, scaling)
            ours = _fold_errors(tr, te, self.THETAS, self._alphas(learner), learner, scaling)
            assert ours.tobytes() == referee.tobytes()
            ties += tied
        assert ties > 0

    @pytest.mark.parametrize("scaling", [None, "sd"])
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_fortran_held_out_part_of_a_term_matrix(self, learner, scaling):
        data = _count_data(3 if learner == "multiclass-ridge" else 2, seed=2)
        docs, terms = np.nonzero(data.X)
        dtm = SparseDtm(data.n, data.p, docs, terms, data.X[docs, terms].astype(int), data.y)
        cols = [3, 0, 7, 11, 1, 9, 5, 2]
        folds = make_folds(data.y, 3, True, 4)
        for t in range(3):
            tr, te = dtm.subset(folds != t, cols), dtm.subset(folds == t, cols)
            assert te.X.flags.f_contiguous and not te.X.flags.c_contiguous
            referee, _ = _per_cell_errors(tr, te, self.THETAS, self._alphas(learner),
                                          learner, scaling)
            ours = _fold_errors(tr, te, self.THETAS, self._alphas(learner), learner, scaling)
            assert ours.tobytes() == referee.tobytes()

    @pytest.mark.parametrize(
        "learner", ["ridge", "lasso", "logistic", "unit-weights", "multiclass-ridge"])
    def test_only_the_refit_builds_coefficients(self, monkeypatch, learner):
        # CV keeps its solutions in fit_path's array: a tuning run builds
        # one Coefficients, the refit's (the hinge is left out: its solver
        # prices every report through hinge_loss, which takes one)
        built = []
        post_init = Coefficients.__post_init__

        def counting(coef):
            built.append(coef)
            post_init(coef)

        monkeypatch.setattr(Coefficients, "__post_init__", counting)
        data = _count_data(3 if learner == "multiclass-ridge" else 2)
        grid = TuningGrid((0.3, 0.5, 0.7), (0.01, 1.0), folds=3, seed=2)
        model, _ = tune_and_train(data, grid, learner)
        assert len(built) == 1 and built[0] is model.coef


def _fold_mean(counts, sizes):
    # the table entry tune_and_train computes from per-fold error counts
    return np.nanmean(np.asarray(counts) / np.asarray(sizes))


class TestChooseCell:
    # equal error counts over equal folds whose float means differ by one
    # ulp; the documented tie-break must decide, not the rounding
    @pytest.mark.parametrize("table, thetas, alphas, learner, expected", [
        ([[0.14625], [0.14625000000000002]], (0.35, 0.45), (np.nan,),
         "unit-weights", (1, 0)),  # theta nearest 0.5
        ([[0.14625, 0.14625000000000002]], (0.5,), (0.1, 1.0),
         "ridge", (0, 1)),  # larger lambda
        ([[0.14625000000000002, 0.14625]], (0.5,), (0.1, 1.0),
         "hinge", (0, 0)),  # smaller cost
    ])
    def test_rounding_does_not_break_tie(self, table, thetas, alphas, learner, expected):
        assert _choose_cell(np.array(table), thetas, alphas, learner, 5) == expected

    def test_equal_counts_in_folds_are_tied(self):
        sizes = [160] * 5
        lo = _fold_mean([32, 18, 26, 28, 31], sizes)
        hi = _fold_mean([32, 17, 26, 29, 31], sizes)
        assert lo < hi  # same 135 errors, different rounding
        h, _ = _choose_cell(
            np.array([[lo], [hi]]), (0.3, 0.5), (np.nan,), "unit-weights", 5
        )
        assert h == 1

    def test_equal_total_over_unequal_folds_is_not_a_tie(self):
        # 7 errors in both cells, split differently over folds of 160 and
        # 161: the means differ by 1/(2 * 160 * 161), a real gap
        sizes = [160, 161]
        worse = _fold_mean([4, 3], sizes)
        better = _fold_mean([3, 4], sizes)
        assert better < worse
        table = np.array([[better, worse]])
        assert _choose_cell(table, (0.5,), (0.1, 1.0), "ridge", 2) == (0, 0)

    def test_theta_distance_rounding_falls_back_to_grid_order(self):
        # 0.7 - 0.5 rounds below 0.5 - 0.3; both are 0.2 from 0.5
        table = np.array([[0.2], [0.2]])
        h, _ = _choose_cell(table, (0.3, 0.7), (np.nan,), "unit-weights", 5)
        assert h == 0

    def test_all_nan_raises(self):
        with pytest.raises(TuningError):
            _choose_cell(np.full((2, 1), np.nan), (0.3, 0.5), (np.nan,), "logistic", 5)

    def test_rounding_tie_in_tuning_run(self):
        # on this seed theta 0.5 and 0.65 have the same CV error count;
        # the float mean at 0.65 is one ulp lower
        spec = ScenarioSpec("t3", 800, 40, delta=0.45, seed=(7, 164))
        data = generate(spec, 10).train
        grid = TuningGrid(
            tuple(np.round(np.arange(0.05, 0.951, 0.05), 2)), (1.0,),
            folds=5, seed=164,
        )
        _, cv = tune_and_train(data, grid, "unit-weights")
        assert cv.chosen[0] == 0.5
