from pathlib import Path

import numpy as np
import pytest

from eqc import (
    Dataset,
    EqcError,
    ExperimentConfig,
    ScenarioSpec,
    TuningGrid,
    config_from_file,
    fisher_exact_select,
    run_experiment,
    save_dense_csv,
)
from eqc.bench import _parse_grid_token, config_from_mapping, summarize
from eqc.ingest import read_key_values

FIXTURES = Path(__file__).parent / "fixtures" / "bench"


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _small_grid(seed=0):
    return TuningGrid((0.3, 0.5, 0.7), (0.01, 1.0), folds=3, seed=seed)


class TestScenarioMode:
    def test_null_scenario_error_near_half(self, tmp_path):
        config = ExperimentConfig(
            classifiers=("qc",),
            replications=20,
            grid=_small_grid(),
            scenario=ScenarioSpec("t3", 60, 5, delta=0.0, seed=0),
            test_size=2000,
            seed=1,
            out_dir=str(tmp_path),
        )
        report = run_experiment(config)
        mean = report.summary[0]["mean_error"]
        assert 0.47 <= mean <= 0.53

    def test_long_and_summary_files(self, tmp_path):
        config = ExperimentConfig(
            classifiers=("mc", "emc"),
            replications=3,
            grid=_small_grid(),
            scenario=ScenarioSpec("lognormal", 50, 4, seed=0),
            test_size=300,
            seed=2,
            out_dir=str(tmp_path),
        )
        report = run_experiment(config)
        long_lines = open(report.long_path).read().strip().splitlines()
        assert long_lines[0] == "scenario,classifier,replication,fold,error"
        assert len(long_lines) == 1 + 3 * 2
        summary_lines = open(report.summary_path).read().strip().splitlines()
        assert summary_lines[0] == "classifier,runs,mean_error,std_error,formatted"
        assert len(summary_lines) == 3

    def test_deterministic_across_runs(self, tmp_path):
        def run(out):
            config = ExperimentConfig(
                classifiers=("qc", "emc"),
                replications=4,
                grid=_small_grid(),
                scenario=ScenarioSpec("t3", 40, 3, seed=0),
                test_size=200,
                seed=7,
                out_dir=str(tmp_path / out),
            )
            return run_experiment(config)

        a = run("a")
        b = run("b")
        assert [r[2] for r in a.rows] == [0, 0, 1, 1, 2, 2, 3, 3]  # replication order
        assert a.rows == b.rows
        assert open(a.summary_path).read() == open(b.summary_path).read()
        assert open(a.long_path).read() == open(b.long_path).read()

    def test_failure_fraction_aborts(self, tmp_path):
        # a binary classifier on 3-class data fails every replication
        rng = _rng(1)
        X = rng.standard_normal((30, 2))
        y = np.repeat([1, 2, 3], 10)
        path = tmp_path / "three.csv"
        save_dense_csv(Dataset(X, y), path)
        config = ExperimentConfig(
            classifiers=("eqc-ridge",),
            replications=2,
            grid=_small_grid(),
            dataset_path=str(path),
            outer_folds=2,
            seed=3,
            out_dir="",
        )
        with pytest.raises(EqcError, match="20%"):
            run_experiment(config)

    def test_summary_se_matches_independent_path(self, tmp_path):
        config = ExperimentConfig(
            classifiers=("mc",),
            replications=6,
            grid=_small_grid(),
            scenario=ScenarioSpec("t3", 40, 3, seed=0),
            test_size=200,
            seed=4,
            out_dir="",
        )
        report = run_experiment(config)
        errs = np.array([r[4] for r in report.rows])
        mean = errs.mean()
        se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert report.summary[0]["mean_error"] == pytest.approx(mean, abs=1e-15)
        assert report.summary[0]["std_error"] == pytest.approx(se, abs=1e-15)
        assert report.summary[0]["formatted"] == f"{100*mean:.1f}({100*se:.1f})"


class TestDatasetMode:
    def _dataset(self, tmp_path, n=60, p=6, seed=5):
        rng = _rng(seed)
        X = rng.standard_normal((n, p))
        y = np.repeat([1, 2], n // 2)
        X[y == 2, : p // 2] += 1.0
        path = tmp_path / "data.csv"
        save_dense_csv(Dataset(X, y), path)
        return path

    def test_outer_cv_rows(self, tmp_path):
        path = self._dataset(tmp_path)
        config = ExperimentConfig(
            classifiers=("qc",),
            replications=2,
            grid=_small_grid(),
            dataset_path=str(path),
            outer_folds=5,
            seed=6,
            out_dir=str(tmp_path / "out"),
        )
        report = run_experiment(config)
        assert len(report.rows) == 2 * 5
        folds = {r[3] for r in report.rows}
        assert folds == set(range(5))

    def test_fisher_selection_inside_folds_only(self, monkeypatch):
        # metamorphic check: with the partition pinned, corrupting the
        # held-out fold's labels must not change which variables that
        # fold's training part selects
        from eqc.selection import make_folds

        rng = _rng(7)
        n = 40
        X = (rng.random((n, 12)) < 0.4).astype(float)
        y = np.repeat([1, 2], n // 2)
        X[y == 2, 0] = (rng.random(n // 2) < 0.95).astype(float)
        config = ExperimentConfig(
            classifiers=("emc",),
            replications=1,
            grid=_small_grid(),
            dataset_path="unused.csv",
            outer_folds=4,
            feature_selection="fisher",
            fisher_l=4,
            seed=8,
            out_dir="",
        )
        folds = make_folds(y, 4, True, seed=123)
        y_bad = y.copy()
        y_bad[folds == 2] = 3 - y_bad[folds == 2]
        # one selection per outer fold, in fold order
        sel_a = _outer_selections(monkeypatch, config, Dataset(X, y), folds)[2]
        sel_b = _outer_selections(monkeypatch, config, Dataset(X, y_bad), folds)[2]
        assert sel_a.size == sel_b.size == 4
        assert np.array_equal(sel_a, sel_b)

    def _one_sided_folds(self, tmp_path, monkeypatch, outer_folds):
        # outer fold 0 holds every class-2 observation, so its training
        # part misses class 2 in every replication
        path = self._dataset(tmp_path)
        y = np.repeat([1, 2], 30)
        folds = np.where(y == 2, 0, 1 + np.arange(60) % (outer_folds - 1))
        monkeypatch.setattr("eqc.bench.make_folds", lambda *args, **kwargs: folds)
        return ExperimentConfig(
            classifiers=("qc", "mc"),
            replications=2,
            grid=_small_grid(),
            dataset_path=str(path),
            outer_folds=outer_folds,
            seed=12,
            out_dir="",
        )

    def test_missing_class_fails_every_classifier(self, tmp_path, monkeypatch):
        report = run_experiment(self._one_sided_folds(tmp_path, monkeypatch, 10))
        assert len(report.rows) + len(report.failures) == 2 * 10 * 2
        assert report.failures == [
            f"rep {r} fold 0 {c}: training part misses a class"
            for r in (0, 1) for c in ("qc", "mc")
        ]
        assert {(r[2], r[3]) for r in report.rows} == {
            (r, f) for r in (0, 1) for f in range(1, 10)}

    def test_failure_share_counts_classifier_tasks(self, tmp_path, monkeypatch):
        # 2 replications x 4 folds x 2 classifiers; fold 0 fails both
        with pytest.raises(EqcError, match=r"^4 of 16 tasks failed \(>= 20%\)"):
            run_experiment(self._one_sided_folds(tmp_path, monkeypatch, 4))


def _write_triples(X, y, directory) -> tuple[Path, Path]:
    """The triple file (1-based, row-major) and labels file of a count matrix."""
    directory.mkdir()
    docs, terms = np.nonzero(X)
    matrix, labels = directory / "corpus", directory / "corpus.labels"
    lines = [f"{X.shape[0]} {X.shape[1]} {docs.size}"]
    lines += [f"{d + 1} {t + 1} {int(X[d, t])}" for d, t in zip(docs, terms)]
    matrix.write_text("\n".join(lines) + "\n")
    labels.write_text("".join(f"{v}\n" for v in y))
    return matrix, labels


class TestSparseCorpus:
    def test_first_fold_never_densifies_the_corpus(self, tmp_path):
        # 400 x 8000 counts, every term in 2 documents: the dense corpus is
        # 25.6 MB, a full-width training part 20.5 MB; the first task set
        # must stay under twice the dense corpus
        import tracemalloc

        from eqc.bench import _task_sets

        n_docs, n_terms = 400, 8000
        j = np.arange(n_terms)
        X = np.zeros((n_docs, n_terms))
        X[j % n_docs, j] = 1 + j % 5
        X[(j + 1 + j // n_docs) % n_docs, j] = 1 + j % 3
        y = np.repeat([1, 2], n_docs // 2)
        matrix, labels = _write_triples(X, y, tmp_path / "in")
        dense_bytes = X.nbytes
        del X
        config = ExperimentConfig(
            classifiers=("qc",), replications=1, grid=_small_grid(),
            dtm_path=str(matrix), labels_path=str(labels), min_docs=1,
            outer_folds=5, feature_selection="fisher", fisher_l=20,
            out_dir=str(tmp_path),
        )
        tracemalloc.start()
        try:
            _, _, train, test = next(_task_sets(config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train.X.shape == (320, 20) and test.X.shape == (80, 20)
        assert peak < 2 * dense_bytes, f"peak {peak / dense_bytes:.2f}x the dense corpus"

    @pytest.mark.parametrize("selection", ["fisher", "none"])
    def test_triples_and_dense_csv_write_identical_reports(self, tmp_path, selection):
        # one corpus, every term in at least min_docs documents so that the
        # filter drops nothing, read once as triples and once as a dense CSV
        rng = _rng(13)
        y = np.repeat([1, 2], 30)
        X = rng.poisson(0.3, size=(60, 25)).astype(float)
        X[y == 2, :5] += rng.poisson(1.0, size=(30, 5))
        X[:2] += 1  # every term in at least 2 documents
        matrix, labels = _write_triples(X, y, tmp_path / "sparse")
        (tmp_path / "dense").mkdir()
        save_dense_csv(Dataset(X, y), tmp_path / "dense" / "corpus")
        common = dict(classifiers=("qc", "emc"), replications=2, grid=_small_grid(),
                      outer_folds=3, feature_selection=selection, fisher_l=6,
                      min_docs=2, seed=14)
        sparse = run_experiment(ExperimentConfig(
            dtm_path=str(matrix), labels_path=str(labels),
            out_dir=str(tmp_path / "sparse"), **common))
        dense = run_experiment(ExperimentConfig(
            dataset_path=str(tmp_path / "dense" / "corpus"),
            out_dir=str(tmp_path / "dense"), **common))
        assert len(sparse.rows) == 2 * 3 * 2 and not sparse.failures
        for a, b in ((sparse.long_path, dense.long_path),
                     (sparse.summary_path, dense.summary_path)):
            assert Path(a).read_bytes() == Path(b).read_bytes()


def _outer_selections(monkeypatch, config, data, folds):
    """Fisher selections of a one-replication run on the given outer folds."""
    selections = []

    def recording(*args):
        selections.append(fisher_exact_select(*args))
        return selections[-1]

    monkeypatch.setattr("eqc.bench._load_dataset", lambda config: data)
    monkeypatch.setattr("eqc.bench.make_folds", lambda *args, **kwargs: folds)
    monkeypatch.setattr("eqc.bench.fisher_exact_select", recording)
    run_experiment(config)
    monkeypatch.undo()
    assert len(selections) == config.outer_folds
    return selections


class TestMulticlassReporting:
    def test_sensitivities_of_perfect_classifier(self):
        from eqc.bench import _sensitivities

        truth = np.array([1, 1, 2, 2, 3, 3])
        sens = _sensitivities(truth.copy(), truth, np.array([1, 2, 3]))
        assert all(v == 1.0 for v in sens.values())

    def test_sensitivity_csv_layout(self, tmp_path):
        rng = _rng(9)
        X = rng.standard_normal((90, 3))
        y = np.repeat([1, 2, 3], 30)
        X[y == 1, 0] += 2.5
        X[y == 3, 1] -= 2.5
        path = tmp_path / "m.csv"
        save_dense_csv(Dataset(X, y), path)
        config = ExperimentConfig(
            classifiers=("eqc-multiclass",),
            replications=1,
            grid=TuningGrid((0.5,), (0.1, 1.0), folds=2, seed=0),
            dataset_path=str(path),
            outer_folds=3,
            seed=10,
            out_dir=str(tmp_path / "out"),
        )
        report = run_experiment(config)
        assert report.sensitivity_path is not None
        lines = open(report.sensitivity_path).read().strip().splitlines()
        assert lines[0] == "classifier,mean_error,class_1,class_2,class_3"
        assert len(lines) == 2


class TestGoldenOutputs:
    # each case holds an experiment file, its inputs, and the report CSVs
    # that the run wrote when the case was added; every byte must stay.
    # Binary classifiers fail on 3 classes, so dense3 runs eqc-multiclass
    # alone and qc rides in the scenario case. scaled is the one case that
    # sets scaling (mad), so it pins the scaled CV and refit path.
    OUTPUTS = ("errors_long.csv", "summary.csv", "sensitivities.csv")

    @pytest.mark.parametrize("case", ["dense3", "scenario", "dtm", "scaled"])
    def test_report_files_byte_identical(self, case, tmp_path):
        case_dir = FIXTURES / case
        cfg = case_dir / "experiment.cfg"
        raw = read_key_values(cfg)
        overrides = {k: str(case_dir / raw[k]) for k in ("dataset", "dtm", "labels")
                     if k in raw}
        run_experiment(config_from_file(cfg, {**overrides, "out": str(tmp_path)}))
        for name in self.OUTPUTS:
            expected = case_dir / name
            if expected.exists():
                assert (tmp_path / name).read_bytes() == expected.read_bytes(), name
            else:
                assert not (tmp_path / name).exists(), name


class TestConfigFile:
    def test_parse_scenario_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "mode = scenario\n"
            "family = lognormal\n"
            "n_train = 80\n"
            "p = 10\n"
            "noise_fraction = 0.5\n"
            "classifiers = qc, eqc-ridge\n"
            "replications = 4\n"
            "test_size = 500\n"
            "theta_grid = 0.2,0.5,0.8\n"
            "alpha_grid = logrange:1e-3:1e1:5\n"
            "folds = 4\n"
            "seed = 11\n"
            "out = results\n"
        )
        config = config_from_file(cfg)
        assert config.scenario.family == "lognormal"
        assert config.scenario.n_train == 80
        assert config.classifiers == ("qc", "eqc-ridge")
        assert len(config.grid.theta_grid) == 3
        assert len(config.grid.alpha_grid) == 5
        assert config.grid.folds == 4

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode = scenario\nfamily = t3\nn_train = 40\np = 4\nseed = 1\n")
        config = config_from_file(cfg, {"seed": 99, "out": "elsewhere"})
        assert config.seed == 99
        assert config.out_dir == "elsewhere"

    def test_missing_keys_take_the_type_defaults(self):
        config = config_from_mapping({})
        assert config.grid == TuningGrid()
        assert config.scenario == ScenarioSpec("t3", 100, 50)
        assert config == ExperimentConfig(("qc",), 1, TuningGrid(), config.scenario)

    @pytest.mark.parametrize("scaling, expected", [("sd", "sd"), ("none", None)])
    def test_flag_and_scaling_keys(self, scaling, expected):
        config = config_from_mapping({"stratified": "0", "dependent": "1", "scaling": scaling})
        assert config.grid == TuningGrid(stratified=False)
        assert config.scenario == ScenarioSpec("t3", 100, 50, dependent=True)
        assert config.scaling == expected

    def test_range_grid_points_are_decimal(self):
        grid = _parse_grid_token("range:0.05:0.95:19")
        assert 0.5 in grid
        assert grid == TuningGrid().theta_grid
        assert _parse_grid_token("range:0.1:0.9:9")[2] == 0.3

    def test_summarize_groups_by_classifier(self):
        rows = [
            ("s", "qc", 0, None, 0.2),
            ("s", "qc", 1, None, 0.4),
            ("s", "mc", 0, None, 0.1),
        ]
        out = summarize(rows)
        assert [r["classifier"] for r in out] == ["mc", "qc"]
        assert out[1]["mean_error"] == pytest.approx(0.3)
