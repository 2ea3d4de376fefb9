import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import eqc.quantiles
from eqc import TuningGrid, load_dense_csv, tune_and_train
from eqc.cli import cli_entry


class TestSimulate:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "d.csv"
        code = cli_entry([
            "simulate", "--family", "t3", "--n", "100", "--p", "50",
            "--noise", "0", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        data = load_dense_csv(out)
        assert data.X.shape == (100, 50)
        assert set(np.unique(data.y)) == {1, 2}

    def test_test_split_written(self, tmp_path):
        out, test = tmp_path / "tr.csv", tmp_path / "te.csv"
        code = cli_entry([
            "simulate", "--family", "lognormal", "--n", "40", "--p", "5",
            "--seed", "1", "--out", str(out), "--test-out", str(test),
            "--n-test", "60",
        ])
        assert code == 0
        assert load_dense_csv(test).n == 60


class TestFitPredict:
    def test_fit_then_predict_deterministic(self, tmp_path):
        train = tmp_path / "train.csv"
        cli_entry([
            "simulate", "--family", "lognormal", "--n", "60", "--p", "6",
            "--seed", "3", "--out", str(train),
        ])
        model = tmp_path / "model.txt"
        code = cli_entry([
            "fit", "--data", str(train), "--classifier", "eqc-ridge",
            "--theta-grid", "0.3,0.5,0.7", "--alpha-grid", "0.1,1.0",
            "--folds", "3", "--seed", "5", "--out", str(model),
        ])
        assert code == 0
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert cli_entry(["predict", "--model", str(model), "--data", str(train),
                          "--out", str(p1)]) == 0
        assert cli_entry(["predict", "--model", str(model), "--data", str(train),
                          "--out", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "index,prediction,score"
        assert len(lines) == 61

    def test_cv_out_is_the_cv_table(self, tmp_path):
        train = tmp_path / "train.csv"
        cli_entry([
            "simulate", "--family", "t3", "--n", "40", "--p", "4",
            "--seed", "2", "--out", str(train),
        ])
        cv_out = tmp_path / "cv.csv"
        code = cli_entry([
            "fit", "--data", str(train), "--classifier", "eqc-ridge",
            "--theta-grid", "0.3,0.7", "--alpha-grid", "0.1,1.0",
            "--folds", "3", "--seed", "5", "--out", str(tmp_path / "model.txt"),
            "--cv-out", str(cv_out),
        ])
        assert code == 0
        grid = TuningGrid((0.3, 0.7), (0.1, 1.0), folds=3, seed=5)
        _, cv = tune_and_train(load_dense_csv(train), grid, "ridge")
        assert cv_out.read_text().splitlines() == cv.to_csv_rows()
        assert len(cv.to_csv_rows()) == 1 + 2 * 2 * 3

    def test_multiclass_fit_predict(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        from eqc import Dataset, save_dense_csv

        X = rng.standard_normal((60, 3))
        y = np.repeat([1, 2, 3], 20)
        X[y == 1, 0] += 2.0
        X[y == 3, 1] -= 2.0
        train = tmp_path / "m.csv"
        save_dense_csv(Dataset(X, y), train)
        model = tmp_path / "model.txt"
        code = cli_entry([
            "fit", "--data", str(train), "--classifier", "eqc-multiclass",
            "--theta-grid", "0.5", "--alpha-grid", "0.1", "--folds", "2",
            "--out", str(model),
        ])
        assert code == 0
        out = tmp_path / "p.csv"
        assert cli_entry(["predict", "--model", str(model), "--data", str(train),
                          "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "index,prediction,max_probability"


    def test_multiclass_predict_applies_scaling(self, tmp_path):
        from eqc import Dataset, QuantileParams, fit_multiclass_eqc, save_dense_csv
        from eqc.multiclass import class_probabilities

        rng = np.random.Generator(np.random.PCG64(0))
        y = np.repeat([1, 2, 3], 50)
        X = (rng.standard_normal((150, 4)) + 0.8 * (y[:, None] - 1)) * [1.0, 10.0, 50.0, 100.0]
        train = tmp_path / "s.csv"
        save_dense_csv(Dataset(X, y), train)
        model = tmp_path / "model.txt"
        assert cli_entry([
            "fit", "--data", str(train), "--classifier", "eqc-multiclass",
            "--theta-grid", "0.5", "--alpha-grid", "0.01", "--folds", "2",
            "--scaling", "sd", "--out", str(model),
        ]) == 0
        out = tmp_path / "p.csv"
        assert cli_entry(["predict", "--model", str(model), "--data", str(train),
                          "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        fitted = fit_multiclass_eqc(Dataset(X, y), QuantileParams.common(0.5, 4), 0.01,
                                    scaling="sd")
        probs = class_probabilities(fitted.scaling.apply(X), replace(fitted, scaling=None))
        assert np.array_equal(rows[:, 1], fitted.class_ids[np.argmax(probs, axis=1)])
        assert np.allclose(rows[:, 2], probs.max(axis=1), rtol=1e-12)


class TestPredictScoresOnce:
    @pytest.mark.parametrize("classifier, K", [("eqc-ridge", 2), ("eqc-multiclass", 3)])
    def test_one_transform_per_class_pair(self, tmp_path, monkeypatch, classifier, K):
        from eqc import (
            Dataset, eqc_discriminant, load_model, predict_binary, predict_multiclass,
            save_dense_csv,
        )
        from eqc.multiclass import class_probabilities

        rng = np.random.Generator(np.random.PCG64(12))
        y = np.repeat(np.arange(1, K + 1), 20)
        X = rng.standard_normal((y.size, 3)) + 0.8 * (y[:, None] - 1)
        train, model = tmp_path / "d.csv", tmp_path / "model.txt"
        save_dense_csv(Dataset(X, y), train)
        assert cli_entry([
            "fit", "--data", str(train), "--classifier", classifier,
            "--theta-grid", "0.5", "--alpha-grid", "0.1", "--folds", "2",
            "--scaling", "sd", "--out", str(model),
        ]) == 0
        # count every call, wherever an eqc module holds the function
        original = eqc.quantiles.quantile_difference_transform
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "eqc" or name.startswith("eqc."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        out = tmp_path / "p.csv"
        assert cli_entry(["predict", "--model", str(model), "--data", str(train),
                          "--out", str(out)]) == 0
        assert len(calls) == K - 1
        monkeypatch.undo()

        # the file is what a separate score call and predict call give
        fitted = load_model(model)
        if K == 2:
            header = "index,prediction,score"
            preds, shown = predict_binary(X, fitted), eqc_discriminant(X, fitted)
        else:
            header = "index,prediction,max_probability"
            preds = predict_multiclass(X, fitted)
            shown = class_probabilities(X, fitted).max(axis=1)
        rows = [f"{i},{int(k)},{float(v)!r}" for i, (k, v) in enumerate(zip(preds, shown))]
        assert out.read_text() == "\n".join([header] + rows) + "\n"


def _rewrite_keeps_links(tmp_path, write, names):
    """write(out_dir, variant) writes the files names into out_dir. Writing
    variant 1 over variant 0 must create each file new: a hard link made
    to it before keeps variant 0's bytes, and the path holds the bytes
    that variant 1 writes into a fresh directory."""
    old_dir, fresh_dir = tmp_path / "old", tmp_path / "fresh"
    old_dir.mkdir()
    fresh_dir.mkdir()
    write(old_dir, 0)
    old = {name: (old_dir / name).read_bytes() for name in names}
    for name in names:
        os.link(old_dir / name, old_dir / f"{name}.link")
    write(old_dir, 1)
    write(fresh_dir, 1)
    for name in names:
        new = (fresh_dir / name).read_bytes()
        assert new != old[name], name
        assert (old_dir / f"{name}.link").read_bytes() == old[name], name
        assert (old_dir / name).read_bytes() == new, name


def _simulate(out, seed):
    assert cli_entry([
        "simulate", "--family", "t3", "--n", "40", "--p", "4",
        "--seed", str(seed), "--out", str(out),
    ]) == 0


class TestOutputsWrittenNew:
    # every writer creates its file new instead of truncating the old one
    def test_simulate_out(self, tmp_path):
        _rewrite_keeps_links(tmp_path, lambda d, v: _simulate(d / "d.csv", v), ["d.csv"])

    def test_fit_out_and_cv_out(self, tmp_path):
        for v in (0, 1):
            _simulate(tmp_path / f"train{v}.csv", v)

        def fit(d, v):
            assert cli_entry([
                "fit", "--data", str(tmp_path / f"train{v}.csv"),
                "--classifier", "eqc-ridge", "--theta-grid", "0.3,0.7",
                "--alpha-grid", "0.1,1.0", "--folds", "3", "--seed", "5",
                "--out", str(d / "model.txt"), "--cv-out", str(d / "cv.csv"),
            ]) == 0

        _rewrite_keeps_links(tmp_path, fit, ["model.txt", "cv.csv"])

    def _model(self, tmp_path):
        for v in (0, 1):
            _simulate(tmp_path / f"data{v}.csv", v)
        model = tmp_path / "model.txt"
        assert cli_entry([
            "fit", "--data", str(tmp_path / "data0.csv"), "--classifier", "eqc-ridge",
            "--theta-grid", "0.5", "--alpha-grid", "0.1", "--folds", "2",
            "--out", str(model),
        ]) == 0
        return model

    def _predict(self, model, data, out):
        assert cli_entry(["predict", "--model", str(model), "--data", str(data),
                          "--out", str(out)]) == 0

    def test_predict_out(self, tmp_path):
        model = self._model(tmp_path)
        _rewrite_keeps_links(
            tmp_path,
            lambda d, v: self._predict(model, tmp_path / f"data{v}.csv", d / "p.csv"),
            ["p.csv"],
        )

    def test_symlink_out_stays_a_symlink(self, tmp_path):
        # the link is written through, as before: its target gets the bytes
        model = self._model(tmp_path)
        target, link, fresh = tmp_path / "target.csv", tmp_path / "p.csv", tmp_path / "f.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        self._predict(model, tmp_path / "data1.csv", link)
        self._predict(model, tmp_path / "data1.csv", fresh)
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        code = cli_entry(["simulate", "--nope", "x"])
        assert code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand_exits_2(self):
        assert cli_entry([]) == 2

    @pytest.mark.parametrize("command, name, value", [
        ("fit", "--theta-grid", "abc"),
        ("fit", "--theta-grid", "range:0.1:0.9"),
        ("fit", "--alpha-grid", "logrange:1:10:x"),
        ("fit", "--alpha-grid", "logrange:-1:10:5"),
        ("bench", "theta_grid", "range:0.1"),
        ("bench", "replications", "two"),
    ])
    def test_malformed_value_exits_1_naming_it(self, tmp_path, capsys, command, name, value):
        if command == "fit":
            data = tmp_path / "d.csv"
            data.write_text("label,v1\n1,0.5\n2,1.5\n1,0.2\n2,1.1\n")
            argv = ["fit", "--data", str(data), "--classifier", "eqc-ridge", name, value,
                    "--out", str(tmp_path / "model.txt")]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"classifiers = qc\n{name} = {value}\nout = {tmp_path}\n")
            argv = ["bench", "--config", str(cfg)]
        assert cli_entry(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert name in err and repr(value) in err
        assert "Traceback" not in err

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        code = cli_entry([
            "predict", "--model", str(tmp_path / "missing.txt"),
            "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()


class TestBenchCommand:
    def test_bench_emits_reports(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "mode = scenario\n"
            "family = t3\n"
            "n_train = 40\n"
            "p = 4\n"
            "classifiers = qc,mc\n"
            "replications = 2\n"
            "test_size = 200\n"
            "theta_grid = 0.3,0.5,0.7\n"
            "alpha_grid = 1.0\n"
            "folds = 2\n"
            "seed = 6\n"
            f"out = {tmp_path / 'results'}\n"
        )
        code = cli_entry(["bench", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "results" / "errors_long.csv").exists()
        assert (tmp_path / "results" / "summary.csv").exists()

    def test_selftest_passes(self):
        assert cli_entry(["selftest"]) == 0
