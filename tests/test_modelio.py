"""Model files: one reader for every class count, and its error paths.

tests/fixtures/v1_models holds format-1 model files and the `predict`
output written for them by the release that still had separate binary and
multiclass model types (multiclass files there carry a `lambda` line).
Each file must still load and predict the same labels; binary files must
also give the same scores, byte for byte.
"""

from pathlib import Path

import numpy as np
import pytest

from eqc import EqcError, ParseError, load_model, save_model
from eqc.cli import cli_entry

V1 = Path(__file__).resolve().parent / "fixtures" / "v1_models"
BINARY = ("eqc_ridge_sd", "eqc_lasso", "eqc_hinge", "qc")
MULTICLASS = ("multiclass_k3_mad", "multiclass_k2")


def _columns(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _predict(tmp_path, model, points):
    out = tmp_path / "p.csv"
    code = cli_entry(["predict", "--model", str(model), "--data", str(points),
                      "--out", str(out)])
    return code, out


@pytest.mark.parametrize("name", BINARY + MULTICLASS)
def test_v1_file_predicts_as_written(tmp_path, name):
    points = V1 / ("k3_points.csv" if name == "multiclass_k3_mad" else "binary_points.csv")
    code, out = _predict(tmp_path, V1 / f"{name}.model", points)
    assert code == 0
    header, rows = _columns(out)
    old_header, old_rows = _columns(V1 / f"{name}.predict.csv")
    assert header == old_header
    assert [r[:2] for r in rows] == [r[:2] for r in old_rows]
    if name in BINARY:
        assert rows == old_rows
    else:  # max_probability: the softmax may round differently in the last bits
        shown = np.array([float(r[2]) for r in rows])
        assert np.allclose(shown, [float(r[2]) for r in old_rows], rtol=1e-12, atol=0)


def _corrupt(tmp_path, name, **values):
    lines = (V1 / f"{name}.model").read_text().splitlines()
    keys = [ln.split("=")[0].strip() for ln in lines]
    lines = [f"{k} = {values[k]}" if k in values else ln for k, ln in zip(keys, lines)]
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines) + "\n")
    return path


ONE_ENTRY_SCALING = {"scaling_center": "0.5", "scaling_scale": "1.5"}


@pytest.mark.parametrize("name, values", [
    ("multiclass_k3_mad", ONE_ENTRY_SCALING),  # p = 4
    ("eqc_ridge_sd", ONE_ENTRY_SCALING),
    ("multiclass_k3_mad", {"intercepts": "0.1"}),
    ("eqc_lasso", {"intercepts": "0.1 0.2"}),
    ("eqc_lasso", {"kind": "multiclass-lasso"}),
    ("eqc_lasso", {"weights": "0.1 0.2"}),
])
def test_inconsistent_file_rejected(tmp_path, capsys, name, values):
    path = _corrupt(tmp_path, name, **values)
    with pytest.raises(EqcError):
        load_model(path)
    code, _ = _predict(tmp_path, path, V1 / "k3_points.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("version", "x"),
    ("n_classes", "two"),
    ("common_theta", "1.0"),
    ("class_ids", "1 b"),
    ("theta", "0.5 0.5 0.5 half"),
    ("weights", "abc"),
    ("intercepts", "1,5"),
    ("scaling_scale", "- - - -"),
])
def test_malformed_number_names_its_key(tmp_path, capsys, key, value):
    path = _corrupt(tmp_path, "multiclass_k3_mad", **{key: value})
    with pytest.raises(ParseError, match=repr(key)):
        load_model(path)
    code, _ = _predict(tmp_path, path, V1 / "k3_points.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name", BINARY + MULTICLASS)
def test_resave_drops_only_lambda(tmp_path, name):
    """Binary files come back byte-identical; multiclass ones lose `lambda`."""
    path = tmp_path / "m.model"
    save_model(load_model(V1 / f"{name}.model"), path)
    old = (V1 / f"{name}.model").read_text().splitlines()
    assert path.read_text().splitlines() == [ln for ln in old if not ln.startswith("lambda")]
