"""Versioned flat-text model files.

Key = value lines, one section per fitted component. Floats are written
with repr so a load returns bit-identical values. Every model has the same
fields whatever its class count K: the class ids, one quantile row per
class, the K-1 intercepts against the last class as reference, and the
shared weights. A 'lambda' line in files of older multiclass models is
ignored.
"""

from __future__ import annotations

import numpy as np

from .binary import FittedEqc, VariableScaling
from .errors import ParseError
from .ingest import open_new, read_key_values
from .metalearners import Coefficients
from .quantiles import QuantileParams, QuantileTable

FORMAT_NAME = "eqc-model"
FORMAT_VERSION = 1


def _fmt_vec(v) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(v, dtype=float))


def save_model(model: FittedEqc, path) -> None:
    """Write model to path as a new file (open_new), so a hard link keeps
    the old content."""
    lines = [
        f"format = {FORMAT_NAME}",
        f"version = {FORMAT_VERSION}",
        f"kind = {model.kind}",
        f"n_classes = {model.table.n_classes}",
        f"n_variables = {model.table.p}",
        "class_ids = " + " ".join(str(int(k)) for k in model.table.class_ids),
        f"common_theta = {int(model.theta.common_theta)}",
        "theta = " + _fmt_vec(model.theta.theta),
    ]
    for i, k in enumerate(model.table.class_ids):
        lines.append(f"quantiles[{int(k)}] = " + _fmt_vec(model.table.q[i]))
    lines.append("intercepts = " + _fmt_vec(model.coef.intercepts))
    lines.append("weights = " + _fmt_vec(model.coef.weights))
    if model.scaling is not None:
        lines.append("scaling_center = " + _fmt_vec(model.scaling.center))
        lines.append("scaling_scale = " + _fmt_vec(model.scaling.scale))
    with open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> FittedEqc:
    fields = read_key_values(path)

    def need(key: str) -> str:
        if key not in fields:
            raise ParseError(f"missing field {key!r}")
        return fields[key]

    def integer(key: str) -> int:
        try:
            return int(need(key))
        except ValueError:
            raise ParseError(f"field {key!r} must be an integer") from None

    def numbers(key: str, convert=float) -> np.ndarray:
        try:
            return np.array([convert(tok) for tok in need(key).split()])
        except ValueError:
            raise ParseError(f"field {key!r} must hold numbers") from None

    if need("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} file")
    if integer("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported version {fields['version']}")
    n_classes = integer("n_classes")
    p = integer("n_variables")
    class_ids = numbers("class_ids", int)
    if class_ids.size != n_classes:
        raise ParseError("class_ids length disagrees with n_classes")
    theta = QuantileParams(numbers("theta"), common_theta=bool(integer("common_theta")))
    q = np.vstack([numbers(f"quantiles[{int(k)}]") for k in class_ids])
    if q.shape != (n_classes, p):
        raise ParseError("quantile rows disagree with declared shape")
    table = QuantileTable(q, theta, class_ids)
    scaling = None
    if "scaling_center" in fields:
        scaling = VariableScaling(numbers("scaling_center"), numbers("scaling_scale"))
    coef = Coefficients(numbers("intercepts"), numbers("weights"))
    return FittedEqc(theta, table, coef, need("kind"), scaling)
