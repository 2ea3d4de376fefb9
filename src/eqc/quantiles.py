"""Quantile distance, per-class quantile tables, and the quantile-difference transform.

The transform maps a raw input x_j to the difference of its quantile
distances from two classes' level-theta quantiles. It is piecewise linear
with constant tails (constant below both quantiles and above both), which
is what makes the derived features robust to outliers. Everything in this
module is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, FitError


@dataclass(frozen=True)
class QuantileParams:
    """Per-variable quantile levels theta_j, each strictly inside (0, 1).

    common_theta marks the usual restriction that all entries are equal;
    it is what the tuning grid varies.
    """

    theta: np.ndarray
    common_theta: bool = False

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1:
            raise DomainError("theta must be a vector")
        if not np.all(np.isfinite(theta)):
            raise DomainError("theta contains non-finite entries")
        if np.any(theta <= 0.0) or np.any(theta >= 1.0):
            raise DomainError("every theta_j must lie strictly in (0, 1)")
        if self.common_theta and theta.size and np.any(theta != theta[0]):
            raise DomainError("common_theta is set but entries differ")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def common(cls, theta: float, p: int) -> "QuantileParams":
        """All p variables share one level."""
        return cls(np.full(p, float(theta)), common_theta=True)

    @property
    def p(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class QuantileTable:
    """K x p matrix of per-class, per-variable quantiles, in input units.

    Row order follows class_ids (ascending labels of the data the table
    was estimated on).
    """

    q: np.ndarray
    theta: QuantileParams
    class_ids: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        class_ids = np.asarray(self.class_ids, dtype=int)
        if q.ndim != 2:
            raise DomainError("quantile matrix must be 2-dimensional")
        if not np.all(np.isfinite(q)):
            raise DomainError("quantile matrix contains non-finite entries")
        if q.shape != (class_ids.size, self.theta.p):
            raise DomainError(
                f"quantile matrix shape {q.shape} does not match "
                f"{class_ids.size} classes x {self.theta.p} variables"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "class_ids", class_ids)

    @property
    def n_classes(self) -> int:
        return self.class_ids.size

    @property
    def p(self) -> int:
        return self.q.shape[1]

    def row(self, class_id: int) -> np.ndarray:
        """Quantile row of the given class label."""
        matches = np.flatnonzero(self.class_ids == class_id)
        if matches.size == 0:
            raise DomainError(f"class {class_id} not present in quantile table")
        return self.q[matches[0]]


def quantile_distance(u, theta):
    """Check-function distance u * (theta - 1{u < 0}).

    Always nonnegative; equals |u|/2 at theta = 0.5. Accepts scalars or
    arrays for u; theta may be a scalar or broadcastable array of levels.
    """
    u = np.asarray(u, dtype=float)
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("u must be finite")
    if not np.all(np.isfinite(th)) or np.any(th <= 0.0) or np.any(th >= 1.0):
        raise DomainError("theta must lie strictly in (0, 1)")
    out = u * (th - (u < 0))
    if out.ndim == 0:
        return float(out)
    return out


def _quantile_of_sorted(sorted_cols: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Column-wise interpolated quantiles of pre-sorted columns.

    sorted_cols: (n, p) with each column ascending; theta: (p,).
    The caller sorts: estimate_quantile_table sorts the class's columns
    on every call, once per theta vector.
    """
    n = sorted_cols.shape[0]
    h = (n - 1) * theta
    lo = np.floor(h).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = h - lo
    cols = np.arange(sorted_cols.shape[1])
    a = sorted_cols[lo, cols]
    return a + frac * (sorted_cols[hi, cols] - a)


def estimate_quantile_table(data: Dataset, theta: QuantileParams) -> QuantileTable:
    """Per-class, per-variable empirical quantiles of a training set.

    The rows follow data.class_ids, the classes present in data.
    """
    if theta.p != data.p:
        raise DomainError(
            f"theta has {theta.p} entries but data has {data.p} variables"
        )
    class_ids = data.class_ids
    if class_ids.size == 0:
        raise FitError("dataset has no observations")
    q = np.empty((class_ids.size, data.p))
    for i, k in enumerate(class_ids):
        rows = data.X[data.y == k]
        q[i] = _quantile_of_sorted(np.sort(rows, axis=0), theta.theta)
    return QuantileTable(q, theta, class_ids)


def quantile_difference_transform(x, table: QuantileTable, k1: int, k2: int):
    """Component-wise difference of quantile distances to classes k1 and k2.

    Component j is rho_{theta_j}(x_j - q_{k1,j}) - rho_{theta_j}(x_j - q_{k2,j}).
    Accepts a single input vector (p,) or a matrix (n, p) of row vectors,
    returning the same shape. k1 == k2 gives the zero transform.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != table.p:
        raise DomainError(
            f"input has {X.shape[1]} variables, table has {table.p}"
        )
    q1 = table.row(k1)
    q2 = table.row(k2)
    th = table.theta.theta
    out = quantile_distance(X - q1, th) - quantile_distance(X - q2, th)
    return out[0] if squeeze else out


def degenerate_columns(Z: np.ndarray) -> np.ndarray:
    """Mask (..., p) of the columns of Z (..., n, p) constant over the n rows.

    Transformed features are frequently constant when a variable's sample
    lies entirely in one tail of the transform; solvers drop them and
    report zero weights.
    """
    return np.ptp(Z, axis=-2) == 0.0
