"""Labeled observation matrices: the universal input of every classifier here.

Labels are positive integers 1..K. Class identity is by value, not by
position; all per-class structures (quantile tables, sensitivities) list
classes in ascending label order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Dataset:
    """n observations of p variables with integer class labels.

    X : float array of shape (n, p)
    y : int array of shape (n,), labels in 1..K (any subset of positive ints)
    var_names : optional list of p column names, preserved through CSV round trips
    """

    X: np.ndarray
    y: np.ndarray
    var_names: list[str] | None = field(default=None)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if X.ndim != 2:
            raise DomainError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DomainError(
                f"labels have shape {y.shape}, expected ({X.shape[0]},)"
            )
        if not np.all(np.isfinite(X)):
            raise DomainError("X contains non-finite values")
        if y.size and y.min() < 1:
            raise DomainError("labels must be positive integers")
        if self.var_names is not None and len(self.var_names) != X.shape[1]:
            raise DomainError("var_names length does not match number of columns")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def class_ids(self) -> np.ndarray:
        """Distinct labels in ascending order."""
        return np.unique(self.y)

    def subset(self, idx, cols=None) -> "Dataset":
        """Row subset (copy) at the columns cols, or at every column if cols
        is None, keeping variable names.

        idx is an integer or boolean index array and cols an integer one;
        such indexing already returns a copy, in Fortran order when cols
        is given.
        """
        idx = np.asarray(idx)
        if cols is None:
            return Dataset(self.X[idx], self.y[idx], self.var_names)
        names = self.var_names and [self.var_names[j] for j in cols]
        return Dataset(self.X[idx][:, cols], self.y[idx], names)
