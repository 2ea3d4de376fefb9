"""Asymmetric Laplace populations and their exact Bayes classifier.

For two classes of independent asymmetric Laplace coordinates sharing
scale and skewness per coordinate, the Bayes decision boundary is linear
in quantile-difference features, so a classifier with the closed-form
coefficients below is exactly Bayes optimal. That makes this module the
correctness oracle for the fitted classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metalearners import Coefficients
from .quantiles import QuantileParams, QuantileTable


@dataclass(frozen=True)
class ALParams:
    """Location m, scale lam > 0, skewness kappa > 0.

    m is the kappa^2/(1+kappa^2)-quantile of the distribution; kappa = 1
    gives the symmetric Laplace.
    """

    m: float
    lam: float
    kappa: float

    def __post_init__(self):
        if not (np.isfinite(self.m) and np.isfinite(self.lam) and np.isfinite(self.kappa)):
            raise DomainError("AL parameters must be finite")
        if self.lam <= 0 or self.kappa <= 0:
            raise DomainError("scale and skewness must be positive")

    @property
    def theta(self) -> float:
        """Quantile level at which the location sits."""
        k2 = self.kappa**2
        return k2 / (1.0 + k2)

    @property
    def sd(self) -> float:
        return float(np.sqrt(1.0 + self.kappa**4) / (self.lam * self.kappa))


@dataclass(frozen=True)
class ALPopulation:
    """Two-class product of AL coordinates with shared (kappa, lambda).

    class1 and class2 differ only in their location vectors; priors are
    positive and sum to one.
    """

    class1: tuple[ALParams, ...]
    class2: tuple[ALParams, ...]
    priors: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if len(self.class1) != len(self.class2):
            raise DomainError("classes must have the same number of coordinates")
        for a, b in zip(self.class1, self.class2):
            if a.lam != b.lam or a.kappa != b.kappa:
                raise DomainError(
                    "scale and skewness must be shared across classes per coordinate"
                )
        pi1, pi2 = self.priors
        if not (pi1 > 0 and pi2 > 0 and abs(pi1 + pi2 - 1.0) < 1e-12):
            raise DomainError("priors must be positive and sum to 1")

    @property
    def p(self) -> int:
        return len(self.class1)


def _s_al(x, m1: float, m2: float, kappa: float):
    """Piecewise-linear coordinate term of the Bayes discriminant.

    Antisymmetric in (m1, m2); identically zero when the locations agree.
    """
    if m1 == m2:
        return np.zeros_like(np.asarray(x, dtype=float))
    if m1 > m2:
        return -_s_al(x, m2, m1, kappa)
    x = np.asarray(x, dtype=float)
    k2 = kappa**2
    lo = -(m2 - m1) / (k2 + 1.0)
    hi = k2 / (k2 + 1.0) * (m2 - m1)
    mid = x - k2 / (k2 + 1.0) * m1 - m2 / (k2 + 1.0)
    return np.where(x < m1, lo, np.where(x < m2, mid, hi))


def al_bayes_discriminant(x, pop: ALPopulation):
    """Exact Bayes discriminant; class 1 when <= 0, class 2 otherwise.

    Accepts a single point (p,) or a matrix (n, p).
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != pop.p:
        raise DomainError("input dimension does not match the population")
    pi1, pi2 = pop.priors
    out = np.full(X.shape[0], np.log(pi2 / pi1))
    for j, (a, b) in enumerate(zip(pop.class1, pop.class2)):
        coeff = a.lam * (a.kappa + 1.0 / a.kappa)
        out += coeff * _s_al(X[:, j], a.m, b.m, a.kappa)
    return float(out[0]) if squeeze else out


def al_oracle_coefficients(
    pop: ALPopulation, rescaled: bool = False
) -> tuple[QuantileParams, Coefficients, QuantileTable]:
    """Closed-form classifier parameters that realize the Bayes boundary.

    theta_j = kappa_j^2/(1+kappa_j^2); the quantile table holds the true
    locations (which are exactly the theta_j-quantiles); the intercept is
    log(pi2/pi1) and each weight is lambda_j/sqrt(theta_j(1-theta_j)).

    With rescaled=True the returned table is in units of each coordinate
    divided by its standard deviation and the weights become
    sqrt(2)/(theta(1-theta)) * sqrt((theta-1/2)^2 + 1/4); pair with a
    (0, sd_j) scaling so inputs are divided by sd_j before transforming.
    """
    thetas = np.array([a.theta for a in pop.class1])
    theta = QuantileParams(thetas, common_theta=bool(
        thetas.size and np.all(thetas == thetas[0])
    ))
    m1 = np.array([a.m for a in pop.class1])
    m2 = np.array([b.m for b in pop.class2])
    if rescaled:
        sd = np.array([a.sd for a in pop.class1])
        q = np.vstack([m1 / sd, m2 / sd])
        weights = (
            np.sqrt(2.0)
            / (thetas * (1.0 - thetas))
            * np.sqrt((thetas - 0.5) ** 2 + 0.25)
        )
    else:
        q = np.vstack([m1, m2])
        lam = np.array([a.lam for a in pop.class1])
        weights = lam / np.sqrt(thetas * (1.0 - thetas))
    intercept = float(np.log(pop.priors[1] / pop.priors[0]))
    table = QuantileTable(q, theta, np.array([1, 2]))
    return theta, Coefficients(intercept, weights), table
