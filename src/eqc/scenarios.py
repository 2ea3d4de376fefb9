"""Synthetic two-class location-shift benchmarks.

Three marginal families (heavy-tailed t3, highly skewed lognormal, and a
heterogeneous mix of five transforms of a standard normal), each
standardized to mean 0 / variance 1; class 2 is class 1 shifted by delta
on the informative coordinates. Extraneous noise coordinates are standard
Gaussians carrying no class information. Dependence, when requested, is a
Gaussian copula applied to the underlying normals before the marginal
transforms, with the correlation matrix drawn by the C-vine
partial-correlation construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtrit

from .data import Dataset
from .errors import DomainError

FAMILIES = ("t3", "lognormal", "heterogeneous")

DEFAULT_DELTA = {"t3": 0.32, "lognormal": 0.06, "heterogeneous": 0.14}

_EULER_GAMMA = 0.57721566490153286060

# Standardization constants (population mean, sd) of the raw marginals.
# All five are exact: t3 has variance 3; exp(W) is lognormal with mean
# e^0.5 and variance (e-1)e; log|W| = 0.5*log chi^2_1 has mean
# -(gamma+log 2)/2 and variance pi^2/8; W^2 is chi^2_1; moments of
# |W|^r follow from E|W|^r = 2^(r/2) Gamma((r+1)/2) / sqrt(pi).
_ABS_SQRT_MEAN = 2.0**0.25 * math.gamma(0.75) / math.sqrt(math.pi)
_ABS_SQRT_SD = math.sqrt(math.sqrt(2.0 / math.pi) - _ABS_SQRT_MEAN**2)
_HETERO_MOMENTS = (
    (0.0, 1.0),                                            # W
    (math.exp(0.5), math.sqrt((math.e - 1.0) * math.e)),   # exp(W)
    (-(_EULER_GAMMA + math.log(2.0)) / 2.0, math.pi / math.sqrt(8.0)),  # log|W|
    (1.0, math.sqrt(2.0)),                                 # W^2
    (_ABS_SQRT_MEAN, _ABS_SQRT_SD),                        # |W|^0.5
)

_HETERO_TRANSFORMS = (
    lambda w: w,
    np.exp,
    lambda w: np.log(np.abs(w)),
    lambda w: w * w,
    lambda w: np.sqrt(np.abs(w)),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic population.

    noise_fraction is the share of the p columns that are pure Gaussian
    noise; the first round(p*(1-noise_fraction)) columns are informative.

    delta is the raw-scale location shift: class 2 adds delta to each
    informative marginal before the marginal is standardized, so the
    shift seen on the unit-variance scale is delta / sd(raw marginal).
    For the heterogeneous family the five transforms have very different
    raw spreads, which is what makes variable importance uneven there.
    Defaults are the per-family benchmark shifts. Class priors are equal.
    """

    family: str
    n_train: int
    p: int
    noise_fraction: float = 0.0
    delta: float | None = None
    dependent: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.n_train < 2 or self.p < 1:
            raise DomainError("need n_train >= 2 and p >= 1")
        if not (0.0 <= self.noise_fraction < 1.0):
            raise DomainError("noise_fraction must lie in [0, 1)")
        if self.n_informative < 1:
            raise DomainError("at least one informative variable is required")
        if self.delta is not None and self.delta < 0:
            raise DomainError("delta must be nonnegative")

    @property
    def n_informative(self) -> int:
        return int(round(self.p * (1.0 - self.noise_fraction)))

    @property
    def shift(self) -> float:
        return DEFAULT_DELTA[self.family] if self.delta is None else self.delta

    def effective_shifts(self) -> np.ndarray:
        """Per-column class-2 mean gap on the standardized scale.

        delta / sd(raw marginal) on informative columns, 0 on noise.
        """
        out = np.zeros(self.p)
        for j in range(self.n_informative):
            out[j] = self.shift / _raw_sd(self.family, j)
        return out

    def _correlation(self) -> np.ndarray | None:
        if not self.dependent:
            return None
        return random_correlation_matrix(self.p, 0.5, (self.seed, 0xC0))


@dataclass(frozen=True)
class GeneratedData:
    """Train/test pair produced from one ScenarioSpec."""

    train: Dataset
    test: Dataset


def _raw_sd(family: str, var_index: int) -> float:
    """Standard deviation of the raw (unstandardized) marginal."""
    if family == "t3":
        return math.sqrt(3.0)
    if family == "lognormal":
        return _HETERO_MOMENTS[1][1]
    return _HETERO_MOMENTS[var_index % 5][1]


def _standardized_column(family: str, var_index: int, z: np.ndarray) -> np.ndarray:
    """Map standard normal draws through one marginal and standardize."""
    if family == "t3":
        # the normal cdf and t3 quantile that scipy.stats calls, without
        # loading scipy.stats
        return stdtrit(3, ndtr(z)) / math.sqrt(3.0)
    if family == "lognormal":
        mean, sd = _HETERO_MOMENTS[1]
        return (np.exp(z) - mean) / sd
    i = var_index % 5
    mean, sd = _HETERO_MOMENTS[i]
    return (_HETERO_TRANSFORMS[i](z) - mean) / sd


def _sample_features(
    spec: ScenarioSpec, n: int, rng: np.random.Generator,
    correlation: np.ndarray | None,
) -> np.ndarray:
    """Feature matrix before the class shift; noise columns stay normal."""
    Z = rng.standard_normal((n, spec.p))
    if correlation is not None:
        L = np.linalg.cholesky(correlation)
        Z = Z @ L.T
    X = np.empty_like(Z)
    m = spec.n_informative
    for j in range(m):
        X[:, j] = _standardized_column(spec.family, j, Z[:, j])
    X[:, m:] = Z[:, m:]
    return X


def generate(spec: ScenarioSpec, n_test: int) -> GeneratedData:
    """Balanced train and test sets; bit-reproducible per (spec, seed)."""
    if n_test < 2:
        raise DomainError("n_test must be at least 2")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    corr = spec._correlation()
    shift = spec.effective_shifts()

    def balanced(n_total):
        n1 = n_total // 2
        y = np.concatenate([np.ones(n1, dtype=int), np.full(n_total - n1, 2)])
        X = _sample_features(spec, n_total, rng, corr)
        X[y == 2] += shift
        return Dataset(X, y)

    return GeneratedData(balanced(spec.n_train), balanced(n_test))


def random_correlation_matrix(p: int, beta_shape: float, seed) -> np.ndarray:
    """Random positive-definite correlation matrix via the C-vine method.

    The level-k partial correlations (k = 0 .. p-2, given the first k
    variables) are independent 2*Beta(b_k, b_k) - 1 with
    b_k = beta_shape + (p - 2 - k)/2, and the vine recursion turns them
    into plain correlations. This is the LKJ law with eta = beta_shape
    (Lewandowski, Kurowicka & Joe 2009): the density is proportional to
    det(C)^(eta - 1) and every off-diagonal entry is 2*Beta(a, a) - 1 with
    a = beta_shape + (p - 2)/2. Equal shapes at every level would pile
    mass near singular matrices as p grows. The result is symmetric with
    unit diagonal and strictly positive eigenvalues.
    """
    if p < 2:
        raise DomainError("need p >= 2")
    if beta_shape <= 0:
        raise DomainError("beta_shape must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    partial = np.zeros((p, p))
    S = np.eye(p)
    for k in range(p - 1):
        shape = beta_shape + 0.5 * (p - 2 - k)
        for i in range(k + 1, p):
            partial[k, i] = 2.0 * rng.beta(shape, shape) - 1.0
            rho = partial[k, i]
            for ell in range(k - 1, -1, -1):
                rho = (
                    rho * math.sqrt((1 - partial[ell, i] ** 2) * (1 - partial[ell, k] ** 2))
                    + partial[ell, i] * partial[ell, k]
                )
            S[k, i] = S[i, k] = rho
    return S

