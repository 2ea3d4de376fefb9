"""Quick invariant battery behind the `selftest` CLI subcommand.

A fast, self-contained subset of the property suite: exact reduction
identities, the Bayes-boundary identity, solver sanity, and the Fisher
oracle on small tables. Each check prints one pass/fail line; the run
fails if any check does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .asymlaplace import ALParams, ALPopulation, al_bayes_discriminant
from .binary import (
    class_transforms, eqc_discriminant, fit_binary_eqc, oracle_classifier, qc_discriminant,
)
from .data import Dataset
from .features import fisher_exact_pvalue
from .metalearners import TOL, fit_path
from .multiclass import class_probabilities, fit_multiclass_eqc, predict_multiclass
from .quantiles import QuantileParams, estimate_quantile_table, quantile_distance
from .selection import TuningGrid, make_folds, tune_and_train


def rational_fisher_pvalue(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher p of the table [[a, b], [c, d]], the referee.

    Exact rational enumeration of all tables with the observed margins,
    summing those no more probable than the observed one.
    """
    n, r1, c1 = a + b + c + d, a + b, a + c
    lo, hi = max(0, r1 + c1 - n), min(r1, c1)
    denom = math.comb(n, r1)
    probs = {
        k: Fraction(math.comb(c1, k) * math.comb(n - c1, r1 - k), denom)
        for k in range(lo, hi + 1)
    }
    p_obs = probs[a]
    return float(sum(p for p in probs.values() if p <= p_obs))


def run_selftest(verbose: bool = True) -> bool:
    rng = np.random.Generator(np.random.PCG64(7))
    checks: list[tuple[str, bool]] = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")

    # quantile distance basics
    check("quantile distance |u|/2 at theta=0.5",
          quantile_distance(-3.0, 0.5) == 1.5)

    # reduction chain on random data
    X = rng.standard_normal((60, 5))
    y = np.repeat([1, 2], 30)
    data = Dataset(X, y)
    theta = QuantileParams.common(0.3, 5)
    table = estimate_quantile_table(data, theta)
    model = fit_binary_eqc(data, theta, "unit-weights")
    pts = rng.standard_normal((50, 5))
    check("EQC(unit weights) == QC",
          np.array_equal(eqc_discriminant(pts, model), qc_discriminant(pts, table)))

    # Bayes identity
    pop = ALPopulation(
        tuple(ALParams(0.0, 1.0 + 0.2 * j, 0.5 + 0.3 * j) for j in range(3)),
        tuple(ALParams(1.0, 1.0 + 0.2 * j, 0.5 + 0.3 * j) for j in range(3)),
        (0.4, 0.6),
    )
    oracle = oracle_classifier(pop)
    q = rng.standard_normal((200, 3)) * 2
    diff = np.abs(eqc_discriminant(q, oracle) - al_bayes_discriminant(q, pop))
    check("oracle EQC == Bayes discriminant (1e-10)", diff.max() < 1e-10)

    # ridge fit beats the zero model on its own objective, which is log 2 there
    Z = rng.standard_normal((40, 3))
    yb = np.where(rng.random(40) < 0.5, 1, 2)
    if np.unique(yb).size < 2:
        yb[0], yb[1] = 1, 2
    [(_, rep)] = fit_path(Z, yb, "ridge", [0.1])
    check("ridge solver converged", rep.converged)
    check("ridge solution beats zero model", rep.final_loss <= math.log(2.0) + 1e-12)

    # lasso: all-zero weights from the threshold 2 max_j |Z_j'(y - ybar)| / n up
    lam0 = 2.0 * np.abs(Z.T @ (yb - yb.mean())).max() / yb.size
    [(above, rep_a), (below, rep_b)] = fit_path(Z, yb, "lasso", [1.0001 * lam0, 0.5 * lam0])
    check("lasso: weights exactly 0 just above its threshold, KKT norm <= tol below",
          rep_a.converged and np.all(above.weights == 0.0)
          and rep_b.converged and rep_b.grad_norm_at_exit <= TOL)

    # multiclass probabilities sum to one; K=2 matches the binary rule
    X3 = rng.standard_normal((90, 4))
    y3 = np.repeat([1, 2, 3], 30)
    X3[y3 == 2] += 0.8
    X3[y3 == 3] -= 0.8
    m3 = fit_multiclass_eqc(Dataset(X3, y3), QuantileParams.common(0.5, 4), 0.1)
    probs = class_probabilities(rng.standard_normal((20, 4)), m3)
    check("softmax rows sum to 1 (1e-12)",
          np.abs(probs.sum(axis=1) - 1).max() < 1e-12)
    check("multiclass predicts a known class",
          set(np.unique(predict_multiclass(X3, m3))) <= {1, 2, 3})
    two = y3 < 3
    m2 = fit_multiclass_eqc(Dataset(X3[two], y3[two]), QuantileParams.common(0.5, 4), 0.1)
    check("2-class multiclass labels == binary rule (s <= 0 -> first class)",
          np.array_equal(predict_multiclass(X3, m2),
                         np.where(eqc_discriminant(X3, m2) <= 0, 1, 2)))
    [(ridge, _)] = fit_path(class_transforms(X3[two], m2.table)[0], y3[two], "ridge", [0.1])
    check("2-class multiclass fit == binary ridge fit (bit-exact)",
          np.array_equal(m2.coef.intercepts, ridge.intercepts)
          and np.array_equal(m2.coef.weights, ridge.weights))

    # folds partition and stratify
    fold = make_folds(np.repeat([1, 2], 20), 5, True, 3)
    sizes = np.bincount(fold, minlength=5)
    check("stratified folds partition evenly", np.all(sizes == 8))

    # tiny tuning run is deterministic
    grid = TuningGrid((0.3, 0.5, 0.7), (0.1, 1.0), folds=2, seed=11)
    d_small = Dataset(rng.standard_normal((40, 3)) + 0.5 * (y[:40] == 2)[:, None],
                      y[:40])
    m1, r1 = tune_and_train(d_small, grid, "ridge")
    m2, r2 = tune_and_train(d_small, grid, "ridge")
    check("tuning deterministic per seed",
          r1.chosen == r2.chosen and np.array_equal(r1.table, r2.table))

    # Fisher exact vs exact-rational enumeration
    ok = True
    for tbl in [(5, 0, 0, 5), (1, 1, 1, 1), (3, 2, 1, 4), (0, 7, 3, 2)]:
        if abs(fisher_exact_pvalue(*tbl) - rational_fisher_pvalue(*tbl)) > 1e-12:
            ok = False
    check("Fisher p equals rational enumeration (1e-12)", ok)

    return all(ok for _, ok in checks)
