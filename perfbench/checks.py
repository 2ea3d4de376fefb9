"""Checks of a run's outputs, computed apart from the program.

Every check returns a list of problems; an empty list means it passed.
Only numpy and scipy are used here, never eqc.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

import numpy as np
from scipy import stats

# Standard errors a mean error may lie below the Bayes error, and by which
# it must lie below chance (0.5, the classes being balanced).
BAYES_Z = 4.0
CHANCE_Z = 3.0
# relative tolerance between the program's p-values and scipy's
PVALUE_RTOL = 1e-6


def parse_long(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        r["replication"] = int(r["replication"])
        r["fold"] = int(r["fold"]) if r["fold"] != "" else None
        r["error"] = float(r["error"])
    return rows


def parse_summary(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        r["runs"] = int(r["runs"])
        r["mean_error"] = float(r["mean_error"])
        r["std_error"] = float(r["std_error"])
    return rows


def check_rows(rows: list[dict], expected: list[tuple], failed: int,
               test_size: int | None) -> list[str]:
    """Every expected task has one row (or failed), every error is in [0, 1],
    and with a fixed test set every error is a whole number of mistakes."""
    problems = []
    keys = [(r["classifier"], r["replication"], r["fold"]) for r in rows]
    if len(set(keys)) != len(keys):
        problems.append("duplicate task rows")
    missing = set(expected) - set(keys)
    extra = set(keys) - set(expected)
    if extra:
        problems.append(f"unexpected task rows: {sorted(extra, key=str)[:3]}")
    if len(missing) != failed:
        problems.append(f"{len(missing)} task rows missing, {failed} tasks failed: "
                        f"{sorted(missing, key=str)[:3]}")
    for r in rows:
        e = r["error"]
        if not 0.0 <= e <= 1.0:
            problems.append(f"error {e} outside [0, 1] for {r['classifier']}")
        elif test_size is not None and abs(e * test_size - round(e * test_size)) > 1e-6:
            problems.append(f"error {e} is not a count over {test_size} test points")
    return problems


def recompute_summary(rows: list[dict]) -> dict[str, tuple[int, float, float]]:
    """classifier -> (runs, mean, standard error), as summary.csv defines them."""
    by_name: dict[str, list[float]] = {}
    for r in rows:
        by_name.setdefault(r["classifier"], []).append(r["error"])
    out = {}
    for name, errs in by_name.items():
        mean = math.fsum(errs) / len(errs)
        se = statistics.stdev(errs) / math.sqrt(len(errs)) if len(errs) > 1 else 0.0
        out[name] = (len(errs), mean, se)
    return out


def check_summary(summary: list[dict], rows: list[dict]) -> list[str]:
    problems = []
    ref = recompute_summary(rows)
    if sorted(r["classifier"] for r in summary) != sorted(ref):
        return [f"summary lists {sorted(r['classifier'] for r in summary)}, "
                f"rows give {sorted(ref)}"]
    for r in summary:
        runs, mean, se = ref[r["classifier"]]
        if r["runs"] != runs:
            problems.append(f"{r['classifier']}: summary says {r['runs']} runs, rows {runs}")
        if not math.isclose(r["mean_error"], mean, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{r['classifier']}: mean {r['mean_error']} != {mean}")
        if not math.isclose(r["std_error"], se, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{r['classifier']}: std error {r['std_error']} != {se}")
        formatted = f"{100 * r['mean_error']:.1f}({100 * r['std_error']:.1f})"
        if r["formatted"] != formatted:
            problems.append(f"{r['classifier']}: formatted {r['formatted']} != {formatted}")
    return problems


def check_error_range(rows: list[dict], tested_per_task: int, bayes: float,
                      bayes_se: float) -> list[str]:
    """Each classifier's mean test error is no lower than the Bayes error
    less BAYES_Z standard errors, and lower than chance by CHANCE_Z.

    A classifier's test errors are averages of independent 0/1 losses, each
    at least the Bayes error in expectation; the standard error combines
    the binomial error of that many tests at the Bayes rate with the Monte
    Carlo error of the Bayes estimate.
    """
    problems = []
    by_name: dict[str, list[float]] = {}
    for r in rows:
        by_name.setdefault(r["classifier"], []).append(r["error"])
    for name, errs in sorted(by_name.items()):
        n = tested_per_task * len(errs)
        mean = math.fsum(errs) / len(errs)
        low = bayes - BAYES_Z * math.sqrt(bayes * (1 - bayes) / n + bayes_se ** 2)
        high = 0.5 - CHANCE_Z * math.sqrt(0.25 / n)
        if mean < low:
            problems.append(f"{name}: mean error {mean:.4f} below the Bayes bound "
                            f"{low:.4f} (Bayes error {bayes:.4f})")
        if mean > high:
            problems.append(f"{name}: mean error {mean:.4f} not below chance "
                            f"(limit {high:.4f})")
    return problems


def fisher_pvalues(present1, present2, n1: int, n2: int,
                   cache: dict | None = None) -> np.ndarray:
    """Two-sided scipy.stats.fisher_exact p-value of every term's table
    [[present in class 1, absent in class 1], [present in class 2, absent]].
    A table's p-value is kept in cache, which calls may share."""
    cache = {} if cache is None else cache
    out = np.empty(len(present1))
    for j, (a, c) in enumerate(zip(present1, present2)):
        key = (a, c, n1, n2)
        if key not in cache:
            cache[key] = stats.fisher_exact([[a, n1 - a], [c, n2 - c]]).pvalue
        out[j] = cache[key]
    return out


def check_fisher(records: list[dict], n_docs: int, kept_terms: int,
                 replications: int, outer_folds: int) -> list[str]:
    """Each selection is L terms with the L smallest p-values (ties at the
    L-th value may go either way), made on a training part only, after
    the low-frequency filter."""
    problems = []
    cache: dict = {}
    if len(records) != replications * outer_folds:
        return [f"{len(records)} selections recorded, expected "
                f"{replications * outer_folds}"]
    for i, rec in enumerate(records):
        where = f"selection {i}"
        if rec["n_terms"] != kept_terms:
            problems.append(f"{where}: {rec['n_terms']} terms offered, "
                            f"{kept_terms} pass the document-frequency filter")
            continue
        sel = np.asarray(rec["selected"], dtype=int)
        L = rec["L"]
        if sel.size != L or np.unique(sel).size != L or sel.min() < 0 \
                or sel.max() >= rec["n_terms"]:
            problems.append(f"{where}: selected {sel.size} distinct valid terms, need {L}")
            continue
        p = fisher_pvalues(rec["present1"], rec["present2"], rec["n1"], rec["n2"], cache)
        cut = np.sort(p)[L - 1]
        chosen = np.zeros(p.size, dtype=bool)
        chosen[sel] = True
        if p[chosen].max() > cut * (1 + PVALUE_RTOL):
            problems.append(f"{where}: selected a term with p={p[chosen].max():.3g} "
                            f"above the L-th smallest {cut:.3g}")
        if (~chosen).any() and p[~chosen].min() < cut * (1 - PVALUE_RTOL):
            problems.append(f"{where}: left out a term with p={p[~chosen].min():.3g} "
                            f"below the L-th smallest {cut:.3g}")
    # each replication holds every document out exactly once
    for r in range(replications):
        held = sum(n_docs - rec["n_train"]
                   for rec in records[r * outer_folds:(r + 1) * outer_folds])
        if held != n_docs:
            problems.append(f"replication {r}: {held} documents held out, expected {n_docs}")
    return problems
