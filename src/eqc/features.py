"""Feature selection for text benchmarks.

Low-frequency filtering drops terms appearing in too few documents.
Fisher selection scores each variable by the two-sided Fisher exact
p-value of the 2x2 presence/absence x class table and keeps the L
smallest; inside cross-validation it must only ever see training folds.

With the class sizes fixed, a table's hypergeometric distribution depends
only on its column total (the number of documents containing the term),
so p-values are computed once per distinct column total, from a pmf
evaluated in log space (log-gamma), and once per distinct table.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset
from .errors import DomainError
from .ingest import SparseDtm


def remove_low_frequency(dtm: SparseDtm, min_docs: int) -> tuple[SparseDtm, np.ndarray]:
    """Keep terms appearing in at least min_docs documents.

    Returns the filtered matrix and the kept-term index mapping (new
    column j came from old column kept[j]).
    """
    if min_docs < 1:
        raise DomainError("min_docs must be at least 1")
    df = dtm.document_frequencies()
    kept = np.flatnonzero(df >= min_docs)
    if kept.size == 0:
        raise DomainError(f"no term appears in {min_docs} or more documents")
    remap = -np.ones(dtm.n_terms, dtype=int)
    remap[kept] = np.arange(kept.size)
    mask = remap[dtm.terms] >= 0
    out = SparseDtm(dtm.n_docs, kept.size, dtm.docs[mask], remap[dtm.terms[mask]],
                    dtm.counts[mask], dtm.labels)
    return out, kept


def fisher_exact_pvalue(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value of the table [[a, b], [c, d]].

    It uses the point-probability criterion: the sum of the probabilities
    of all tables (same margins) no more likely than the observed one,
    computed the way Fisher selection computes it.
    """
    for v in (a, b, c, d):
        if v < 0 or v != int(v):
            raise DomainError("table entries must be nonnegative integers")
    n_total = a + b + c + d
    if n_total == 0:
        return 1.0
    [p] = _fisher_pvalues(np.array([int(a)]), np.array([int(a + c)]), int(a + b), int(n_total))
    return float(p)


def _fisher_pvalues(a: np.ndarray, k: np.ndarray, n1: int, n: int) -> np.ndarray:
    """Two-sided Fisher p-values of the tables [[a, n1 - a], [k - a, .]].

    All tables share the row total n1 and the grand total n; k holds each
    table's first-column total. One pmf is computed per distinct k and one
    masked sum per distinct (k, a).
    """
    from scipy.special import gammaln  # lazily, so that import eqc loads no scipy

    log_fact = gammaln(np.arange(n + 1) + 1.0)
    log_denom = log_fact[n] - log_fact[n1] - log_fact[n - n1]
    tables, inverse = np.unique(np.stack([k, a]), axis=1, return_inverse=True)
    pvals = np.empty(tables.shape[1])
    for col in np.unique(tables[0]):
        rows = tables[0] == col
        x = np.arange(max(0, n1 + col - n), min(n1, col) + 1)
        pmf = np.exp(log_fact[col] - log_fact[x] - log_fact[col - x]
                     + log_fact[n - col] - log_fact[n1 - x] - log_fact[n - col - n1 + x]
                     - log_denom)
        p_obs = pmf[tables[1, rows] - x[0]]
        # the log-space pmf carries log-gamma rounding (about 1e-12 relative
        # at n = 1600); the relative gate keeps equally likely tables together
        keep = pmf <= p_obs[:, None] * (1.0 + 1e-9)
        pvals[rows] = np.where(keep, pmf, 0.0).sum(axis=1)
    return np.minimum(1.0, pvals)[inverse.reshape(-1)]


def fisher_exact_select(data: Dataset, labels, L: int) -> np.ndarray:
    """Indices of the L variables with the smallest Fisher exact p-values.

    Variables of data are binarized as presence (> 0). Requires binary
    labels. Ties in the p-values break by variable index; L larger than p
    clamps with a warning.
    """
    X = data.X
    y = np.asarray(labels)
    if y.shape != (X.shape[0],):
        raise DomainError("labels length does not match data")
    ids = np.unique(y)
    if ids.size != 2:
        raise DomainError("Fisher selection requires binary labels")
    if L < 1:
        raise DomainError("L must be at least 1")
    p = X.shape[1]
    if L > p:
        warnings.warn(f"L={L} exceeds {p} variables; keeping all", stacklevel=2)
        L = p
    present = X > 0
    in1 = y == ids[0]
    n1 = int(in1.sum())
    a_vec = present[in1].sum(axis=0)
    k_vec = present.sum(axis=0)
    pvals = _fisher_pvalues(a_vec, k_vec, n1, y.size)
    order = np.argsort(pvals, kind="stable")
    return np.sort(order[:L])
