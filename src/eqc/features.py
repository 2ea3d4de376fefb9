"""Feature selection for text benchmarks.

Low-frequency filtering drops terms appearing in too few documents.
Fisher selection scores each variable by the two-sided Fisher exact
p-value of the 2x2 presence/absence x class table and keeps the L
smallest; inside cross-validation it must only ever see training folds.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import stats

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
    names = None
    if dtm.term_names is not None:
        names = [dtm.term_names[j] for j in kept]
    out = SparseDtm(
        dtm.n_docs, kept.size,
        dtm.docs[mask], remap[dtm.terms[mask]], dtm.counts[mask],
        dtm.labels, names,
    )
    return out, kept


def fisher_exact_pvalue(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value of the table [[a, b], [c, d]].

    It uses the point-probability criterion: the sum of the probabilities
    of all tables (same margins) no more likely than the observed one.
    """
    for v in (a, b, c, d):
        if v < 0 or v != int(v):
            raise DomainError("table entries must be nonnegative integers")
    n_total = a + b + c + d
    if n_total == 0:
        return 1.0
    row1 = a + b
    col1 = a + c
    lo = max(0, row1 + col1 - n_total)
    hi = min(row1, col1)
    support = np.arange(lo, hi + 1)
    pmf = stats.hypergeom.pmf(support, n_total, col1, row1)
    p_obs = pmf[a - lo]
    # relative gate absorbs log-gamma rounding in the pmf
    return float(min(1.0, pmf[pmf <= p_obs * (1.0 + 1e-9)].sum()))


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
    n2 = int(y.size - n1)
    a_vec = present[in1].sum(axis=0)
    c_vec = present[~in1].sum(axis=0)
    pvals = np.empty(p)
    for j in range(p):
        a = int(a_vec[j])
        c = int(c_vec[j])
        pvals[j] = fisher_exact_pvalue(a, n1 - a, c, n2 - c)
    order = np.argsort(pvals, kind="stable")
    return np.sort(order[:L])
