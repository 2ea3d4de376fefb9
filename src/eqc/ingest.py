"""File formats the benchmark harness reads and writes.

Dense datasets are CSV with a header whose first column is literally
"label" (positive integer classes) followed by numeric variable columns.
Sparse document-term matrices are line-oriented: a header line
"n_docs n_terms n_entries" then one "doc term count" triple per line with
1-based indices; labels live in a separate file, one integer per line.
Experiment and model files are flat "key = value" lines.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DomainError, ParseError


@dataclass(frozen=True)
class SparseDtm:
    """Document-term counts as (doc, term, count) triples, 0-based in memory.

    Never dense as a whole: subset builds only the rows and terms asked for.
    """

    n_docs: int
    n_terms: int
    docs: np.ndarray
    terms: np.ndarray
    counts: np.ndarray
    labels: np.ndarray
    term_names: list[str] | None = field(default=None)

    def __post_init__(self):
        docs = np.asarray(self.docs, dtype=int)
        terms = np.asarray(self.terms, dtype=int)
        counts = np.asarray(self.counts, dtype=int)
        labels = np.asarray(self.labels, dtype=int)
        if not (docs.shape == terms.shape == counts.shape):
            raise DomainError("triple arrays must have equal length")
        if labels.shape != (self.n_docs,):
            raise DomainError(f"need one label per document ({self.n_docs})")
        if docs.size:
            if docs.min() < 0 or docs.max() >= self.n_docs:
                raise DomainError("document index out of range")
            if terms.min() < 0 or terms.max() >= self.n_terms:
                raise DomainError("term index out of range")
            if counts.min() <= 0:
                raise DomainError("counts must be positive integers")
            # sort and compare neighbours: np.unique (hash-based in numpy 2)
            # is about 40x slower on a corpus of 1.7e5 entries
            pairs = np.sort(docs.astype(np.int64) * self.n_terms + terms)
            if np.any(pairs[1:] == pairs[:-1]):
                raise DomainError("duplicate (doc, term) pair")
        if self.term_names is not None and len(self.term_names) != self.n_terms:
            raise DomainError("term_names length does not match n_terms")
        object.__setattr__(self, "docs", docs)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", labels)

    @property
    def y(self) -> np.ndarray:
        """The labels, under the name Dataset gives them."""
        return self.labels

    def subset(self, rows, cols=None) -> Dataset:
        """Dense Dataset of the documents in the boolean mask rows (docs x
        terms counts), at the distinct term columns cols in their order, or
        at every term if cols is None; built from the triples alone.
        """
        rows = np.asarray(rows, dtype=bool)
        full = cols is None
        cols = np.arange(self.n_terms) if full else np.asarray(cols, dtype=int)
        col_of = np.full(self.n_terms, -1)
        col_of[cols] = np.arange(cols.size)
        keep = rows[self.docs] & (col_of[self.terms] >= 0)
        # Fortran order at given columns, as numpy's X[rows][:, cols] has it:
        # sums downstream follow the layout, so the last bits do too
        X = np.zeros((int(rows.sum()), cols.size), order="C" if full else "F")
        X[(np.cumsum(rows) - 1)[self.docs[keep]], col_of[self.terms[keep]]] = self.counts[keep]
        names = self.term_names or [f"t{j + 1}" for j in range(self.n_terms)]
        return Dataset(X, self.labels[rows], [names[j] for j in cols])

    def document_frequencies(self) -> np.ndarray:
        """Number of documents each term appears in."""
        return np.bincount(self.terms, minlength=self.n_terms)


def read_key_values(path) -> dict[str, str]:
    """Parse flat 'key = value' lines; blank lines and '#' lines are skipped.

    Keys and values are stripped, and a later key replaces an earlier one.
    A line without '=' raises a ParseError with its line number.
    """
    fields: dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", line=lineno)
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
    return fields


def load_dense_csv(path) -> Dataset:
    """Parse a dense dataset; malformed content raises with a line number."""
    with open(path, "r", newline="") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError("empty file", line=1)
        header = [h.strip() for h in header_line.rstrip("\n").split(",")]
        if not header or header[0] != "label":
            raise ParseError('first column must be named "label"', line=1)
        body = fh.read()
    try:
        # fast path; falls back to a line-by-line scan for diagnostics.
        # loadtxt warns on a body without data, so an empty one skips it
        M = (np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
             if body.strip() else np.empty((0, len(header))))
        if M.size and M.shape[1] != len(header):
            raise ValueError("column count mismatch")
    except ValueError:
        M = _parse_rows(body, len(header))
    if M.shape[0] == 0:
        raise ParseError("no data rows", line=2)
    labels = M[:, 0]
    if np.any(labels != np.round(labels)) or np.any(labels < 1):
        bad = int(np.flatnonzero((labels != np.round(labels)) | (labels < 1))[0])
        raise ParseError("labels must be positive integers", line=bad + 2)
    return Dataset(M[:, 1:], labels.astype(int), header[1:])


def _parse_rows(body: str, width: int) -> np.ndarray:
    rows = []
    # numbered as the file (opened with newline="") numbers its lines
    for lineno, line in enumerate(io.StringIO(body, newline=""), start=2):
        if not line.strip():
            continue
        cells = line.rstrip("\r\n").split(",")
        if len(cells) != width:
            raise ParseError(
                f"expected {width} columns, found {len(cells)}", line=lineno
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"non-numeric cell: {exc}", line=lineno) from None
    return np.asarray(rows) if rows else np.empty((0, width))


def save_dense_csv(data: Dataset, path) -> None:
    """Inverse of load_dense_csv; floats use repr so round trips are exact."""
    names = data.var_names or [f"v{j + 1}" for j in range(data.p)]
    with open(path, "w") as fh:
        fh.write(",".join(["label"] + list(names)) + "\n")
        for i in range(data.n):
            cells = [str(int(data.y[i]))] + [repr(float(v)) for v in data.X[i]]
            fh.write(",".join(cells) + "\n")


def load_sparse_dtm(matrix_path, labels_path) -> SparseDtm:
    """Parse the triple format plus its labels file, validating everything."""
    with open(matrix_path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ParseError('header must be "n_docs n_terms n_entries"', line=1)
        try:
            n_docs, n_terms, n_entries = (int(h) for h in header)
        except ValueError:
            raise ParseError("header fields must be integers", line=1) from None
        body = fh.read()
    try:
        # fast path; falls back to a line-by-line scan for diagnostics.
        # loadtxt warns on a body without data, so an empty one skips it
        T = (np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
             if body.strip() else np.empty((0, 3), dtype=np.int64))
        if T.shape != (n_entries, 3) or not (
            np.all(T >= 1) and np.all(T[:, :2] <= (n_docs, n_terms))
        ):
            raise ValueError("triples fail the shape or range checks")
    except (ValueError, OverflowError):
        T = _scan_triples(body, n_docs, n_terms)
        if len(T) != n_entries:
            raise ParseError(
                f"header announced {n_entries} entries, file has {len(T)}"
            ) from None
    labels = _load_labels(labels_path, n_docs)
    return SparseDtm(n_docs, n_terms, T[:, 0] - 1, T[:, 1] - 1, T[:, 2], labels)


def _scan_triples(body: str, n_docs: int, n_terms: int) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(io.StringIO(body), start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError('expected "doc term count"', line=lineno)
        try:
            d, t, c = (int(v) for v in parts)
        except ValueError:
            raise ParseError("entries must be integers", line=lineno) from None
        if not (1 <= d <= n_docs):
            raise ParseError(f"document index {d} out of range", line=lineno)
        if not (1 <= t <= n_terms):
            raise ParseError(f"term index {t} out of range", line=lineno)
        if c <= 0:
            raise ParseError(f"count {c} must be positive", line=lineno)
        rows.append((d, t, c))
    return np.asarray(rows, dtype=int).reshape(-1, 3)


def _load_labels(path, n_docs: int) -> np.ndarray:
    labels = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ParseError("labels must be integers", line=lineno) from None
    if len(labels) != n_docs:
        raise ParseError(f"expected {n_docs} labels, found {len(labels)}")
    return np.asarray(labels, dtype=int)

