import itertools
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from eqc import (
    Dataset,
    DomainError,
    ParseError,
    SparseDtm,
    fisher_exact_pvalue,
    fisher_exact_select,
    load_dense_csv,
    load_sparse_dtm,
    remove_low_frequency,
    save_dense_csv,
)
from eqc.ingest import _scan_triples
from eqc.selftest import rational_fisher_pvalue


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def save_sparse_dtm(dtm: SparseDtm, matrix_path, labels_path) -> None:
    """Write the triple format (1-based indices) and the labels file."""
    with open(matrix_path, "w") as fh:
        fh.write(f"{dtm.n_docs} {dtm.n_terms} {dtm.docs.size}\n")
        for d, t, c in zip(dtm.docs, dtm.terms, dtm.counts):
            fh.write(f"{d + 1} {t + 1} {c}\n")
    with open(labels_path, "w") as fh:
        for lab in dtm.labels:
            fh.write(f"{lab}\n")


class TestDenseCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = _rng(1)
        data = Dataset(rng.standard_normal((3, 4)) * 1e-7, [1, 2, 1], ["a", "b", "c", "d"])
        path = tmp_path / "d.csv"
        save_dense_csv(data, path)
        back = load_dense_csv(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        assert back.var_names == data.var_names

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ParseError, match="label"):
            load_dense_csv(path)

    def test_non_numeric_cell_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,v1\n1,0.5\n2,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dense_csv(path)

    @pytest.mark.parametrize("body", [
        "1,0.5\x0c\n2,oops\n",      # a form feed is no line break
        "1,0.5\u2028\n2,oops\n",    # nor a Unicode line separator
        "1,0.5\r\n2,oops\r\n",
        "1,0.5\r2,oops\r",
    ])
    def test_line_numbers_follow_the_file(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(("label,v1\n" + body).encode())
        with pytest.raises(ParseError, match="^line 3: non-numeric cell: .*'oops'$"):
            load_dense_csv(path)

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,v1,v2\n1,0.5,0.5\n2,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dense_csv(path)

    @pytest.mark.parametrize("text", ["label,v1\n", "label,v1\n\n  \n\n"],
                             ids=["header", "blank-lines"])
    def test_no_data_rows_raise_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="^line 2: no data rows$"):
                load_dense_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,v1\n0,0.5\n")
        with pytest.raises(ParseError):
            load_dense_csv(path)

    def test_large_file_loads_quickly(self, tmp_path):
        rng = _rng(2)
        n, p = 10**4, 200
        X = rng.standard_normal((n, p)).round(6)
        y = rng.integers(1, 3, size=n)
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("label," + ",".join(f"v{j}" for j in range(p)) + "\n")
            np.savetxt(fh, np.column_stack([y, X]), delimiter=",", fmt="%.6g")
        t0 = time.perf_counter()
        data = load_dense_csv(path)
        elapsed = time.perf_counter() - t0
        assert data.X.shape == (n, p)
        assert elapsed < 5.0


def _all_rows(dtm: SparseDtm) -> Dataset:
    return dtm.subset(np.ones(dtm.n_docs, dtype=bool))


def _toy_dtm():
    # 4 docs x 5 terms; doc 3 is empty; term 4 appears once
    return SparseDtm(
        n_docs=4, n_terms=5,
        docs=np.array([0, 0, 1, 1, 3, 3]),
        terms=np.array([0, 1, 0, 2, 2, 4]),
        counts=np.array([2, 1, 3, 1, 2, 1]),
        labels=np.array([1, 1, 2, 2]),
    )


class TestSparseDtm:
    def test_empty_document_is_valid(self):
        dtm = _toy_dtm()
        dense = _all_rows(dtm)
        assert np.all(dense.X[2] == 0.0)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            SparseDtm(2, 2, np.array([0, 0]), np.array([1, 1]),
                      np.array([1, 2]), np.array([1, 2]))
        with pytest.raises(DomainError, match="duplicate"):
            SparseDtm(2, 2, np.array([1, 0, 1]), np.array([0, 1, 0]),
                      np.array([1, 2, 3]), np.array([1, 2]))

    def test_nonpositive_count_rejected(self):
        with pytest.raises(DomainError):
            SparseDtm(2, 2, np.array([0]), np.array([1]),
                      np.array([0]), np.array([1, 2]))

    def test_file_round_trip(self, tmp_path):
        dtm = _toy_dtm()
        m, l = tmp_path / "m.txt", tmp_path / "l.txt"
        save_sparse_dtm(dtm, m, l)
        back = load_sparse_dtm(m, l)
        assert np.array_equal(_all_rows(back).X, _all_rows(dtm).X)
        assert np.array_equal(back.labels, dtm.labels)

    def test_header_count_mismatch(self, tmp_path):
        m, l = tmp_path / "m.txt", tmp_path / "l.txt"
        m.write_text("2 2 3\n1 1 1\n")
        l.write_text("1\n2\n")
        with pytest.raises(ParseError, match="entries"):
            load_sparse_dtm(m, l)

    def test_out_of_range_index(self, tmp_path):
        m, l = tmp_path / "m.txt", tmp_path / "l.txt"
        m.write_text("2 2 1\n3 1 1\n")
        l.write_text("1\n2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_sparse_dtm(m, l)


@st.composite
def _corpora(draw):
    """A corpus, a row mask over its documents, and sorted term columns or None."""
    n_docs, n_terms = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    size = n_docs * n_terms
    cells = np.flatnonzero(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    counts = draw(st.lists(st.integers(1, 10**6), min_size=cells.size,
                           max_size=cells.size))
    labels = draw(st.lists(st.integers(1, 3), min_size=n_docs, max_size=n_docs))
    dtm = SparseDtm(n_docs, n_terms, cells // n_terms, cells % n_terms, counts, labels)
    rows = np.array(draw(st.lists(st.booleans(), min_size=n_docs, max_size=n_docs)),
                    dtype=bool)
    cols = draw(st.none() | st.lists(st.integers(0, n_terms - 1), unique=True).map(sorted))
    return dtm, rows, cols


class TestDensifier:
    """SparseDtm.subset equals the dense corpus cut to [rows][:, cols], bit for bit."""

    @staticmethod
    def _assert_matches_reference(dtm, rows, cols):
        full = np.zeros((dtm.n_docs, dtm.n_terms))
        full[dtm.docs, dtm.terms] = dtm.counts
        want = full[rows] if cols is None else full[rows][:, cols]
        got = dtm.subset(rows, cols)
        assert got.X.shape == want.shape
        assert got.X.tobytes(order="A") == want.tobytes(order="A")  # memory layout too
        assert np.array_equal(got.y, dtm.labels[rows])
        names = [f"t{j + 1}" for j in range(dtm.n_terms)]
        assert got.var_names == (names if cols is None else [names[j] for j in cols])

    @given(case=_corpora())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, case):
        self._assert_matches_reference(*case)

    @pytest.mark.parametrize("rows", [[False] * 4, [True] * 4, [False, True, True, True]])
    @pytest.mark.parametrize("cols", [None, [], [3], [1, 3, 4], [0, 1, 2, 3, 4]])
    def test_masks_empty_documents_and_empty_columns(self, rows, cols):
        # document 2 is empty and term 3 ("delta") has no entries
        self._assert_matches_reference(_toy_dtm(), np.array(rows), cols)

    @given(X=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=3, max_size=3), min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_dataset_subset_at_columns(self, X, data):
        X = np.array(X)
        rows = np.array(data.draw(st.lists(st.booleans(), min_size=len(X),
                                           max_size=len(X))), dtype=bool)
        cols = data.draw(st.lists(st.integers(0, 2), unique=True).map(sorted))
        full = Dataset(X, np.arange(1, len(X) + 1), ["a", "b", "c"])
        got = full.subset(rows, cols)
        assert got.X.shape == (rows.sum(), len(cols))
        assert got.X.tobytes(order="A") == X[rows][:, cols].tobytes(order="A")
        assert np.array_equal(got.y, full.y[rows])
        assert got.var_names == [["a", "b", "c"][j] for j in cols]


def _dtm_files(tmp_path, matrix: str, labels: str = "1\n2\n1\n"):
    m, l = tmp_path / "m.txt", tmp_path / "l.txt"
    m.write_bytes(matrix.encode())
    l.write_text(labels)
    return m, l


class TestSparseParser:
    """The loadtxt fast path and the line scan it falls back to agree."""

    @pytest.mark.parametrize("matrix, message", [
        ("3 4 2\n1 1 1\n2 2\n", 'line 3: expected "doc term count"'),
        ("3 4 1\n1.0 1 1\n", "line 2: entries must be integers"),
        ("3 4 1\n4 1 1\n", "line 2: document index 4 out of range"),
        ("3 4 1\n0 1 1\n", "line 2: document index 0 out of range"),
        ("3 4 1\n1 5 1\n", "line 2: term index 5 out of range"),
        ("3 4 1\n1 1 0\n", "line 2: count 0 must be positive"),
        ("3 4 3\n1 1 1\n2 2 2\n", "header announced 3 entries, file has 2"),
        ("3 4 1\n1 1 1\n2 2 2\n", "header announced 1 entries, file has 2"),
        ("3 4 1\n", "header announced 1 entries, file has 0"),
        ("3 4\n1 1 1\n", 'line 1: header must be "n_docs n_terms n_entries"'),
        ("3 x 1\n1 1 1\n", "line 1: header fields must be integers"),
        ("3 4 3\n1 1 1\n\n  \n2 2 2\n3 9 1\n", "line 6: term index 9 out of range"),
    ])
    def test_parse_errors_keep_message_and_line(self, tmp_path, matrix, message):
        with pytest.raises(ParseError) as err:
            load_sparse_dtm(*_dtm_files(tmp_path, matrix))
        assert str(err.value) == message

    @pytest.mark.parametrize("matrix, triples", [
        ("3 1000 1\n2 1_000 5\n", [(1, 999, 5)]),
        ("3 4 2\n+1 +3 +2\n3 4 1\n", [(0, 2, 2), (2, 3, 1)]),
        ("3 4 2\n1\t3\t2\n\t3 4  1\n", [(0, 2, 2), (2, 3, 1)]),
        ("3 4 2\r\n1 3 2\r\n\r\n3 4 1\r\n", [(0, 2, 2), (2, 3, 1)]),
        ("3 4 0\n\n", []),
    ])
    def test_integer_spellings_int_accepts(self, tmp_path, matrix, triples):
        dtm = load_sparse_dtm(*_dtm_files(tmp_path, matrix))
        want = np.asarray(triples, dtype=int).reshape(-1, 3)
        assert (dtm.n_docs, dtm.n_terms) == tuple(int(v) for v in matrix.split()[:2])
        assert np.array_equal(np.column_stack([dtm.docs, dtm.terms, dtm.counts]), want)
        assert np.array_equal(dtm.labels, [1, 2, 1])

    def test_random_files_equal_on_both_paths(self, tmp_path, monkeypatch):
        rng = _rng(11)
        for trial in range(20):
            n_docs, n_terms = (int(v) for v in rng.integers(1, 60, size=2))
            cells = rng.choice(n_docs * n_terms, size=int(rng.integers(0, n_docs * n_terms)),
                               replace=False)
            dtm = SparseDtm(n_docs, n_terms, cells // n_terms, cells % n_terms,
                            rng.integers(1, 10**6, size=cells.size),
                            rng.integers(1, 3, size=n_docs))
            m, l = tmp_path / f"m{trial}.txt", tmp_path / f"l{trial}.txt"
            save_sparse_dtm(dtm, m, l)
            body = m.read_text().split("\n", 1)[1]
            scanned = _scan_triples(body, n_docs, n_terms)
            with monkeypatch.context() as patch:
                patch.setattr("eqc.ingest._scan_triples", None)  # fast path only
                fast = load_sparse_dtm(m, l)
            assert np.array_equal(np.column_stack([fast.docs + 1, fast.terms + 1, fast.counts]),
                                  scanned)
            assert np.array_equal(fast.docs, dtm.docs)
            assert np.array_equal(fast.terms, dtm.terms)
            assert np.array_equal(fast.counts, dtm.counts)


class TestRemoveLowFrequency:
    def test_singleton_term_dropped(self):
        dtm = _toy_dtm()
        out, kept = remove_low_frequency(dtm, 2)
        assert 4 not in kept  # term 4 appeared in one document
        assert 1 not in kept  # term 1 too
        assert np.all(out.document_frequencies() >= 2)

    def test_min_docs_one_is_identity_on_columns(self):
        dtm = _toy_dtm()
        out, kept = remove_low_frequency(dtm, 1)
        # term 3 never appears at all, so it is the only drop at min_docs=1
        assert list(kept) == [0, 1, 2, 4]

    def test_all_removed_errors(self):
        dtm = _toy_dtm()
        with pytest.raises(DomainError):
            remove_low_frequency(dtm, 10)


class TestFisher:
    def test_perfect_split_table(self):
        # [[5,0],[0,5]]: only the two extreme tables are as unlikely
        assert fisher_exact_pvalue(5, 0, 0, 5) == pytest.approx(2.0 / 252.0, abs=1e-12)

    def test_flat_table_p_one(self):
        assert fisher_exact_pvalue(1, 1, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        rng = _rng(3)
        for _ in range(50):
            a, b, c, d = (int(v) for v in rng.integers(0, 10, size=4))
            ours = fisher_exact_pvalue(a, b, c, d)
            ref = stats.fisher_exact([[a, b], [c, d]])[1]
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_matches_exact_enumeration(self):
        rng = _rng(4)
        for _ in range(100):
            a, b, c, d = (int(v) for v in rng.integers(0, 12, size=4))
            assert fisher_exact_pvalue(a, b, c, d) == pytest.approx(
                rational_fisher_pvalue(a, b, c, d), abs=1e-12
            )

    def test_all_small_tables_match_exact_enumeration(self):
        for n in range(15):
            for a, b, c in itertools.product(range(n + 1), repeat=3):
                d = n - a - b - c
                if d >= 0:
                    assert fisher_exact_pvalue(a, b, c, d) == pytest.approx(
                        rational_fisher_pvalue(a, b, c, d), abs=1e-12
                    )

    def test_matches_scipy_at_corpus_size(self):
        # a training fold of the text benchmark: 800 documents per class,
        # every column total from 0 to 1600
        rng = _rng(9)
        n1 = 800
        for k in range(2 * n1 + 1):
            a = int(rng.integers(max(0, k - n1), min(n1, k) + 1))
            table = [[a, n1 - a], [k - a, n1 - k + a]]
            ref = stats.fisher_exact(table).pvalue
            assert fisher_exact_pvalue(*table[0], *table[1]) == pytest.approx(
                ref, rel=1e-9, abs=1e-300
            )

    def test_mirrored_tables_equal(self):
        n1 = 25
        for a, c in itertools.product(range(n1 + 1), repeat=2):
            assert fisher_exact_pvalue(a, n1 - a, c, n1 - c) == fisher_exact_pvalue(
                c, n1 - c, a, n1 - a
            )

    def test_select_ties_break_by_lower_index(self):
        y = np.repeat([1, 2], 20)
        strong = np.r_[np.ones(15), np.zeros(5), np.ones(5), np.zeros(15)]
        mirror = np.r_[np.ones(5), np.zeros(15), np.ones(15), np.zeros(5)]
        weak = np.tile([1.0, 0.0], 20)
        X = np.column_stack([weak, mirror, strong, strong, weak])
        data = Dataset(X, y)
        assert list(fisher_exact_select(data, y, 1)) == [1]
        assert list(fisher_exact_select(data, y, 2)) == [1, 2]
        assert list(fisher_exact_select(data, y, 3)) == [1, 2, 3]
        assert list(fisher_exact_select(data, y, 4)) == [0, 1, 2, 3]

    def test_select_equals_smallest_scipy_pvalues(self):
        # 400 documents, two classes, independent Poisson counts; every
        # tenth term has its class-2 rate raised or lowered
        rng = _rng(10)
        n, p, L = 400, 500, 40
        y = rng.permutation(np.repeat([1, 2], n // 2))
        rate = 20.0 / (np.arange(p) + 1.0) ** 1.1
        shift = np.where(np.arange(p) % 10 == 0, np.where(np.arange(p) % 20 == 0, 1.5, 1 / 1.5), 1)
        X = rng.poisson(np.where((y == 2)[:, None], rate * shift, rate)).astype(float)
        present = X > 0
        a, c = present[y == 1].sum(axis=0), present[y == 2].sum(axis=0)
        cache = {}
        for t in set(zip(a, c)):
            cache[t] = stats.fisher_exact([[t[0], n // 2 - t[0]], [t[1], n // 2 - t[1]]]).pvalue
        ref = np.array([cache[t] for t in zip(a, c)])
        want = np.sort(np.argsort(ref, kind="stable")[:L])
        assert np.array_equal(fisher_exact_select(Dataset(X, y), y, L), want)

    def test_select_keeps_informative_terms(self):
        rng = _rng(5)
        n = 60
        y = np.repeat([1, 2], 30)
        X = (rng.random((n, 10)) < 0.3).astype(float)
        X[y == 2, 0] = (rng.random(30) < 0.9).astype(float)  # signal column
        idx = fisher_exact_select(Dataset(X, y), y, 3)
        assert 0 in idx
        assert len(idx) == 3

    def test_clamps_l_with_warning(self):
        X = _rng(6).random((10, 3))
        y = np.array([1] * 5 + [2] * 5)
        with pytest.warns(UserWarning):
            idx = fisher_exact_select(Dataset(X, y), y, 9)
        assert len(idx) == 3

    def test_null_column_pvalues_roughly_uniform(self):
        rng = _rng(7)
        pvals = []
        for rep in range(200):
            y = np.repeat([1, 2], 20)
            col = (rng.random(40) < 0.5).astype(float)
            a = int(col[y == 1].sum())
            c = int(col[y == 2].sum())
            pvals.append(fisher_exact_pvalue(a, 20 - a, c, 20 - c))
        # discrete p-values are super-uniform under the null; check the
        # rejection rate rather than a strict KS fit
        assert np.mean(np.asarray(pvals) <= 0.05) <= 0.08

    def test_requires_binary_labels(self):
        y = np.array([1, 2, 3] * 3)
        with pytest.raises(DomainError):
            fisher_exact_select(Dataset(_rng(8).random((9, 2)), y), y, 1)
