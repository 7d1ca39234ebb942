import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild import bar
from qci_hochschild.algebra import QuantumCompleteIntersection
from qci_hochschild.bar import BarComplex, SizeError, _rank, _SparseRows
from qci_hochschild.cohomology import hh_dimension_ext
from qci_hochschild.linalg import SparseMatrix
from qci_hochschild.scalars import prime_field, prime_field_for


def test_cochain_space_dimensions():
    # normalized: (a^2 - 1)^n arguments times a^2 values
    B = BarComplex(2)
    assert B.cochain_dim(3) == 108
    assert B.cochain_dim(0) == 4
    B3 = BarComplex(3)
    assert B3.cochain_dim(3) == 4608


def plain_differential(B, n, flip_last_sign=False, contraction_sign=None):
    """Reference: the coboundary formula term by term on B's own tuple layout,
    every term accumulated, so that it holds whichever terms share a column.

    flip_last_sign and contraction_sign (one sign for every contraction)
    plant errors for negative controls."""
    d, a, p = B.dim, B.a, B.p
    qpow = [pow(B.q, k, p) for k in range(a)]
    last_sign = 1 if (n + 1) % 2 == 0 else -1
    if flip_last_sign:
        last_sign = -last_sign
    rows = []
    for tup in B._tuples(n + 1):
        for r in range(d):
            ur, vr = divmod(r, a)
            entries = {}

            def put(col, val):
                entries[col] = (entries.get(col, 0) + val) % p

            u1, v1 = divmod(tup[0], a)
            if ur >= u1 and vr >= v1:
                m = (ur - u1) * a + (vr - v1)
                put(B._tuple_index(tup[1:]) * d + m, qpow[(v1 * (ur - u1)) % a])
            sign = 1
            for k in range(n):
                sign = -sign if contraction_sign is None else contraction_sign
                hit = B._mul(tup[k], tup[k + 1])
                if hit is not None:
                    val, merged = hit
                    inner = tup[:k] + (merged,) + tup[k + 2 :]
                    put(B._tuple_index(inner) * d + r, sign * val)
            ul, vl = divmod(tup[n], a)
            if ur >= ul and vr >= vl:
                m = (ur - ul) * a + (vr - vl)
                put(B._tuple_index(tup[:n]) * d + m, last_sign * qpow[((vr - vl) * ul) % a])
            rows.append({c: v for c, v in entries.items() if v})
    return rows


def transpose(vectors, length):
    """Transpose of sparse vectors {i: value}: out[i][j] = vectors[j][i], i < length."""
    out = [{} for _ in range(length)]
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            out[i][j] = v
    return out


def reduced(vectors, p):
    """The vectors with every value reduced mod p and zeros dropped: _rank's input."""
    return [{i: v % p for i, v in vec.items() if v % p} for vec in vectors]


def from_rows(B, n, rows):
    """The degree-n coboundary of B held by columns, from its dict rows."""
    ncols = B.cochain_dim(n)
    return _SparseRows(len(rows), ncols, transpose(rows, ncols), B.p)


class FullBarComplex(BarComplex):
    """Reference: the full complex Hom(A^(tensor n), A), whose arguments range
    over every monomial, the unit included, built by the plain formula."""

    def cochain_dim(self, n):
        return self.dim ** (n + 1)

    def _tuples(self, n):
        for tup in itertools.product(range(self.dim), repeat=n):
            yield tup[::-1]  # the first argument varies fastest

    def _tuple_index(self, tup):
        idx = 0
        for k in reversed(range(len(tup))):
            idx = idx * self.dim + tup[k]
        return idx

    def bar_differential(self, n):
        self._check_cap(n)
        if n not in self._diff_cache:
            self._diff_cache[n] = from_rows(self, n, plain_differential(self, n))
        return self._diff_cache[n]


def composes_to_zero(d_low, d_high):
    """d_high . d_low == 0 mod p, composed image by image."""
    for image in d_low.columns:
        out = {}
        for j, v in image.items():
            for i, w in d_high.columns[j].items():
                out[i] = (out.get(i, 0) + v * w) % d_low.p
        if any(out.values()):
            return False
    return True


PLANTED = {
    "last sign flipped": {"flip_last_sign": True},
    "contractions all -1": {"contraction_sign": -1},
}


@pytest.mark.parametrize("plant", sorted(PLANTED))
@pytest.mark.parametrize("a, top", [(2, 4), (3, 2)])
def test_planted_coboundary_errors_are_caught(monkeypatch, plant, a, top):
    # negative control: a coboundary with d.d != 0 must fail the d.d check and
    # read a wrong dimension somewhere, although the skipped columns change
    # the wrong numbers it reads
    def planted(self, n):
        if n not in self._diff_cache:
            self._diff_cache[n] = from_rows(self, n, plain_differential(self, n, **PLANTED[plant]))
        return self._diff_cache[n]

    monkeypatch.setattr(BarComplex, "bar_differential", planted)
    B = BarComplex(a)
    assert not all(
        composes_to_zero(B.bar_differential(n - 1), B.bar_differential(n)) for n in range(1, top + 1)
    )
    assert any(B.bar_hh_dimension(n) != 2 * n + 2 for n in range(top + 1))


def test_full_reference_layout():
    B, B3 = FullBarComplex(2), FullBarComplex(3)
    assert B.cochain_dim(3) == 256 and B3.cochain_dim(3) == 6561
    for C in (B, B3):
        tuples = list(C._tuples(2))
        assert [C._tuple_index(t) for t in tuples] == list(range(C.dim**2))


@pytest.mark.parametrize("a, top", [(2, 4), (3, 2)])
def test_full_and_normalized_complexes_agree(a, top):
    full, normalized = FullBarComplex(a), BarComplex(a)
    for n in range(top + 1):
        assert full.bar_hh_dimension(n) == normalized.bar_hh_dimension(n) == 2 * n + 2, (a, n)


@pytest.mark.parametrize("complex_type", [BarComplex, FullBarComplex])
def test_coboundary_squares_to_zero(complex_type):
    for a, top in ((2, 3), (3, 1)):
        B = complex_type(a)
        for n in range(top + 1):
            assert composes_to_zero(B.bar_differential(n), B.bar_differential(n + 1)), (a, n)


@pytest.mark.parametrize(
    "a, modulus, top",
    [(2, None, 4), (2, 13, 3), (3, None, 2), (3, 13, 2), (4, None, 1), (5, None, 1)],
)
def test_build_matches_plain_formula(a, modulus, top):
    B = BarComplex(a, modulus=modulus)
    for n in range(top + 1):
        diff = B.bar_differential(n)
        assert diff.nrows == len(diff.rows) == B.cochain_dim(n + 1)
        assert diff.ncols == len(diff.columns) == B.cochain_dim(n)
        assert diff.rows == plain_differential(B, n), (a, B.p, n)


def test_normalized_tuple_layout():
    for a in (2, 3):
        B = BarComplex(a)
        tuples = list(B._tuples(3))
        assert len(tuples) == B.cochain_dim(3) // B.dim
        assert all(1 <= m < B.dim for tup in tuples for m in tup)
        assert [B._tuple_index(t) for t in tuples] == list(range(len(tuples)))


def test_dimensions_a2():
    B = BarComplex(2)
    dims = [B.bar_hh_dimension(n) for n in range(4)]
    assert dims == [2, 4, 6, 8]


def test_dimensions_match_primary_route():
    for a, top in ((2, 3), (3, 2), (4, 2)):
        B = BarComplex(a)
        A = QuantumCompleteIntersection(a, prime_field_for(a))
        for n in range(top + 1):
            assert B.bar_hh_dimension(n) == hh_dimension_ext(A, n), (a, n)


def linalg_rank(rows, ncols, field):
    """Reference: the primary routes' exact sparse rank of dict rows mod p."""
    entries = {(i, c): field.from_int(v) for i, row in enumerate(rows) for c, v in row.items()}
    return SparseMatrix(len(rows), ncols, entries, field).rank()


# the last two, with (3, None, 2), are the ranges of the oracle workload
@pytest.mark.parametrize(
    "a, modulus, top",
    [(2, None, 4), (2, 5, 4), (3, None, 2), (3, 13, 2), (2, None, 5), (5, None, 1)],
)
def test_block_rank_matches_full_reduction(a, modulus, top):
    # the elimination of every column, and that of only the columns left open
    # by the degree below, both give the rank of the whole coboundary; exactly
    # rank d_(n-1) columns are skipped
    B = BarComplex(a, modulus=modulus)
    field = prime_field(B.p, a)
    below = 0
    for n in range(top + 1):
        diff = B.bar_differential(n)
        rank = linalg_rank(diff.rows, diff.ncols, field)
        assert len(_rank(diff.columns, B.p)) == len(B._pivot_tops(n)) == rank, (a, B.p, n)
        skipped = B._pivot_tops(n - 1) if n >= 1 else set()
        assert sum(j in skipped for j in range(diff.ncols)) == below, (a, B.p, n)
        below = rank


@pytest.mark.parametrize(
    "a, modulus, top",
    [(2, None, 5), (3, None, 2), (5, None, 1), (2, 13, 4), (3, 13, 2), (4, 13, 1)],
)
def test_stored_values_are_reduced(a, modulus, top):
    # _rank copies its vectors without reducing them: every stored value is in 1..p-1
    B = BarComplex(a, modulus=modulus)
    for n in range(top + 1):
        columns = B.bar_differential(n).columns
        assert all(0 < v < B.p for column in columns for v in column.values()), (a, B.p, n)


def bidegrees(B, n):
    """Internal bidegree deg(value) - sum deg(arguments) of each degree-n basis
    cochain, in index order: the argument tuples of B._tuples(n), each with
    every value monomial y^u x^v, u*a + v."""
    a = B.a
    out = []
    for tup in B._tuples(n):
        du = sum(m // a for m in tup)
        dv = sum(m % a for m in tup)
        for value in range(B.dim):
            u, v = divmod(value, a)
            out.append((u - du, v - dv))
    return out


def test_coboundary_preserves_internal_bidegree():
    for a, top in ((2, 3), (3, 2)):
        B = BarComplex(a)
        for n in range(top + 1):
            cols, rows = bidegrees(B, n), bidegrees(B, n + 1)
            for j, image in enumerate(B.bar_differential(n).columns):
                for i in image:
                    assert rows[i] == cols[j], (a, n, i, j)
            assert len(set(cols)) > 1


def test_negative_degree_rejected():
    B = BarComplex(2)
    for call in (B.cochain_dim, lambda n: next(B._tuples(n)), B.bar_differential, B.bar_hh_dimension):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            call(-1)


def test_size_cap():
    with pytest.raises(SizeError):
        BarComplex(3, size_cap=1000).bar_differential(3)


def test_size_cap_refuses_before_the_product_table(monkeypatch):
    # the table costs a^4 products; a refused space must not pay for them
    calls = []
    mul = BarComplex._mul
    monkeypatch.setattr(BarComplex, "_mul", lambda self, *args: calls.append(1) or mul(self, *args))
    B = BarComplex(3, size_cap=10)
    with pytest.raises(SizeError):
        B.dimension_rows(0)
    assert calls == []
    BarComplex(3).dimension_rows(0)  # degree 0 has no contractions: only the table
    assert len(calls) == 3**4


def test_size_cap_refuses_before_the_root_search(monkeypatch):
    # the root search and the q-power list are O(a); a refused space must not pay for them
    calls = []
    search = bar.smallest_root_of_unity
    monkeypatch.setattr(bar, "smallest_root_of_unity", lambda *args: calls.append(args) or search(*args))
    with pytest.raises(SizeError):
        BarComplex(3_000_000).dimension_rows(0)
    assert calls == []
    B = BarComplex(3)
    assert B.dimension_rows(0) == [{"n": 0, "bar": 2}]
    assert calls == [(B.p, 3)]


def test_size_cap_refuses_before_any_lower_rank(monkeypatch):
    # degree 3 of a = 3 fits a cap of 5,000 but its coboundary does not
    calls = []
    rank = bar._rank
    monkeypatch.setattr(bar, "_rank", lambda *args: calls.append(1) or rank(*args))
    B = BarComplex(3, size_cap=5000)
    with pytest.raises(SizeError):
        B.bar_hh_dimension(3)
    assert calls == []
    assert B.bar_hh_dimension(2) == 6
    assert len(calls) == 3


def test_large_modulus_builds_fast():
    start = time.perf_counter()
    B = BarComplex(2, modulus=10**16 + 61)
    assert time.perf_counter() - start < 1
    assert B.p == 10**16 + 61


@pytest.mark.parametrize("cap", [0, -5])
def test_size_cap_must_be_positive(cap):
    with pytest.raises(ValueError, match=f"size cap must be at least 1, got {cap}"):
        BarComplex(2, size_cap=cap)


def test_modulus_must_admit_root():
    with pytest.raises(ValueError):
        BarComplex(3, modulus=5)


@pytest.mark.parametrize(
    "a, modulus, message",
    [(2, 9, "not prime"), (1, 2, "at least 2")],
)
def test_unusable_parameters_rejected(a, modulus, message):
    with pytest.raises(ValueError, match=message):
        BarComplex(a, modulus=modulus)


def test_row_reducer_against_exact_rank():
    # the oracle's elimination agrees with the primary routes' sparse rank
    rng = random.Random(31)
    field = prime_field_for(3)  # F_7
    p = field.modulus
    for _ in range(20):
        ncols = rng.randint(1, 8)
        rows = [
            {c: rng.randint(0, p - 1) for c in range(ncols)} for _ in range(rng.randint(1, 8))
        ]
        assert len(_rank(reduced(rows, p), p)) == linalg_rank(rows, ncols, field)


@st.composite
def sparse_rows(draw):
    """Sparse rows mod p, some of them combinations of earlier ones."""
    p = draw(st.sampled_from((5, 7, 13, 2147483647)))
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-2 * p, 2 * p)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(entry)
        combo = dict(rows[j])
        for col, v in rows[i].items():
            combo[col] = combo.get(col, 0) + c * v
        rows.append(combo)
    return p, ncols, rows


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_echelon_rank_matches_exact_rank(case):
    p, ncols, rows = case
    rank = linalg_rank(rows, ncols, prime_field(p, 2))
    assert len(_rank(reduced(rows, p), p)) == rank


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_rank_of_transpose(case):
    # the oracle ranks the images of basis cochains, the columns of its coboundary
    p, ncols, rows = case
    rows = reduced(rows, p)
    assert len(_rank(rows, p)) == len(_rank(transpose(rows, ncols), p))


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.data())
def test_echelon_row_order_invariance(case, data):
    # the sort by length is stable, so permuting the input permutes the
    # elimination order among rows of equal length: the rank stays put
    p, ncols, rows = case
    order = data.draw(st.permutations(range(len(rows))))
    rows = reduced(rows, p)
    assert len(_rank([rows[i] for i in order], p)) == len(_rank(rows, p))
