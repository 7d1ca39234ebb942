import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild.algebra import QuantumCompleteIntersection
from qci_hochschild.bar import BarCochain, BarComplex, SizeError, _Echelon, _SparseRows
from qci_hochschild.cohomology import hh_dimension_ext
from qci_hochschild.linalg import SparseMatrix
from qci_hochschild.scalars import prime_field, prime_field_for


def test_delta_squared_zero_small():
    B = BarComplex(2)
    for n in range(4):
        d_low = B.bar_differential(n)
        d_high = B.bar_differential(n + 1)
        # compose sparsely: feed each basis vector through both maps
        for col in range(d_low.ncols):
            vec = [0] * d_low.ncols
            vec[col] = 1
            assert not any(d_high.apply(d_low.apply(vec))), (n, col)


def test_degree_zero_kernel_is_center():
    for a in (2, 3):
        B = BarComplex(a)
        kernel = B.cocycle_basis(0)
        assert len(kernel) == 2


def test_cochain_space_dimensions():
    # normalized: (a^2 - 1)^n arguments times a^2 values
    B = BarComplex(2)
    assert B.cochain_dim(3) == 108
    assert B.cochain_dim(0) == 4
    B3 = BarComplex(3)
    assert B3.cochain_dim(3) == 4608


def plain_differential(B, n):
    """Reference: the coboundary formula term by term on B's own tuple layout,
    every term accumulated, so that it holds whichever terms share a column."""
    d, a, p = B.dim, B.a, B.p
    qpow = [pow(B.q, k, p) for k in range(a)]
    last_sign = 1 if (n + 1) % 2 == 0 else -1
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
                sign = -sign
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
            rows = plain_differential(self, n)
            self._diff_cache[n] = _SparseRows(len(rows), self.cochain_dim(n), rows, self.p)
        return self._diff_cache[n]


def composes_to_zero(d_low, d_high):
    """d_high . d_low == 0 mod p, composed row by row."""
    for row in d_high.rows:
        out = {}
        for j, v in row.items():
            for c, w in d_low.rows[j].items():
                out[c] = (out.get(c, 0) + v * w) % d_low.p
        if any(out.values()):
            return False
    return True


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


@pytest.mark.parametrize("a, modulus, top", [(2, None, 4), (2, 13, 3), (3, None, 2), (4, None, 1)])
def test_build_matches_plain_formula(a, modulus, top):
    B = BarComplex(a, modulus=modulus)
    for n in range(top + 1):
        diff = B.bar_differential(n)
        assert diff.nrows == len(diff.rows) == B.cochain_dim(n + 1)
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


@pytest.mark.parametrize(
    "a, modulus, top", [(2, None, 4), (2, 5, 4), (3, None, 2), (3, 13, 2)]
)
def test_block_rank_matches_full_reduction(a, modulus, top):
    B = BarComplex(a, modulus=modulus)
    field = prime_field(B.p, a)
    for n in range(top + 1):
        diff = B.bar_differential(n)
        assert diff.rank() == linalg_rank(diff.rows, diff.ncols, field), (a, B.p, n)


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
            for i, row in enumerate(B.bar_differential(n).rows):
                for col in row:
                    assert rows[i] == cols[col], (a, n, i, col)
            assert len(set(cols)) > 1


def test_size_cap():
    with pytest.raises(SizeError):
        BarComplex(3, size_cap=1000).bar_differential(3)


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


def test_cup_with_unit():
    B = BarComplex(2)
    unit = BarCochain(0, [1, 0, 0, 0])
    for vec in B.cocycle_basis(1):
        g = BarCochain(1, vec)
        fg = B.cup_product(unit, g)
        gf = B.cup_product(g, unit)
        assert fg.vec == [c % B.p for c in g.vec]
        assert gf.vec == [c % B.p for c in g.vec]


@pytest.mark.parametrize("p", [90000049, 2147483647])
def test_cup_with_unit_at_large_modulus(p):
    # a product of three residues reaches p^3; nothing may overflow
    B = BarComplex(2, modulus=p)
    unit = BarCochain(0, [1, 0, 0, 0])
    g = BarCochain(1, [p - 1] * B.cochain_dim(1))
    assert B.cup_product(unit, g).vec == g.vec
    assert B.cup_product(g, unit).vec == g.vec
    # (-h).(-h) = h.h for h with all entries 1, whose products stay small
    h = BarCochain(1, [1] * B.cochain_dim(1))
    assert B.cup_product(g, g).vec == B.cup_product(h, h).vec


def test_cup_of_cocycles_is_cocycle():
    B = BarComplex(2)
    ones = [BarCochain(1, v) for v in B.cocycle_basis(1)]
    for f in ones[:3]:
        for g in ones[:3]:
            assert B.is_cocycle(B.cup_product(f, g))


def test_cup_graded_commutative_up_to_coboundary():
    # for degree-1 cocycles f, g the combination f.g + g.f must be exact
    B = BarComplex(2)
    ones = [BarCochain(1, v) for v in B.cocycle_basis(1)]
    for f in ones[:3]:
        for g in ones[:3]:
            fg = B.cup_product(f, g)
            gf = B.cup_product(g, f)
            s = BarCochain(2, [(x + y) % B.p for x, y in zip(fg.vec, gf.vec)])
            assert B.is_cocycle(s)
            assert B.is_coboundary(s)


def test_cup_span_of_degree2_basis_inside_degree4():
    # products of a cohomology basis of the degree-2 part span at least five
    # independent directions in degree 4
    B = BarComplex(2)
    reducer = B.coboundary_reducer(2)
    reps = [BarCochain(2, vec) for vec in B.cocycle_basis(2) if reducer.add(dict(enumerate(vec)))]
    assert len(reps) == 6  # dim of the degree-2 cohomology
    products = []
    for i, f in enumerate(reps):
        for j, g in enumerate(reps):
            if i <= j:
                products.append(B.cup_product(f, g))
    span = B.span_dimension_mod_coboundaries(products, 4)
    assert span >= 5


def column_order_reducer(B, n):
    """The image of the coboundary into degree n, its columns added in column order."""
    diff = B.bar_differential(n - 1)
    cols = [{} for _ in range(diff.ncols)]
    for i, row in enumerate(diff.rows):
        for col, val in row.items():
            cols[col][i] = val
    out = _Echelon(diff.nrows, B.p)
    for col in cols:
        out.add(col)
    return out, cols


@pytest.mark.parametrize("a, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_coboundary_reducer_matches_column_order(a, n):
    # the reducer adds the image's spanning vectors shortest first; the span,
    # so its rank and which vectors it holds, is the column-order one
    B = BarComplex(a)
    reducer = B.coboundary_reducer(n)
    reference, cols = column_order_reducer(B, n)
    assert reducer.rank == reference.rank == B.bar_differential(n - 1).rank()
    rng = random.Random(a * 10 + n)
    probes = [dict(enumerate(vec)) for vec in B.cocycle_basis(n)]
    for _ in range(5):  # random sparse vectors
        probes.append({c: rng.randrange(1, B.p) for c in rng.sample(range(B.cochain_dim(n)), 5)})
    for _ in range(5):  # random coboundaries
        total = {}
        for col in rng.sample(cols, 3):
            for i, v in col.items():
                total[i] = (total.get(i, 0) + rng.randrange(1, B.p) * v) % B.p
        probes.append(total)
    found = [not reducer.residue(vec) for vec in probes]
    assert found == [not reference.residue(vec) for vec in probes]
    assert any(found) and not all(found)


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
        echelon = _Echelon(ncols, p)
        for row in rows:
            echelon.add(row)
        assert echelon.rank == linalg_rank(rows, ncols, field)


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
    return p, ncols, rows, draw(row), draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_echelon_rank_residue_and_kernel(case):
    p, ncols, rows, vector, coeffs = case
    field = prime_field(p, 2)
    echelon = _Echelon(ncols, p)
    independent = [echelon.add(row) for row in rows]
    rank = linalg_rank(rows, ncols, field)
    assert echelon.rank == sum(independent) == rank

    combination = {}
    for c, row in zip(coeffs, rows):
        for col, v in row.items():
            combination[col] = combination.get(col, 0) + c * v
    assert not echelon.residue(combination)
    in_span = linalg_rank(rows + [vector], ncols, field) == rank
    assert (not echelon.residue(vector)) == in_span

    kernel = echelon.kernel()
    assert len(kernel) == ncols - rank
    for k in kernel:
        for row in rows:
            assert sum(v * k.get(c, 0) for c, v in row.items()) % p == 0
    assert linalg_rank(kernel, ncols, field) == len(kernel)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.data())
def test_echelon_row_order_invariance(case, data):
    # shortest rows first is one order among many: rank and kernel stay put
    p, ncols, rows, _, _ = case
    shortest_first = _SparseRows(len(rows), ncols, rows, p).echelon()
    shuffled = _Echelon(ncols, p)
    for i in data.draw(st.permutations(range(len(rows)))):
        shuffled.add(rows[i])
    assert shuffled.rank == shortest_first.rank
    assert shuffled.kernel() == shortest_first.kernel()
