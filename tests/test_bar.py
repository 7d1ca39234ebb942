import numpy as np
import pytest

from qci_hochschild.algebra import QuantumCompleteIntersection
from qci_hochschild.bar import BarCochain, BarComplex, SizeError, _RowReducer, _SparseRows
from qci_hochschild.cohomology import hh_dimension_ext
from qci_hochschild.scalars import prime_field_for


def test_delta_squared_zero_small():
    B = BarComplex(2)
    for n in range(4):
        d_low = B.bar_differential(n)
        d_high = B.bar_differential(n + 1)
        # compose sparsely: feed each basis vector through both maps
        for col in range(d_low.ncols):
            vec = np.zeros(d_low.ncols, dtype=np.int64)
            vec[col] = 1
            assert not d_high.apply(d_low.apply(vec)).any(), (n, col)


def test_degree_zero_kernel_is_center():
    for a in (2, 3):
        B = BarComplex(a)
        kernel = B.cocycle_basis(0)
        assert len(kernel) == 2


def test_cochain_space_dimensions():
    B = BarComplex(2)
    assert B.cochain_dim(3) == 256
    assert B.cochain_dim(0) == 4
    B3 = BarComplex(3)
    assert B3.cochain_dim(3) == 6561


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


def full_rank(diff, batch=256):
    """Reference: reduce the whole dense coboundary, ignoring the grading."""
    dense = np.zeros((diff.nrows, diff.ncols), dtype=np.float64)
    for i, row in enumerate(diff.rows):
        for col, val in row:
            dense[i, col] = val % diff.p
    reducer = _RowReducer(diff.ncols, diff.p)
    for start in range(0, diff.nrows, batch):
        reducer.add_batch(dense[start : start + batch])
    return reducer.rank


@pytest.mark.parametrize(
    "a, modulus, top", [(2, None, 4), (2, 5, 4), (3, None, 2), (3, 13, 2)]
)
def test_block_rank_matches_full_reduction(a, modulus, top):
    B = BarComplex(a, modulus=modulus)
    for n in range(top + 1):
        diff = B.bar_differential(n)
        assert diff.rank() == full_rank(diff), (a, B.p, n)


def test_grading_violation_raises():
    d = BarComplex(2).bar_differential(1)
    rows = [list(row) for row in d.rows]
    i = next(i for i, row in enumerate(rows) if row)
    stray = next(c for c in range(d.ncols) if d.col_weights[c] != d.row_weights[i])
    rows[i].append((stray, 1))
    bad = _SparseRows(d.nrows, d.ncols, rows, d.p, d.row_weights, d.col_weights)
    with pytest.raises(RuntimeError, match="weight"):
        bad.rank()


def test_size_cap():
    with pytest.raises(SizeError):
        BarComplex(3, size_cap=1000).bar_differential(3)


def test_modulus_must_admit_root():
    with pytest.raises(ValueError):
        BarComplex(3, modulus=5)


@pytest.mark.parametrize(
    "a, modulus, message",
    [(2, 9, "not prime"), (2, 2147483647, "inexact"), (1, 2, "at least 2")],
)
def test_unusable_parameters_rejected(a, modulus, message):
    with pytest.raises(ValueError, match=message):
        BarComplex(a, modulus=modulus)


def test_row_reducer_enforces_exactness_bound():
    # (p-1)^2 * ncols < 2^53 holds at ncols = 1 and fails at ncols = 2
    p = 90000049
    assert _RowReducer(1, p).ncols == 1
    with pytest.raises(ValueError, match="inexact"):
        _RowReducer(2, p)
    with pytest.raises(ValueError, match="inexact"):
        _RowReducer(2**21, 65537)
    assert _RowReducer(2**21 - 1, 65537).rank == 0


def test_cup_with_unit():
    B = BarComplex(2)
    unit_vec = np.zeros(4, dtype=np.int64)
    unit_vec[0] = 1
    unit = BarCochain(0, unit_vec)
    for vec in B.cocycle_basis(1):
        g = BarCochain(1, vec)
        fg = B.cup_product(unit, g)
        gf = B.cup_product(g, unit)
        assert (fg.vec == g.vec % B.p).all()
        assert (gf.vec == g.vec % B.p).all()


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
            s = BarCochain(2, (fg.vec + gf.vec) % B.p)
            assert B.is_cocycle(s)
            assert B.is_coboundary(s)


def test_cup_span_of_degree2_basis_inside_degree4():
    # products of a cohomology basis of the degree-2 part span at least five
    # independent directions in degree 4
    B = BarComplex(2)
    reducer = B.coboundary_reducer(2)
    base = reducer.rank
    reps = []
    for vec in B.cocycle_basis(2):
        before = reducer.rank
        reducer.add_batch(np.asarray(vec, dtype=np.float64)[None, :])
        if reducer.rank > before:
            reps.append(BarCochain(2, vec))
    assert len(reps) == 6  # dim of the degree-2 cohomology
    products = []
    for i, f in enumerate(reps):
        for j, g in enumerate(reps):
            if i <= j:
                products.append(B.cup_product(f, g))
    span = B.span_dimension_mod_coboundaries(products, 4)
    assert span >= 5


def test_row_reducer_against_exact_rank():
    # the dense mod-p reducer agrees with the exact sparse elimination
    import random

    from qci_hochschild.linalg import SparseMatrix

    rng = random.Random(31)
    field = prime_field_for(3)  # F_7
    p = field.modulus
    for _ in range(20):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        data = [[rng.randint(0, p - 1) for _ in range(cols)] for _ in range(rows)]
        exact = SparseMatrix.from_dense(
            [[field.from_int(v) for v in row] for row in data], field
        ).rank()
        reducer = _RowReducer(cols, p)
        reducer.add_batch(np.array(data, dtype=np.float64))
        assert reducer.rank == exact
