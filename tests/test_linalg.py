import random
import re
from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild import linalg
from qci_hochschild.algebra import QuantumCompleteIntersection
from qci_hochschild.cohomology import delta_matrix, hom_differential
from qci_hochschild.linalg import (
    NotContainedError,
    SparseMatrix,
    Subspace,
    _blocks,
    _reduce_vector,
    _rref,
    coset_basis,
    stack_rank,
)
from qci_hochschild.scalars import CyclotomicScalar, cyclotomic_field, prime_field_for, rational_field

R = rational_field(2)


def dense(rows):
    return SparseMatrix.from_dense([[R.from_int(v) for v in row] for row in rows], R)


def test_rank_zero_and_identity():
    assert SparseMatrix(3, 4, {}, R).rank() == 0
    assert SparseMatrix.identity(5, R).rank() == 5


def test_rank_root_of_unity_rank_one():
    # second row is q^(a-1) times the first, since q q^(a-1) = 1
    for a in (3, 5, 7):
        F = cyclotomic_field(a)
        q = F.root
        m = SparseMatrix.from_dense([[F.one(), q], [q ** (a - 1), F.one()]], F)
        det = F.one() * F.one() - q * q ** (a - 1)  # 2x2 determinant oracle
        assert not det
        assert m.rank() == 1


def test_kernel_identity_and_zero():
    assert SparseMatrix.identity(4, R).kernel_basis().dim == 0
    assert SparseMatrix(2, 3, {}, R).kernel_basis().dim == 3


def test_kernel_forced_by_single_equation():
    k = dense([[1, -1]]).kernel_basis()
    assert k.dim == 1
    assert k.basis == [{0: R.one(), 1: R.one()}]


def test_solve_identity_and_inconsistent():
    m = SparseMatrix.identity(3, R)
    b = {0: R.from_int(2), 2: R.from_int(-1)}
    assert m.solve(b) == b
    assert SparseMatrix(2, 2, {}, R).solve({0: R.one()}) is None


def test_solve_free_variables_zero():
    m = dense([[1, 1]])
    assert m.solve({0: R.from_int(2)}) == {0: R.from_int(2)}


def test_coset_basis_trivial_cases():
    inner = Subspace(2, [{0: R.one()}], R)
    assert coset_basis(inner, inner) == []
    zero = Subspace(2, [], R)
    assert coset_basis(zero, inner) == [{0: R.one()}]


def test_coset_basis_deterministic_and_sized():
    inner = Subspace(3, [{0: R.one(), 1: R.one()}], R)
    outer = Subspace(
        3, [{0: R.one()}, {1: R.one()}, {2: R.one()}], R
    )
    first = coset_basis(inner, outer)
    second = coset_basis(inner, outer)
    assert len(first) == 2
    assert first == second


def test_coset_basis_containment_checked():
    inner = Subspace(2, [{0: R.one()}], R)
    outer = Subspace(2, [{1: R.one()}], R)
    with pytest.raises(NotContainedError):
        coset_basis(inner, outer)


def test_rank_nullity_randomized():
    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = dense(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        assert m.rank() + m.kernel_basis().dim == cols


def test_solve_round_trip_randomized():
    rng = random.Random(123)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = dense(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        x_true = {j: R.from_int(rng.randint(-3, 3)) for j in range(cols)}
        b = m.apply(x_true)
        x = m.solve(b)
        assert x is not None
        assert m.apply(x) == b


def test_kernel_vectors_annihilated():
    rng = random.Random(7)
    for field in (R, cyclotomic_field(3), prime_field_for(3)):
        for _ in range(10):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = SparseMatrix.from_dense(
                [
                    [field.from_int(rng.randint(-3, 3)) for _ in range(cols)]
                    for _ in range(rows)
                ],
                field,
            )
            for vec in m.kernel_basis().basis:
                assert not m.apply(vec)


def test_column_space_and_stack_rank():
    m = dense([[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    image = m.column_space()
    assert image.dim == 2
    assert stack_rank(image, [{2: R.one()}], R) == 3
    assert stack_rank(image, [{0: R.one(), 1: R.one()}], R) == 2


def test_kernel_image_composition_bound():
    # for composable maps with m1 m2 = 0, im(m2) sits inside ker(m1)
    m1 = dense([[1, 1, 0]])
    m2 = dense([[1, 0], [-1, 0], [0, 0]])
    image = m2.column_space()
    kernel = m1.kernel_basis()
    assert kernel.contains_subspace(image)
    assert image.dim <= kernel.dim


@pytest.mark.parametrize("key", [(0, 5), (0, -1), (1, 0), (-1, 0)])
def test_entries_outside_the_shape_are_rejected(key):
    with pytest.raises(ValueError, match=re.escape(str(key))):
        SparseMatrix(1, 1, {(0, 0): R.one(), key: R.one()}, R)


def test_tiled_places_blocks_and_rejects_overlap_and_overflow():
    one, two = R.one(), R.from_int(2)
    block = {(0, 0): one, (1, 1): two}
    m = SparseMatrix.tiled(3, 4, [(0, 0, block), (1, 2, block)], R)
    assert m.entries == {(0, 0): one, (1, 1): two, (1, 2): one, (2, 3): two}
    with pytest.raises(ValueError, match="overlap"):
        SparseMatrix.tiled(3, 4, [(0, 0, block), (1, 1, block)], R)
    with pytest.raises(ValueError, match=re.escape(str((3, 3)))):
        SparseMatrix.tiled(3, 4, [(2, 2, block)], R)


def test_tiled_checks_each_fresh_block_where_it_is_placed():
    # each dict is dropped once tiled has moved past it, so the id of the
    # first may come back for the third
    def tiles(offsets, values):
        for offset, v in zip(offsets, values):
            yield offset, offset, {(0, 0): R.from_int(v), (1, 1): R.from_int(v + 1)}

    m = SparseMatrix.tiled(6, 6, tiles((0, 2, 4), (1, 3, 5)), R)
    assert m.entries == {(k, k): R.from_int(k + 1) for k in range(6)}
    with pytest.raises(ValueError, match=re.escape(f"entry {(5, 5)} outside a 5x6 matrix")):
        SparseMatrix.tiled(5, 6, tiles((0, 2, 4), (1, 1, 1)), R)


class CountingBlock(dict):
    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def test_tiled_drops_the_zeros_of_a_shared_block_once():
    zero, one, two = R.zero(), R.one(), R.from_int(2)
    block = CountingBlock({(0, 0): one, (0, 1): zero, (1, 1): two})
    tiles = [(0, 0, block), (2, 1, block), (0, 3, block)]
    m = SparseMatrix.tiled(4, 5, tiles, R)
    assert block.reads == 1
    placed = {(r + i, c + j): v for r, c, b in tiles for (i, j), v in dict.items(b)}
    assert m.entries == SparseMatrix(4, 5, placed, R).entries
    assert len(m.entries) == 6 and zero not in m.entries.values()


@pytest.mark.parametrize("coord", [2, -1])
def test_subspace_rejects_coordinates_outside_the_ambient(coord):
    with pytest.raises(ValueError, match=f"coordinate {coord} "):
        Subspace(2, [{0: R.one()}, {coord: R.one()}], R)


def test_subspace_reads_a_generator_once():
    vectors = ({c: R.one()} for c in (0, 1))
    assert Subspace(2, vectors, R).dim == 2
    with pytest.raises(ValueError, match="coordinate 2 "):
        Subspace(2, ({c: R.one()} for c in (0, 2)), R)


def test_solve_rejects_index_outside_rows():
    m = SparseMatrix.identity(2, R)
    for i in (-1, 2):
        with pytest.raises(ValueError):
            m.solve({i: R.one()})


def test_apply_rejects_index_outside_cols():
    F = prime_field_for(3)  # F_7
    m = SparseMatrix(2, 2, {(0, 0): F.one(), (1, 1): F.from_int(2)}, F)
    assert m.apply({1: F.one()}) == {1: F.from_int(2)}
    for j in (-1, 2, 5):
        with pytest.raises(ValueError, match=f"vector index {j} outside 0..1"):
            m.apply({j: F.one()})


@pytest.mark.parametrize("field", (cyclotomic_field(3), prime_field_for(3)), ids=repr)
def test_zero_coordinates_are_dropped_where_vectors_enter(field):
    zero, one = field.zero(), field.one()
    s = Subspace(2, [{0: zero, 1: one}], field)
    assert (s.dim, s.pivots, s.basis) == (1, [1], [{1: one}])
    assert Subspace(2, [{0: zero}, {0: zero}], field).dim == 0
    assert stack_rank(Subspace(2, [], field), [{0: zero}], field) == 0
    assert stack_rank(s, [{0: zero, 1: field.from_int(2)}], field) == 1


# -- factor once, solve many ---------------------------------------------------

FIELDS = (R, cyclotomic_field(3), prime_field_for(3))


def whole_matrix_rref(rows, ncols):
    """Reference: the canonical RREF as one reduction over every row and column."""
    remaining = [dict(r) for r in rows if r]
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        best = None
        for idx, row in enumerate(remaining):
            if col in row:
                key = (len(row), idx)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        row = remaining.pop(best[1])
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in chain(remaining, pivot_rows):
            factor = other.get(col)
            if factor is not None:
                for c, v in row.items():
                    nv = other.get(c)
                    nv = -factor * v if nv is None else nv - factor * v
                    if nv:
                        other[c] = nv
                    else:
                        del other[c]
        remaining = [r for r in remaining if r]
        pivots.append(col)
        pivot_rows.append(row)
    return pivots, pivot_rows


def one_shot_solve(m, b):
    """Reference: reduce [M | b] from scratch, free variables zero."""
    aug = m.row_dicts()
    for i, v in b.items():
        if v:
            aug[i][m.cols] = v
    pivots, rows = whole_matrix_rref(aug, m.cols + 1)
    x = {}
    for col, row in zip(pivots, rows):
        if col == m.cols:
            return None
        v = row.get(m.cols)
        if v:
            x[col] = v
    return x


@st.composite
def scalars(draw, field):
    """Small combinations c * root^e, so cyclotomic entries are not all rational."""
    c = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3)))
    e = draw(st.integers(0, 2))
    return field.from_int(c) * field.root ** e


@st.composite
def systems(draw, max_rhs=1):
    """A random matrix over one of the backends and some right-hand sides.

    Half of the right-hand sides are images M x, the rest are arbitrary and
    mostly inconsistent once M is rank deficient.
    """
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = [[draw(scalars(field)) for _ in range(cols)] for _ in range(rows)]
    m = SparseMatrix.from_dense(data, field)
    rhs = []
    for _ in range(draw(st.integers(1, max_rhs))):
        if draw(st.booleans()):
            x = {j: draw(scalars(field)) for j in range(cols)}
            rhs.append(m.apply({j: v for j, v in x.items() if v}))
        else:
            b = {i: draw(scalars(field)) for i in range(rows)}
            rhs.append({i: v for i, v in b.items() if v})
    return m, rhs


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_equals_one_shot_reduction(system):
    m, (b,) = system
    x = m.solve(b)
    expected = one_shot_solve(m, b)
    assert x == expected
    if x is not None:
        assert list(x) == list(expected)  # same key order, so the same text
        assert m.apply(x) == b


@settings(max_examples=100, deadline=None)
@given(systems(max_rhs=5), st.randoms(use_true_random=False))
def test_repeated_solves_in_any_order(system, rng):
    m, rhs = system
    twin = SparseMatrix(m.rows, m.cols, dict(m.entries), m.field)
    order = list(range(len(rhs)))
    rng.shuffle(order)
    expected = [one_shot_solve(m, b) for b in rhs]
    for k in order + order[::-1]:
        x = m.solve(rhs[k])
        assert x == expected[k]
        if x is not None:
            x[m.cols] = m.field.one()  # a caller mutating its answer must not reach the cache
    assert [twin.solve(b) for b in rhs] == expected
    assert m.entries == twin.entries


# -- reduction by connected blocks ---------------------------------------------


@st.composite
def sparse_matrices(draw):
    """A sparse matrix over one of the backends, made of a few small blocks.

    The blocks' rows and columns are shuffled together, a stray entry may
    join two blocks, and a few extra rows are combinations of earlier ones,
    so ranks fall short.
    """
    field = draw(st.sampled_from(FIELDS))

    def entry():
        c = draw(st.sampled_from((1, -1, 2, -3)))
        return field.from_int(c) * field.root ** draw(st.integers(0, 2))

    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4))
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    row_at = draw(st.permutations(range(rows)))
    col_at = draw(st.permutations(range(cols)))
    data = [dict() for _ in range(rows)]
    top = left = 0
    for r, c in shapes:
        for i in range(top, top + r):
            for j in range(left, left + c):
                if draw(st.booleans()):
                    data[row_at[i]][col_at[j]] = entry()
        top, left = top + r, left + c
    for _ in range(draw(st.integers(0, 1))):
        data[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = entry()
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, len(data) - 1))
        c = entry()
        combo = dict(data[j])
        for col, v in data[i].items():
            combo[col] = combo.get(col, field.zero()) + c * v
        data.append(combo)
    entries = {(i, j): v for i, row in enumerate(data) for j, v in row.items()}
    return SparseMatrix(len(data), cols, entries, field)


def transpose(m):
    return SparseMatrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()}, m.field)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_blockwise_rref_equals_whole_matrix_reference(m):
    pivots, rows = _rref(m.row_dicts(), m.cols)
    ref_pivots, ref_rows = whole_matrix_rref(m.row_dicts(), m.cols)
    assert pivots == ref_pivots
    assert rows == ref_rows
    assert [list(r) for r in rows] == [list(r) for r in ref_rows]  # same key order, so the same text


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_rref_does_not_depend_on_row_order(m, rng):
    rows = m.row_dicts()
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _rref(shuffled, m.cols) == _rref(rows, m.cols)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_forward_rank_equals_rref_pivots_and_transpose_rank(m):
    ref_pivots, _ = whole_matrix_rref(m.row_dicts(), m.cols)
    assert m.rank() == len(ref_pivots) == transpose(m).rank()


def reference_kernel(m):
    """Reference: the kernel read off the whole-matrix RREF, one vector per free column."""
    pivots, rows = whole_matrix_rref(m.row_dicts(), m.cols)
    vectors = []
    for free in range(m.cols):
        if free not in pivots:
            vec = {free: m.field.one()}
            for col, row in zip(pivots, rows):
                if free in row:
                    vec[col] = -row[free]
            vectors.append(vec)
    return Subspace(m.cols, vectors, m.field)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_equals_whole_matrix_reference(m):
    kernel, expected = m.kernel_basis(), reference_kernel(m)
    assert kernel == expected
    assert [list(r) for r in kernel.basis] == [list(r) for r in expected.basis]
    assert kernel.dim == m.cols - m.rank()


def reference_coset_basis(inner, outer):
    """Reference: reduce each vector of outer's basis modulo inner and the
    normalised residues kept so far; keep it when a residue is left."""
    pivots = list(inner.pivots)
    rows = [dict(r) for r in inner.basis]
    chosen = []
    for vec in outer.basis:
        residue = _reduce_vector(vec, pivots, rows)
        if residue:
            lead = min(residue)
            inv = residue[lead].inverse()
            pivots.append(lead)
            rows.append({c: v * inv for c, v in residue.items()})
            chosen.append(dict(vec))
    return chosen


@st.composite
def nested_subspaces(draw):
    """Subspaces inner <= outer of k^n: outer is spanned by inner's
    generators and a few more, some of them combinations of earlier ones."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))

    def vector():
        return {j: v for j in range(n) if (v := draw(scalars(field)))}

    inner = [vector() for _ in range(draw(st.integers(0, 3)))]
    extra = [vector() for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        pool = inner + extra
        if pool:
            u, w = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            c = draw(scalars(field))
            combo = dict(u)
            for j, v in w.items():
                combo[j] = combo.get(j, field.zero()) + c * v
            extra.append({j: v for j, v in combo.items() if v})
    return Subspace(n, inner, field), Subspace(n, inner + extra, field)


@settings(max_examples=200, deadline=None)
@given(nested_subspaces())
def test_coset_basis_equals_greedy_reference(pair):
    inner, outer = pair
    chosen = coset_basis(inner, outer)
    assert chosen == reference_coset_basis(inner, outer)
    assert len(chosen) == outer.dim - inner.dim
    assert Subspace(outer.ambient, inner.basis + chosen, outer.field) == outer


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_blocks_partition_rows_into_connected_blocks(m):
    rows = [r for r in m.row_dicts() if r]
    blocks = _blocks(rows, m.cols)
    assert sorted(id(r) for block_rows, _ in blocks for r in block_rows) == sorted(map(id, rows))
    seen = set()
    for block_rows, block_cols in blocks:
        assert block_cols == sorted(set().union(*block_rows))
        assert seen.isdisjoint(block_cols)
        seen.update(block_cols)
        reached = set(block_rows[0])  # the block is connected through shared columns
        grew = True
        while grew:
            grew = False
            for row in block_rows:
                if not reached.issuperset(row) and not reached.isdisjoint(row):
                    reached.update(row)
                    grew = True
        assert reached == set(block_cols)


F3 = cyclotomic_field(3)
Z = F3.root


def echelon_case(rows, ncols):
    """_rref of rows checked against the whole-matrix reference, key order included."""
    ref_pivots, ref_rows = whole_matrix_rref(rows, ncols)
    pivots, reduced_rows = _rref(rows, ncols)
    assert (pivots, reduced_rows) == (ref_pivots, ref_rows)
    assert [list(r) for r in reduced_rows] == [list(r) for r in ref_rows]


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_rref_of_a_one_column_block_equals_reference(order):
    held = [F3.from_int(2) * Z, F3.from_int(-3), Z * Z]
    rows = [{1: held[k]} for k in order] + [{0: F3.one(), 2: Z}]  # a second block of one row
    echelon_case(rows, 3)


def test_rref_of_a_one_row_block_equals_reference():
    row = {3: Z, 1: F3.from_int(-2), 4: F3.one() + Z}
    echelon_case([{}, row], 5)


def test_dimension_routes_rank_without_inverting(monkeypatch):
    # every connected block of these matrices has one row or one column, so
    # rank counts them from the entry pattern and eliminates nothing
    calls = []
    inverse = CyclotomicScalar.inverse
    monkeypatch.setattr(CyclotomicScalar, "inverse", lambda self: calls.append(self) or inverse(self))
    rref = linalg._rref
    for a in (3, 5, 7):
        A = QuantumCompleteIntersection(a, cyclotomic_field(a))
        matrices = [build(A, n) for n in range(1, 13) for build in (hom_differential, delta_matrix)]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_rref", lambda *args, **kwargs: calls.append(args) or rref(*args, **kwargs))
            assert all(m.rank() > 0 for m in matrices)
    assert calls == []


F3_PRIME = prime_field_for(3)
LONE_BLOCK_CASES = {
    # name: (rows, cols, {(row, col): int}, rank, rows left to eliminate)
    "one_by_one": (3, 3, {(1, 2): 2}, 1, []),
    "lone_row_of_3": (3, 4, {(1, 0): 1, (1, 2): -2, (1, 3): 3}, 1, []),
    "lone_column_of_3": (4, 3, {(0, 1): 1, (1, 1): 2, (3, 1): -1}, 1, []),
    "row_01_with_row_1": (2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 2}, 2, [0, 1]),
    "full_2x2": (2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}, 2, [0, 1]),
    "rank_one_2x2": (2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4}, 1, [0, 1]),
    "mixed_with_stray_entry": (
        7, 9,
        {
            (0, 0): 3,  # 1x1
            (1, 1): 1, (1, 2): -1,  # lone row
            (2, 3): 2, (3, 3): 5,  # lone column
            (4, 4): 1, (4, 5): 1, (5, 6): 1, (5, 7): -1,  # two lone rows ...
            (5, 5): 2,  # ... joined into one wide block by a stray entry
        },
        5, [4, 5],
    ),
}


@pytest.mark.parametrize("field", (F3, F3_PRIME), ids=("cyclotomic", "prime"))
@pytest.mark.parametrize("case", list(LONE_BLOCK_CASES))
def test_rank_counts_lone_rows_and_columns(monkeypatch, field, case):
    rows, cols, pattern, rank, eliminated = LONE_BLOCK_CASES[case]
    m = SparseMatrix(rows, cols, {k: field.from_int(v) for k, v in pattern.items()}, field)
    handed = []
    rref = linalg._rref

    def spy(block_rows, *args, **kwargs):
        block_rows = list(block_rows)
        handed.extend(block_rows)
        return rref(block_rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_rref", spy)
    assert m.rank() == rank == len(whole_matrix_rref(m.row_dicts(), cols)[0])
    assert handed == [m.row_dicts()[i] for i in eliminated]  # whole blocks, unchanged


@pytest.mark.parametrize("a", (3, 4, 5))
def test_package_ranks_agree_across_backends_and_reference(a):
    C = QuantumCompleteIntersection(a, cyclotomic_field(a))
    P = QuantumCompleteIntersection(a, prime_field_for(a))
    for n in range(1, 7):
        for build in (hom_differential, delta_matrix):
            cyc, prime = build(C, n), build(P, n)
            expected = len(whole_matrix_rref(cyc.row_dicts(), cyc.cols)[0])
            assert cyc.rank() == prime.rank() == expected, (a, n, build.__name__)
