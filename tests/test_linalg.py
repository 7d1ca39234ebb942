import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild.linalg import (
    NotContainedError,
    SparseMatrix,
    Subspace,
    _rref,
    coset_basis,
    stack_rank,
)
from qci_hochschild.scalars import cyclotomic_field, prime_field_for, rational_field

R = rational_field(2)


def dense(rows):
    return SparseMatrix.from_dense([[Fraction(v) for v in row] for row in rows], R)


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
    assert k.basis == [{0: Fraction(1), 1: Fraction(1)}]


def test_solve_identity_and_inconsistent():
    m = SparseMatrix.identity(3, R)
    b = {0: Fraction(2), 2: Fraction(-1)}
    assert m.solve(b) == b
    assert SparseMatrix(2, 2, {}, R).solve({0: Fraction(1)}) is None


def test_solve_free_variables_zero():
    m = dense([[1, 1]])
    assert m.solve({0: Fraction(2)}) == {0: Fraction(2)}


def test_coset_basis_trivial_cases():
    inner = Subspace(2, [{0: Fraction(1)}], R)
    assert coset_basis(inner, inner) == []
    zero = Subspace(2, [], R)
    assert coset_basis(zero, inner) == [{0: Fraction(1)}]


def test_coset_basis_deterministic_and_sized():
    inner = Subspace(3, [{0: Fraction(1), 1: Fraction(1)}], R)
    outer = Subspace(
        3, [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}], R
    )
    first = coset_basis(inner, outer)
    second = coset_basis(inner, outer)
    assert len(first) == 2
    assert first == second


def test_coset_basis_containment_checked():
    inner = Subspace(2, [{0: Fraction(1)}], R)
    outer = Subspace(2, [{1: Fraction(1)}], R)
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
        x_true = {j: Fraction(rng.randint(-3, 3)) for j in range(cols)}
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
    assert stack_rank(image, [{2: Fraction(1)}], R) == 3
    assert stack_rank(image, [{0: Fraction(1), 1: Fraction(1)}], R) == 2


def test_kernel_image_composition_bound():
    # for composable maps with m1 m2 = 0, im(m2) sits inside ker(m1)
    m1 = dense([[1, 1, 0]])
    m2 = dense([[1, 0], [-1, 0], [0, 0]])
    image = m2.column_space()
    kernel = m1.kernel_basis()
    assert kernel.contains_subspace(image)
    assert image.dim <= kernel.dim


def test_solve_rejects_index_outside_rows():
    m = SparseMatrix.identity(2, R)
    for i in (-1, 2):
        with pytest.raises(ValueError):
            m.solve({i: Fraction(1)})


# -- factor once, solve many ---------------------------------------------------

FIELDS = (R, cyclotomic_field(3), prime_field_for(3))


def one_shot_solve(m, b):
    """Reference: reduce [M | b] from scratch, free variables zero."""
    aug = m.row_dicts()
    for i, v in b.items():
        if v:
            aug[i][m.cols] = v
    pivots, rows = _rref(aug, m.cols + 1)
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
