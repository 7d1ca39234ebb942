import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild.algebra import QuantumCompleteIntersection, center_basis
from qci_hochschild.cohomology import (
    BasisError,
    Cochain,
    NotCocycleError,
    _delta_block,
    delta_matrix,
    dimension_table,
    express,
    hh_dimension_ext,
    hh_dimension_tor,
    hom_differential,
    standard_basis,
)
from qci_hochschild.linalg import SparseMatrix, _rref
from qci_hochschild.resolution import SIMPLIFIED_A2, differential, preferred_variant
from qci_hochschild.scalars import cyclotomic_field, k_sum, prime_field_for, rational_field


def make(a, backend="cyclotomic"):
    field = cyclotomic_field(a) if backend == "cyclotomic" else prime_field_for(a)
    return QuantumCompleteIntersection(a, field)


# -- transpose differentials -------------------------------------------------

@pytest.mark.parametrize("field", [rational_field(2), cyclotomic_field(3), prime_field_for(3)], ids=repr)
def test_integer_q_gives_only_field_scalars(field):
    # q = 2 is no root of unity over Q, so q_power(-1) = 1/2 used to be a float
    A = QuantumCompleteIntersection(3, field, q=2)
    assert A.q == field.from_int(2)
    for m in (hom_differential(A, 2), delta_matrix(A, 2)):
        _, rows = _rref(m.row_dicts(), m.cols)
        values = list(m.entries.values()) + [v for row in rows for v in row.values()]
        assert values
        for v in values:
            assert type(v) is type(field.one()) and v.field == field, v


def test_hom_differential_shape():
    A = make(3)
    for n in (1, 2, 5):
        m = hom_differential(A, n)
        assert m.rows == (n + 1) * 9 and m.cols == n * 9


def test_hom_differential_kills_constant_cochain():
    for a in (2, 3, 4):
        A = make(a)
        c = Cochain(A, 0, [A.one()])
        assert not hom_differential(A, 1).apply(c.to_vector())


def test_hom_complex_property():
    for a in (2, 3):
        A = make(a)
        d1 = hom_differential(A, 1)
        d2 = hom_differential(A, 2)
        for col in range(d1.cols):
            one = A.field.one()
            image = d1.apply({col: one})
            assert not d2.apply(image), col


def test_kernel_of_first_transpose_is_center():
    for a in (2, 3, 4):
        A = make(a)
        kernel = hom_differential(A, 1).kernel_basis()
        center = center_basis(A)
        assert kernel.dim == len(center) == 2
        for z in center:
            assert kernel.contains(z.to_vector())


# -- dimensions by both routes --------------------------------------------------

def test_ext_dimensions():
    A = make(2)
    assert hh_dimension_ext(A, 0) == 2
    assert hh_dimension_ext(A, 2) == 6
    assert hh_dimension_ext(A, 5) == 12


def test_delta_blocks_are_shared_read_only_views():
    # the blocks depend on parities only, so one block serves many degrees;
    # a caller that changed it would change every later delta_matrix
    A = make(3)
    block = _delta_block(A, 3, 0, sub=False)
    assert _delta_block(A, 5, 2, sub=False) is block
    with pytest.raises(TypeError):
        block[next(iter(block))] = A.field.zero()
    assert hh_dimension_ext(A, 2) == hh_dimension_tor(A, 2) == 6


@pytest.mark.parametrize(
    "build, dimension", ((hom_differential, hh_dimension_ext), (delta_matrix, hh_dimension_tor)), ids=("hom", "delta")
)
def test_cached_matrix_entries_are_read_only(build, dimension):
    # each context caches its matrices, so a caller that changed the entries
    # of one would change every later rank on that context
    A = make(3)
    entries = build(A, 3).entries
    key = next(iter(entries))
    with pytest.raises(TypeError):
        entries[key] = A.field.zero()
    with pytest.raises(TypeError):
        del entries[key]
    assert build(A, 3).entries is entries
    assert dimension(A, 2) == 6


@pytest.mark.parametrize("a", (2, 3, 4))
@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
def test_routes_agree_and_match_formula(a, backend):
    A = make(a, backend)
    for n in range(9):
        ext = hh_dimension_ext(A, n)
        tor = hh_dimension_tor(A, n)
        assert ext == tor == 2 * n + 2, (a, n)


@pytest.mark.parametrize("field", [cyclotomic_field(2), prime_field_for(2)], ids=repr)
def test_routes_agree_at_a2_with_q_one(field):
    # q = 1 has q^2 = 1, so the Hom route takes the one rewrite, which holds
    # at every root; an alpha/beta form that assumed q = -1 read 4, 3, 7, 7, 11
    A = QuantumCompleteIntersection(2, field, q=1)
    ext = [hh_dimension_ext(A, n) for n in range(5)]
    assert ext == [hh_dimension_tor(A, n) for n in range(5)] == [4, 4, 5, 6, 7]
    assert preferred_variant(A) == SIMPLIFIED_A2


def test_rank_backend_independence():
    # every matrix the two routes build has the same rank over the cyclotomic
    # and prime backends
    for a in (2, 3):
        C = make(a)
        P = make(a, backend="prime")
        for n in range(1, 6):
            assert (
                hom_differential(C, n).rank() == hom_differential(P, n).rank()
            ), (a, n)
            assert (
                delta_matrix(C, n).rank() == delta_matrix(P, n).rank()
            ), (a, n)


def test_dimension_table_consistent():
    table = dimension_table(make(3), 6)
    assert table.consistent()
    assert [row["ext"] for row in table.rows] == [2, 4, 6, 8, 10, 12, 14]
    csv = table.to_csv_text()
    assert csv.splitlines()[0] == "n,ext,tor"
    assert csv.splitlines()[1] == "0,2,2"


# -- the twisted-complex differential ----------------------------------------------

def test_delta_dimensions():
    A = make(3)
    for n in (1, 2, 7):
        dm = delta_matrix(A, n)
        assert dm.rows == n * 9
        assert dm.cols == (n + 1) * 9


def test_delta_even_on_top_row_monomials():
    # in even degrees with even block index the image of y^(a-1) x^v keeps
    # only the second band, weighted by the full geometric sum at q^a = 1,
    # and dies unless v = 0
    for a in (2, 3, 4):
        A = make(a)
        a2 = A.dim
        n = 4
        dm = delta_matrix(A, n)
        for i in (0, 2, 4):
            for v in range(a):
                col = i * a2 + A.mono_index((a - 1, v))
                got = {}
                for (r, c), val in dm.entries.items():
                    if c == col:
                        got[r] = val
                if v > 0 or i == 0:
                    assert not got, (a, i, v)
                else:
                    row = (i - 1) * a2 + A.mono_index((a - 1, a - 1))
                    assert got == {row: k_sum(a, A.field.one())}, (a, i, v)


def test_delta_odd_kernel_monomials():
    # every monomial with u = a-1, or with v = a-1 and u <= a-2, is killed in
    # odd degrees whatever the block index
    for a in (2, 3, 4):
        A = make(a)
        a2 = A.dim
        for n in (1, 3, 5):
            dm = delta_matrix(A, n)
            cols_hit = {c for (_, c) in dm.entries}
            for i in range(n + 1):
                for v in range(a):
                    assert i * a2 + A.mono_index((a - 1, v)) not in cols_hit
                for u in range(a - 1):
                    assert i * a2 + A.mono_index((u, a - 1)) not in cols_hit


@pytest.mark.parametrize("a", (2, 3, 5))
def test_delta_computes_each_geometric_sum_once(monkeypatch, a):
    # every build on one context shares the geometric sums K(m), m <= a + 1
    import qci_hochschild.cohomology as co

    calls = []
    monkeypatch.setattr(co, "k_sum", lambda t, alpha: calls.append(alpha) or k_sum(t, alpha))
    A = make(a)
    for n in (1, 2, 5):
        delta_matrix(A, n)
    assert calls == [A.q_power(m) for m in range(a + 2)]


# -- both routes against their per-entry references ---------------------------------

def hom_differential_by_columns(A, n):
    """Entries of hom_differential(A, n), one column at a time: the band
    elements of d_n acting on one monomial through EnvElement.act."""
    d = differential(A, n, preferred_variant(A))
    a2 = A.dim
    entries = {}
    for j in range(n):
        for m in A.monomials():
            col = j * a2 + A.mono_index(m)
            for i in (j, j + 1):
                env = d.get((j, i))
                if env is None:
                    continue
                for mono, c in env.act(A.monomial(*m)).terms.items():
                    entries[(i * a2 + A.mono_index(mono), col)] = c
    return entries


def delta_matrix_by_entries(A, n):
    """Entries of delta_matrix(A, n), one closed-form entry at a time."""
    a = A.a
    a2 = A.dim
    qp = A.q_power
    one = A.field.one()
    K = [k_sum(a, qp(m)) for m in range(a + 2)]
    entries = {}

    def put(row_i, mono, col, scalar):
        if scalar:
            entries[(row_i * a2 + A.mono_index(mono), col)] = scalar

    even = n % 2 == 0
    for i in range(n + 1):
        for u in range(a):
            for v in range(a):
                col = i * a2 + A.mono_index((u, v))
                if even:
                    if i % 2 == 0:
                        if i <= n - 1 and u == 0:
                            put(i, (a - 1, v), col, qp(1) * K[v + 1])
                        if i >= 1 and v == 0:
                            put(i - 1, (u, a - 1), col, K[u + 1])
                    else:
                        if i <= n - 1 and u + 1 < a:
                            put(i, (u + 1, v), col, qp(v + 1) - qp(a - 1))
                        if i >= 1 and v + 1 < a:
                            put(i - 1, (u, v + 1), col, qp(u + 2) - one)
                else:
                    if i % 2 == 0:
                        if i <= n - 1 and u + 1 < a:
                            put(i, (u + 1, v), col, qp(a - 1) - qp(v))
                        if i >= 1 and v == 0:
                            put(i - 1, (u, a - 1), col, K[u + 2])
                    else:
                        if i <= n - 1 and u == 0:
                            put(i, (a - 1, v), col, qp(1) * K[v + 2])
                        if i >= 1 and v + 1 < a:
                            put(i - 1, (u, v + 1), col, qp(u + 1) - one)
    return entries


@pytest.mark.parametrize("a, backend, q", [
    *[(a, backend, None) for a in (2, 3, 4, 5) for backend in ("cyclotomic", "prime")],
    *[(a, "rational", q) for a in (2, 3) for q in (2, 1)],  # general variant, q = 1 control
])
def test_routes_equal_their_references(a, backend, q):
    A = make(a, backend) if q is None else QuantumCompleteIntersection(
        a, rational_field(q), q=rational_field(q).from_int(q)
    )
    for n in range(1, 7):
        assert hom_differential(A, n).entries == hom_differential_by_columns(A, n), n
        assert delta_matrix(A, n).entries == delta_matrix_by_entries(A, n), n


@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
@pytest.mark.parametrize("a", (2, 3, 5, 7))
def test_block_memo_is_bounded(a, backend):
    # both routes draw on eight blocks each, whatever the degree
    A = make(a, backend)
    dimension_table(A, 20)
    kinds = [key[0] for key in A._cache]
    assert kinds.count("action") == 8
    assert kinds.count("delta-block") == 8


@pytest.mark.parametrize("a", (3, 4, 5))
def test_delta_kernel_and_image_counts(a):
    A = make(a)
    a2 = A.dim
    for t in range(1, 4):
        n = 2 * t
        ker = (n + 1) * a2 - delta_matrix(A, n).rank()
        assert ker == (a2 + 2) * t + a2, (a, t)
    for t in range(0, 4):
        n = 2 * t + 1
        ker = (n + 1) * a2 - delta_matrix(A, n).rank()
        assert ker == (a2 + 2) * t + a2 + 2, (a, t)
        assert delta_matrix(A, n).rank() == (a2 - 2) * (t + 1), (a, t)


def test_tor_odd_even_values():
    A = make(3)
    for t in range(0, 3):
        assert hh_dimension_tor(A, 2 * t + 1) == 4 * t + 4
        assert hh_dimension_tor(A, 2 * t + 2) == 4 * t + 6


# -- named bases ---------------------------------------------------------------------

@pytest.mark.parametrize("a", (2, 3, 4))
def test_standard_basis_counts_and_labels(a):
    A = make(a)
    for t in range(0, 4):
        basis = standard_basis(A, 2 * t)
        assert len(basis) == 4 * t + 2
        scalar_labels = [c.label for c in basis[: 2 * t + 1]]
        if a == 2:
            assert scalar_labels == [f"xi_{r}" for r in range(2 * t + 1)]
        else:
            assert scalar_labels == [f"zeta_{j}" for j in range(2 * t + 1)]


def test_standard_basis_degree_zero_matches_center():
    for a in (2, 3, 5):
        A = make(a)
        basis = standard_basis(A, 0)
        center = center_basis(A)
        reps = [cls.representative.values[0] for cls in basis]
        assert reps[0] == center[0]
        # the socle-valued class is a scalar multiple of the second center element
        socle = reps[1]
        assert list(socle.terms) == [(a - 1, a - 1)]


def test_standard_basis_odd_degree_rejected():
    with pytest.raises(ValueError):
        standard_basis(make(2), 3)


def test_eta_values_in_radical():
    for a in (2, 3, 4):
        A = make(a)
        for t in range(0, 3):
            for cls in standard_basis(A, 2 * t):
                if cls.label.startswith("eta"):
                    for value in cls.representative.values:
                        assert value.in_radical()


def test_basis_error_on_fake_class():
    # stacking a coboundary onto the family must fail independence; emulate
    # by checking BasisError is raised when the verification is run against a
    # deliberately broken candidate list
    A = make(2)
    import qci_hochschild.cohomology as coh

    original = coh._standard_values

    def broken(algebra, degree):
        vals = original(algebra, degree)
        # replace the last class by a coboundary image (non-independent)
        label, index, _ = vals[-1]
        return vals[:-1] + [(label, index, algebra.zero())]

    coh._standard_values = broken
    try:
        A._cache.pop(("stdbasis", 2), None)
        with pytest.raises(BasisError):
            standard_basis(A, 2)
    finally:
        coh._standard_values = original
        A._cache.pop(("stdbasis", 2), None)


def test_basis_error_on_class_dependent_modulo_coboundaries(monkeypatch):
    # at a = 3, y^2 x^2 on generator 1 is a coboundary in degree 2; put it in
    # place of eta-_1 and the family stays independent as vectors but spans
    # one direction too few modulo coboundaries
    import qci_hochschild.cohomology as coh

    A = make(3)
    socle = A.xpow(2) * A.ypow(2)
    original = coh._standard_values

    def with_coboundary(algebra, degree):
        vals = original(algebra, degree)
        label, index, _ = vals[-1]
        assert (label, index) == ("eta-_1", 1)
        return vals[:-1] + [(label, index, socle)]

    monkeypatch.setattr(coh, "_standard_values", with_coboundary)
    fake = Cochain(A, 2, [A.zero(), socle, A.zero()]).to_vector()
    assert hom_differential(A, 2).solve(fake) is not None
    vectors = {}
    for col, (_, index, value) in enumerate(with_coboundary(A, 2)):
        values = [A.zero()] * 3
        values[index] = value
        for row, c in Cochain(A, 2, values).to_vector().items():
            vectors[(row, col)] = c
    assert SparseMatrix(3 * A.dim, 6, vectors, A.field).rank() == 6
    with pytest.raises(
        BasisError, match="classes span 5 directions modulo coboundaries, expected 6"
    ):
        standard_basis(A, 2)


@pytest.mark.parametrize("a", (2, 3))
def test_basis_error_when_classes_do_not_span(a):
    # at q = 1 the algebra is commutative, every element is central, and the
    # two named degree-0 classes span too little of HH^0 = A
    Q1 = rational_field(1)
    A = QuantumCompleteIntersection(a, Q1, q=Q1.one())
    with pytest.raises(
        BasisError, match=f"cohomology has dimension {a * a}, so 2 classes cannot span it"
    ):
        standard_basis(A, 0)


# -- express ---------------------------------------------------------------------------

def test_express_unit_vectors():
    A = make(3)
    basis = standard_basis(A, 2)
    for k, cls in enumerate(basis):
        out = express(A, cls.representative)
        for j, c in enumerate(out.coordinates):
            assert bool(c) == (j == k)
        assert out.coordinates[k] == A.field.one()


def test_express_zero():
    A = make(3)
    zero = Cochain(A, 2, [A.zero()] * 3)
    out = express(A, zero)
    assert not any(out.coordinates)
    assert not any(v for v in out.certificate.values)


def test_express_coboundary_with_certificate():
    A = make(3)
    rng = random.Random(17)
    values = []
    for _ in range(2):
        terms = {}
        for u in range(3):
            for v in range(3):
                c = rng.randint(-2, 2)
                if c:
                    terms[(u, v)] = A.field.from_int(c)
        values.append(A.element(terms))
    rho = Cochain(A, 1, values)
    image = hom_differential(A, 2).apply(rho.to_vector())
    coboundary = Cochain.from_vector(A, 2, image)
    out = express(A, coboundary)
    assert not any(out.coordinates)
    rebuilt = hom_differential(A, 2).apply(out.certificate.to_vector())
    assert rebuilt == {k: v for k, v in image.items() if v}


def test_express_rejects_non_cocycle():
    A = make(2)
    bad = Cochain(A, 2, [A.x(), A.zero(), A.zero()])
    with pytest.raises(NotCocycleError):
        express(A, bad)


@functools.lru_cache(maxsize=None)
def shared(a, backend):
    """One context per (a, backend), so its cached solvers see many inputs."""
    return make(a, backend)


def add_scaled(out, vec, c):
    for k, v in vec.items():
        nv = out.get(k, c * 0) + c * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, "cyclotomic"), (2, "prime"), (3, "cyclotomic"),
                     (3, "prime"), (5, "cyclotomic"), (5, "prime")]),
    st.sampled_from([0, 2, 4]),
    st.data(),
)
def test_express_round_trip(case, degree, data):
    """Named classes plus a coboundary come back as their coordinates + certificate."""
    A = shared(*case)
    F = A.field
    small = st.integers(-3, 3)
    basis = standard_basis(A, degree)
    coeffs = [F.from_int(data.draw(small)) for _ in basis]
    vec = {}
    for c, cls in zip(coeffs, basis):
        add_scaled(vec, cls.representative.to_vector(), c)
    if degree:
        delta = hom_differential(A, degree)
        support = data.draw(st.lists(st.integers(0, delta.cols - 1), max_size=8))
        rho = {j: F.from_int(data.draw(small)) for j in support}
        add_scaled(vec, delta.apply({j: v for j, v in rho.items() if v}), F.one())
    out = express(A, Cochain.from_vector(A, degree, vec))
    assert out.coordinates == coeffs
    rebuilt = {}
    for c, cls in zip(out.coordinates, basis):
        add_scaled(rebuilt, cls.representative.to_vector(), c)
    if degree:
        add_scaled(rebuilt, delta.apply(out.certificate.to_vector()), F.one())
    else:
        assert out.certificate is None
    assert rebuilt == vec
