import pytest

from qci_hochschild.algebra import EnvElement, QuantumCompleteIntersection
from qci_hochschild.cohomology import Cochain, CohomologyClass, standard_basis
from qci_hochschild.resolution import OrderError, beta_element
from qci_hochschild.scalars import cyclotomic_field, prime_field_for, rational_field
from qci_hochschild.yoneda import (
    NonScalarError,
    TableMismatchError,
    _correction_factors,
    build_lifting,
    nilpotency_witness,
    reduced_ring_table,
    relations_check,
    sum_identity_check,
    verify_lifting,
    yoneda_product,
)


def make(a, backend="cyclotomic"):
    field = cyclotomic_field(a) if backend == "cyclotomic" else prime_field_for(a)
    return QuantumCompleteIntersection(a, field)


def unit_values(A, degree, r):
    values = [A.field.zero()] * (degree + 1)
    values[r] = A.field.one()
    return values


def reference_lifting(A, values, s_max):
    """The per-a lifting loop the package ran before its one parity rule.

    Kept as an independent reference: a = 2 takes the bare convolution with
    a sign in odd levels, a >= 3 picks its factor by nested parity tests.
    """
    vals = [p.coefficient(0, 0) if hasattr(p, "is_scalar") else p for p in values]
    degree = len(vals) - 1
    one_env = A.env_one()
    if A.a >= 3:
        omega_plus = beta_element(A, "x", -1) * beta_element(A, "y", 1)
        eps_x = -beta_element(A, "x", 0)
        eps_y = -beta_element(A, "y", 0)
    maps = {}
    for s in range(s_max + 1):
        entries = {}
        for i in range(degree + s + 1):
            lo = max(0, i - degree)
            for j in range(lo, min(s, i) + 1):
                p = vals[i - j]
                if not p:
                    continue
                if A.a == 2:
                    if s % 2 == 1 and (i + j) % 2 == 1:
                        entries[(j, i)] = one_env.scale(-p)
                        continue
                    entries[(j, i)] = one_env.scale(p)
                else:
                    if s % 2 == 0:
                        factor = omega_plus if (i % 2 == 0 and j % 2 == 1) else one_env
                    else:
                        if i % 2 == 0:
                            factor = eps_x if j % 2 == 1 else one_env
                        else:
                            factor = eps_y if j % 2 == 0 else one_env
                    entries[(j, i)] = factor.scale(p)
        maps[s] = entries
    return maps


def compose_with_top(chi, xi):
    """The product cochain: chi composed with the reference's top map for xi."""
    A = chi.representative.algebra
    top = reference_lifting(A, xi.representative.values, chi.degree)[chi.degree]
    out = [A.zero() for _ in range(chi.degree + xi.degree + 1)]
    for (j, i), env in top.items():
        out[i] = out[i] + env.act(chi.representative.values[j])
    return out


# -- liftings -------------------------------------------------------------------

@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
@pytest.mark.parametrize("a", (2, 3, 4, 5))
def test_lifting_maps_equal_reference(a, backend):
    A = make(a, backend)
    for t in range(4):
        for r in range(2 * t + 1):
            values = unit_values(A, 2 * t, r)
            got = build_lifting(A, values, 6).maps
            want = reference_lifting(A, values, 6)
            assert got == want, (a, t, r)
            assert [list(m) for m in got.values()] == [list(m) for m in want.values()]
    values = [A.field.one(), A.q, A.field.zero(), A.q + A.field.one(), A.field.from_int(-2)]
    assert build_lifting(A, values, 6).maps == reference_lifting(A, values, 6)


def class_sum(c1, c2):
    values = [v1 + v2 for v1, v2 in zip(c1.representative.values, c2.representative.values)]
    return CohomologyClass(c1.degree, Cochain(c1.representative.algebra, c1.degree, values))


@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
@pytest.mark.parametrize("a", (2, 3, 4, 5))
def test_product_cochains_equal_reference_composition(a, backend):
    # the top lifting keeps only the rows where chi is nonzero; that must be
    # exact for every left factor: scalar, radical-valued (the eta classes)
    # and nonzero on several generators
    A = make(a, backend)
    for dm in range(0, 7, 2):
        basis = standard_basis(A, dm)
        lefts = list(basis)
        if dm:
            lefts += [class_sum(basis[0], basis[-1]), class_sum(basis[1], basis[dm])]
        for dt in range(0, 7 - dm, 2):
            for r in range(dt + 1):
                xi = standard_basis(A, dt)[r]
                for l, chi in enumerate(lefts):
                    cls, _ = yoneda_product(chi, xi)
                    assert cls.representative.values == compose_with_top(chi, xi), (dm, l, dt, r)


def test_correction_factors_built_once_per_context(monkeypatch):
    import qci_hochschild.yoneda as yo

    calls = []
    monkeypatch.setattr(yo, "beta_element", lambda *args: calls.append(args) or beta_element(*args))
    A = make(3)
    for degree in (0, 2, 4):
        build_lifting(A, unit_values(A, degree, 0), 4)
        yoneda_product(standard_basis(A, 2)[1], standard_basis(A, degree)[0])
    assert sorted(calls) == sorted([(A, "x", -1), (A, "y", 1), (A, "x", 0), (A, "y", 0)])
    build_lifting(make(3), unit_values(A, 2, 0), 2)
    assert len(calls) == 8  # a new context builds its own


@pytest.mark.parametrize("field", [rational_field(2), cyclotomic_field(2), prime_field_for(2)], ids=repr)
def test_correction_factors_at_a2_are_one_and_minus_one(field):
    # the beta elements are 1 (x) 1 at a = 2, so the one rule gives 1, -1, -1
    A = QuantumCompleteIntersection(2, field)
    one = A.env_one()
    assert _correction_factors(A) == {(0, 0, 1): one, (1, 0, 1): -one, (1, 1, 0): -one}


def test_each_distinct_pair_is_multiplied_once_per_check(monkeypatch):
    # the squares of one check share a product memo keyed by operand values
    A = make(3)
    families = [build_lifting(A, unit_values(A, 4, r), 6) for r in range(5)]
    multiply = EnvElement.__mul__
    pairs = []

    def counted(self, other):
        pairs.append((frozenset(self.terms.items()), frozenset(other.terms.items())))
        return multiply(self, other)

    monkeypatch.setattr(EnvElement, "__mul__", counted)
    for r, family in enumerate(families):
        pairs.clear()
        assert verify_lifting(family).ok
        assert pairs and len(pairs) == len(set(pairs)), (r, len(pairs), len(set(pairs)))


def test_lifting_of_identity_class_a2():
    A = make(2)
    family = build_lifting(A, unit_values(A, 0, 0), 4)
    for s in range(5):
        for i in range(s + 1):
            assert family.maps[s].get((i, i)) is not None
    assert verify_lifting(family).ok


def test_lifting_formula_even_level():
    # even levels and even columns carry the plain convolution coefficients;
    # odd columns in even rows acquire the omega factor
    A = make(3)
    vals = unit_values(A, 2, 1)
    family = build_lifting(A, vals, 2)
    omega = beta_element(A, "x", -1) * beta_element(A, "y", 1)
    assert family.maps[2].get((1, 2)) == omega  # i = 2 even, j = 1 odd, p_(i-j) = 1
    assert family.maps[2].get((0, 1)) == A.env_one()  # i = 1 odd: no factor
    assert family.maps[2].get((2, 3)) == A.env_one()  # i odd


@pytest.mark.parametrize("a", (2, 3, 4))
def test_lifting_squares_commute(a):
    A = make(a)
    for t in range(0, 4):
        for r in range(2 * t + 1):
            family = build_lifting(A, unit_values(A, 2 * t, r), 6)
            report = verify_lifting(family)
            assert report.ok, (a, t, r, report.failures())


def test_lifting_linear_combination():
    A = make(3)
    q = A.q
    values = [A.field.one(), q, A.field.one() + q, A.field.zero(), q ** 2]
    family = build_lifting(A, values, 5)
    assert verify_lifting(family).ok


def test_lifting_squares_prime_backend():
    A = make(3, backend="prime")
    family = build_lifting(A, unit_values(A, 2, 1), 4)
    assert verify_lifting(family).ok


def test_mutated_omega_fails():
    # dropping the first factor of omega breaks an even-level square
    A = make(3)
    family = build_lifting(
        A, unit_values(A, 2, 1), 4, _omega_plus=beta_element(A, "y", 1)
    )
    report = verify_lifting(family)
    assert not report.ok
    failing = [name for name, _ in report.failures()]
    assert any(name.startswith("square at s=2") or name.startswith("square at s=4")
               for name in failing)


def test_wrong_eps_x_weight_fails():
    # the odd-level x correction must be the s = 0 weighting; the s = 1
    # weighting breaks the squares
    A = make(3)
    family = build_lifting(
        A, unit_values(A, 2, 1), 4, _eps_x=-beta_element(A, "x", 1)
    )
    assert not verify_lifting(family).ok


@pytest.mark.parametrize("a", (3, 4, 5))
def test_wrong_eps_y_weight_fails(a):
    # the odd-level y correction must be the s = 0 weighting as well
    A = make(a)
    family = build_lifting(A, unit_values(A, 2, 1), 4, _eps_y=-beta_element(A, "y", 1))
    report = verify_lifting(family)
    assert not report.status("square at s=1")
    assert verify_lifting(build_lifting(A, unit_values(A, 2, 1), 4)).ok


def test_hooks_replace_factors_at_a2():
    # the a = 2 factors are 1, -1, -1; swapping the eps signs breaks s = 1
    A = make(2)
    one = A.env_one()
    family = build_lifting(A, unit_values(A, 2, 1), 2, _eps_x=one, _eps_y=one)
    assert not verify_lifting(family).status("square at s=1")


def test_non_scalar_values_rejected():
    A = make(3)
    values = [A.one(), A.x(), A.one()]
    with pytest.raises(NonScalarError):
        build_lifting(A, values, 2)


def test_non_scalar_class_rejected_in_product():
    A = make(3)
    basis = standard_basis(A, 2)
    eta = next(cls for cls in basis if cls.label.startswith("eta"))
    zeta = basis[0]
    with pytest.raises(NonScalarError):
        yoneda_product(zeta, eta)


def test_odd_degree_factor_rejected_in_product():
    A = make(3)
    one = A.one()
    xi = CohomologyClass(degree=1, representative=Cochain(A, 1, [one, one]))
    with pytest.raises(ValueError, match="even-degree"):
        yoneda_product(standard_basis(A, 2)[0], xi)
    with pytest.raises(ValueError, match="even-degree"):
        build_lifting(A, [one, one], 2)


# -- products --------------------------------------------------------------------

def test_products_a2_are_additive():
    A = make(2)
    for deg1, i in ((2, 0), (2, 1), (4, 3)):
        for deg2, j in ((2, 1), (2, 2), (4, 0)):
            left = standard_basis(A, deg1)[i]
            right = standard_basis(A, deg2)[j]
            cls, coords = yoneda_product(left, right)
            assert cls.label == f"xi_{i + j}"
            hits = [k for k, c in enumerate(coords) if c]
            assert hits == [i + j]


def test_product_a2_square_of_middle_generator():
    A = make(2)
    xi1 = standard_basis(A, 2)[1]
    cls, _ = yoneda_product(xi1, xi1)
    assert cls.label == "xi_2" and cls.degree == 4


def test_products_a3_odd_odd_vanish():
    A = make(3)
    z1 = standard_basis(A, 2)[1]
    cls, coords = yoneda_product(z1, z1)
    assert cls.label == "0"
    assert not any(coords)
    z3 = standard_basis(A, 4)[3]
    cls2, _ = yoneda_product(z1, z3)
    assert cls2.label == "0"


def test_products_a3_mixed_parities():
    A = make(3)
    z1 = standard_basis(A, 2)[1]
    z2 = standard_basis(A, 4)[2]
    cls, _ = yoneda_product(z1, z2)
    assert cls.label == "zeta_3" and cls.degree == 6


def test_identity_class_is_neutral():
    for a in (2, 3):
        A = make(a)
        one = standard_basis(A, 0)[0]
        for cls in standard_basis(A, 4)[:5]:
            left, coords = yoneda_product(one, cls)
            assert left.label == cls.label
            right, _ = yoneda_product(cls, one)
            assert right.label == cls.label


def test_product_commutes_even_part():
    A = make(3)
    z1 = standard_basis(A, 2)[1]
    z2 = standard_basis(A, 2)[2]
    c1, coords1 = yoneda_product(z1, z2)
    c2, coords2 = yoneda_product(z2, z1)
    assert coords1 == coords2


# -- relations ---------------------------------------------------------------------

@pytest.mark.parametrize("a", range(3, 9))
def test_relations_hold(a):
    report = relations_check(make(a))
    assert report.ok, report.failures()


@pytest.mark.parametrize("a", range(3, 9))
def test_relations_hold_prime_backend(a):
    report = relations_check(make(a, backend="prime"))
    assert report.ok, report.failures()


def test_relations_fail_at_degenerate_q():
    Q1 = rational_field(1)
    A = QuantumCompleteIntersection(3, Q1, q=Q1.one())
    report = relations_check(A)
    assert not report.status("a")
    assert not report.ok


def test_relations_need_a3():
    with pytest.raises(OrderError):
        relations_check(make(2))


@pytest.mark.parametrize("a", range(3, 13))
def test_sum_identity(a):
    assert sum_identity_check(make(a))


def test_sum_identity_negative_and_precondition():
    Q1 = rational_field(1)
    assert not sum_identity_check(QuantumCompleteIntersection(3, Q1, q=Q1.one()))
    with pytest.raises(OrderError):
        sum_identity_check(make(2))


def test_omega_kills_unit_for_odd_columns():
    # the mechanism behind odd times odd = 0
    for a in (3, 4, 5):
        A = make(a)
        omega = beta_element(A, "x", -1) * beta_element(A, "y", 1)
        assert not omega.act(A.one())


# -- tables -------------------------------------------------------------------------

def test_table_a2():
    A = make(2)
    table = reduced_ring_table(A, 8)
    assert "odd-index part equals even-index part times xi_1^2" in table.checked
    assert table.cells[(2, 1, 2, 1)] == {"degree": 4, "index": 2}
    assert table.cells[(4, 3, 4, 4)] == {"degree": 8, "index": 7}


def test_table_a3():
    A = make(3)
    table = reduced_ring_table(A, 8)
    assert table.cells[(2, 1, 4, 3)] is None      # odd times odd
    assert table.cells[(2, 1, 4, 2)] == {"degree": 6, "index": 3}
    assert "associativity" in table.checked
    assert "polynomial ring structure constants on the even-index part" in table.checked


def test_table_detects_mutation():
    A = make(3)
    import qci_hochschild.yoneda as yo

    original = yo.yoneda_product

    def corrupted(chi, xi):
        cls, coords = original(chi, xi)
        if chi.degree == 2 and xi.degree == 2:
            coords = list(coords)
            coords[0] = coords[0] + A.field.one()
        return cls, coords

    yo.yoneda_product = corrupted
    try:
        with pytest.raises(TableMismatchError):
            reduced_ring_table(A, 4)
    finally:
        yo.yoneda_product = original


def test_table_json_shape():
    table = reduced_ring_table(make(2), 4)
    obj = table.to_json_obj()
    assert obj["schema"] == "qci-hochschild/1"
    assert all("left" in cell and "product" in cell for cell in obj["cells"])


# -- nilpotency certificates ----------------------------------------------------------

def test_nilpotency_witness():
    A = make(3)
    basis = standard_basis(A, 4)
    for cls in basis:
        cert = nilpotency_witness(cls)
        if cls.label.startswith("eta"):
            assert cert.valid
        if cls.label.startswith("zeta"):
            assert not cert.valid


def test_nilpotency_witness_all_eta_up_to_degree8():
    for a in (3, 4):
        A = make(a)
        for degree in (0, 2, 4, 6, 8):
            for cls in standard_basis(A, degree):
                if cls.label.startswith("eta"):
                    assert nilpotency_witness(cls).valid
