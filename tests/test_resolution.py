
import pytest

from qci_hochschild.algebra import QuantumCompleteIntersection, env_to_text
from qci_hochschild.cohomology import Cochain, hom_differential
from qci_hochschild.resolution import (
    GAMMA_X,
    GAMMA_Y,
    GENERAL,
    SIMPLIFIED_A2,
    SIMPLIFIED_A3,
    TAU_X,
    TAU_Y,
    OrderError,
    VariantError,
    a2_band_elements,
    augmentation,
    beta_element,
    compose,
    differential,
    pull_back,
    structure_element,
    verify_resolution,
)
from qci_hochschild.scalars import cyclotomic_field, prime_field_for, rational_field


def make(a, backend="cyclotomic"):
    field = cyclotomic_field(a) if backend == "cyclotomic" else prime_field_for(a)
    return QuantumCompleteIntersection(a, field)


# -- structure elements ---------------------------------------------------------

def test_tau_y_at_zero():
    A = make(3)
    expected = A.env_tensor((0, 0), (1, 0)) - A.env_tensor((1, 0), (0, 0))
    assert structure_element(A, TAU_Y, 0) == expected


def test_gamma_specializes_to_a2_beta():
    A = make(2)
    beta_y, beta_x, _, _ = a2_band_elements(A)
    for s in (0, 2, 4):
        assert structure_element(A, GAMMA_Y, s) == beta_y
        assert structure_element(A, GAMMA_X, s) == beta_x


def test_gamma_term_count_and_radical():
    for a in (2, 3, 5):
        A = make(a)
        for s in (-1, 0, 1, 2):
            gx = structure_element(A, GAMMA_X, s)
            gy = structure_element(A, GAMMA_Y, s)
            assert len(gx.terms) == a
            assert len(gy.terms) == a
            assert gx.in_radical() and gy.in_radical()


def test_structure_element_period():
    A = make(4)
    for kind in (TAU_X, TAU_Y, GAMMA_X, GAMMA_Y):
        assert structure_element(A, kind, 1) == structure_element(A, kind, 5)
        assert structure_element(A, kind, -1) == structure_element(A, kind, 3)


def test_beta_unrolled_a3():
    A = make(3)
    q = A.q
    got = beta_element(A, "x", 0)
    expected = A.env_tensor((0, 1), (0, 0)) + A.env_tensor(
        (0, 0), (0, 1), A.field.one() + q
    )
    assert got == expected


def test_beta_term_count_and_order_error():
    for a in (3, 4, 6):
        A = make(a)
        assert len(beta_element(A, "x", 1).terms) == a - 1
        assert len(beta_element(A, "y", -1).terms) == a - 1
    with pytest.raises(OrderError):
        beta_element(make(2), "x", 0)


def test_beta_y_kills_unit():
    for a in (3, 4, 5, 6):
        A = make(a)
        assert not beta_element(A, "y", 1).act(A.one())


# -- differentials ----------------------------------------------------------------

def test_degree_one_columns():
    # the convention drops out-of-range generators, leaving tau_y(0) and
    # tau_x(0); composing with degree 2 confirms the reading
    for a in (2, 3, 4):
        A = make(a)
        d1 = differential(A, 1)
        assert d1.entry(0, 0) == structure_element(A, TAU_Y, 0)
        assert d1.entry(0, 1) == structure_element(A, TAU_X, 0)
        assert not compose(d1.entries, differential(A, 2).entries)


def test_a2_sign_pattern():
    A = make(2)
    beta_y, beta_x, alpha_y, alpha_x = a2_band_elements(A)
    d2 = differential(A, 2, SIMPLIFIED_A2)
    assert d2.entry(1, 1) == -beta_y
    assert d2.entry(0, 1) == -beta_x
    assert d2.entry(0, 0) == beta_y
    d3 = differential(A, 3, SIMPLIFIED_A2)
    assert d3.entry(0, 0) == alpha_y
    assert d3.entry(0, 1) == alpha_x
    assert d3.entry(1, 1) == -alpha_y
    assert d3.entry(1, 2) == -alpha_x


def test_variant_preconditions():
    with pytest.raises(VariantError):
        differential(make(3), 2, SIMPLIFIED_A2)
    with pytest.raises(VariantError):
        differential(make(2), 2, SIMPLIFIED_A3)
    with pytest.raises(VariantError):
        differential(make(2), 2, "nonsense")


@pytest.mark.parametrize("a", (2, 3, 4, 5, 6))
def test_variants_agree_entrywise(a):
    A = make(a)
    variant = SIMPLIFIED_A2 if a == 2 else SIMPLIFIED_A3
    for n in range(1, 13):
        assert differential(A, n, GENERAL).entries == differential(A, n, variant).entries


def test_general_arguments_reduce_to_zero_or_one():
    # at a root of unity the general arguments collapse mod a onto 0 and 1,
    # matching the two-argument rewrite for every order including a = 2
    for a in (2, 3, 4, 5):
        A = make(a)
        for n in range(1, 11):
            d = differential(A, n, GENERAL)
            for i in range(n + 1):
                diag = d.entry(i, i)
                sub = d.entry(i - 1, i)
                if n % 2 == 0:
                    want_diag = (
                        structure_element(A, GAMMA_Y, 0)
                        if i % 2 == 0
                        else -structure_element(A, TAU_Y, 1)
                    )
                    want_sub = (
                        structure_element(A, GAMMA_X, 0)
                        if i % 2 == 0
                        else structure_element(A, TAU_X, 1)
                    )
                else:
                    want_diag = (
                        structure_element(A, TAU_Y, 0)
                        if i % 2 == 0
                        else -structure_element(A, GAMMA_Y, 1)
                    )
                    want_sub = (
                        structure_element(A, GAMMA_X, 1)
                        if i % 2 == 0
                        else structure_element(A, TAU_X, 0)
                    )
                if diag is not None:
                    assert diag == want_diag, (a, n, i)
                if sub is not None:
                    assert sub == want_sub, (a, n, i)


@pytest.mark.parametrize("a", (2, 3, 4, 5, 6))
def test_complex_property(a):
    A = make(a)
    for n in range(2, 13):
        assert not compose(differential(A, n - 1).entries, differential(A, n).entries), (a, n)


def test_complex_property_generic_q():
    # the construction works for any nonzero q, not only roots of unity
    R = rational_field(2)
    A = QuantumCompleteIntersection(3, R, q=R.from_int(2))
    assert not A.is_root_of_unity
    for n in range(2, 8):
        assert not compose(differential(A, n - 1).entries, differential(A, n).entries)


def test_compose_and_pull_back_with_identity_maps():
    # the identity of P_n is the map with env_one on the diagonal
    A = make(3)
    d = differential(A, 3).entries
    identity = {(i, i): A.env_one() for i in range(4)}
    assert compose(d, identity) == d == compose({(k, k): A.env_one() for k in range(3)}, d)
    values = [A.x(), A.y(), A.one()]
    assert pull_back(values, {(j, j): A.env_one() for j in range(3)}, 3) == values
    # pulling a cochain back along d_3 is applying the transpose differential
    pulled = Cochain(A, 3, pull_back(values, d, 4))
    assert pulled.to_vector() == hom_differential(A, 3).apply(Cochain(A, 2, values).to_vector())
    assert pull_back([A.one()], differential(A, 1).entries, 2) == [A.zero(), A.zero()]


def test_two_band_shape_and_minimality():
    for a in (2, 3, 4):
        A = make(a)
        for n in range(1, 11):
            d = differential(A, n)
            assert d.two_band_ok()
            assert d.is_minimal()


# -- augmentation -----------------------------------------------------------------

def test_augmentation_values():
    # the augmentation sends e f^0_0 to e . 1
    A = make(3)
    assert A.env_one().act(A.one()) == A.one()
    assert A.env_tensor((0, 1), (0, 0)).act(A.one()) == A.x()
    d1 = differential(A, 1)
    assert not d1.entry(0, 0).act(A.one())
    assert not d1.entry(0, 1).act(A.one())


def test_augmentation_linear_matrix():
    A = make(2)
    mu = augmentation(A).as_linear_matrix()
    assert mu.rows == 4 and mu.cols == 16
    assert mu.rank() == 4  # surjective


# -- full verification --------------------------------------------------------------

def test_verify_resolution_a2():
    report = verify_resolution(make(2), 8)
    assert report.ok, report.failures()


def test_verify_resolution_a3():
    report = verify_resolution(make(3), 6)
    assert report.ok, report.failures()


def test_verify_resolution_prime_backend():
    report = verify_resolution(make(3, backend="prime"), 6)
    assert report.ok, report.failures()


def test_verify_reports_content():
    report = verify_resolution(make(2), 4)
    names = [name for name, _, _ in report.checks]
    assert any("exactness at P_0" in n for n in names)
    assert any("d.d = 0" in n for n in names)
    assert any("minimality" in n for n in names)
