
import pytest

from qci_hochschild.algebra import QuantumCompleteIntersection
from qci_hochschild.cohomology import Cochain, hom_differential
from qci_hochschild.linalg import SparseMatrix, add_term
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
    _linear_augmentation,
    _linear_differential,
    _simplified_a2_column,
    _simplified_a3_column,
    a2_band_elements,
    beta_element,
    compose,
    differential,
    preferred_variant,
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
        assert d1.get((0, 0)) == structure_element(A, TAU_Y, 0)
        assert d1.get((0, 1)) == structure_element(A, TAU_X, 0)
        assert not compose(d1, differential(A, 2))


def test_a2_sign_pattern():
    A = make(2)
    beta_y, beta_x, alpha_y, alpha_x = a2_band_elements(A)
    d2 = differential(A, 2, SIMPLIFIED_A2)
    assert d2.get((1, 1)) == -beta_y
    assert d2.get((0, 1)) == -beta_x
    assert d2.get((0, 0)) == beta_y
    d3 = differential(A, 3, SIMPLIFIED_A2)
    assert d3.get((0, 0)) == alpha_y
    assert d3.get((0, 1)) == alpha_x
    assert d3.get((1, 1)) == -alpha_y
    assert d3.get((1, 2)) == -alpha_x


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
        assert differential(A, n, GENERAL) == differential(A, n, variant)


@pytest.mark.parametrize("a", (2, 3, 4, 5, 6))
def test_preferred_variant_agrees_with_general_at_every_root(a):
    # q = zeta^k for every k, q = 1 included: q^a = 1 holds for each
    F = cyclotomic_field(a)
    for k in range(a):
        A = QuantumCompleteIntersection(a, F, q=F.root ** k)
        variant = preferred_variant(A)
        for n in range(1, 7):
            assert differential(A, n, variant) == differential(A, n, GENERAL), (k, n)


@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
@pytest.mark.parametrize("a", (2, 3, 4, 5, 6, 7))
def test_rewritten_columns_are_shared_per_parity(a, backend):
    A = make(a, backend)
    variant = preferred_variant(A)
    rewrite = _simplified_a2_column if variant == SIMPLIFIED_A2 else _simplified_a3_column
    band_elements = set()
    for n in range(1, 13):
        d = differential(A, n, variant)
        general = differential(A, n, GENERAL)
        assert d.keys() == general.keys(), n
        for (j, i), env in d.items():
            assert env == rewrite(A, n, i)[i - j] == general[(j, i)], (n, j, i)
            band_elements.add(id(env))
    # held by the cached differentials, so no id is reused
    assert len(band_elements) <= 8


def test_general_arguments_reduce_to_zero_or_one():
    # at a root of unity the general arguments collapse mod a onto 0 and 1,
    # matching the two-argument rewrite for every order including a = 2
    for a in (2, 3, 4, 5):
        A = make(a)
        for n in range(1, 11):
            d = differential(A, n, GENERAL)
            for i in range(n + 1):
                diag = d.get((i, i))
                sub = d.get((i - 1, i))
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
        assert not compose(differential(A, n - 1), differential(A, n)), (a, n)


def test_complex_property_generic_q():
    # the construction works for any nonzero q, not only roots of unity
    R = rational_field(2)
    A = QuantumCompleteIntersection(3, R, q=R.from_int(2))
    assert not A.is_root_of_unity
    for n in range(2, 8):
        assert not compose(differential(A, n - 1), differential(A, n))


def test_compose_and_pull_back_with_identity_maps():
    # the identity of P_n is the map with env_one on the diagonal
    A = make(3)
    d = differential(A, 3)
    identity = {(i, i): A.env_one() for i in range(4)}
    assert compose(d, identity) == d == compose({(k, k): A.env_one() for k in range(3)}, d)
    values = [A.x(), A.y(), A.one()]
    assert pull_back(values, {(j, j): A.env_one() for j in range(3)}, 3) == values
    # pulling a cochain back along d_3 is applying the transpose differential
    pulled = Cochain(A, 3, pull_back(values, d, 4))
    assert pulled.to_vector() == hom_differential(A, 3).apply(Cochain(A, 2, values).to_vector())
    assert pull_back([A.one()], differential(A, 1), 2) == [A.zero(), A.zero()]


def test_differential_is_a_shared_read_only_view():
    # a context caches d_n once, so a caller that changed it would change
    # every later build on that context
    A = make(3)
    d = differential(A, 3)
    assert differential(A, 3) is d
    with pytest.raises(TypeError):
        del d[(0, 0)]
    assert compose(differential(A, 2), d) == {}


def test_two_band_shape_and_minimality():
    for a in (2, 3, 4):
        A = make(a)
        for n in range(1, 11):
            d = differential(A, n)
            assert all(j in (i - 1, i) for j, i in d)
            assert all(env.in_radical() for env in d.values())


# -- augmentation -----------------------------------------------------------------

def test_augmentation_values():
    # the augmentation sends e f^0_0 to e . 1
    A = make(3)
    assert A.env_one().act(A.one()) == A.one()
    assert A.env_tensor((0, 1), (0, 0)).act(A.one()) == A.x()
    d1 = differential(A, 1)
    assert not d1.get((0, 0)).act(A.one())
    assert not d1.get((0, 1)).act(A.one())


def test_augmentation_linear_matrix():
    A = make(2)
    mu = _linear_augmentation(A)
    assert mu.rows == 4 and mu.cols == 16
    assert mu.rank() == 4  # surjective


# -- the tiled exactness matrices against per-entry references --------------------

def env_from_index(A, k):
    """The basis tensor of A (x) A^op with A.env_index equal to k."""
    hi, lo = divmod(k, A.dim)
    return (A.mono_from_index(hi), A.mono_from_index(lo))


def linear_differential_by_entries(A, n, d):
    """d_n as a k-linear matrix, one basis tensor w and band entry at a time."""
    dim = A.dim * A.dim
    entries = {}
    for i in range(n + 1):
        cols = [(j, d[j, i]) for j in (i - 1, i) if (j, i) in d]
        for w_index in range(dim):
            w = env_from_index(A, w_index)
            col = i * dim + w_index
            for j, env in cols:
                for tensor, c in env.terms.items():
                    hit = A.env_mono_mul(w, tensor)
                    if hit is None:
                        continue
                    scale, target = hit
                    add_term(entries, (j * dim + A.env_index(target), col), c * scale)
    return SparseMatrix(n * dim, (n + 1) * dim, entries, A.field)


def linear_augmentation_by_entries(A):
    """The augmentation w f^0_0 -> w . 1 as a k-linear matrix, tensor by tensor."""
    dim = A.dim * A.dim
    entries = {}
    for w_index in range(dim):
        hit = A.act_mono(env_from_index(A, w_index), (0, 0))
        if hit is None:
            continue
        scale, mono = hit
        entries[(A.mono_index(mono), w_index)] = scale
    return SparseMatrix(A.dim, dim, entries, A.field)


@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
@pytest.mark.parametrize("a", (2, 3, 4))
def test_tiled_exactness_matrices_equal_their_references(a, backend):
    A = make(a, backend)
    mu, want_mu = _linear_augmentation(A), linear_augmentation_by_entries(A)
    assert (mu.rows, mu.cols, mu.entries) == (want_mu.rows, want_mu.cols, want_mu.entries)
    for n in (1, 2, 3):
        d = differential(A, n)
        got, want = _linear_differential(A, n, d), linear_differential_by_entries(A, n, d)
        assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries), n


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
