import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild.algebra import (
    MixedContextError,
    QuantumCompleteIntersection,
    center_basis,
    element_from_text,
    element_to_text,
    env_from_text,
    frobenius_verify,
    nakayama_twist,
    trace_form,
)
from qci_hochschild.cohomology import hh_dimension_ext
from qci_hochschild.resolution import (
    GAMMA_X,
    beta_element,
    differential,
    structure_element,
    verify_resolution,
)
from qci_hochschild.scalars import cyclotomic_field, prime_field_for, rational_field


def make(a, backend="cyclotomic"):
    field = cyclotomic_field(a) if backend == "cyclotomic" else prime_field_for(a)
    return QuantumCompleteIntersection(a, field)


@pytest.mark.parametrize("field", [rational_field(2), cyclotomic_field(3), prime_field_for(3)], ids=repr)
@pytest.mark.parametrize(
    "q, name",
    [(Fraction(1, 2), "Fraction"), (0.5, "float"), (cyclotomic_field(2).one(), "CyclotomicScalar")],
)
def test_q_must_be_an_int_or_a_scalar_of_the_field(field, q, name):
    with pytest.raises(TypeError, match=f"not {name}$"):
        QuantumCompleteIntersection(3, field, q=q)


# -- independent rewriting oracle --------------------------------------------
# words in the free algebra are strings of 'x'/'y'; reduce by pushing every x
# leftwards past y one letter at a time, tracking the q power, and kill a-th
# powers at the end.

def word_normal_form(A, word):
    word = list(word)
    power = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == "x" and word[i + 1] == "y":
                word[i], word[i + 1] = "y", "x"
                power += 1
                changed = True
                break
    u = word.count("y")
    v = word.count("x")
    if u >= A.a or v >= A.a:
        return A.zero()
    return A.monomial(u, v, A.q_power(power))


def mono_word(m):
    u, v = m
    return "y" * u + "x" * v


@pytest.mark.parametrize("a", (2, 3, 4))
def test_multiply_against_rewriting_oracle(a):
    A = make(a)
    rng = random.Random(a)
    for _ in range(60):
        m1 = (rng.randrange(a), rng.randrange(a))
        m2 = (rng.randrange(a), rng.randrange(a))
        direct = A.monomial(*m1) * A.monomial(*m2)
        oracle = word_normal_form(A, mono_word(m1) + mono_word(m2))
        assert direct == oracle, (m1, m2)


def test_defining_relations():
    for a in (2, 3, 5):
        A = make(a)
        x, y = A.x(), A.y()
        assert x * y == (y * x).scale(A.q)
        assert not A.xpow(a - 1) * x
        assert not A.ypow(a - 1) * y


def test_yx_squared():
    A = make(3)
    yx = A.y() * A.x()
    assert yx * yx == A.monomial(2, 2, A.q)


@pytest.mark.parametrize("a", (2, 3, 4, 5))
def test_multiply_associative_exhaustive(a):
    A = make(a)
    monos = [A.monomial(u, v) for u in range(a) for v in range(a)]
    if a <= 3:
        triples = itertools.product(monos, repeat=3)
    else:
        rng = random.Random(a)
        triples = (
            (rng.choice(monos), rng.choice(monos), rng.choice(monos))
            for _ in range(400)
        )
    for p, q, r in triples:
        assert (p * q) * r == p * (q * r)


def test_context_memo_builds_once_and_stores_no_failed_build():
    A = make(3)
    calls = []

    def failing():
        calls.append("fail")
        raise ArithmeticError("build failed")

    with pytest.raises(ArithmeticError):
        A.cached(("probe",), failing)
    assert ("probe",) not in A._cache
    built = A.cached(("probe",), lambda: calls.append("build") or [1])
    assert A.cached(("probe",), lambda: calls.append("again")) is built
    assert calls == ["fail", "build"]  # the next call after a failure builds again


@pytest.mark.parametrize("kind", ("action_block", "product_block"))
def test_blocks_are_shared_read_only_views(kind):
    # a context caches one block per element value, so a caller that changed
    # one would change every later matrix tiled from it on that context
    A = make(3)
    env = differential(A, 3)[(0, 0)]
    block = getattr(A, kind)(env)
    assert getattr(A, kind)(env) is block
    with pytest.raises(TypeError):
        block[next(iter(block))] = A.field.zero()
    assert hh_dimension_ext(A, 2) == 6
    assert verify_resolution(A, 3).ok


def test_mixed_context_rejected():
    A = make(3)
    B = make(3, backend="prime")
    with pytest.raises(MixedContextError):
        A.x() * B.x()
    with pytest.raises(MixedContextError):
        A.env_one().act(B.one())


def test_sum_of_algebra_and_env_elements_rejected():
    # a sum across the two types would hold keys of the wrong shape
    A = make(3)
    with pytest.raises(TypeError, match="AlgebraElement and EnvElement"):
        A.one() + A.env_one()
    with pytest.raises(TypeError, match="EnvElement and AlgebraElement"):
        A.env_one() - A.x()


# -- enveloping algebra -------------------------------------------------------

def op_product_oracle(A, m1, m2):
    """Oracle for the opposite algebra: m1 * m2 there is m2 m1 here."""
    return word_normal_form(A, mono_word(m2) + mono_word(m1))


@pytest.mark.parametrize("a", (2, 3, 4))
def test_env_multiply_against_oracle(a):
    A = make(a)
    rng = random.Random(10 * a)
    for _ in range(40):
        t1 = ((rng.randrange(a), rng.randrange(a)), (rng.randrange(a), rng.randrange(a)))
        t2 = ((rng.randrange(a), rng.randrange(a)), (rng.randrange(a), rng.randrange(a)))
        direct = A.env_tensor(*t1) * A.env_tensor(*t2)
        left = word_normal_form(A, mono_word(t1[0]) + mono_word(t2[0]))
        right = op_product_oracle(A, t1[1], t2[1])
        expected = A.env_zero()
        for ml, cl in left.terms.items():
            for mr, cr in right.terms.items():
                expected = expected + A.env_tensor(ml, mr, cl * cr)
        assert direct == expected, (t1, t2)


def test_env_one_x_times_one_y():
    # (1 (x) x)(1 (x) y) = q^(-1) (1 (x) xy-normal-form)
    A = make(3)
    lhs = A.env_tensor((0, 0), (0, 1)) * A.env_tensor((0, 0), (1, 0))
    xy = A.x() * A.y()
    rhs = A.env_zero()
    for m, c in xy.terms.items():
        rhs = rhs + A.env_tensor((0, 0), m, c * A.q ** -1)
    assert lhs == rhs
    # left factors multiply plainly in A
    lhs2 = A.env_tensor((0, 1), (0, 0)) * A.env_tensor((1, 0), (0, 0))
    assert lhs2 == A.env_tensor((1, 1), (0, 0), A.q)


def test_env_identity_element():
    A = make(4)
    e = A.env_tensor((1, 2), (2, 0), A.q)
    assert A.env_one() * e == e
    assert e * A.env_one() == e


@pytest.mark.parametrize("a", (2, 3))
def test_env_associativity_and_action_exhaustive(a):
    A = make(a)
    tensors = [
        A.env_tensor(m1, m2)
        for m1 in A.monomials()
        for m2 in A.monomials()
    ]
    rng = random.Random(3)
    pool = tensors if a == 2 else [rng.choice(tensors) for _ in range(24)]
    for e1 in pool:
        for e2 in pool:
            assert (e1 * e2).act(A.one()) == e1.act(e2.act(A.one()))
    monos = [A.monomial(u, v) for u in range(a) for v in range(a)]
    for e1 in pool[: 12 if a == 3 else len(pool)]:
        for e2 in pool[: 12 if a == 3 else len(pool)]:
            for m in monos:
                assert (e1 * e2).act(m) == e1.act(e2.act(m))


def test_bimodule_action_examples():
    for a in (3, 4, 5):
        A = make(a)
        one = A.one()
        alpha_y = A.env_tensor((0, 0), (1, 0)) - A.env_tensor((1, 0), (0, 0))
        alpha_x = A.env_tensor((0, 0), (0, 1)) - A.env_tensor((0, 1), (0, 0))
        assert not alpha_y.act(one)
        assert not alpha_x.act(one)
        # the full-length x band sums a complete geometric series on 1
        assert not structure_element(A, GAMMA_X, 1).act(one)
        # the weighted band vanishes on 1 through the c-sum identity
        assert not beta_element(A, "y", 1).act(one)


def test_center_basis_small_orders():
    for a in range(2, 7):
        A = make(a)
        basis = center_basis(A)
        assert len(basis) == 2
        assert basis[0] == A.one()
        assert basis[1] == A.monomial(a - 1, a - 1)
        monos = [A.monomial(u, v) for u in range(a) for v in range(a)]
        for z in basis:
            for m in monos:
                assert z * m == m * z


def test_center_a2_brute_force_patterns():
    # enumerate all 16 zero-one coefficient patterns over the 4 monomials
    A = make(2)
    monos = [(0, 0), (0, 1), (1, 0), (1, 1)]
    gens = [A.x(), A.y()]
    central = []
    for bits in itertools.product((0, 1), repeat=4):
        z = A.element(
            {m: A.field.from_int(b) for m, b in zip(monos, bits) if b}
        )
        if all(z * g == g * z for g in gens):
            central.append(bits)
    # exactly the span of 1 and yx intersected with the patterns: 1, yx,
    # 1 + yx and 0
    assert sorted(central) == [
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (1, 0, 0, 1),
    ]


def test_radical_membership():
    A = make(4)
    assert A.x().in_radical()
    assert not (A.one() + A.x()).in_radical()
    assert (A.xpow(3) * A.ypow(3)).in_radical()


def test_unit_not_in_two_sided_ideal_of_generators():
    # the span of products m1 g m2 over g in {x, y} misses the unit, so the
    # algebra is local and the radical is the non-unit span
    A = make(3)
    seen = set()
    for g in (A.x(), A.y()):
        for m1 in A.monomials():
            for m2 in A.monomials():
                prod = A.monomial(*m1) * g * A.monomial(*m2)
                seen.update(prod.terms)
    assert (0, 0) not in seen


def test_socle_is_corner_monomial():
    A = make(3)
    socle = A.monomial(A.a - 1, A.a - 1)
    for m in A.monomials():
        if m == (0, 0):
            continue
        assert not socle * A.monomial(*m)
        assert not A.monomial(*m) * socle


# -- Frobenius structure ------------------------------------------------------

def test_frobenius_twist_images_a2():
    A = make(2)
    data = frobenius_verify(A)
    assert data.nu_x == A.x().scale(A.field.from_int(-1))
    assert data.nu_y == A.y().scale(A.field.from_int(-1))
    assert data.first_identity_holds  # both identities coincide at a = 2
    assert data.second_identity_holds


def test_frobenius_twist_respects_commutation():
    for a in (2, 3, 5):
        A = make(a)
        nx = nakayama_twist(A, A.x())
        ny = nakayama_twist(A, A.y())
        assert nx * ny == (ny * nx).scale(A.q)


def test_frobenius_convention_pinned():
    A = make(2)
    eps_xy = trace_form(A, A.x() * A.y())
    eps_twisted = trace_form(A, A.y() * nakayama_twist(A, A.x()))
    assert eps_xy == A.field.from_int(-1)
    assert eps_twisted == eps_xy
    for a in (3, 4, 5):
        B = make(a)
        data = frobenius_verify(B)
        assert data.second_identity_holds
        assert not data.first_identity_holds
        assert data.convention == "second"


def test_frobenius_twist_scaling():
    for a in (3, 4):
        A = make(a)
        assert nakayama_twist(A, A.x()) == A.x().scale(A.q ** (1 - a))
        assert nakayama_twist(A, A.y()) == A.y().scale(A.q ** (a - 1))


def test_frobenius_data_carries_form_and_twist():
    A = make(3)
    data = frobenius_verify(A)
    m1 = A.monomial(1, 2)
    m2 = A.monomial(1, 0)
    assert trace_form(A, m1 * m2) == trace_form(A, nakayama_twist(A, m2) * m1)
    assert nakayama_twist(A, A.x()) == data.nu_x


# -- text format ---------------------------------------------------------------

@pytest.mark.parametrize("backend", ("cyclotomic", "prime"))
def test_element_text_round_trip(backend):
    rng = random.Random(42)
    for a in (2, 3, 5):
        A = make(a, backend)
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                m = (rng.randrange(a), rng.randrange(a))
                c = rng.randint(-6, 6)
                if c:
                    terms[m] = A.field.from_int(c) * A.q_power(rng.randrange(a))
            elt = A.element(terms)
            assert element_from_text(A, element_to_text(elt)) == elt


def test_env_text_round_trip():
    A = make(3)
    e = (
        A.env_tensor((0, 1), (1, 0), A.q)
        + A.env_tensor((2, 0), (0, 2))
        + A.env_one().scale(A.field.from_int(-2))
    )
    assert env_from_text(A, element_to_text(e)) == e
    assert element_to_text(A.env_zero()) == "0"
    assert env_from_text(A, "0") == A.env_zero()


CONTEXTS = {(a, backend): make(a, backend) for a in (2, 3, 5) for backend in ("cyclotomic", "prime")}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_env_text_round_trip_property(data):
    A = CONTEXTS[data.draw(st.sampled_from(sorted(CONTEXTS)), label="context")]
    mono = st.tuples(st.integers(0, A.a - 1), st.integers(0, A.a - 1))
    raw = data.draw(
        st.dictionaries(
            st.tuples(mono, mono),
            st.tuples(st.integers(-6, 6), st.integers(0, A.a - 1)),
            max_size=6,
        ),
        label="terms",
    )
    e = A.env({t: A.field.from_int(c) * A.q_power(k) for t, (c, k) in raw.items()})
    text = element_to_text(e)
    assert env_from_text(A, text) == e
    assert element_to_text(env_from_text(A, text)) == text


MALFORMED_ELEMENT_TERMS = [
    ("cyclotomic", "1 * y^3 x^0", "exponent outside 0..2"),  # not in normal form: y^3 = 0
    ("cyclotomic", "1 * y^1 x^-1", "is not 'c * y^u x^v'"),
    ("cyclotomic", "1 * z^0 q^1", "is not 'c * y^u x^v'"),  # used to parse as x
    ("cyclotomic", "y^0 x^1", "is not 'c * y^u x^v'"),
    ("cyclotomic", "1 * y^0 x^0 (x) y^0 x^0", "is not 'c * y^u x^v'"),
    ("cyclotomic", "2 * y^1 x^1", "repeats an earlier monomial"),  # used to keep only the last
    ("rational", "1/0 * y^0 x^0", "malformed coefficient"),  # used to raise ZeroDivisionError
    ("rational", "(1*z) * y^0 x^0", "malformed coefficient"),  # used to parse as -1
    ("rational", "1*z * y^0 x^0", "malformed coefficient"),
    ("rational", "(1 + 1*z^2) * y^0 x^0", "malformed coefficient"),  # used to parse as 2
    ("prime", "1/2 * y^0 x^0", "malformed coefficient"),
]


@pytest.mark.parametrize(
    "backend, text, problem",
    MALFORMED_ELEMENT_TERMS,
    ids=[f"{text}-{problem}" for _, text, problem in MALFORMED_ELEMENT_TERMS],
)
def test_element_text_rejects_malformed_terms(backend, text, problem):
    A = QuantumCompleteIntersection(2, rational_field(2)) if backend == "rational" else make(3, backend)
    with pytest.raises(ValueError, match=re.escape(f"term {text!r} ") + ".*" + re.escape(problem)):
        element_from_text(A, "1 * y^1 x^1 + " + text)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("1 * y^0 x^3 (x) y^0 x^0", "exponent outside 0..2"),
        ("1 * y^0 x^0 (x) y^-1 x^0", "is not 'c * y^u x^v (x) y^u x^v'"),
        ("1 * y^0 x^0 (x) z^0 q^1", "is not 'c * y^u x^v (x) y^u x^v'"),
        ("1 * y^1 x^0", "is not 'c * y^u x^v (x) y^u x^v'"),
    ],
)
def test_env_text_rejects_malformed_terms(text, problem):
    A = make(3)
    with pytest.raises(ValueError, match=re.escape(f"term {text!r} ") + ".*" + re.escape(problem)):
        env_from_text(A, text)


def test_rational_scalar_text_in_elements():
    R = rational_field(2)
    A = QuantumCompleteIntersection(2, R)
    elt = A.element({(0, 0): R.from_int(-2) / 3, (1, 1): R.from_int(5)})
    text = element_to_text(elt)
    assert text == "-2/3 * y^0 x^0 + 5 * y^1 x^1"
    assert element_from_text(A, text) == elt
