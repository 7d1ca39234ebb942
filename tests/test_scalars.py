import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci_hochschild import cli, scalars
from qci_hochschild.scalars import (
    PRIMALITY_BOUND,
    CyclotomicScalar,
    NoRootError,
    _FieldScalar,
    _is_prime,
    c_sequence,
    cyclotomic_field,
    cyclotomic_polynomial,
    k_sum,
    prime_field,
    prime_field_for,
    rational_field,
    smallest_prime_modulus,
    smallest_root_of_unity,
)


# -- independent polynomial oracle for cyclotomic tests ----------------------

def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_div(num, den):
    """Exact division oracle, written independently of the implementation."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = Fraction(num[k + len(den) - 1], den[-1])
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert not any(num), "division was not exact"
    return quot


def reduce_mod(poly, phi):
    """Remainder of poly modulo the monic phi, padded to deg(phi) Fractions."""
    d = len(phi) - 1
    rem = [Fraction(c) for c in poly]
    while len(rem) > d:
        # t^m = t^(m-d) * t^d and t^d = -(phi_0 + ... + phi_(d-1) t^(d-1))
        top = rem.pop()
        for j in range(d):
            rem[len(rem) - d + j] -= top * phi[j]
    return rem + [Fraction(0)] * (d - len(rem))


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_polynomial_order6_against_division_oracle():
    # divide t^6 - 1 by Phi_1 Phi_2 Phi_3 and compare
    t6_minus_1 = [-1, 0, 0, 0, 0, 0, 1]
    den = poly_mul(
        poly_mul(list(cyclotomic_polynomial(1)), list(cyclotomic_polynomial(2))),
        list(cyclotomic_polynomial(3)),
    )
    oracle = poly_div(t6_minus_1, den)
    assert tuple(oracle) == tuple(Fraction(c) for c in cyclotomic_polynomial(6))
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("a", range(1, 25))
def test_cyclotomic_product_recovers_t_a_minus_1(a):
    prod = [1]
    for d in range(1, a + 1):
        if a % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (a - 1) + [1]
    assert prod == expected


def assert_canonical(s):
    F = s.field
    assert type(s.coeffs) is tuple and len(s.coeffs) == F.degree
    assert all(type(c) is Fraction for c in s.coeffs), s.coeffs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cyclotomic_core_against_oracle(data):
    a = data.draw(st.integers(1, 12), label="a")
    F = cyclotomic_field(a)
    phi = cyclotomic_polynomial(a)
    coeffs = st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=F.degree,
        max_size=F.degree,
    )
    x = CyclotomicScalar(F, data.draw(coeffs, label="x"))
    y = CyclotomicScalar(F, data.draw(coeffs, label="y"))
    n = data.draw(st.integers(-9, 9), label="n")
    product = x * y
    assert list(product.coeffs) == reduce_mod(poly_mul(x.coeffs, y.coeffs), phi)
    assert list(F.root.coeffs) == reduce_mod([0, 1], phi)
    for s in (product, F.root, F.from_int(n), F.zero(), F.one()):
        assert_canonical(s)
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        assert reduce_mod(poly_mul(inv.coeffs, x.coeffs), phi) == [1] + [0] * (F.degree - 1)


def format_reference(coeffs):
    """scalar_to_text written from reference coefficients, for the tests only."""
    terms = [
        str(c) + ("" if k == 0 else "*z" if k == 1 else f"*z^{k}")
        for k, c in enumerate(coeffs)
        if c
    ]
    return " + ".join(terms) if terms else "0"


def assert_lowest_terms(s):
    assert type(s.num) is tuple and len(s.num) == s.field.degree
    assert all(type(c) is int for c in s.num) and type(s.den) is int, (s.num, s.den)
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1, (s.num, s.den)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cyclotomic_integer_form_property(data):
    a = data.draw(st.integers(1, 12), label="a")
    F = cyclotomic_field(a)
    phi = cyclotomic_polynomial(a)
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coeffs = st.lists(fractions, min_size=F.degree, max_size=F.degree)
    xc, yc = data.draw(coeffs, label="x"), data.draw(coeffs, label="y")
    x, y = CyclotomicScalar(F, xc), CyclotomicScalar(F, yc)
    c = data.draw(fractions, label="c")
    k = data.draw(st.integers(-40, 40), label="k")
    made = [x, y, x + y, x - y, -x, x * y, F.root, F.scalar_from_text(f"{c}*z^{k}")]
    made += [F.from_int(n) for n in (-3, 0, 1, 6)]
    made += [s.inverse() for s in made if s]
    for s in made:
        assert_lowest_terms(s)
    # one value reached by different routes has one key and one hash
    routes = [(x + y) - y, F.scalar_from_text(F.scalar_to_text(x))]
    if y:
        routes.append(x * y * y.inverse())
    for r in routes:
        assert r._key() == x._key() and hash(r) == hash(x)
    assert F.scalar_to_text(x) == format_reference(reduce_mod(xc, phi))
    assert F.scalar_to_text(x * y) == format_reference(reduce_mod(poly_mul(xc, yc), phi))
    if x:
        # x / 2 shares x's numerators unless they are all even
        half = CyclotomicScalar(F, [v / 2 for v in xc])
        for s in (x, half, x, half):
            inv = s.inverse()
            assert inv == s.inverse()
            assert s * inv == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_with_a_rational_factor_property(data):
    a = data.draw(st.integers(1, 12), label="a")
    F = cyclotomic_field(a)
    phi = cyclotomic_polynomial(a)
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    xc = data.draw(st.lists(fractions, min_size=F.degree, max_size=F.degree), label="x")
    x = CyclotomicScalar(F, xc)
    n = data.draw(st.sampled_from([0, 1, -1]) | st.integers(-9, 9), label="n")
    c = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]) | fractions, label="c")
    rationals = [
        (F.from_int(n), Fraction(n)),
        (CyclotomicScalar(F, [c] + [0] * (F.degree - 1)), c),
        (F.one(), Fraction(1)),
        (F.zero(), Fraction(0)),
    ]
    for r, value in rationals:
        expected = reduce_mod(poly_mul(xc, [value]), phi)
        for product in (x * r, r * x):
            assert_lowest_terms(product)
            assert list(product.coeffs) == expected
    for product in (x * n, n * x):
        assert_lowest_terms(product)
        assert list(product.coeffs) == reduce_mod(poly_mul(xc, [n]), phi)
    assert x * F.one() is x and F.one() * x is x


@pytest.mark.parametrize(
    "argv",
    ["table --a 3 --max-degree 4", "verify --a 3 --suite liftings --t-max 1 --s-max 3"],
)
def test_products_with_a_rational_factor_skip_the_polynomial_core(argv, monkeypatch):
    # _inverse also convolves; only the calls made by CyclotomicScalar.__mul__ count
    real_mul = scalars._poly_mul
    product_calls = []

    def spy(xs, ys):
        if sys._getframe(1).f_code is CyclotomicScalar.__mul__.__code__:
            product_calls.append((xs, ys))
        return real_mul(xs, ys)

    monkeypatch.setattr(scalars, "_poly_mul", spy)
    assert cli.main(argv.split()) == 0
    assert product_calls, "the run multiplied no two irrational scalars"
    rational = [(xs, ys) for xs, ys in product_calls if not any(xs[1:]) or not any(ys[1:])]
    assert rational == []


def test_inverse_memo_starts_over_when_full(monkeypatch):
    monkeypatch.setattr(scalars, "_INVERSE_MEMO_SIZE", 2)
    F = cyclotomic_field(5)
    values = [F.from_int(n) + F.root for n in range(6)]
    for x in values + values:
        assert x * x.inverse() == 1
        assert len(F._inverses) <= 2


def test_cyclotomic_constructor_validates_coefficients():
    F = cyclotomic_field(3)
    with pytest.raises(ValueError, match="takes 2 coefficients, not 3"):
        CyclotomicScalar(F, [1, 2, 5])
    with pytest.raises(TypeError, match="1.5 is not an int or a Fraction"):
        CyclotomicScalar(F, [1.5, 0])
    with pytest.raises(TypeError, match="True"):
        CyclotomicScalar(F, [True, 0])
    s = CyclotomicScalar(F, (1, Fraction(-1, 2)))
    assert (s.num, s.den) == ((2, -1), 2)


def test_primitive_root_cyclotomic_is_the_generator():
    F = cyclotomic_field(3)
    z = F.root
    assert z ** 3 == F.one()
    assert z ** 1 != F.one() and z ** 2 != F.one()


def test_primitive_root_order_two_is_minus_one():
    R = rational_field(2)
    assert R.root == R.from_int(-1)
    F2 = cyclotomic_field(2)
    assert F2.root == F2.from_int(-1)
    P = prime_field(3, 2)
    assert P.root == P.from_int(-1)


def test_primitive_root_prime5_order4_by_exhaustion():
    # oracle: search F_5 by hand for elements of order exactly 4
    orders = {}
    for g in range(1, 5):
        k = 1
        v = g
        while v != 1:
            v = v * g % 5
            k += 1
        orders[g] = k
    candidates = sorted(g for g, k in orders.items() if k == 4)
    assert candidates[0] == 2
    assert prime_field(5, 4).root.value == 2


def multiplicative_order(g, p):
    k, v = 1, g % p
    while v != 1:
        v = v * g % p
        k += 1
    return k


def test_root_search_matches_linear_scan():
    for a in range(2, 13):
        primes = [p for p in range(a + 1, 2000, a) if all(p % d for d in range(2, p))][:5]
        for p in primes:
            scan = next(g for g in range(2, p) if multiplicative_order(g, p) == a)
            assert smallest_root_of_unity(p, a) == scan, (a, p)


def test_root_search_is_fast_for_a_31_bit_prime():
    p = 2147483647  # p - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
    t0 = time.perf_counter()
    roots = {a: smallest_root_of_unity(p, a) for a in (2, 3, 7, 9)}
    assert time.perf_counter() - t0 < 1.0
    assert roots[2] == p - 1
    for a, g in roots.items():
        assert pow(g, a, p) == 1
        assert all(pow(g, k, p) != 1 for k in range(1, a))
    assert prime_field(p, 2).root.value == p - 1


def test_no_root_error():
    with pytest.raises(NoRootError):
        prime_field(5, 3)  # 3 does not divide 4
    with pytest.raises(NoRootError):
        rational_field(3)


def test_smallest_prime_modulus():
    assert smallest_prime_modulus(2) == 3
    assert smallest_prime_modulus(3) == 7
    assert smallest_prime_modulus(4) == 5
    assert smallest_prime_modulus(5) == 11
    assert smallest_prime_modulus(7) == 29


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(10**5 + 1) if _is_prime(n)] == list(sympy.primerange(10**5 + 1))


@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the primes 2..7, 2..31 and 2..37: only the
        # later bases expose them
        3215031751,
        3825123056546413051,
        318665857834031151167461,
        561,  # Carmichael numbers
        41041,
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


def test_is_prime_refuses_at_the_bound():
    assert _is_prime(10**16 + 61)
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
        _is_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
        prime_field(PRIMALITY_BOUND + 2, 2)


def test_smallest_prime_modulus_matches_trial_division():
    for a in range(2, 201):
        p = next(p for p in range(a + 1, 10**6, a) if trial_division_is_prime(p))
        assert smallest_prime_modulus(a) == p, a


@pytest.mark.parametrize("a", [1, 0, -3])
def test_smallest_prime_modulus_rejects_small_orders(a):
    # p % 1 == 1 never holds, so the search must refuse a = 1 before it starts
    with pytest.raises(ValueError, match="a must be at least 2"):
        smallest_prime_modulus(a)


def test_k_sum_full_cycle_vanishes():
    for a in (2, 3, 4, 5, 7):
        F = cyclotomic_field(a)
        assert not k_sum(a, F.root)


def test_k_sum_at_one():
    F = cyclotomic_field(3)
    assert k_sum(4, F.one()) == F.from_int(4)
    assert k_sum(4, Fraction(1)) == Fraction(4)


def test_k_sum_concrete_fourth_root():
    F = cyclotomic_field(4)
    i = F.root
    assert k_sum(2, i) == F.one() + i


@pytest.mark.parametrize("a", range(2, 8))
def test_k_sum_vanishing_pattern(a):
    # K_a(q^m) = 0 exactly when a does not divide m, for 0 <= m < 2a
    F = cyclotomic_field(a)
    q = F.root
    for m in range(2 * a):
        value = k_sum(a, q ** m)
        if m % a == 0:
            assert value == F.from_int(a)
        else:
            assert not value


def test_c_sequence_values():
    F = cyclotomic_field(3)
    q = F.root
    c = c_sequence(3, q)
    assert c == [F.one(), F.one() + q]
    for a in range(3, 13):
        G = cyclotomic_field(a)
        cs = c_sequence(a, G.root)
        assert cs[0] == G.one()
        assert cs[a - 2] == -(G.root ** (a - 1))
        for i in range(a - 2):
            assert cs[i + 1] - cs[i] == G.root ** (i + 1)


@pytest.mark.parametrize("a", range(3, 13))
def test_weighted_c_sum_vanishes(a):
    F = cyclotomic_field(a)
    q = F.root
    total = F.zero()
    for i, c in enumerate(c_sequence(a, q)):
        total = total + c * q ** i
    assert not total


def fields_for_axioms():
    return [
        rational_field(2),
        cyclotomic_field(4),
        cyclotomic_field(5),
        prime_field_for(3),
        prime_field_for(5),
    ]


@pytest.mark.parametrize("field", fields_for_axioms(), ids=lambda f: f.describe())
def test_field_axioms_randomized(field):
    rng = random.Random(20240811)

    def rand():
        if hasattr(field, "degree"):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)]
            return CyclotomicScalar(field, coeffs)
        return field.from_int(rng.randint(0, field.modulus - 1))

    one = field.one()
    zero = field.zero()
    two = field.from_int(2)
    # an element of another backend: no arithmetic may mix the two
    other = prime_field_for(3).one() if field.tag == "cyclotomic" else cyclotomic_field(3).one()
    for _ in range(40):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x
        assert x - x == zero
        assert 2 + x == two + x and 2 - x == two - x and x - 2 == x - two
        copy = field.scalar_from_text(field.scalar_to_text(x))
        assert copy == x and hash(copy) == hash(x)
        if x:
            assert x * (one / x) == one
            assert 2 / x == two / x and (2 / x) * x == two
            assert x ** -2 * x ** 2 == one
        if y:
            assert x / y * y == x
        for op in (lambda: x + other, lambda: other - x, lambda: x * other, lambda: other / x):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        zero ** -2
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


def test_cross_backend_polynomial_identities():
    # any polynomial identity in q valid in the cyclotomic backend holds in
    # the prime backend under the root correspondence
    vanishing = set()
    for a in (3, 4, 5):
        C = cyclotomic_field(a)
        P = prime_field_for(a)
        qc, qp = C.root, P.root
        for coeffs in ([1, 1, 1], [2, -1, 0, 3], [0, 1, -1, 1, -1]):
            vc = C.zero()
            vp = P.zero()
            for k, c in enumerate(coeffs):
                vc = vc + C.from_int(c) * qc ** k
                vp = vp + P.from_int(c) * qp ** k
            # zeta -> root is a ring map from Z[zeta] onto F_p, so a zero in
            # Q(zeta_a) stays zero in F_p (the converse need not hold)
            if not vc:
                assert not vp, (a, coeffs)
                vanishing.add((a, tuple(coeffs)))
        assert not (qc ** a - C.one())
        assert not (qp ** a - P.one())
        for m in range(1, a):
            assert qc ** m != C.one()
            assert qp ** m != P.one()
        for m in range(2 * a):
            assert bool(k_sum(a, qc ** m)) == bool(k_sum(a, qp ** m))
        cc = c_sequence(a, qc)
        cp = c_sequence(a, qp)
        sc = C.zero()
        sp = P.zero()
        for i in range(a - 1):
            sc = sc + cc[i] * qc ** i
            sp = sp + cp[i] * qp ** i
        assert bool(sc) == bool(sp) == False
    assert vanishing == {(3, (1, 1, 1)), (4, (0, 1, -1, 1, -1))}


def test_cyclotomic_text_reduces_any_power_of_z():
    F = cyclotomic_field(3)
    z = F.root
    assert F.scalar_from_text("1*z^2") == z ** 2 == F.from_int(-1) - z
    assert F.scalar_from_text("2*z^-1") == 2 * z ** -1 == F.from_int(-2) - 2 * z
    assert F.scalar_from_text("1*z^3 + 1/2*z^-3") == F.from_int(3) / 2
    for bad in ("1*zz", "1*z^", "1*z^x", "1*z^+1", "z", "1 + ", "1/0*z"):
        with pytest.raises(ValueError, match="malformed term"):
            F.scalar_from_text(bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cyclotomic_text_round_trip_property(data):
    F = cyclotomic_field(data.draw(st.integers(1, 12), label="a"))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    x = CyclotomicScalar(F, data.draw(st.lists(fractions, min_size=F.degree, max_size=F.degree)))
    assert F.scalar_from_text(F.scalar_to_text(x)) == x
    c = data.draw(fractions, label="c")
    k = data.draw(st.integers(-40, 40), label="k")
    assert F.scalar_from_text(f"{c}*z^{k}") == F.from_int(c.numerator) / c.denominator * F.root ** k


def test_scalar_text_round_trip():
    rng = random.Random(5)
    for field in fields_for_axioms():
        for _ in range(10):
            if hasattr(field, "degree"):
                s = CyclotomicScalar(
                    field,
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)],
                )
            else:
                s = field.from_int(rng.randint(0, field.modulus - 1))
            assert field.scalar_from_text(field.scalar_to_text(s)) == s


@pytest.mark.parametrize(
    "field",
    [rational_field(1), rational_field(2), cyclotomic_field(3), prime_field_for(3)],
    ids=repr,
)
def test_every_scalar_is_a_field_scalar_of_its_handle(field):
    # no backend hands out a bare Fraction, int or float
    made = [field.zero(), field.one(), field.root]
    made += [field.from_int(n) for n in (-3, 0, 2, 5)]
    made += [field.scalar_from_text(field.scalar_to_text(s)) for s in list(made)]
    made.append(field.scalar_from_text("1/2" if hasattr(field, "degree") else "4"))
    nonzero = [s for s in made if s]
    for x in made:
        for y in nonzero:
            made_from = [x + y, x - y, x * y, x / y, -x, y.inverse(), y ** -2]
            made_from += [x + 1, 1 - x, 2 * x, x / 2, 3 / y]
            for s in made_from:
                assert isinstance(s, _FieldScalar) and s.field == field, (x, y, s)
    for s in made:
        assert isinstance(s, _FieldScalar) and s.field == field, s


@pytest.mark.parametrize(
    "field",
    [rational_field(1), rational_field(2), cyclotomic_field(3), cyclotomic_field(5), prime_field_for(3)],
    ids=repr,
)
def test_each_field_hands_out_one_zero_and_one_one(field):
    # scalars are immutable, so every caller may share them
    assert field.zero() is field.zero() and field.one() is field.one()
    assert field.zero() == field.from_int(0) and field.one() == field.from_int(1)
    assert not field.zero() and field.one() * field.root == field.root


def test_rational_backend_is_q_as_a_cyclotomic_field():
    for order in (1, 2):
        R = rational_field(order)
        assert R.describe() == "rational"
        assert R == rational_field(order) and hash(R) == hash(rational_field(order))
        assert R != cyclotomic_field(order)  # the backends do not mix scalars
        assert R.scalar_to_text(R.from_int(-2) / 3) == "-2/3"
    with pytest.raises(TypeError):
        rational_field(2).one() + cyclotomic_field(2).one()


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("text, term", [("1*z", "1*z"), ("1 + -1/2*z^3", "-1/2*z^3"), ("z", "z")])
def test_rational_text_rejects_terms_in_z(order, text, term):
    # the rational backend writes no z, so a term in z is malformed, not -1
    with pytest.raises(ValueError, match=re.escape(f"malformed term {term!r}")):
        rational_field(order).scalar_from_text(text)


@pytest.mark.parametrize("text", ["1/2", "abc", ""])
def test_prime_text_rejects_malformed_terms(text):
    with pytest.raises(ValueError, match=re.escape(f"malformed term {text!r}")):
        prime_field_for(3).scalar_from_text(text)
