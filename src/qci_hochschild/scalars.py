"""Exact ground fields carrying a primitive a-th root of unity.

Two scalar implementations: the cyclotomic field Q(zeta_a) and a prime field
F_p with p = 1 (mod a).  The rational backend is Q(zeta_a) for a <= 2, the
only orders whose roots of unity lie in Q, under its own name.  Every field
hands out only its own scalar type, never a bare int, Fraction or float.
Field elements support ordinary Python arithmetic (+, -, *, /, **) and are
immutable, so they are safe to share freely.  An element of Q(zeta_a) is a
tuple of integer numerators over one positive denominator, in lowest terms,
as FLINT lays out a number-field element; Fractions appear only at its
boundary (the constructor, coeffs and text) and inside the extended Euclid
behind inverses.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest


class NoRootError(ValueError):
    """The backend does not contain a primitive root of the requested order."""


# ---------------------------------------------------------------------------
# polynomials: the one convolution and the one long division behind Phi_a and
# every product and inverse in Q(zeta_a).  Products with no rational factor
# run them on ints: Phi_a is monic with integer coefficients, so its
# remainders take no quotient.


def _poly_mul(xs, ys):
    """Product of two coefficient lists, low degree first."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys, i):
                if y:
                    out[j] += x * y
    return out


def _poly_divmod(num, den):
    """Quotient and remainder of num by den, low degree first.

    den must have a nonzero top coefficient, and be monic unless its
    coefficients lie in a field; the remainder has exactly len(den) - 1
    coefficients.
    """
    dn = len(den) - 1
    lead = den[-1]
    rem = list(num) + [0] * (dn - len(num))
    quot = [0] * max(len(num) - dn, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dn]
        if c:
            if lead != 1:
                c = c / lead
            quot[k] = c
            for j, d in enumerate(den[:dn], k):
                if d == 1:  # most nonzero coefficients of Phi_a are 1
                    rem[j] -= c
                elif d:
                    rem[j] -= c * d
    return quot, rem[:dn]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(a: int) -> tuple[int, ...]:
    """Integer coefficients of the a-th cyclotomic polynomial, low degree first.

    Computed by dividing t^a - 1 exactly by the product of all lower
    cyclotomic polynomials at divisors of a.
    """
    if a < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (a - 1) + [1]
    for d in range(1, a):
        if a % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("polynomial division is not exact")
    return tuple(poly)


# ---------------------------------------------------------------------------
# scalar types


class _FieldScalar:
    """Operators shared by the scalar types.

    Subclasses supply +, -, *, unary -, inverse, bool and _key, the data that
    equality and hashing compare.
    """

    __slots__ = ()

    def _check(self, other):
        if type(other) is type(self):
            # every context shares one field handle, so identity settles most calls
            if other.field is self.field or other.field == self.field:
                return other
            return None
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __radd__(self, other):
        return self.__add__(other)  # not self + other: that would recurse on a foreign type

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _lowest_terms(field, num, den):
    """The CyclotomicScalar num/den, divided by gcd(den, *num) so that den > 0.

    num is a list of field.degree ints and den a nonzero int.
    """
    if den != 1:
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    s = object.__new__(CyclotomicScalar)
    s.field = field
    s.num = tuple(num)
    s.den = den
    return s


def _over_common_denominator(coeffs):
    """(nums, den): int and Fraction coefficients as int numerators over their lcm."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class CyclotomicScalar(_FieldScalar):
    """Element of Q(zeta_a): a polynomial in zeta reduced mod Phi_a, as num / den.

    num is a tuple of field.degree ints, low degree first, and den a positive
    int with gcd(den, *num) = 1, so every value has exactly one (num, den)
    and zero is (0, ..., 0) / 1.  The constructor takes the degree
    coefficients as ints or Fractions; coeffs gives them back as Fractions.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != field.degree:
            raise ValueError(
                f"Q(zeta_{field.order}) takes {field.degree} coefficients, not {len(coeffs)}"
            )
        for c in coeffs:
            if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        num, den = _over_common_denominator(coeffs)
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def _key(self):
        return self.num, self.den

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        den = self.den
        if den == other.den:
            num = [x + y for x, y in zip(self.num, other.num)]
        else:
            d = other.den
            num = [x * d + y * den for x, y in zip(self.num, other.num)]
            den *= d
        return _lowest_terms(self.field, num, den)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        den = self.den
        if den == other.den:
            num = [x - y for x, y in zip(self.num, other.num)]
        else:
            d = other.den
            num = [x * d - y * den for x, y in zip(self.num, other.num)]
            den *= d
        return _lowest_terms(self.field, num, den)

    def __neg__(self):
        return _lowest_terms(self.field, [-x for x in self.num], self.den)

    def __mul__(self, other):
        """Product mod Phi_a; a rational factor only scales the other's numerators.

        A factor is rational when no coefficient above degree 0 is nonzero.
        Multiplying by one returns the other factor itself.
        """
        other = self._check(other)
        if other is None:
            return NotImplemented
        field = self.field
        if other is field._one:
            return self
        if self is field._one:
            return other
        if not any(other.num[1:]):
            x, r = self, other
        elif not any(self.num[1:]):
            x, r = other, self
        else:
            num = _poly_divmod(_poly_mul(self.num, other.num), field._phi)[1]
            return _lowest_terms(field, num, self.den * other.den)
        c = r.num[0]
        if c == r.den:  # in lowest terms only one has its numerator equal to den
            return x
        return _lowest_terms(field, [c * n for n in x.num], x.den * r.den)

    __rmul__ = __mul__

    def inverse(self):
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        key = (self.num, self.den)
        inv = field._inverses.get(key)
        if inv is None:
            if len(field._inverses) >= _INVERSE_MEMO_SIZE:
                field._inverses.clear()
            inv = field._inverses[key] = field._inverse(self.num, self.den)
        return inv

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"CyclotomicScalar({self.field.order}, {self.field.scalar_to_text(self)!r})"


class PrimeFieldScalar(_FieldScalar):
    """Element of F_p, stored as an integer in [0, p)."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value % field.modulus

    def _key(self):
        return self.value

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldScalar(self.field, self.value + other.value)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldScalar(self.field, self.value - other.value)

    def __neg__(self):
        return PrimeFieldScalar(self.field, -self.value)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldScalar(self.field, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero")
        return PrimeFieldScalar(self.field, pow(self.value, -1, self.field.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"PrimeFieldScalar({self.value} mod {self.field.modulus})"


# ---------------------------------------------------------------------------
# field handles


_INVERSE_MEMO_SIZE = 4096  # entries kept per field before the memo starts over


class CyclotomicField:
    """Q(zeta_a): polynomials in zeta over Q, reduced modulo Phi_a."""

    tag = "cyclotomic"

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.root_order = order
        self._phi = cyclotomic_polynomial(order)
        self.degree = len(self._phi) - 1
        self._inverses = {}  # (num, den) -> inverse; few distinct values recur
        # scalars are immutable, so the field hands out one zero and one one
        self._zero = self.from_int(0)
        self._one = self.from_int(1)

    def _inverse(self, num, den):
        """Inverse of num / den, by extended Euclid in Q[t] against Phi."""
        # s1 * num = r1 (mod Phi) throughout.  Phi enters as Fractions, so no
        # quotient is ever taken of two ints.
        r0, r1 = [Fraction(c) for c in self._phi], list(num)
        s0, s1 = [0], [1]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            quot, rem = _poly_divmod(r0, r1)
            qs1 = _poly_mul(quot, s1)
            r0, r1 = r1, rem
            s0, s1 = s1, [x - y for x, y in zip_longest(s0, qs1, fillvalue=0)]
        # the inverse is den * s1 / r1[0], and the constant r1[0] may be negative
        s, d = _over_common_denominator(_poly_divmod(s1, self._phi)[1])
        c = r1[0]
        return _lowest_terms(self, [den * c.denominator * x for x in s], d * c.numerator)

    @property
    def root(self):
        return _lowest_terms(self, _poly_divmod([0, 1], self._phi)[1], 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int):
        return _lowest_terms(self, [n] + [0] * (self.degree - 1), 1)

    def scalar_to_text(self, s) -> str:
        parts = []
        for k, c in enumerate(s.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        return " + ".join(parts) if parts else "0"

    def scalar_from_text(self, text: str):
        """Inverse of scalar_to_text; a term c*z^k may take any integer k."""
        poly = [0] * self.order  # zeta^order = 1, so k counts mod order
        text = text.strip()
        if text != "0":
            for part in text.split(" + "):
                c, star, power = part.partition("*z")
                try:
                    if not star:
                        k = 0
                    elif not power:
                        k = 1
                    elif power[0] == "^" and power[1:].lstrip("-").isdecimal():
                        k = int(power[1:])
                    else:
                        raise ValueError
                    poly[k % self.order] += Fraction(c)
                except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
                    raise ValueError(f"malformed term {part!r} in {text!r}") from None
        num, den = _over_common_denominator(poly)
        return _lowest_terms(self, _poly_divmod(num, self._phi)[1], den)

    def describe(self) -> str:
        return f"cyclotomic({self.order})"

    def __eq__(self, other):
        return type(other) is type(self) and other.order == self.order

    def __hash__(self):
        return hash((self.tag, self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"


class RationalField(CyclotomicField):
    """The rationals as Q(zeta_a), which is Q itself for the orders 1 and 2 only."""

    tag = "rational"

    def __init__(self, root_order: int = 2):
        if root_order not in (1, 2):
            raise NoRootError(
                f"the rationals contain no primitive root of order {root_order}"
            )
        super().__init__(root_order)

    def scalar_from_text(self, text: str):
        """Inverse of scalar_to_text, which writes no term in z."""
        for part in text.strip().split(" + "):
            if "z" in part:
                raise ValueError(f"malformed term {part!r} in {text.strip()!r}")
        return super().scalar_from_text(text)

    def describe(self) -> str:
        return "rational"

    def __repr__(self):
        return f"RationalField(root_order={self.order})"


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41, exact below PRIMALITY_BOUND.

    Below that bound no composite is a strong pseudoprime to all of them
    (Sorenson and Webster, Math. Comp. 86, 2017).  A larger n is refused
    with ValueError rather than answered without proof.
    """
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}, got {n}")
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def smallest_prime_modulus(a: int) -> int:
    """Smallest prime p with p = 1 (mod a)."""
    if a < 2:
        raise ValueError("a must be at least 2")
    p = a + 1
    while not (_is_prime(p) and p % a == 1):
        p += a
    return p


def smallest_root_of_unity(p: int, a: int) -> int:
    """Smallest residue of multiplicative order exactly a modulo the prime p.

    The a-th roots of unity in F_p form one cyclic group, so every element
    of order a is a primitive power of h = g^((p-1)/a) for the first g whose
    h has order a.  Taking the least of those powers gives the same answer
    as a linear scan for the least element of order a, in O(a) steps.
    """
    if (p - 1) % a != 0:
        raise NoRootError(f"F_{p} has no element of multiplicative order {a}")
    if a == 1:
        return 1
    factors = _prime_factors(a)
    for g in range(2, p):
        h = pow(g, (p - 1) // a, p)
        if all(pow(h, a // f, p) != 1 for f in factors):
            break
    else:
        raise NoRootError(f"no element of order {a} in F_{p}")
    best = h
    power = h
    for k in range(2, a):
        power = power * h % p
        if math.gcd(k, a) == 1 and power < best:
            best = power
    return best


class PrimeField:
    """F_p with a distinguished primitive root of order root_order."""

    tag = "prime"

    def __init__(self, modulus: int, root_order: int):
        if not _is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        if (modulus - 1) % root_order != 0:
            raise NoRootError(
                f"F_{modulus} has no element of multiplicative order {root_order}"
            )
        self.modulus = modulus
        self.root_order = root_order
        self._zero = PrimeFieldScalar(self, 0)
        self._one = PrimeFieldScalar(self, 1)

    @property
    def root(self):
        return PrimeFieldScalar(self, smallest_root_of_unity(self.modulus, self.root_order))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int):
        return PrimeFieldScalar(self, n)

    def scalar_to_text(self, s) -> str:
        return str(s.value)

    def scalar_from_text(self, text: str):
        try:
            return PrimeFieldScalar(self, int(text))
        except ValueError:
            raise ValueError(f"malformed term {text!r}") from None

    def describe(self) -> str:
        return f"prime({self.modulus})"

    def __eq__(self, other):
        return (
            isinstance(other, PrimeField)
            and other.modulus == self.modulus
            and other.root_order == self.root_order
        )

    def __hash__(self):
        return hash(("prime", self.modulus, self.root_order))

    def __repr__(self):
        return f"PrimeField({self.modulus}, root_order={self.root_order})"


# ---------------------------------------------------------------------------
# constructors and the scalar sequences used by the differentials


def rational_field(root_order: int = 2) -> RationalField:
    return RationalField(root_order)


def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


def prime_field(modulus: int, root_order: int) -> PrimeField:
    return PrimeField(modulus, root_order)


def prime_field_for(root_order: int) -> PrimeField:
    """Prime backend with the smallest admissible modulus for this order."""
    return PrimeField(smallest_prime_modulus(root_order), root_order)


def _partial_sums(alpha, n: int) -> list:
    """[1, 1 + alpha, ..., 1 + alpha + ... + alpha^n], with n products."""
    power = total = alpha ** 0
    out = [total]
    for _ in range(n):
        power = power * alpha
        total = total + power
        out.append(total)
    return out


def k_sum(t: int, alpha):
    """Geometric sum 1 + alpha + ... + alpha^(t-1)."""
    if t < 1:
        raise ValueError("t must be positive")
    return _partial_sums(alpha, t - 1)[-1]


def c_sequence(a: int, q) -> list:
    """Partial geometric sums (c_0, ..., c_(a-2)) with c_i = 1 + q + ... + q^i."""
    if a < 2:
        raise ValueError("a must be at least 2")
    return _partial_sums(q, a - 2)
