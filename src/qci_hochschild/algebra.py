"""The algebra A = k<X,Y>/(X^a, XY - qYX, Y^a) and its enveloping algebra.

Elements are kept in the normal form y^u x^v (0 <= u, v < a), with the
commutation x*y = q*(y*x) applied during multiplication.  Tensors m1 (x) m2
live in A (x) A^op: left components multiply in A, right components in the
opposite order.  A acts as a left module over the enveloping algebra by
(m1 (x) m2) . m = m1 * m * m2.  The k-linear matrices of the package are
tiled from per-context blocks of this action and of right multiplication in
A (x) A^op, one block per element value.

All element values are immutable once built; operations return new objects.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .linalg import SparseMatrix, add_term


class MixedContextError(ValueError):
    """Operands belong to different algebras or scalar backends."""


class ConventionError(RuntimeError):
    """No compatibility identity between the trace form and the twist holds."""


class QuantumCompleteIntersection:
    """Context object: order a, ground field, deformation parameter q.

    q defaults to the field's distinguished primitive a-th root of unity but
    may be overridden with any nonzero scalar of the field, or an int, which
    is read as one (the resolution differentials make sense for arbitrary q;
    the cohomology statements need a primitive root).  Any other q, such as
    a Fraction, a float or a scalar of another backend, raises TypeError.
    """

    def __init__(self, a: int, field, q=None):
        if a < 2:
            raise ValueError("a must be at least 2")
        self.a = a
        self.field = field
        if q is None:
            q = field.root
        elif isinstance(q, int):
            q = field.from_int(q)
        elif getattr(q, "field", None) != field:
            raise TypeError(f"q must be an int or a scalar of {field!r}, not {type(q).__name__}")
        self.q = q
        if not self.q:
            raise ValueError("q must be nonzero")
        self.dim = a * a
        one = field.one()
        self.is_root_of_unity = self.q ** a == one
        if self.is_root_of_unity:
            table = [one]
            for _ in range(a - 1):
                table.append(table[-1] * self.q)
            self._qpow = table
        else:
            self._qpow = None
        self._cache = {}

    def cached(self, key, build):
        """The value built by build() for key, built once per context.

        The one memo of everything derived from the context.  A build that
        raises stores nothing, so the next call builds again.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- scalars ------------------------------------------------------------

    def q_power(self, s: int):
        if self._qpow is not None:
            return self._qpow[s % self.a]
        return self.q ** s

    # -- element constructors -------------------------------------------------

    def element(self, terms) -> AlgebraElement:
        return AlgebraElement(self, terms)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, {(0, 0): self.field.one()})

    def monomial(self, u: int, v: int, coeff=None) -> AlgebraElement:
        if not (0 <= u < self.a and 0 <= v < self.a):
            raise ValueError("exponents out of range")
        c = self.field.one() if coeff is None else coeff
        return AlgebraElement(self, {(u, v): c})

    def x(self) -> AlgebraElement:
        return self.monomial(0, 1)

    def y(self) -> AlgebraElement:
        return self.monomial(1, 0)

    def xpow(self, k: int) -> AlgebraElement:
        return self.monomial(0, k)

    def ypow(self, k: int) -> AlgebraElement:
        return self.monomial(k, 0)

    def env(self, terms) -> EnvElement:
        return EnvElement(self, terms)

    def env_zero(self) -> EnvElement:
        return EnvElement(self, {})

    def env_one(self) -> EnvElement:
        return EnvElement(self, {((0, 0), (0, 0)): self.field.one()})

    def env_tensor(self, m1, m2, coeff=None) -> EnvElement:
        c = self.field.one() if coeff is None else coeff
        return EnvElement(self, {(m1, m2): c})

    # -- monomial arithmetic --------------------------------------------------

    def mono_mul(self, m1, m2):
        """(scalar, monomial) for y^u1 x^v1 * y^u2 x^v2, or None when it dies."""
        u1, v1 = m1
        u2, v2 = m2
        if u1 + u2 >= self.a or v1 + v2 >= self.a:
            return None
        return (self.q_power(v1 * u2), (u1 + u2, v1 + v2))

    def env_mono_mul(self, t1, t2):
        """Product of basis tensors in A (x) A^op, or None."""
        left = self.mono_mul(t1[0], t2[0])
        if left is None:
            return None
        right = self.mono_mul(t2[1], t1[1])  # opposite order on the right leg
        if right is None:
            return None
        return (left[0] * right[0], (left[1], right[1]))

    def act_mono(self, tensor, m):
        """(scalar, monomial) for (m1 (x) m2) . m = m1 * m * m2, or None."""
        first = self.mono_mul(tensor[0], m)
        if first is None:
            return None
        second = self.mono_mul(first[1], tensor[1])
        if second is None:
            return None
        return (first[0] * second[0], second[1])

    # -- per-context blocks of k-linear maps ------------------------------------

    def _block(self, kind, env, basis, op, index) -> Mapping:
        """{(row, col): c} of the map sending basis[col] to sum_t c_t op(basis[col], t).

        The sum runs over the terms c_t t of env; op returns (scalar, key) or
        None, and the row is index(key).  Built once per context and kind,
        keyed by env's value, so equal band elements of different degrees or
        columns share one block, handed out as a read-only view.
        """

        def build():
            block = {}
            for col, b in enumerate(basis):
                for t, c in env.terms.items():
                    hit = op(b, t)
                    if hit is not None:
                        add_term(block, (index(hit[1]), col), c * hit[0])
            return MappingProxyType(block)

        return self.cached((kind, frozenset(env.terms.items())), build)

    def action_block(self, env) -> Mapping:
        """m -> env . m on the monomial basis of A."""
        return self._block(
            "action", env, self.monomials(), lambda m, t: self.act_mono(t, m), self.mono_index
        )

    def product_block(self, env) -> Mapping:
        """w -> w env on the basis tensors of A (x) A^op, in env_index order."""
        tensors = ((m1, m2) for m1 in self.monomials() for m2 in self.monomials())
        return self._block("product", env, tensors, self.env_mono_mul, self.env_index)

    # -- identity and bookkeeping ----------------------------------------------

    def same_context(self, other) -> bool:
        return (
            self.a == other.a and self.field == other.field and self.q == other.q
        )

    def mono_index(self, m) -> int:
        return m[0] * self.a + m[1]

    def mono_from_index(self, i):
        return divmod(i, self.a)

    def monomials(self):
        for u in range(self.a):
            for v in range(self.a):
                yield (u, v)

    def env_index(self, t) -> int:
        return self.mono_index(t[0]) * self.dim + self.mono_index(t[1])

    def describe(self) -> str:
        return f"a={self.a}, {self.field.describe()}"

    def __repr__(self):
        return f"QuantumCompleteIntersection({self.describe()})"


def _require_same(lhs, rhs):
    if lhs.algebra is not rhs.algebra and not lhs.algebra.same_context(rhs.algebra):
        raise MixedContextError("operands live in different algebras")


def _bilinear(lhs, rhs, mono_op) -> dict:
    """Terms of the sum of c1 c2 mono_op(k1, k2) over both term lists.

    mono_op maps two basis keys to (scalar, key), or to None when they vanish.
    """
    terms = {}
    for k1, c1 in lhs.terms.items():
        for k2, c2 in rhs.terms.items():
            hit = mono_op(k1, k2)
            if hit is None:
                continue
            scale, key = hit
            add_term(terms, key, c1 * c2 * scale)
    return terms


class _Combination:
    """Finite linear combination of basis keys; _UNIT is the key of the unit."""

    __slots__ = ("algebra", "terms")
    _UNIT = None

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c}

    def __add__(self, other):
        if type(other) is not type(self):
            # else the sum would hold keys of the other type and fail only later
            raise TypeError(
                f"cannot add or subtract {type(self).__name__} and {type(other).__name__}"
            )
        _require_same(self, other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        return type(self)(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        if not scalar:
            return type(self)(self.algebra, {})
        return type(self)(self.algebra, {k: c * scalar for k, c in self.terms.items()})

    def in_radical(self) -> bool:
        """No term is the unit; A and A (x) A^op are local, so this is the radical."""
        return self._UNIT not in self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"<{element_to_text(self)}>"


class AlgebraElement(_Combination):
    """Finite linear combination of normal-form monomials y^u x^v."""

    __slots__ = ()
    _UNIT = (0, 0)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _require_same(self, other)
        return AlgebraElement(self.algebra, _bilinear(self, other, self.algebra.mono_mul))

    def coefficient(self, u, v):
        c = self.terms.get((u, v))
        return self.algebra.field.zero() if c is None else c

    def is_scalar(self) -> bool:
        return all(m == (0, 0) for m in self.terms)

    def to_vector(self):
        A = self.algebra
        return {A.mono_index(m): c for m, c in self.terms.items()}


class EnvElement(_Combination):
    """Finite linear combination of basis tensors in A (x) A^op."""

    __slots__ = ()
    _UNIT = ((0, 0), (0, 0))

    def __mul__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        _require_same(self, other)
        return EnvElement(self.algebra, _bilinear(self, other, self.algebra.env_mono_mul))

    def act(self, element: AlgebraElement) -> AlgebraElement:
        """Bimodule action on A: (m1 (x) m2) . m = m1 * m * m2, extended linearly."""
        _require_same(self, element)
        return AlgebraElement(self.algebra, _bilinear(self, element, self.algebra.act_mono))


# ---------------------------------------------------------------------------
# centre, radical, Frobenius structure


def center_basis(A: QuantumCompleteIntersection) -> list:
    """Canonical basis of the centre, by solving zg = gz for g in {x, y}.

    z -> zg - gz is the action of 1 (x) g - g (x) 1, so the centre is the
    kernel of the two action blocks stacked.
    """
    one = A.field.one()
    tiles = []
    for k, g in enumerate(((0, 1), (1, 0))):
        commutator = A.env({((0, 0), g): one, (g, (0, 0)): -one})
        tiles.append((k * A.dim, 0, A.action_block(commutator)))
    kernel = SparseMatrix.tiled(2 * A.dim, A.dim, tiles, A.field).kernel_basis()
    return [A.element({A.mono_from_index(i): c for i, c in vec.items()}) for vec in kernel.basis]


@dataclass
class FrobeniusData:
    """Twist images, trace form and the compatibility convention that held."""

    nu_x: AlgebraElement
    nu_y: AlgebraElement
    first_identity_holds: bool   # eps(ab) == eps(b nu(a))
    second_identity_holds: bool  # eps(ab) == eps(nu(b) a)

    @property
    def convention(self) -> str:
        return "first" if self.first_identity_holds else "second"


def nakayama_twist(A: QuantumCompleteIntersection, element: AlgebraElement):
    """Apply the graded twist x -> q^(1-a) x, y -> q^(a-1) y."""
    a = A.a
    terms = {}
    for (u, v), c in element.terms.items():
        terms[(u, v)] = c * A.q_power((a - 1) * (u - v))
    return AlgebraElement(A, terms)


def trace_form(A: QuantumCompleteIntersection, element: AlgebraElement):
    """Coefficient of the socle monomial y^(a-1) x^(a-1)."""
    return element.coefficient(A.a - 1, A.a - 1)


def frobenius_verify(A: QuantumCompleteIntersection) -> FrobeniusData:
    """Build the twist, confirm it is an automorphism, and pin the convention.

    Checks both candidate compatibilities between the trace form and the
    twist on every pair of basis monomials; raises ConventionError when
    neither holds uniformly.
    """
    monos = [A.monomial(*m) for m in A.monomials()]
    for m1 in monos:
        for m2 in monos:
            if nakayama_twist(A, m1 * m2) != nakayama_twist(A, m1) * nakayama_twist(A, m2):
                raise ConventionError("twist failed to respect the product")
    first = True
    second = True
    for m1 in monos:
        for m2 in monos:
            lhs = trace_form(A, m1 * m2)
            if lhs != trace_form(A, m2 * nakayama_twist(A, m1)):
                first = False
            if lhs != trace_form(A, nakayama_twist(A, m2) * m1):
                second = False
        if not (first or second):
            break
    if not (first or second):
        raise ConventionError("no trace-form compatibility identity holds")
    return FrobeniusData(
        nu_x=nakayama_twist(A, A.x()),
        nu_y=nakayama_twist(A, A.y()),
        first_identity_holds=first,
        second_identity_holds=second,
    )


# ---------------------------------------------------------------------------
# plain-text round-trip format


def _scalar_text(field, c) -> str:
    text = field.scalar_to_text(c)
    return f"({text})" if " + " in text else text


def _legs(key):
    """The monomials of a basis key: (m,) in A, (m1, m2) in A (x) A^op."""
    return key if isinstance(key[0], tuple) else (key,)


def _split_top_level(text: str, sep: str):
    parts = []
    depth = 0
    current = []
    i = 0
    while i < len(text):
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(current))
            current = []
            i += len(sep)
            continue
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def _parse_scalar(field, text: str):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return field.scalar_from_text(text)


_MONO = re.compile(r"y\^([0-9]+) x\^([0-9]+)")


def element_to_text(element) -> str:
    """Terms "c * y^u x^v" of A, or "c * y^u1 x^v1 (x) y^u2 x^v2" of A (x) A^op."""
    field = element.algebra.field
    parts = []
    for key, c in sorted(element.terms.items()):
        monos = " (x) ".join(f"y^{u} x^{v}" for u, v in _legs(key))
        parts.append(f"{_scalar_text(field, c)} * {monos}")
    return " + ".join(parts) if parts else "0"


def _from_text(cls, A: QuantumCompleteIntersection, text: str):
    """Parse what element_to_text writes; a malformed term raises ValueError."""
    text = text.strip()
    if text == "0":
        return cls(A, {})
    width = len(_legs(cls._UNIT))
    terms = {}
    for part in _split_top_level(text, " + "):
        scalar_text, sep, mono_text = part.rpartition(" * ")
        matches = [_MONO.fullmatch(leg.strip()) for leg in mono_text.split(" (x) ")]
        if not sep or None in matches or len(matches) != width:
            shape = " (x) ".join(["y^u x^v"] * width)
            raise ValueError(f"term {part.strip()!r} is not 'c * {shape}'")
        legs = [(int(m[1]), int(m[2])) for m in matches]
        if max(max(leg) for leg in legs) >= A.a:
            raise ValueError(f"term {part.strip()!r} has an exponent outside 0..{A.a - 1}")
        key = tuple(legs) if width > 1 else legs[0]
        if key in terms:
            raise ValueError(f"term {part.strip()!r} repeats an earlier monomial")
        try:
            terms[key] = _parse_scalar(A.field, scalar_text)
        except ValueError as exc:
            raise ValueError(f"term {part.strip()!r} has a malformed coefficient ({exc})") from None
    return cls(A, terms)


def element_from_text(A: QuantumCompleteIntersection, text: str) -> AlgebraElement:
    return _from_text(AlgebraElement, A, text)


def env_from_text(A: QuantumCompleteIntersection, text: str) -> EnvElement:
    return _from_text(EnvElement, A, text)
