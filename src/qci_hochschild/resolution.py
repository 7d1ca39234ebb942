"""Minimal free bimodule resolution of A over its enveloping algebra.

Degree n is free of rank n+1 on generators f^n_0 ... f^n_n.  A differential
is its entry dict {(j, i): EnvElement}: entry (j, i) is the coefficient of
d(f^n_i) on f^(n-1)_j, which lies on the diagonal band (j = i) or the sub
band (j = i - 1); out-of-range generator indices are simply dropped, and
zero entries are not stored.  Each context caches one read-only view of it
per degree and variant.  Module maps compose through compose and pull_back
on these dicts.

Two forms are available: the general closed form valid for any nonzero q,
and one rewrite with the structure arguments reduced to 0 or 1, valid for
every a >= 2 when q^a = 1 (at a = 2, q = -1 it is the alpha/beta sign
pattern).  The rewrite goes by the variant name simplified-a2 at a = 2 and
simplified-a3plus at a >= 3.  The two forms agree entry-wise, and
verify_resolution checks this along with d . d = 0, minimality and
exactness.  Exactness is checked at the k-linear level: d_n is tiled from
one block of w -> w . e per band element e, built once per context, and the
augmentation is a single tile.

A rewritten column depends on n and i only through their parities, so a
context builds it once per parity class and every degree shares its band
elements; the general form is built degree by degree.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType

from .algebra import EnvElement, QuantumCompleteIntersection, element_to_text
from .linalg import SparseMatrix, add_term


class OrderError(ValueError):
    """Operation needs a different nilpotency order a."""


class VariantError(ValueError):
    """Differential variant incompatible with the algebra's order a or its q."""


GENERAL = "general"
SIMPLIFIED_A2 = "simplified-a2"
SIMPLIFIED_A3 = "simplified-a3plus"
# the one rewrite's two names and the orders each admits
_REWRITE_ORDERS = {SIMPLIFIED_A2: "a = 2", SIMPLIFIED_A3: "a >= 3"}

TAU_X = "tau_x"
TAU_Y = "tau_y"
GAMMA_X = "gamma_x"
GAMMA_Y = "gamma_y"


def structure_element(A: QuantumCompleteIntersection, kind: str, s: int) -> EnvElement:
    """The four tensor families feeding every differential.

    tau_x(s) = q^s (1 (x) x) - (x (x) 1)
    tau_y(s) = (1 (x) y) - q^s (y (x) 1)
    gamma_x(s) = sum_j q^(js) (x^(a-1-j) (x) x^j)
    gamma_y(s) = sum_j q^(js) (y^j (x) y^(a-1-j))
    """
    a = A.a
    one = A.field.one()
    if kind == TAU_X:
        return A.env({((0, 0), (0, 1)): A.q_power(s), ((0, 1), (0, 0)): -one})
    if kind == TAU_Y:
        return A.env({((0, 0), (1, 0)): one, ((1, 0), (0, 0)): -A.q_power(s)})
    if kind == GAMMA_X:
        terms = {}
        for j in range(a):
            terms[((0, a - 1 - j), (0, j))] = A.q_power(j * s)
        return A.env(terms)
    if kind == GAMMA_Y:
        terms = {}
        for j in range(a):
            terms[((j, 0), (a - 1 - j, 0))] = A.q_power(j * s)
        return A.env(terms)
    raise ValueError(f"unknown structure element kind {kind!r}")


def beta_element(A: QuantumCompleteIntersection, axis: str, s: int) -> EnvElement:
    """Weighted halves of gamma, defined for a >= 2:

    beta_x(s) = sum_i c_i q^(si) (x^(a-2-i) (x) x^i)
    beta_y(s) = sum_i c_i q^(si) (y^i (x) y^(a-2-i))

    At a = 2, c = (1), so both are 1 (x) 1 for every s.
    """
    from .scalars import c_sequence

    a = A.a
    c = c_sequence(a, A.q)
    terms = {}
    for i in range(a - 1):
        coeff = c[i] * A.q_power(s * i)
        if axis == "x":
            terms[((0, a - 2 - i), (0, i))] = coeff
        elif axis == "y":
            terms[((i, 0), (a - 2 - i, 0))] = coeff
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return A.env(terms)


def _half(n: int) -> int:
    q, r = divmod(n, 2)
    if r:
        raise ArithmeticError(f"structure argument {n}/2 is not an integer")
    return q


def _general_column(A, n, i):
    a = A.a
    if n % 2 == 0:
        t = n // 2
        if i % 2 == 0:
            diag = structure_element(A, GAMMA_Y, _half(a * i))
            sub = structure_element(A, GAMMA_X, _half(2 * a * t - a * i))
        else:
            diag = -structure_element(A, TAU_Y, _half(a * i - a + 2))
            sub = structure_element(A, TAU_X, _half(2 * a * t - a * i - a + 2))
    else:
        t = (n - 1) // 2
        if i % 2 == 0:
            diag = structure_element(A, TAU_Y, _half(a * i))
            sub = structure_element(A, GAMMA_X, _half(2 * a * t - a * i + 2))
        else:
            diag = -structure_element(A, GAMMA_Y, _half(a * i - a + 2))
            sub = structure_element(A, TAU_X, _half(2 * a * t - a * i + a))
    return diag, sub


def _rewritten_column(A, n, i):
    if n % 2 == 0:
        if i % 2 == 0:
            return (
                structure_element(A, GAMMA_Y, 0),
                structure_element(A, GAMMA_X, 0),
            )
        return (
            -structure_element(A, TAU_Y, 1),
            structure_element(A, TAU_X, 1),
        )
    if i % 2 == 0:
        return (
            structure_element(A, TAU_Y, 0),
            structure_element(A, GAMMA_X, 1),
        )
    return (
        -structure_element(A, GAMMA_Y, 1),
        structure_element(A, TAU_X, 0),
    )


def differential(A: QuantumCompleteIntersection, n: int, variant: str = GENERAL) -> Mapping:
    """Entries {(j, i): EnvElement} of d_n in the requested variant.

    Cached on the algebra context, so every caller shares one read-only view
    of the entry dict.  The columns of a rewritten variant are shared per
    parity class (see the module docstring).
    """
    if n < 1:
        raise ValueError("differentials start in degree 1")
    if variant not in (GENERAL, *_REWRITE_ORDERS):
        raise VariantError(f"unknown variant {variant!r}")
    if variant != GENERAL and variant != _rewrite_name(A.a):
        raise VariantError(f"{variant} requires {_REWRITE_ORDERS[variant]}")
    if variant != GENERAL and not A.is_root_of_unity:
        raise VariantError(f"{variant} requires q^a = 1")

    def column(i):
        if variant == GENERAL:
            return _general_column(A, n, i)
        return A.cached(("column", n % 2, i % 2), lambda: _rewritten_column(A, n, i))

    def build():
        entries = {}
        for i in range(n + 1):
            diag, sub = column(i)
            if i <= n - 1 and diag:
                entries[(i, i)] = diag
            if i - 1 >= 0 and sub:
                entries[(i - 1, i)] = sub
        return MappingProxyType(entries)

    return A.cached(("diff", n, variant), build)


def _rewrite_name(a: int) -> str:
    return SIMPLIFIED_A2 if a == 2 else SIMPLIFIED_A3


def preferred_variant(A: QuantumCompleteIntersection) -> str:
    """The rewrite, under its name for this order, exactly when q^a = 1;
    else the general form."""
    return _rewrite_name(A.a) if A.is_root_of_unity else GENERAL


def compose(outer: dict, inner: dict, products: dict | None = None) -> dict:
    """Entries {(k, i): EnvElement} of the module map outer . inner.

    Both maps are entry dicts {(row, col): EnvElement}: entry (j, i) sends
    generator i to that coefficient times generator j.  The coefficient
    picked up by the inner map multiplies the outer one from the left.
    Entries that sum to zero are dropped, so the composite is zero exactly
    when the dict is empty.

    Each product inner * outer is kept in products, keyed by the values of
    its two operands, so a pair of values is multiplied once however often
    it recurs.  A caller composing many maps over few distinct entries
    passes one dict to every call; by default the memo lives for one call.
    """
    if products is None:
        products = {}
    by_col = {}
    for (k, j), env in outer.items():
        by_col.setdefault(j, []).append((k, env, frozenset(env.terms.items())))
    out = {}
    for (j, i), e_inner in inner.items():
        inner_key = frozenset(e_inner.terms.items())
        for k, e_outer, outer_key in by_col.get(j, ()):
            product = products.get((inner_key, outer_key))
            if product is None:
                product = products[(inner_key, outer_key)] = e_inner * e_outer
            add_term(out, (k, i), product)
    return out


def pull_back(values, entries: dict, size: int) -> list:
    """Values on size generators of a cochain composed with a module map.

    values[j] is the cochain's value on generator j of the map's target, and
    entries is the map as a dict {(j, i): EnvElement}; the composite takes
    the value sum_j entry(j, i) . values[j] on generator i.
    """
    out = [values[0].algebra.zero()] * size
    for (j, i), env in entries.items():
        out[i] = out[i] + env.act(values[j])
    return out


@dataclass
class CheckReport:
    """Named checks in the order they ran: (name, passed, witness) triples."""

    checks: list = dataclass_field(default_factory=list)

    def record(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def record_first(self, name, witnesses):
        """Record a check that fails exactly when witnesses, listed in a fixed
        order and read lazily, holds one; the first one is the detail."""
        witness = next(iter(witnesses), "")
        self.record(name, not witness, witness)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def status(self, name) -> bool:
        for n, ok, _ in self.checks:
            if n == name:
                return ok
        raise KeyError(name)


def _linear_differential(A: QuantumCompleteIntersection, n: int, entries: dict) -> SparseMatrix:
    """d_n given by its entries as a k-linear matrix, (n a^4) x ((n+1) a^4).

    Entry (j, i) contributes the block of w -> w . entry at row offset j a^4
    and column offset i a^4.
    """
    size = A.dim * A.dim
    tiles = ((j * size, i * size, A.product_block(env)) for (j, i), env in entries.items())
    return SparseMatrix.tiled(n * size, (n + 1) * size, tiles, A.field)


def _linear_augmentation(A: QuantumCompleteIntersection) -> SparseMatrix:
    """The augmentation P_0 -> A, w f^0_0 -> w . 1, as one a^2 x a^4 tile."""
    block = {}
    for w in ((m1, m2) for m1 in A.monomials() for m2 in A.monomials()):
        hit = A.act_mono(w, (0, 0))
        if hit is not None:
            block[(A.mono_index(hit[1]), A.env_index(w))] = hit[0]
    return SparseMatrix.tiled(A.dim, A.dim * A.dim, [(0, 0, block)], A.field)


def verify_resolution(
    A: QuantumCompleteIntersection,
    n_max: int,
    exactness_max: int | None = None,
    variant: str | None = None,
) -> CheckReport:
    """Machine verification of the resolution up to degree n_max.

    Checks, in order: the two-band shape, d . d = 0 (including the
    augmentation), minimality, entry-wise agreement of the simplified variant
    with the general one, and exactness at the k-linear level for degrees up
    to exactness_max (defaults to n_max; exactness needs the ranks of k-linear
    matrices of size about (n+1) a^4, which dominate the cost).  A failing
    check names its first witness, by degree, then generator or entry.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if exactness_max is None:
        exactness_max = n_max
    report = CheckReport()
    variant = variant or preferred_variant(A)

    diffs = {n: differential(A, n, GENERAL) for n in range(1, n_max + 2)}

    report.record_first("two-band shape", (
        f"degree {n}, entry {(j, i)} is off the two bands"
        for n, d in diffs.items() for j, i in sorted(d) if j not in (i - 1, i)
    ))

    mu_d1 = pull_back([A.one()], diffs[1], 2)
    report.record_first("augmentation composes to zero", (
        f"mu . d_1 != 0 on f1_{i}: {element_to_text(value)}"
        for i, value in enumerate(mu_d1) if value
    ))

    for n in range(2, n_max + 1):
        leftover = compose(diffs[n - 1], diffs[n])
        if leftover:
            report.record(
                f"d.d = 0 at degree {n}", False, f"nonzero entry at {min(leftover)}"
            )
            break
    else:
        report.record(f"d.d = 0 up to degree {n_max}", True)

    report.record_first("minimality (entries in the radical)", (
        f"degree {n}, entry {key} is not in the radical"
        for n in range(1, n_max + 1) for key in sorted(diffs[n])
        if not diffs[n][key].in_radical()
    ))

    if variant != GENERAL:
        report.record_first("simplified variant agrees with general form", (
            f"degree {n}" for n in range(1, n_max + 1) if differential(A, n, variant) != diffs[n]
        ))

    if exactness_max >= 1:
        mu_rank = _linear_augmentation(A).rank()
        ker_mu = A.dim * A.dim - mu_rank
        ranks = {
            n: _linear_differential(A, n, diffs[n]).rank()
            for n in range(1, min(exactness_max + 1, n_max) + 1)
        }
        report.record(
            "exactness at P_0 (im d_1 = ker mu)",
            mu_rank == A.dim and ranks[1] == ker_mu,
            f"rank mu = {mu_rank}, rank d_1 = {ranks[1]}, dim ker mu = {ker_mu}",
        )
        for n in range(1, min(exactness_max, n_max - 1) + 1):
            dim_source = (n + 1) * A.dim * A.dim
            ker = dim_source - ranks[n]
            im = ranks[n + 1]
            report.record(
                f"exactness at P_{n}",
                ker == im,
                f"dim ker d_{n} = {ker}, dim im d_{n+1} = {im}",
            )
    return report
