"""Products on even cohomology via explicit chain-map liftings.

A scalar-valued even cocycle lifts to a family of module maps h_s one row up
the resolution; composing the other factor with h_(2m) realizes the product.
Entry (j, i) of h_s is the coefficient p_(i-j) times a correction factor
that depends only on the parities of s, i and j, built from the beta
elements:

    omega_plus = beta_x(-1) beta_y(1)   (s even, i even, j odd)
    eps_x = -beta_x(0)                  (s odd, i even, j odd)
    eps_y = -beta_y(0)                  (s odd, i odd, j even)

and 1 everywhere else.  At a = 2 the same rule holds with the factors
1, -1, -1: the bare convolution with an alternating sign in odd levels.

verify_lifting checks each square d_s h_s = h_(s-1) d_(2t+s) as an equality
of two module maps, both sides built by resolution.compose, and the base
triangle by pulling the augmentation back along h_0 with resolution.pull_back.
The squares of one check share one product memo, so each distinct pair of
entry values is multiplied once.  For the unit cochains the suites lift,
every h_s entry is one of four factors and the differential entries depend
only on parities, so few distinct pairs recur.
A failing square names its first mismatch in (column, target) order, and a
failing base triangle its first generator.

yoneda_product pulls the first factor back along the top map h_(2m) the same
way, building h_(2m) only on the rows where that factor is nonzero: the other
rows meet zero values, so the product is exact for any left factor.

Note on eps_x: the commuting-square conditions pin it to -beta_x(0); with
-beta_x(1) in its place the odd-level squares fail, which verify_lifting
demonstrates directly.  The thirteen product identities in relations_check
are exactly what make all four parity cases of the squares close up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import QuantumCompleteIntersection, element_to_text
from .cohomology import (
    Cochain,
    CohomologyClass,
    express,
    standard_basis,
)
from .resolution import (
    GAMMA_X,
    GAMMA_Y,
    TAU_X,
    TAU_Y,
    CheckReport,
    OrderError,
    beta_element,
    compose,
    differential,
    preferred_variant,
    pull_back,
    structure_element,
)
from .scalars import c_sequence


class NonScalarError(ValueError):
    """Lifting requested for a cochain whose values are not scalars."""


class TableMismatchError(RuntimeError):
    """A product table cell disagrees with the closed form."""


class LiftingFamily:
    """Maps h_s: P_(2t+s) -> P_s for s = 0..s_max lifting a scalar cochain."""

    def __init__(self, algebra, degree, values, s_max, maps):
        self.algebra = algebra
        self.degree = degree
        self.values = list(values)
        self.s_max = s_max
        self.maps = maps  # s -> dict (j, i) -> EnvElement


def _scalar_value(p):
    """The field scalar p stands for: p itself, or c when p is c * 1 in A."""
    if not hasattr(p, "is_scalar"):
        return p
    if not p.is_scalar():
        raise NonScalarError("lifting needs scalar values; got a non-unit monomial")
    return p.coefficient(0, 0)


def _lifted_values(values) -> list:
    """The scalars of an even-degree cochain to be lifted."""
    vals = [_scalar_value(p) for p in values]
    if (len(vals) - 1) % 2 != 0:
        raise ValueError("liftings are built for even-degree cochains")
    return vals


def _correction_factors(A: QuantumCompleteIntersection) -> dict:
    """Factor of entry (j, i) of h_s by the parities (s, i, j); 1 when absent.

    Built once per context.  At a = 2, where c = (1), the beta formulas give
    1, -1, -1; beta_element keeps its OrderError there, so they are spelled
    out.
    """

    def build():
        one = A.env_one()
        if A.a < 3:
            omega_plus, eps_x, eps_y = one, -one, -one
        else:
            omega_plus = beta_element(A, "x", -1) * beta_element(A, "y", 1)
            eps_x = -beta_element(A, "x", 0)
            eps_y = -beta_element(A, "y", 0)
        return {(0, 0, 1): omega_plus, (1, 0, 1): eps_x, (1, 1, 0): eps_y}

    return A.cached(("lifting factors",), build)


def _lifting_level(A, vals, s, factors, rows=None) -> dict:
    """h_s as (j, i) -> factor * p_(i-j), for j <= s and 0 <= i - j <= degree.

    rows, when given, keeps only the entries whose row j it holds; the order
    of the rest is unchanged.
    """
    degree = len(vals) - 1
    one = A.env_one()
    entries = {}
    for i in range(degree + s + 1):
        for j in range(max(0, i - degree), min(s, i) + 1):
            p = vals[i - j]
            if p and (rows is None or j in rows):
                entries[(j, i)] = factors.get((s % 2, i % 2, j % 2), one).scale(p)
    return entries


def build_lifting(
    A: QuantumCompleteIntersection,
    values,
    s_max: int,
    _omega_plus=None,
    _eps_x=None,
    _eps_y=None,
) -> LiftingFamily:
    """Assemble h_0..h_(s_max) for a degree-2t cochain given by its values.

    values may be field scalars or scalar AlgebraElements.  The private
    keyword hooks substitute the correction factors; tests use them as
    negative controls.
    """
    vals = _lifted_values(values)
    hooks = {(0, 0, 1): _omega_plus, (1, 0, 1): _eps_x, (1, 1, 0): _eps_y}
    factors = {
        key: factor if hooks[key] is None else hooks[key]
        for key, factor in _correction_factors(A).items()
    }
    maps = {s: _lifting_level(A, vals, s, factors) for s in range(s_max + 1)}
    return LiftingFamily(A, len(vals) - 1, vals, s_max, maps)


def verify_lifting(family: LiftingFamily) -> CheckReport:
    """Check every square d_s h_s = h_(s-1) d_(2t+s) and the base triangle."""
    A = family.algebra
    variant = preferred_variant(A)
    report = CheckReport()

    # mu . h_0 pulls the augmentation's cochain, 1 on f^0_0, back along h_0
    recovered = pull_back([A.one()], family.maps[0], family.degree + 1)
    wanted = [A.one().scale(p) for p in family.values]
    report.record_first("h_0 recovers the cochain through the augmentation", (
        f"f{family.degree}_{i}: {element_to_text(got)} versus {element_to_text(want)}"
        for i, (got, want) in enumerate(zip(recovered, wanted)) if got != want
    ))

    zero = A.env_zero()
    products = {}  # the squares share few distinct entry values
    for s in range(1, family.s_max + 1):
        lhs = compose(differential(A, s, variant), family.maps[s], products)
        rhs = compose(family.maps[s - 1], differential(A, family.degree + s, variant), products)
        # the first mismatch in (column i, target k) order
        report.record_first(f"square at s={s}", (
            f"s={s}, column {i}, target {k}: "
            f"{element_to_text(lhs.get((k, i), zero))} versus {element_to_text(rhs.get((k, i), zero))}"
            for i, k in sorted((i, k) for k, i in lhs.keys() | rhs.keys())
            if lhs.get((k, i)) != rhs.get((k, i))
        ))
    return report


def yoneda_product(
    chi: CohomologyClass, xi: CohomologyClass
) -> tuple[CohomologyClass, list]:
    """Compose chi with the top lifting map of xi.

    Returns the product class together with its coordinates over the named
    basis of the target degree.  xi must be scalar-valued; chi may be any
    even class.
    """
    A = chi.representative.algebra
    two_m = chi.degree
    two_t = xi.degree
    vals = _lifted_values(xi.representative.values)
    left = chi.representative.values
    # rows where chi vanishes pull back to zero, so h_(2m) skips them
    rows = {j for j, value in enumerate(left) if value}
    top = _lifting_level(A, vals, two_m, _correction_factors(A), rows)
    out_values = pull_back(left, top, two_t + two_m + 1)
    product = Cochain(A, two_t + two_m, out_values)
    basis = standard_basis(A, two_t + two_m)
    expressed = express(A, product)
    coords = expressed.coordinates
    # name the result when it lands exactly on one basis class
    label = ""
    hits = [k for k, c in enumerate(coords) if c]
    if len(hits) == 1 and coords[hits[0]] == A.field.one():
        label = basis[hits[0]].label
    elif not hits:
        label = "0"
    cls = CohomologyClass(degree=two_t + two_m, representative=product, label=label)
    return cls, coords


def relations_check(A: QuantumCompleteIntersection):
    """Expand the thirteen two-sided identities between the band elements."""
    if A.a < 3:
        raise OrderError("the beta-element identities need a >= 3")

    def bx(s):
        return beta_element(A, "x", s)

    def by(s):
        return beta_element(A, "y", s)

    def tx(s):
        return structure_element(A, TAU_X, s)

    def ty(s):
        return structure_element(A, TAU_Y, s)

    def gx(s):
        return structure_element(A, GAMMA_X, s)

    def gy(s):
        return structure_element(A, GAMMA_Y, s)

    identities = [
        ("a", lambda: by(1) * ty(1), lambda: gy(2)),
        ("b", lambda: bx(-1) * gy(2), lambda: gy(0) * bx(0)),
        ("c", lambda: bx(-1) * by(1), lambda: by(-1) * bx(1)),
        ("d", lambda: bx(1) * tx(1), lambda: -gx(2)),
        ("e", lambda: by(-1) * gx(2), lambda: gx(0) * by(0)),
        ("f", lambda: by(0) * ty(0), lambda: gy(1)),
        ("g", lambda: bx(0) * tx(0), lambda: -gx(1)),
        ("h", lambda: ty(1) * by(0), lambda: gy(0)),
        ("i", lambda: tx(0) * bx(-1), lambda: -gx(-1)),
        ("j", lambda: gx(-1) * by(1), lambda: by(0) * gx(1)),
        ("k", lambda: ty(0) * by(-1), lambda: gy(-1)),
        ("l", lambda: tx(1) * bx(0), lambda: -gx(0)),
        ("m", lambda: bx(0) * gy(1), lambda: gy(-1) * bx(1)),
    ]
    report = CheckReport()
    for name, lhs_fn, rhs_fn in identities:
        lhs = lhs_fn()
        rhs = rhs_fn()
        ok = lhs == rhs
        witness = "" if ok else f"difference: {element_to_text(lhs - rhs)}"
        report.record(name, ok, witness)
    return report


def sum_identity_check(A: QuantumCompleteIntersection) -> bool:
    """Whether the c-weighted geometric sum sum_i c_i q^i vanishes."""
    if A.a < 3:
        raise OrderError("the weighted sum is considered for a >= 3 only")
    total = A.field.zero()
    for i, c in enumerate(c_sequence(A.a, A.q)):
        total = total + c * A.q_power(i)
    return not total


def nilpotency_witness(cls: CohomologyClass):
    """Radical certificate: every representative value misses the unit."""
    flags = [value.in_radical() for value in cls.representative.values]
    return NilpotencyCertificate(label=cls.label, flags=flags)


@dataclass
class NilpotencyCertificate:
    label: str
    flags: list

    @property
    def valid(self) -> bool:
        return all(self.flags)


# ---------------------------------------------------------------------------
# the reduced even ring


@dataclass
class ProductTable:
    """All pairwise products of the scalar classes up to a degree bound."""

    a: int
    backend: str
    max_degree: int
    cells: dict
    checked: list

    def to_json_obj(self):
        cells = []
        for (dm, l, dt, r), result in sorted(self.cells.items()):
            cells.append(
                {
                    "left": {"degree": dm, "index": l},
                    "right": {"degree": dt, "index": r},
                    "product": result,
                }
            )
        return {
            "schema": "qci-hochschild/1",
            "a": self.a,
            "backend": self.backend,
            "max_degree": self.max_degree,
            "cells": cells,
            "checks": self.checked,
        }


def reduced_ring_table(A: QuantumCompleteIntersection, max_degree: int) -> ProductTable:
    """Multiply every pair of scalar basis classes and pin the closed form.

    For a = 2 the product of the r-indexed and l-indexed scalar classes is
    the (r+l)-indexed one in the sum degree, without exception; for a >= 3 it
    is zero when both indices are odd and additive otherwise.  On top of the
    table itself this routine checks commutativity, associativity on basis
    triples, the index-parity grading, the polynomial-ring structure
    constants of the even-index part, and for a = 2 that every odd-index
    class is an even-index class times the middle degree-2 generator.
    """
    if max_degree % 2 != 0 or max_degree < 0:
        raise ValueError("max_degree must be even")
    one = A.field.one()
    cells = {}
    checked = []

    def closed_form(dm, l, dt, r):
        if A.a >= 3 and l % 2 == 1 and r % 2 == 1:
            return None
        return (dm + dt, l + r)

    for dm in range(0, max_degree + 1, 2):
        for dt in range(0, max_degree - dm + 1, 2):
            for l in range(dm + 1):
                for r in range(dt + 1):
                    # scalar classes come first in the basis, index 0..degree
                    chi = standard_basis(A, dm)[l]
                    xi = standard_basis(A, dt)[r]
                    _, coords = yoneda_product(chi, xi)
                    target = standard_basis(A, dm + dt)
                    expected = closed_form(dm, l, dt, r)
                    hits = {
                        target[k].label: c for k, c in enumerate(coords) if c
                    }
                    if expected is None:
                        if hits:
                            raise TableMismatchError(
                                f"({dm},{l}) x ({dt},{r}) expected 0, got {hits}"
                            )
                        cells[(dm, l, dt, r)] = None
                    else:
                        want_label = target[expected[1]].label
                        if list(hits) != [want_label] or hits[want_label] != one:
                            raise TableMismatchError(
                                f"({dm},{l}) x ({dt},{r}) expected {want_label}, "
                                f"got {hits}"
                            )
                        cells[(dm, l, dt, r)] = {
                            "degree": expected[0],
                            "index": expected[1],
                        }
    checked.append("closed form")

    for (dm, l, dt, r), result in cells.items():
        if cells[(dt, r, dm, l)] != result:
            raise TableMismatchError(f"commutativity fails at ({dm},{l}),({dt},{r})")
    checked.append("commutativity")

    # index parity is additive on nonzero products
    for (dm, l, dt, r), result in cells.items():
        if result is not None and (l + r) % 2 != result["index"] % 2:
            raise TableMismatchError("parity grading violated")
    checked.append("parity grading")

    # associativity over basis triples within the degree bound
    def cell(dm, l, dt, r):
        return cells[(dm, l, dt, r)]

    for d1 in range(0, max_degree + 1, 2):
        for d2 in range(0, max_degree - d1 + 1, 2):
            for d3 in range(0, max_degree - d1 - d2 + 1, 2):
                for i in range(d1 + 1):
                    for j in range(d2 + 1):
                        for k in range(d3 + 1):
                            left = cell(d1, i, d2, j)
                            lhs = (
                                None
                                if left is None
                                else cell(left["degree"], left["index"], d3, k)
                            )
                            right = cell(d2, j, d3, k)
                            rhs = (
                                None
                                if right is None
                                else cell(d1, i, right["degree"], right["index"])
                            )
                            if lhs != rhs:
                                raise TableMismatchError(
                                    f"associativity fails at degrees "
                                    f"({d1},{i}),({d2},{j}),({d3},{k})"
                                )
    checked.append("associativity")

    # even-index part is the bigraded monomial ring on two degree-2 classes:
    # (2t, i) with i even corresponds to the pair of exponents ((2t-i)/2, i/2)
    for (dm, l, dt, r), result in cells.items():
        if l % 2 == 0 and r % 2 == 0:
            e_left = ((dm - l) // 2, l // 2)
            e_right = ((dt - r) // 2, r // 2)
            total = (e_left[0] + e_right[0], e_left[1] + e_right[1])
            want = (2 * (total[0] + total[1]), 2 * total[1])
            got = (result["degree"], result["index"])
            if got != want:
                raise TableMismatchError(
                    f"polynomial structure constants fail at ({dm},{l}),({dt},{r})"
                )
    checked.append("polynomial ring structure constants on the even-index part")

    if A.a == 2 and max_degree >= 2:
        for dm in range(2, max_degree + 1, 2):
            for l in range(1, dm + 1, 2):
                via = cells[(dm - 2, l - 1, 2, 1)]
                if via != {"degree": dm, "index": l}:
                    raise TableMismatchError(
                        f"odd part is not (even part) * xi_1^2 at ({dm},{l})"
                    )
        checked.append("odd-index part equals even-index part times xi_1^2")

    return ProductTable(
        a=A.a,
        backend=A.field.describe(),
        max_degree=max_degree,
        cells=cells,
        checked=checked,
    )
