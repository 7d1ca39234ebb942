"""Cohomology of A by two independent routes.

Route one applies Hom(-, A) to the minimal resolution: a degree-n cochain is
the list of its values on the generators f^n_i, so Hom(P_n, A) = A^(n+1) and
the transpose differentials become k-linear matrices assembled from the
bimodule action.

Route two computes the homology of the twisted chain complex obtained by
tensoring the resolution with A twisted by the graded automorphism on one
side; its differentials collapse to the explicit monomial rules implemented
in delta_matrix.  Both routes must produce the same dimensions, which is one
of the package's standing cross-checks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .algebra import AlgebraElement, QuantumCompleteIntersection, element_to_text
from .linalg import SparseMatrix, add_term
from .resolution import differential, preferred_variant
from .scalars import k_sum


class BasisError(RuntimeError):
    """A claimed cohomology basis failed its verification."""


class NotCocycleError(ValueError):
    """Cochain is not killed by the next transpose differential."""


class Cochain:
    """Map P_n -> A stored by its values (p_0, ..., p_n) on the generators."""

    __slots__ = ("algebra", "degree", "values")

    def __init__(self, algebra, degree, values):
        if len(values) != degree + 1:
            raise ValueError("a degree-n cochain carries n+1 values")
        self.algebra = algebra
        self.degree = degree
        self.values = list(values)

    def to_vector(self):
        A = self.algebra
        vec = {}
        for i, value in enumerate(self.values):
            for m, c in value.terms.items():
                vec[i * A.dim + A.mono_index(m)] = c
        return vec

    @classmethod
    def from_vector(cls, algebra, degree, vec):
        values = [dict() for _ in range(degree + 1)]
        for idx, c in vec.items():
            if not c:
                continue
            i, m = divmod(idx, algebra.dim)
            values[i][algebra.mono_from_index(m)] = c
        return cls(
            algebra, degree, [AlgebraElement(algebra, terms) for terms in values]
        )

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self):
        inside = ", ".join(element_to_text(v) for v in self.values)
        return f"Cochain(deg={self.degree}; {inside})"


@dataclass
class CohomologyClass:
    """A cocycle of one degree, named by its label when it is a basis class."""

    degree: int
    representative: Cochain
    label: str = ""

    def __repr__(self):
        return f"CohomologyClass({self.label or 'deg ' + str(self.degree)})"


def hom_differential(A: QuantumCompleteIntersection, n: int) -> SparseMatrix:
    """Matrix of composing with d_n, from A^n to A^(n+1), on monomial bases.

    The band entry d_n(j, i) contributes the action block of that band
    element at row offset i a^2 and column offset j a^2; every entry comes
    from the resolution through the bimodule action.  The block is looked up
    once for each distinct band-element object, which the rewritten variants
    share among all columns of a parity class.
    """
    if n < 1:
        raise ValueError("transpose differentials start in degree 1")

    def build():
        a2 = A.dim
        blocks = {}  # id(band element) -> its action block; the differential holds the elements
        tiles = []
        for (j, i), env in differential(A, n, preferred_variant(A)).items():
            block = blocks.get(id(env))
            if block is None:
                block = blocks[id(env)] = A.action_block(env)
            tiles.append((i * a2, j * a2, block))
        return SparseMatrix.tiled((n + 1) * a2, n * a2, tiles, A.field)

    return A.cached(("homdiff", n), build)


def hh_dimension_ext(A: QuantumCompleteIntersection, n: int) -> int:
    """dim of degree-n cohomology via the Hom route."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    kernel_dim = (n + 1) * A.dim - hom_differential(A, n + 1).rank()
    image_dim = 0 if n == 0 else hom_differential(A, n).rank()
    return kernel_dim - image_dim


def _geometric_sums(A: QuantumCompleteIntersection) -> list:
    """The geometric sums K(m), m <= a + 1, computed once per context."""
    return A.cached("ksums", lambda: [k_sum(A.a, A.q_power(m)) for m in range(A.a + 2)])


def _delta_block(A: QuantumCompleteIntersection, n: int, i: int, sub: bool) -> Mapping:
    """{(row, col): c} from y^u x^v e^n_i to generator i, or i - 1 when sub.

    The entries depend on n and i only through their parities, so a context
    builds at most eight blocks, each handed out as a read-only view.  The
    diagonal part weights like gamma_y when i and n have the same parity and
    like tau_y otherwise; the sub-band part like gamma_x for even i and like
    tau_x for odd i.
    """
    n_odd, i_odd = n % 2, i % 2

    def build():
        a = A.a
        qp = A.q_power
        one = A.field.one()
        K = _geometric_sums(A)
        block = {}

        def put(mono, col, scalar):
            add_term(block, (A.mono_index(mono), col), scalar)

        for u in range(a):
            for v in range(a):
                col = A.mono_index((u, v))
                if not sub:
                    if n_odd == i_odd:
                        if u == 0:
                            put((a - 1, v), col, qp(1) * K[v + 1 + n_odd])
                    elif u + 1 < a:
                        weight = qp(a - 1) - qp(v) if n_odd else qp(v + 1) - qp(a - 1)
                        put((u + 1, v), col, weight)
                elif not i_odd:
                    if v == 0:
                        put((u, a - 1), col, K[u + 1 + n_odd])
                elif v + 1 < a:
                    put((u, v + 1), col, qp(u + 2 - n_odd) - one)
        return MappingProxyType(block)

    return A.cached(("delta-block", n_odd, i_odd, sub), build)


def delta_matrix(A: QuantumCompleteIntersection, n: int) -> SparseMatrix:
    """Differential of the twisted chain complex on the basis y^u x^v e^n_i.

    Monomials whose exponents overflow a vanish; generator indices outside
    0..n-1 on the target side are dropped.  The scalar weights are geometric
    sums in q and differences of q powers, read off from the one-sided twist.
    Column generator i carries its diagonal block at rows of generator i when
    i <= n - 1 and its sub-band block at rows of generator i - 1 when i >= 1;
    both blocks are shared by every degree of the parity of n.
    """
    if n < 1:
        raise ValueError("delta differentials start in degree 1")

    def build():
        a2 = A.dim
        diagonal = [_delta_block(A, n, i, sub=False) for i in (0, 1)]
        sub = [_delta_block(A, n, i, sub=True) for i in (0, 1)]
        tiles = [(i * a2, i * a2, diagonal[i % 2]) for i in range(n)]
        tiles += [((i - 1) * a2, i * a2, sub[i % 2]) for i in range(1, n + 1)]
        return SparseMatrix.tiled(n * a2, (n + 1) * a2, tiles, A.field)

    return A.cached(("delta", n), build)


def hh_dimension_tor(A: QuantumCompleteIntersection, n: int) -> int:
    """dim of degree-n cohomology via the twisted-complex route."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        kernel_dim = A.dim
    else:
        kernel_dim = (n + 1) * A.dim - delta_matrix(A, n).rank()
    return kernel_dim - delta_matrix(A, n + 1).rank()


# ---------------------------------------------------------------------------
# named cocycle bases in even degrees


def _standard_values(A, degree):
    """(label, generator index, value) triples for the even-degree basis."""
    a = A.a
    out = []
    if a == 2:
        for r in range(degree + 1):
            out.append((f"xi_{r}", r, A.one()))
        for r in range(degree + 1):
            out.append((f"eta_{r}", r, A.x() * A.y()))
    else:
        for j in range(degree + 1):
            out.append((f"zeta_{j}", j, A.one()))
        for j in range(0, degree + 1, 2):
            out.append((f"eta+_{j}", j, A.xpow(a - 1) * A.ypow(a - 1)))
        for j in range(1, degree + 1, 2):
            out.append((f"eta-_{j}", j, A.x() * A.y()))
    return out


def _named_basis(A, degree):
    """(classes, [named basis | coboundaries] matrix) of an even degree.

    Built and verified once per context.  The matrix gives the independence
    check its rank and keeps the factorization that every express in this
    degree solves with.
    """

    def build():
        hom_next = hom_differential(A, degree + 1)
        classes = []
        tiles = []
        for label, index, value in _standard_values(A, degree):
            values = [A.zero()] * (degree + 1)
            values[index] = value
            cochain = Cochain(A, degree, values)
            vec = cochain.to_vector()
            if hom_next.apply(vec):
                raise BasisError(f"{label} in degree {degree} is not a cocycle")
            tiles.append((0, len(classes), {(row, 0): c for row, c in vec.items()}))
            classes.append(CohomologyClass(degree=degree, representative=cochain, label=label))

        ncols = len(classes)
        image_rank = 0
        if degree >= 2:
            hom_prev = hom_differential(A, degree)
            tiles.append((0, ncols, hom_prev.entries))
            ncols += hom_prev.cols
            image_rank = hom_prev.rank()
        solver = SparseMatrix.tiled((degree + 1) * A.dim, ncols, tiles, A.field)

        expected = 2 * degree + 2
        span = solver.rank() - image_rank
        if span != expected:
            raise BasisError(
                f"degree {degree}: classes span {span} directions "
                f"modulo coboundaries, expected {expected}"
            )
        dim = hh_dimension_ext(A, degree)
        if dim != expected:
            raise BasisError(
                f"degree {degree}: cohomology has dimension {dim}, "
                f"so {expected} classes cannot span it"
            )
        return classes, solver

    return A.cached(("stdbasis", degree), build)


def standard_basis(A: QuantumCompleteIntersection, degree: int) -> list:
    """The 2*degree + 2 named classes in an even degree, fully verified.

    Every candidate is checked to be a cocycle, the family to be independent
    modulo coboundaries, and the cohomology to have dimension 2*degree + 2,
    so the family is a basis; BasisError carries the first witness.
    """
    if degree % 2 != 0 or degree < 0:
        raise ValueError("named bases exist in even degrees")
    return _named_basis(A, degree)[0]


@dataclass
class ExpressedCocycle:
    """Coordinates over the named basis plus an explicit coboundary witness."""

    coordinates: list
    certificate: Cochain | None


def express(A: QuantumCompleteIntersection, cochain: Cochain) -> ExpressedCocycle:
    """Write an even-degree cocycle over the named basis, with certificate.

    The certificate is a cochain one degree down whose transpose differential
    accounts for the part of the input not visible in the basis coordinates;
    free variables are set to zero so the output is deterministic.
    """
    degree = cochain.degree
    if degree % 2 != 0:
        raise ValueError("only even degrees carry a named basis")
    vec = cochain.to_vector()
    if hom_differential(A, degree + 1).apply(vec):
        raise NotCocycleError(f"cochain of degree {degree} is not a cocycle")
    basis, solver = _named_basis(A, degree)
    nbasis = len(basis)
    solution = solver.solve(vec)
    if solution is None:
        raise NotCocycleError("cocycle failed to decompose over basis + coboundaries")
    coords = [solution.get(j, A.field.zero()) for j in range(nbasis)]
    certificate = None
    if degree >= 2:
        cert_vec = {
            col - nbasis: c for col, c in solution.items() if col >= nbasis and c
        }
        certificate = Cochain.from_vector(A, degree - 1, cert_vec)
    return ExpressedCocycle(coordinates=coords, certificate=certificate)


# ---------------------------------------------------------------------------
# dimension tables


@dataclass
class DimensionTable:
    a: int
    backend: str
    rows: list

    def consistent(self) -> bool:
        return all(row["ext"] == row["tor"] for row in self.rows)

    def to_json_obj(self):
        return {
            "schema": "qci-hochschild/1",
            "a": self.a,
            "backend": self.backend,
            "rows": self.rows,
        }

    def to_csv_text(self) -> str:
        lines = ["n,ext,tor"] + [f"{row['n']},{row['ext']},{row['tor']}" for row in self.rows]
        return "\n".join(lines) + "\n"


def dimension_table(A: QuantumCompleteIntersection, max_degree: int) -> DimensionTable:
    rows = [
        {"n": n, "ext": hh_dimension_ext(A, n), "tor": hh_dimension_tor(A, n)}
        for n in range(max_degree + 1)
    ]
    return DimensionTable(a=A.a, backend=A.field.describe(), rows=rows)
