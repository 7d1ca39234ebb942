"""Brute-force cross-check on tensor powers of A over a prime field.

This route is deliberately independent of the minimal-resolution pipeline:
it carries its own monomial arithmetic, assembles the standard coboundary on
normalized cochains on Hom(Abar^(tensor n), A), and does its own exact sparse
row reduction on Python ints mod p, for any prime p = 1 (mod a).  Agreement
of its dimensions with the two primary routes is one of the acceptance checks.

A normalized cochain vanishes as soon as one argument is 1, so its arguments
range over the a^2 - 1 non-unit monomials, the basis of Abar = A/k.  These
cochains form a subcomplex quasi-isomorphic to the full one (Loday, Cyclic
Homology, ch. 1).  A is local with the non-unit monomials spanning its
radical, so a product of two non-units is zero or a non-unit: the
contractions in the coboundary never leave that alphabet, and the cup
product of normalized cochains is normalized.

A is Z^2-graded by deg y^u x^v = (u, v), and the coboundary preserves the
internal bidegree deg(value) - sum deg(arguments) of a basis cochain.  The
elimination needs no split by bidegree: a row is only reduced by pivot rows
keyed at columns it already holds, so rows of different bidegrees never mix.
"""

from __future__ import annotations

from .scalars import _is_prime, smallest_prime_modulus, smallest_root_of_unity

DEFAULT_SIZE_CAP = 100_000


class SizeError(RuntimeError):
    """Cochain space exceeds the configured dimension cap."""


def _subtract(row: dict, lead: int, tail: dict, p: int) -> None:
    """row -= lead * tail mod p, in place, dropping the entries that cancel."""
    for c, v in tail.items():
        w = (row.get(c, 0) - lead * v) % p
        if w:
            row[c] = w
        else:
            row.pop(c, None)


class _Echelon:
    """Row echelon form mod p over ncols columns, grown one sparse row at a time.

    Rows are dicts {col: value}.  Each pivot row is normalised to lead with 1
    and kept, without that leading entry, under its first column.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row, lead_only: bool) -> dict:
        """Subtract pivot rows from a copy of `row`, lowest column first.

        With lead_only the reduction stops at the first column without a
        pivot; otherwise it clears every pivot column.
        """
        p, pivots = self.p, self._pivots
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            cols = row if lead_only else [c for c in row if c in pivots]
            if not cols:
                break
            col = min(cols)
            tail = pivots.get(col)
            if tail is None:
                break
            _subtract(row, row.pop(col), tail, p)
        return row

    def add(self, row) -> bool:
        """Add a row; True when it is independent of the rows before it."""
        row = self._reduce(row, lead_only=True)
        if not row:
            return False
        col = min(row)
        inv = pow(row.pop(col), -1, self.p)
        self._pivots[col] = {c: v * inv % self.p for c, v in row.items()}
        return True

    def residue(self, row) -> dict:
        """`row` reduced against the span; empty exactly when it lies in it."""
        return self._reduce(row, lead_only=False)

    def kernel(self) -> list:
        """Basis of the vectors killed by every added row, one per free column.

        One back-substitution, from the last pivot up, brings the pivot rows
        to reduced form; the kernel vector of a free column f is then e_f
        minus the column f of the reduced rows, read at their pivots.
        """
        p = self.p
        reduced: dict[int, dict[int, int]] = {}
        for col in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[col])
            for c in [c for c in row if c in reduced]:
                _subtract(row, row.pop(c), reduced[c], p)
            reduced[col] = row
        kernel = {f: {f: 1} for f in range(self.ncols) if f not in reduced}
        for col, row in reduced.items():
            for f, v in row.items():
                kernel[f][col] = -v % p
        return [kernel[f] for f in sorted(kernel)]


class _SparseRows:
    """Row-sparse matrix mod p: rows[i] is a dict {col: value}."""

    def __init__(self, nrows, ncols, rows, p):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.p = p
        self._rank = None

    def echelon(self) -> _Echelon:
        """Echelon form of the rows, added shortest first.

        Short rows make short pivots, so later rows gain less fill-in.  The
        pivot columns and the reduced rows depend only on the row space, so
        the order changes neither the rank nor the kernel basis.
        """
        out = _Echelon(self.ncols, self.p)
        for row in sorted(self.rows, key=len):
            out.add(row)
        return out

    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.echelon().rank
        return self._rank

    def apply(self, vec) -> list:
        """Matrix-vector product mod p for a dense list of ints."""
        return [sum(v * vec[c] for c, v in row.items()) % self.p for row in self.rows]


class BarCochain:
    """Degree-n cochain as a dense list of coefficients over the tuple basis."""

    __slots__ = ("degree", "vec")

    def __init__(self, degree: int, vec):
        self.degree = degree
        self.vec = list(vec)


class BarComplex:
    """Normalized cochains on Hom(Abar^(tensor n), A) over F_p for one a.

    A basis cochain of degree n is an n-tuple of non-unit monomials (the
    arguments, each an index 1..a^2-1) and a value monomial 0..a^2-1; its
    index is _tuple_index(arguments) * a^2 + value.
    """

    def __init__(self, a: int, modulus: int | None = None, size_cap: int = DEFAULT_SIZE_CAP):
        if a < 2:
            raise ValueError("a must be at least 2")
        if size_cap < 1:
            raise ValueError(f"size cap must be at least 1, got {size_cap}")
        self.a = a
        self.p = modulus if modulus is not None else smallest_prime_modulus(a)
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if (self.p - 1) % a != 0:
            raise ValueError(f"modulus {self.p} admits no root of order {a}")
        self.size_cap = size_cap
        self.dim = a * a  # dim of A
        self.letters = self.dim - 1  # the non-unit monomials 1..a^2-1
        self.q = smallest_root_of_unity(self.p, a)
        self._qpow = [pow(self.q, k, self.p) for k in range(a)]
        self._diff_cache: dict[int, _SparseRows] = {}
        self._left, self._right = self._action_tables()

    # -- monomials: index u*a + v stands for y^u x^v ------------------------

    def _mul(self, m1: int, m2: int):
        """(value, monomial index) or None, all mod p."""
        a = self.a
        u1, v1 = divmod(m1, a)
        u2, v2 = divmod(m2, a)
        if u1 + u2 >= a or v1 + v2 >= a:
            return None
        return (self._qpow[(v1 * u2) % a], (u1 + u2) * a + v1 + v2)

    def _action_tables(self):
        """For each monomial s, the lists over r of (m, c) with s.m = c r
        (left) and m.s = c r (right), or None where no such m exists."""
        d = self.dim
        left = [[None] * d for _ in range(d)]
        right = [[None] * d for _ in range(d)]
        for s in range(d):
            for m in range(d):
                hit = self._mul(s, m)
                if hit is not None:
                    left[s][hit[1]] = (m, hit[0])
                hit = self._mul(m, s)
                if hit is not None:
                    right[s][hit[1]] = (m, hit[0])
        return left, right

    def cochain_dim(self, n: int) -> int:
        return self.letters**n * self.dim

    def _check_cap(self, n: int):
        need = max(self.cochain_dim(n), self.cochain_dim(n + 1))
        if need > self.size_cap:
            raise SizeError(
                f"cochain space of dimension {need} exceeds the cap {self.size_cap}"
            )

    def _tuples(self, n: int):
        """All n-tuples of non-unit monomial indices, in mixed-radix order:
        the first argument varies fastest, so the k-th tuple has index k."""
        top = self.letters
        tup = [1] * n
        for _ in range(top**n):
            yield tuple(tup)
            for k in range(n):
                tup[k] += 1
                if tup[k] <= top:
                    break
                tup[k] = 1

    def _tuple_index(self, tup) -> int:
        idx = 0
        for k in reversed(range(len(tup))):
            idx = idx * self.letters + tup[k] - 1
        return idx

    def bar_differential(self, n: int) -> _SparseRows:
        """Coboundary from degree n to degree n+1 on the tuple bases.

        The value of the image cochain on (a_1, ..., a_(n+1)) is the outer
        left action on the first argument, minus/plus the contractions of
        adjacent arguments, plus the signed outer right action on the last.

        The column offsets of these terms depend on the tuple only, so they
        are computed once per tuple and shared by its a^2 rows.  In the
        normalized basis the contraction columns are pairwise distinct and
        apart from the two action columns, since their arguments carry a
        different total degree; only the two actions can land on one column.
        """
        if n < 0:
            raise ValueError("degree must be nonnegative")
        self._check_cap(n)
        cached = self._diff_cache.get(n)
        if cached is not None:
            return cached
        d, letters, p = self.dim, self.letters, self.p
        ncols = self.cochain_dim(n)
        nrows = self.cochain_dim(n + 1)
        rows: list = [None] * nrows  # every row is set below
        last_sign = 1 if (n + 1) % 2 == 0 else -1
        power = [letters**k for k in range(n + 2)]
        for idx, tup in enumerate(self._tuples(n + 1)):
            # contraction k merges a_(k+1), a_(k+2) into digit k of the index
            contractions = []
            sign = 1
            for k in range(n):
                sign = -sign
                hit = self._mul(tup[k], tup[k + 1])
                if hit is None:
                    continue
                val, merged = hit
                inner = (idx % power[k] + (merged - 1) * power[k]
                         + idx // power[k + 2] * power[k + 1])
                contractions.append((inner * d, sign * val % p))
            left_base = idx // letters * d  # f(a_2, ..., a_(n+1))
            right_base = idx % power[n] * d  # f(a_1, ..., a_n)
            left, right = self._left[tup[0]], self._right[tup[n]]
            for r in range(d):
                row = {base + r: val for base, val in contractions}
                hit = left[r]
                if hit is not None:
                    row[left_base + hit[0]] = hit[1]
                hit = right[r]
                if hit is not None:
                    col = right_base + hit[0]
                    val = (row.get(col, 0) + last_sign * hit[1]) % p
                    if val:
                        row[col] = val
                    else:
                        del row[col]
                rows[idx * d + r] = row
        result = _SparseRows(nrows, ncols, rows, p)
        self._diff_cache[n] = result
        return result

    def bar_hh_dimension(self, n: int) -> int:
        """Cohomology dimension in degree n, entirely within this oracle."""
        kernel = self.cochain_dim(n) - self.bar_differential(n).rank()
        image = self.bar_differential(n - 1).rank() if n >= 1 else 0
        return kernel - image

    # -- cup products --------------------------------------------------------

    def is_cocycle(self, cochain: BarCochain) -> bool:
        return not any(self.bar_differential(cochain.degree).apply(cochain.vec))

    def cup_product(self, f: BarCochain, g: BarCochain) -> BarCochain:
        """Concatenation product (f . g)(a_1..a_(m+n)) = f(front) g(back)."""
        m, n = f.degree, g.degree
        self._check_cap(m + n)
        d = self.dim
        out = [0] * self.cochain_dim(m + n)
        for tup in self._tuples(m + n):
            front = self._tuple_index(tup[:m]) * d
            back = self._tuple_index(tup[m:]) * d
            target = self._tuple_index(tup) * d
            for m1 in range(d):
                c1 = f.vec[front + m1]
                if not c1:
                    continue
                for m2 in range(d):
                    c2 = g.vec[back + m2]
                    if not c2:
                        continue
                    hit = self._mul(m1, m2)
                    if hit is None:
                        continue
                    val, mono = hit
                    out[target + mono] = (out[target + mono] + c1 * c2 * val) % self.p
        return BarCochain(m + n, out)

    # -- helpers for span computations ---------------------------------------

    def cocycle_basis(self, n: int) -> list:
        """Kernel basis of the degree-n coboundary, as dense lists of ints."""
        diff = self.bar_differential(n)
        return [[vec.get(c, 0) for c in range(diff.ncols)] for vec in diff.echelon().kernel()]

    def coboundary_reducer(self, n: int) -> _Echelon:
        """Echelon form of the image of the coboundary landing in degree n."""
        if n == 0:
            return _Echelon(self.cochain_dim(n), self.p)
        diff = self.bar_differential(n - 1)
        # image = span of the columns; transpose by scattering entries
        cols = [{} for _ in range(diff.ncols)]
        for i, row in enumerate(diff.rows):
            for col, val in row.items():
                cols[col][i] = val
        return _SparseRows(diff.ncols, diff.nrows, cols, self.p).echelon()

    def span_dimension_mod_coboundaries(self, cochains, n: int) -> int:
        """Dimension of the span of the given degree-n cocycles in cohomology."""
        reducer = self.coboundary_reducer(n)
        return sum(reducer.add(dict(enumerate(cochain.vec))) for cochain in cochains)

    def is_coboundary(self, cochain: BarCochain) -> bool:
        reducer = self.coboundary_reducer(cochain.degree)
        return not reducer.residue(dict(enumerate(cochain.vec)))

    def dimension_rows(self, max_degree: int):
        return [
            {"n": n, "bar": self.bar_hh_dimension(n)} for n in range(max_degree + 1)
        ]
