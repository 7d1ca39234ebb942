"""Brute-force cross-check on tensor powers of A over a prime field.

This route is deliberately independent of the minimal-resolution pipeline:
it carries its own monomial arithmetic, assembles the standard coboundary on
normalized cochains on Hom(Abar^(tensor n), A), and computes ranks only, by
its own exact sparse elimination on Python ints mod p, for any prime
p = 1 (mod a).  Agreement of the dimensions those ranks give with the two
primary routes is one of the acceptance checks.

A normalized cochain vanishes as soon as one argument is 1, so its arguments
range over the a^2 - 1 non-unit monomials, the basis of Abar = A/k.  These
cochains form a subcomplex quasi-isomorphic to the full one (Loday, Cyclic
Homology, ch. 1).  A is local with the non-unit monomials spanning its
radical, so a product of two non-units is zero or a non-unit: the
contractions in the coboundary never leave that alphabet.

A is Z^2-graded by deg y^u x^v = (u, v), and the coboundary preserves the
internal bidegree deg(value) - sum deg(arguments) of a basis cochain.  The
elimination needs no split by bidegree: a row is only reduced by pivot rows
keyed at columns it already holds, so rows of different bidegrees never mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .scalars import _is_prime, smallest_prime_modulus, smallest_root_of_unity

DEFAULT_SIZE_CAP = 100_000


class SizeError(RuntimeError):
    """Cochain space exceeds the configured dimension cap."""


def _rank(rows, p: int) -> int:
    """Rank mod p of sparse rows {col: value}, eliminated shortest row first.

    Short rows make short pivots, so later rows gain less fill-in; the rank
    does not depend on the order.  Each row is reduced by the pivot row at
    its lowest column while one exists there.  A row left nonzero becomes a
    pivot row: normalised to lead with 1 and kept, without that leading
    entry, under its lowest column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            lead = row.pop(col)
            tail = pivots.get(col)
            if tail is None:
                inv = pow(lead, -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            for c, v in tail.items():  # row -= lead * tail, dropping cancelled entries
                w = (row.get(c, 0) - lead * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


@dataclass(eq=False)
class _SparseRows:
    """Row-sparse matrix mod p: rows[i] is a dict {col: value}."""

    nrows: int
    ncols: int
    rows: list
    p: int

    @cached_property
    def rank(self) -> int:
        return _rank(self.rows, self.p)


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
        self._diff_cache: dict[int, _SparseRows] = {}

    # -- monomials: index u*a + v stands for y^u x^v ------------------------

    @cached_property
    def q(self) -> int:
        """Primitive a-th root mod p; O(a), so first read after the size check."""
        return smallest_root_of_unity(self.p, self.a)

    @cached_property
    def _qpow(self):
        return [pow(self.q, k, self.p) for k in range(self.a)]

    def _mul(self, m1: int, m2: int):
        """(value, monomial index) or None, all mod p."""
        a = self.a
        u1, v1 = divmod(m1, a)
        u2, v2 = divmod(m2, a)
        if u1 + u2 >= a or v1 + v2 >= a:
            return None
        return (self._qpow[(v1 * u2) % a], (u1 + u2) * a + v1 + v2)

    @cached_property
    def _action_tables(self):
        """For each monomial s, the lists over r of (m, c) with s.m = c r
        (left) and m.s = c r (right), or None where no such m exists.

        2 a^4 products, so the first coboundary builds them after its size
        check: a cochain space over the cap is refused before this cost.
        """
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
        left_table, right_table = self._action_tables
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
            left, right = left_table[tup[0]], right_table[tup[n]]
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
        kernel = self.cochain_dim(n) - self.bar_differential(n).rank
        image = self.bar_differential(n - 1).rank if n >= 1 else 0
        return kernel - image

    def dimension_rows(self, max_degree: int):
        return [
            {"n": n, "bar": self.bar_hh_dimension(n)} for n in range(max_degree + 1)
        ]
