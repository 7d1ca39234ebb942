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

The coboundary is held by its columns, the images of the basis cochains, and
the elimination runs over those images, since rank M = rank M^T.  Only dim Z^n
images reduce to zero, where eliminating the a^2 - 1 times more rows would
reduce at least (number of rows) - (number of columns) of them to zero.

A is Z^2-graded by deg y^u x^v = (u, v), and the coboundary preserves the
internal bidegree deg(value) - sum deg(arguments) of a basis cochain, so an
image only holds rows of its cochain's bidegree.  The elimination needs no
split by bidegree: an image is only reduced by pivot images keyed at rows it
already holds, so images of different bidegrees never mix.

Each degree skips the columns at the pivot indices of the degree below.  A
pivot of im d_(n-1) is e_t + (entries below t) and lies in ker d_n, so column
t of d_n is a combination of lower columns; by induction on t the other
columns span im d_n.  Of those kept, only dim HH^n images reduce to zero,
where each skipped one would fill in and then cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .scalars import _is_prime, smallest_prime_modulus, smallest_root_of_unity

DEFAULT_SIZE_CAP = 100_000


class SizeError(RuntimeError):
    """Cochain space exceeds the configured dimension cap."""


def _rank(vectors, p: int) -> set:
    """Pivot indices of sparse vectors {index: value} mod p, each value in 1..p-1.

    Returns the set of indices at which the pivots lead, one per unit of
    rank, so its length is the rank over F_p.  The input is copied, not
    reduced, and never changed.  The vectors are eliminated shortest first:
    short vectors make short pivots, so later vectors gain less fill-in; the
    rank does not depend on the order.  Each vector is reduced by the pivot
    at its highest index while one exists there.  A vector left nonzero
    becomes a pivot: normalised to lead with 1 and kept, without that
    leading entry, under its highest index.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in sorted(vectors, key=len):
        vec = dict(vec)
        while vec:
            top = max(vec)
            lead = vec.pop(top)
            tail = pivots.get(top)
            if tail is None:
                inv = pow(lead, -1, p)
                pivots[top] = {i: v * inv % p for i, v in vec.items()}
                break
            for i, v in tail.items():  # vec -= lead * tail, dropping cancelled entries
                w = (vec.get(i, 0) - lead * v) % p
                if w:
                    vec[i] = w
                else:
                    vec.pop(i, None)
    return set(pivots)


@dataclass(eq=False)
class _SparseRows:
    """Sparse matrix mod p held by columns: columns[j] is a dict {row: value}."""

    nrows: int
    ncols: int
    columns: list
    p: int

    @cached_property
    def rows(self) -> list:
        """The transpose, rows[i] = {col: value}; built only when read."""
        rows: list = [{} for _ in range(self.nrows)]
        for j, column in enumerate(self.columns):
            for i, v in column.items():
                rows[i][j] = v
        return rows


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
        self._tops_cache: dict[int, set] = {}

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
    def _products(self):
        """For each monomial m, the lists over non-units s of (s, c, r) with
        s.m = c r (left) and with m.s = c r (right); for each non-unit t, the
        splits (b, c, lam) into non-units with b.c = lam t.

        All are read off one table of the a^4 products, so the first
        coboundary builds it after its size check: a cochain space over the
        cap is refused before this cost.
        """
        d = self.dim
        table = [[self._mul(m1, m2) for m2 in range(d)] for m1 in range(d)]
        left = [[(s, *table[s][m]) for s in range(1, d) if table[s][m]] for m in range(d)]
        right = [[(s, *table[m][s]) for s in range(1, d) if table[m][s]] for m in range(d)]
        splits: list = [[] for _ in range(d)]
        for c in range(1, d):
            for b in range(1, d):
                hit = table[b][c]
                if hit is not None:
                    splits[hit[1]].append((b, c, hit[0]))
        return left, right, splits

    def cochain_dim(self, n: int) -> int:
        if n < 0:
            raise ValueError("degree must be nonnegative")
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
        count = self.cochain_dim(n) // self.dim
        tup = [1] * n
        for _ in range(count):
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
        """Coboundary from degree n to degree n+1 on the tuple bases, built as
        the images d(e) of the basis cochains e, in index order.

        The image of the cochain with arguments t and value m is the left
        action on the tuples (s, t), minus/plus the contractions (tuples that
        split an argument t_k into b.c = lam t_k), plus the signed right
        action on the tuples (t, s).  The row offsets of the actions depend
        on m only and those of the contractions on t only, so each is
        computed once.  The contraction rows are pairwise distinct (two splits
        first differ where one holds a proper factor b of t_k) and apart from
        the action rows, whose arguments carry a larger total degree; only the
        two actions can land on one row.
        """
        self._check_cap(n)
        cached = self._diff_cache.get(n)
        if cached is not None:
            return cached
        d, letters, p = self.dim, self.letters, self.p
        power = [letters**k for k in range(n + 2)]
        last_sign = 1 if (n + 1) % 2 == 0 else -1
        left, right, splits = self._products
        # (s, t) has tuple index s - 1 + letters * index(t); (t, s) has index(t) + letters^n (s - 1)
        left_rows = [[((s - 1) * d + r, c) for s, c, r in left[m]] for m in range(d)]
        right_rows = [
            [((s - 1) * power[n] * d + r, last_sign * c % p) for s, c, r in right[m]]
            for m in range(d)
        ]
        columns = []
        for idx, tup in enumerate(self._tuples(n)):
            contractions = []
            for k in range(n):  # digits b - 1, c - 1 at k, k + 1 in place of t_k
                rest = idx % power[k] + idx // power[k + 1] * power[k + 2]
                sign = -1 if k % 2 == 0 else 1
                for b, c, lam in splits[tup[k]]:
                    row = rest + (b - 1) * power[k] + (c - 1) * power[k + 1]
                    contractions.append((row * d, sign * lam % p))
            left_base, right_base = idx * letters * d, idx * d
            for m in range(d):
                column = {base + m: val for base, val in contractions}
                for offset, val in left_rows[m]:
                    column[left_base + offset] = val
                for offset, val in right_rows[m]:
                    row = right_base + offset
                    val = (column.get(row, 0) + val) % p
                    if val:
                        column[row] = val
                    else:
                        del column[row]
                columns.append(column)
        result = _SparseRows(self.cochain_dim(n + 1), self.cochain_dim(n), columns, p)
        self._diff_cache[n] = result
        return result

    def _pivot_tops(self, n: int) -> set:
        """Pivot indices of im d_n, ranked over the columns of d_n that are not
        pivot indices of im d_(n-1) (see the module docstring).  d_n is built
        first, so the size cap refuses it before any lower degree is ranked."""
        tops = self._tops_cache.get(n)
        if tops is None:
            diff = self.bar_differential(n)
            skip = self._pivot_tops(n - 1) if n >= 1 else set()
            kept = (column for j, column in enumerate(diff.columns) if j not in skip)
            tops = self._tops_cache[n] = _rank(kept, self.p)
        return tops

    def bar_hh_dimension(self, n: int) -> int:
        """Cohomology dimension in degree n, entirely within this oracle."""
        kernel = self.cochain_dim(n) - len(self._pivot_tops(n))
        image = len(self._pivot_tops(n - 1)) if n >= 1 else 0
        return kernel - image

    def dimension_rows(self, max_degree: int):
        return [
            {"n": n, "bar": self.bar_hh_dimension(n)} for n in range(max_degree + 1)
        ]
