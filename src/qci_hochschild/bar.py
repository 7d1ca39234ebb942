"""Brute-force cross-check on tensor powers of A over a prime field.

This route is deliberately independent of the minimal-resolution pipeline:
it carries its own monomial arithmetic, assembles the standard cochain
coboundary on Hom(A^(tensor n), A), and does its own dense mod-p row
reduction with numpy.  Agreement of its dimensions with the two primary
routes is one of the acceptance checks.

A is Z^2-graded by deg y^u x^v = (u, v), and the coboundary preserves the
internal bidegree deg(value) - sum deg(arguments) of a basis cochain.  The
rank of the coboundary is therefore computed as the sum of the ranks of its
blocks, one per internal bidegree; every entry is checked to lie in its
block, so a wrong grading raises instead of changing a rank.

Row reduction works in float64; a product of two residues is at most
(p-1)^2 and an inner product accumulates at most ncols of them, so the
arithmetic is exact before each reduction mod p while (p-1)^2 * ncols < 2^53.
Every reducer checks this bound for its own width and refuses to run past it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .scalars import _is_prime, smallest_prime_modulus, smallest_root_of_unity

DEFAULT_SIZE_CAP = 100_000
_EXACT_LIMIT = 2**53
_BATCH = 64  # rows per dense batch fed to a _RowReducer


class SizeError(RuntimeError):
    """Cochain space exceeds the configured dimension cap."""


def _check_exact(p: int, ncols: int) -> None:
    """Raise unless float64 row reduction mod p over ncols columns is exact."""
    if (p - 1) ** 2 * max(ncols, 1) >= _EXACT_LIMIT:
        raise ValueError(
            f"float64 reduction mod {p} over {ncols} columns is inexact: "
            "(p-1)^2 * ncols must stay below 2^53"
        )


class _RowReducer:
    """Incremental row-space basis mod p, kept in reduced echelon form.

    Batches are reduced against the basis with one matrix product, brought
    into local echelon form with rank-one updates confined to the batch, and
    only then folded into the basis with a second matrix product.  This keeps
    every heavy operation inside BLAS.
    """

    def __init__(self, ncols: int, p: int):
        _check_exact(p, ncols)
        self.ncols = ncols
        self.p = p
        self.basis = np.zeros((0, ncols), dtype=np.float64)
        self.pivots: list[int] = []

    def _reduce_block(self, block):
        if self.pivots:
            coeffs = block[:, self.pivots]
            block = (block - coeffs @ self.basis) % self.p
        return block

    def add_batch(self, block):
        """Feed a dense batch of rows; returns the number of new pivots."""
        block = self._reduce_block(np.asarray(block, dtype=np.float64) % self.p)
        new_rows = []
        new_pivots = []
        for k in range(block.shape[0]):
            row = block[k]
            support = np.nonzero(row)[0]
            if support.size == 0:
                continue
            j = int(support[0])
            inv = pow(int(row[j]), self.p - 2, self.p)
            row = (row * inv) % self.p
            block[k] = row
            # clear this column from the rest of the batch, both directions,
            # so the new rows end up mutually reduced
            col = block[:, j].copy()
            col[k] = 0.0
            hits = np.nonzero(col)[0]
            if hits.size:
                block[hits] = (block[hits] - np.outer(col[hits], row)) % self.p
            new_rows.append(k)
            new_pivots.append(j)
        if not new_rows:
            return 0
        new_basis = block[new_rows]
        if self.pivots:
            coeffs = self.basis[:, new_pivots]
            if np.any(coeffs):
                self.basis = (self.basis - coeffs @ new_basis) % self.p
        self.basis = np.vstack([self.basis, new_basis])
        self.pivots.extend(new_pivots)
        return len(new_rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residue(self, vector):
        """Reduce one dense vector against the current basis."""
        block = self._reduce_block(
            np.asarray(vector, dtype=np.float64)[None, :] % self.p
        )
        return block[0]


def _feed(reducer: _RowReducer, rows) -> _RowReducer:
    """Feed sparse rows, lists of (col, value) pairs, to the reducer in dense
    batches of at most _BATCH rows; empty rows are skipped."""
    block = np.zeros((min(_BATCH, len(rows)), reducer.ncols), dtype=np.float64)
    filled = 0
    for row in rows:
        if not row:
            continue
        for col, val in row:
            block[filled, col] = val % reducer.p
        filled += 1
        if filled == len(block):
            reducer.add_batch(block)
            block[:] = 0.0
            filled = 0
    if filled:
        reducer.add_batch(block[:filled])
    return reducer


class _SparseRows:
    """Row-sparse matrix mod p: rows[i] is a list of (col, value) pairs.

    row_weights[i] and col_weights[j] grade the rows and columns; every
    entry must join a row and a column of equal weight.
    """

    def __init__(self, nrows, ncols, rows, p, row_weights, col_weights):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.p = p
        self.row_weights = row_weights
        self.col_weights = col_weights
        self._rank = None

    def rank(self) -> int:
        """Sum of the ranks of the blocks of equal row and column weight."""
        if self._rank is None:
            local = []  # index of each column among the columns of its weight
            widths = defaultdict(int)
            for w in self.col_weights:
                local.append(widths[w])
                widths[w] += 1
            blocks = defaultdict(list)
            for i, row in enumerate(self.rows):
                if not row:
                    continue
                w = self.row_weights[i]
                block_row = []
                for col, val in row:
                    if self.col_weights[col] != w:
                        raise RuntimeError(
                            f"entry ({i}, {col}) joins row weight {w} "
                            f"to column weight {self.col_weights[col]}"
                        )
                    block_row.append((local[col], val))
                blocks[w].append(block_row)
            self._rank = sum(
                _feed(_RowReducer(widths[w], self.p), rows).rank
                for w, rows in blocks.items()
            )
        return self._rank

    def apply(self, vec):
        """Matrix-vector product mod p for a dense integer vector."""
        out = np.zeros(self.nrows, dtype=np.int64)
        for i, row in enumerate(self.rows):
            total = 0
            for col, val in row:
                total += val * int(vec[col])
            out[i] = total % self.p
        return out


class BarCochain:
    """Degree-n cochain as a dense coefficient vector over the tuple basis."""

    __slots__ = ("degree", "vec")

    def __init__(self, degree: int, vec):
        self.degree = degree
        self.vec = np.asarray(vec, dtype=np.int64)


class BarComplex:
    """The full cochain complex Hom(A^(tensor n), A) over F_p for one a."""

    def __init__(self, a: int, modulus: int | None = None, size_cap: int = DEFAULT_SIZE_CAP):
        if a < 2:
            raise ValueError("a must be at least 2")
        self.a = a
        self.p = modulus if modulus is not None else smallest_prime_modulus(a)
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if (self.p - 1) % a != 0:
            raise ValueError(f"modulus {self.p} admits no root of order {a}")
        _check_exact(self.p, 1)
        self.size_cap = size_cap
        self.dim = a * a  # dim of A
        self.q = smallest_root_of_unity(self.p, a)
        self._qpow = [pow(self.q, k, self.p) for k in range(a)]
        self._diff_cache: dict[int, _SparseRows] = {}

    # -- monomials: index u*a + v stands for y^u x^v ------------------------

    def _mul(self, m1: int, m2: int):
        """(value, monomial index) or None, all mod p."""
        a = self.a
        u1, v1 = divmod(m1, a)
        u2, v2 = divmod(m2, a)
        if u1 + u2 >= a or v1 + v2 >= a:
            return None
        return (self._qpow[(v1 * u2) % a], (u1 + u2) * a + v1 + v2)

    def cochain_dim(self, n: int) -> int:
        return self.dim ** (n + 1)

    def _check_cap(self, n: int):
        need = max(self.cochain_dim(n), self.cochain_dim(n + 1))
        if need > self.size_cap:
            raise SizeError(
                f"cochain space of dimension {need} exceeds the cap {self.size_cap}"
            )

    def _tuples(self, n: int):
        """All n-tuples of monomial indices, in mixed-radix order."""
        d = self.dim
        tup = [0] * n
        for _ in range(d**n):
            yield tuple(tup)
            for k in range(n):
                tup[k] += 1
                if tup[k] < d:
                    break
                tup[k] = 0

    def _tuple_index(self, tup) -> int:
        idx = 0
        for k in reversed(range(len(tup))):
            idx = idx * self.dim + tup[k]
        return idx

    def _weights(self, n: int) -> list:
        """Internal bidegree deg(value) - sum deg(arguments) of each degree-n
        basis cochain, indexed like the cochain vectors."""
        a, d = self.a, self.dim
        index = np.arange(self.cochain_dim(n))
        u = np.zeros_like(index)
        v = np.zeros_like(index)
        # digit 0 of the index is the value monomial, digits 1..n the arguments
        for k in range(n + 1):
            digit = index // d**k % d
            sign = 1 if k == 0 else -1
            u += sign * (digit // a)
            v += sign * (digit % a)
        return list(zip(u.tolist(), v.tolist()))

    def bar_differential(self, n: int) -> _SparseRows:
        """Coboundary from degree n to degree n+1 on the tuple bases.

        The value of the image cochain on (a_1, ..., a_(n+1)) is the outer
        left action on the first argument, minus/plus the contractions of
        adjacent arguments, plus the signed outer right action on the last.
        """
        if n < 0:
            raise ValueError("degree must be nonnegative")
        self._check_cap(n)
        cached = self._diff_cache.get(n)
        if cached is not None:
            return cached
        d = self.dim
        a = self.a
        p = self.p
        ncols = self.cochain_dim(n)
        nrows = self.cochain_dim(n + 1)
        rows = [[] for _ in range(nrows)]
        last_sign = 1 if (n + 1) % 2 == 0 else -1
        for tup in self._tuples(n + 1):
            base = self._tuple_index(tup) * d
            for r in range(d):
                ur, vr = divmod(r, a)
                entries: dict[int, int] = {}

                def put(col, val):
                    entries[col] = (entries.get(col, 0) + val) % p

                # a_1 . f(a_2, ..., a_(n+1)) at monomial r
                u1, v1 = divmod(tup[0], a)
                if ur >= u1 and vr >= v1:
                    m = (ur - u1) * a + (vr - v1)
                    scale = self._qpow[(v1 * (ur - u1)) % a]
                    put(self._tuple_index(tup[1:]) * d + m, scale)
                # contractions of adjacent arguments
                sign = 1
                for kmid in range(n):
                    sign = -sign
                    hit = self._mul(tup[kmid], tup[kmid + 1])
                    if hit is None:
                        continue
                    val, merged = hit
                    inner = tup[:kmid] + (merged,) + tup[kmid + 2 :]
                    put(self._tuple_index(inner) * d + r, sign * val)
                # f(a_1, ..., a_n) . a_(n+1) at monomial r
                ul, vl = divmod(tup[n], a)
                if ur >= ul and vr >= vl:
                    m = (ur - ul) * a + (vr - vl)
                    scale = self._qpow[((vr - vl) * ul) % a]
                    put(self._tuple_index(tup[:n]) * d + m, last_sign * scale)

                row = [(c, v) for c, v in entries.items() if v]
                if row:
                    rows[base + r] = row
        result = _SparseRows(nrows, ncols, rows, p, self._weights(n + 1), self._weights(n))
        self._diff_cache[n] = result
        return result

    def bar_hh_dimension(self, n: int) -> int:
        """Cohomology dimension in degree n, entirely within this oracle."""
        kernel = self.cochain_dim(n) - self.bar_differential(n).rank()
        image = self.bar_differential(n - 1).rank() if n >= 1 else 0
        return kernel - image

    # -- cup products --------------------------------------------------------

    def is_cocycle(self, cochain: BarCochain) -> bool:
        return not self.bar_differential(cochain.degree).apply(cochain.vec).any()

    def cup_product(self, f: BarCochain, g: BarCochain) -> BarCochain:
        """Concatenation product (f . g)(a_1..a_(m+n)) = f(front) g(back)."""
        m, n = f.degree, g.degree
        self._check_cap(m + n)
        d = self.dim
        out = np.zeros(self.cochain_dim(m + n), dtype=np.int64)
        fv = f.vec
        gv = g.vec
        for tup in self._tuples(m + n):
            front = self._tuple_index(tup[:m]) * d
            back = self._tuple_index(tup[m:]) * d
            target = self._tuple_index(tup) * d
            for m1 in range(d):
                c1 = int(fv[front + m1])
                if not c1:
                    continue
                for m2 in range(d):
                    c2 = int(gv[back + m2])
                    if not c2:
                        continue
                    hit = self._mul(m1, m2)
                    if hit is None:
                        continue
                    val, mono = hit
                    out[target + mono] = (out[target + mono] + c1 * c2 * val) % self.p
        return BarCochain(m + n, out)

    # -- helpers for span computations ---------------------------------------

    def cocycle_basis(self, n: int):
        """Dense kernel basis vectors of the degree-n coboundary."""
        diff = self.bar_differential(n)
        reducer = _feed(_RowReducer(diff.ncols, self.p), diff.rows)
        pivot_set = set(reducer.pivots)
        vectors = []
        for free in range(diff.ncols):
            if free in pivot_set:
                continue
            vec = np.zeros(diff.ncols, dtype=np.int64)
            vec[free] = 1
            col = reducer.basis[:, free]
            for row_idx, pivot_col in enumerate(reducer.pivots):
                c = int(col[row_idx])
                if c:
                    vec[pivot_col] = (-c) % self.p
            vectors.append(vec)
        return vectors

    def coboundary_reducer(self, n: int) -> _RowReducer:
        """Row basis of the image of the coboundary landing in degree n."""
        reducer = _RowReducer(self.cochain_dim(n), self.p)
        if n == 0:
            return reducer
        diff = self.bar_differential(n - 1)
        # image = span of the columns; transpose by scattering entries
        cols: dict[int, list] = {}
        for i, row in enumerate(diff.rows):
            for col, val in row:
                cols.setdefault(col, []).append((i, val))
        return _feed(reducer, [cols[col] for col in sorted(cols)])

    def span_dimension_mod_coboundaries(self, cochains, n: int) -> int:
        """Dimension of the span of the given degree-n cocycles in cohomology."""
        reducer = self.coboundary_reducer(n)
        base = reducer.rank
        for cochain in cochains:
            reducer.add_batch(np.asarray(cochain.vec, dtype=np.float64)[None, :])
        return reducer.rank - base

    def is_coboundary(self, cochain: BarCochain) -> bool:
        reducer = self.coboundary_reducer(cochain.degree)
        return not reducer.residue(np.asarray(cochain.vec, dtype=np.float64)).any()

    def dimension_rows(self, max_degree: int):
        return [
            {"n": n, "bar": self.bar_hh_dimension(n)} for n in range(max_degree + 1)
        ]
