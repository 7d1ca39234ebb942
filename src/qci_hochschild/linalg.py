"""Sparse exact linear algebra over any scalar backend.

Every reduction is the one canonical reduced row echelon form of _rref: it
splits its rows into connected blocks (rows that share a column, directly or
through other rows) and _eliminate reduces each block over that block's
columns only, normalising each pivot row and clearing its column from every
other row of the block.  The RREF of a block-diagonal matrix is the union of
its blocks' forms, so ranks, kernels, solutions and coset representatives
stay deterministic and unique.  A rank counts each lone row or column (one
sharing no column or row with another) as a block of rank 1 and reduces only
the rest; a kernel and a solve read the one reduction of [M | I] a matrix
keeps.  Within a block pivot columns are visited left to right; among
candidate pivot rows the sparsest one wins (ties broken by index) to keep
fill-in down on the large band matrices this package produces.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from operator import itemgetter
from types import MappingProxyType


class NotContainedError(ValueError):
    """Claimed subspace inclusion does not hold."""


def add_term(terms, key, value):
    """Add value into terms[key] in place, dropping the key when it sums to 0."""
    total = terms.get(key)
    total = value if total is None else total + value
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def _subtract(vec, factor, row):
    """vec -= factor * row in place, dropping the entries that cancel."""
    neg = -factor
    for c, v in row.items():
        add_term(vec, c, neg * v)


def _blocks(rows, ncols):
    """Split nonempty sparse rows over columns 0..ncols-1 into connected blocks.

    Returns one (rows, columns) pair per block: its rows in input order and
    every column they hold, sorted.  No column belongs to two blocks, and a
    row operation inside a block only mixes columns the block already holds.
    """
    parent = list(range(ncols))  # union-find over columns

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        cols = iter(row)
        root = find(next(cols))
        for c in cols:
            c = find(c)
            if c != root:
                parent[c] = root
    blocks = {}
    for row in rows:
        block_rows, block_cols = blocks.setdefault(find(next(iter(row))), ([], set()))
        block_rows.append(row)
        block_cols.update(row)
    return [(block_rows, sorted(block_cols)) for block_rows, block_cols in blocks.values()]


def _eliminate(rows, cols):
    """The elimination loop on one block; yields (pivot column, pivot row).

    Consumes rows.  Each pivot row is normalised and its column cleared from
    every other row, the pivot rows already found included.
    """
    remaining = rows
    pivot_rows = []
    for col in cols:
        best = None
        for idx, row in enumerate(remaining):
            if col in row:
                key = (len(row), idx)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        row = remaining.pop(best[1])
        inv = row[col].inverse()
        row = {c: v * inv for c, v in row.items()}
        for other in chain(remaining, pivot_rows):
            factor = other.get(col)
            if factor is not None:
                _subtract(other, factor, row)
        remaining = [r for r in remaining if r]
        pivot_rows.append(row)
        yield col, row


def _rref(rows, ncols):
    """Canonical RREF of sparse rows (dicts col -> scalar, 0 <= col < ncols).

    Rows hold only nonzero values; callers drop zero coordinates before
    they get here.  Mutates nothing; returns (pivot_columns, pivot_rows),
    pivot columns increasing, reduced block by block: the pivots are units
    and every pivot column is cleared from every other row, so the result is
    the unique RREF of the row space, independent of the pivot-row selection
    order.
    """
    pivots = []
    for block_rows, block_cols in _blocks([dict(r) for r in rows if r], ncols):
        pivots.extend(_eliminate(block_rows, block_cols))
    pivots.sort(key=itemgetter(0))
    return [col for col, _ in pivots], [row for _, row in pivots]


def _entry_rank(entries, ncols):
    """Rank of {(row, col): nonzero}: each lone row or column is a block of
    rank 1 (a 1x1 block counts once); every other entry lies in a block of at
    least two rows and two columns, and only those rows are eliminated."""
    row_len = Counter(map(itemgetter(0), entries))
    col_len = Counter(map(itemgetter(1), entries))
    shared_rows = {i for i, j in entries if col_len[j] > 1}
    wide_cols = {j for i, j in entries if row_len[i] > 1}
    rank = len(row_len) - len(shared_rows)  # lone rows, the 1x1 blocks among them
    rank += sum(1 for j, n in col_len.items() if n > 1 and j not in wide_cols)  # lone columns
    rest = {}
    for (i, j), v in entries.items():
        if i in shared_rows and j in wide_cols:
            rest.setdefault(i, {})[j] = v
    if rest:
        rank += len(_rref(rest.values(), ncols)[0])
    return rank


def _place(rows, cols, tiles):
    """The entries of a rows x cols matrix holding (row offset, col offset,
    block) tiles, each block a mapping {(row, col): scalar}.

    Each distinct block is scanned once, for its nonzero entries and for the
    extent of all its keys; a tile then only compares that extent with the
    matrix.  A tile reaching outside names its first entry that does.
    """
    scanned = {}  # id(block) -> (block, nonzero items, extent); holding block keeps its id
    entries = {}
    placed = 0
    for row_offset, col_offset, block in tiles:
        seen = scanned.get(id(block))
        if seen is None:
            seen = scanned[id(block)] = (block, *_scan(block))
        _, items, extent = seen
        if extent is not None:
            low_row, high_row, low_col, high_col = extent
            if not (
                0 <= row_offset + low_row and row_offset + high_row < rows
                and 0 <= col_offset + low_col and col_offset + high_col < cols
            ):
                i, j = next(
                    (row_offset + i, col_offset + j) for i, j in block
                    if not (0 <= row_offset + i < rows and 0 <= col_offset + j < cols)
                )
                raise ValueError(f"entry {(i, j)} outside a {rows}x{cols} matrix")
        for (i, j), v in items:
            entries[(row_offset + i, col_offset + j)] = v
        placed += len(items)
    if len(entries) != placed:
        raise ValueError(f"tiles of a {rows}x{cols} matrix overlap")
    return entries


def _scan(block):
    """(nonzero items, (lowest row, highest row, lowest col, highest col)) of
    a block; the extent covers its zero entries too and is None when empty."""
    items = [(key, v) for key, v in block.items() if v]
    if not block:
        return items, None
    row_keys = [i for i, _ in block]
    col_keys = [j for _, j in block]
    return items, (min(row_keys), max(row_keys), min(col_keys), max(col_keys))


def _reduce_vector(vec, pivots, pivot_rows):
    """Residue of a sparse vector modulo the span of RREF rows."""
    vec = dict(vec)
    for col, row in zip(pivots, pivot_rows):
        factor = vec.get(col)
        if factor is not None:
            _subtract(vec, factor, row)
    return vec


class Subspace:
    """Subspace of k^n held in canonical reduced echelon form."""

    def __init__(self, ambient, vectors, field):
        rows = []
        for vec in vectors:
            row = {}
            for c, v in vec.items():
                if not 0 <= c < ambient:
                    raise ValueError(f"coordinate {c} outside 0..{ambient - 1}")
                if v:
                    row[c] = v
            rows.append(row)
        self.ambient = ambient
        self.field = field
        self.pivots, self.basis = _rref(rows, ambient)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vector) -> bool:
        return not _reduce_vector(vector, self.pivots, self.basis)

    def contains_subspace(self, other) -> bool:
        return all(self.contains(row) for row in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class SparseMatrix:
    """Immutable sparse matrix; entries is a read-only (row, col) -> nonzero scalar map."""

    def __init__(self, rows, cols, entries, field):
        self._hold(rows, cols, [(0, 0, entries)], field)

    def _hold(self, rows, cols, tiles, field):
        self.rows = rows
        self.cols = cols
        self.entries = MappingProxyType(_place(rows, cols, tiles))
        self.field = field

    @classmethod
    def from_dense(cls, data, field):
        entries = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(len(data), len(data[0]) if data else 0, entries, field)

    @classmethod
    def tiled(cls, rows, cols, tiles, field):
        """The rows x cols matrix holding blocks placed at offsets.

        tiles yields (row offset, col offset, block) triples, each block a
        mapping {(row, col): scalar}.  Each distinct block is checked once:
        its zeros are dropped and its row and column extent is compared with
        the whole matrix at every offset it is placed at.  A key outside the
        matrix, zero or not, and tiles that share a nonzero entry raise
        ValueError.
        """
        matrix = cls.__new__(cls)
        matrix._hold(rows, cols, tiles, field)
        return matrix

    @classmethod
    def identity(cls, n, field):
        one = field.one()
        return cls(n, n, {(i, i): one for i in range(n)}, field)

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def column_dicts(self):
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    @cached_property
    def _rank(self) -> int:
        return _entry_rank(self.entries, self.cols)

    def rank(self) -> int:
        """Lone rows and columns counted, RREF pivots of the rest."""
        return self._rank

    def kernel_basis(self) -> Subspace:
        """Canonical basis of the right null space; dim = cols - rank.

        Reads RREF(M) off the factorization: on M's columns the rows of
        RREF([M | I]) are RREF(M) and then zero rows, whose pivot is None.
        """
        pivots, _, rows = self._factor
        pivot_set = set(pivots)
        vectors = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = {free: self.field.one()}
            for col, row in zip(pivots, rows):
                v = row.get(free)
                if v:
                    vec[col] = -v
            vectors.append(vec)
        return Subspace(self.cols, vectors, self.field)

    def column_space(self) -> Subspace:
        """Image of the matrix as a subspace of k^rows."""
        return Subspace(self.rows, self.column_dicts(), self.field)

    def apply(self, vec):
        """Matrix-vector product on sparse dict vectors."""
        out = {}
        for j, x in vec.items():
            if not 0 <= j < self.cols:
                raise ValueError(f"vector index {j} outside 0..{self.cols - 1}")
            if not x:
                continue
            for i, v in self._columns[j].items():
                add_term(out, i, v * x)
        return out

    @cached_property
    def _columns(self):
        return self.column_dicts()

    @cached_property
    def _factor(self):
        """Row operations E with E M in RREF, from one reduction of [M | I].

        Returns (pivots, by_input, rows): pivots[k] is the pivot column of
        row k of E M, or None when that row of E is a left null vector of M
        (its pivot lies in the identity part, so it is zero on M's columns);
        by_input[i] lists the nonzero entries (k, E[k][i]) of column i of E;
        rows[k] is row k of [E M | E].
        """
        one = self.field.one()
        aug = self.row_dicts()
        for i, row in enumerate(aug):
            row[self.cols + i] = one
        pivots, rows = _rref(aug, self.cols + self.rows)
        by_input = [[] for _ in range(self.rows)]
        for k, row in enumerate(rows):
            for c, v in row.items():
                if c >= self.cols:
                    by_input[c - self.cols].append((k, v))
        return [col if col < self.cols else None for col in pivots], by_input, rows

    def solve(self, b):
        """Some x with M x = b (free variables zero), or None if inconsistent.

        The first call factors M; every later call only applies the stored
        row operations to b.  x is the unique solution whose free variables
        are zero, so it equals what reducing [M | b] would give.
        """
        pivots, by_input, _ = self._factor
        acc = {}
        for i, v in b.items():
            if not 0 <= i < self.rows:
                raise ValueError(f"right-hand side index {i} outside 0..{self.rows - 1}")
            for k, e in by_input[i]:
                add_term(acc, k, e * v)
        x = {}
        for k in sorted(acc):
            if pivots[k] is None:
                return None
            x[pivots[k]] = acc[k]
        return x

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def coset_basis(inner: Subspace, outer: Subspace) -> list:
    """Vectors of outer completing a basis of inner to a basis of outer.

    Deterministic: walks outer's canonical basis in order and greedily keeps
    the vectors that the span of inner and everything kept so far misses.
    """
    if inner.ambient != outer.ambient:
        raise NotContainedError("ambient dimensions differ")
    if not outer.contains_subspace(inner):
        raise NotContainedError("inner subspace is not contained in outer")
    span = inner
    chosen = []
    for vec in outer.basis:
        if not span.contains(vec):
            chosen.append(dict(vec))
            span = Subspace(span.ambient, span.basis + [vec], span.field)
    return chosen


def stack_rank(subspace: Subspace, vectors, field) -> int:
    """Rank of subspace basis stacked with extra vectors."""
    rows = subspace.basis + [{c: v for c, v in vec.items() if v} for vec in vectors]
    return len(_rref(rows, subspace.ambient)[0])
