"""Canonical subspaces of GF(q)^v, Gaussian binomials, and enumeration.

A subspace is stored as its reduced row-echelon basis with strictly
increasing pivot columns, so equality and hashing are structural.  Rows are
packed base-q ints (coordinate 0 in the least significant digit); over GF(2)
a row is a plain bitmask and elimination is word XOR.  For 2 < q <= TABLE_CAP
`VectorOps` adds and scales rows one chunk of base-q digits per table lookup
(addition stays XOR at q = 4, 8); above the cap it works digit by digit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .fields import (TABLE_CAP, add_digits, digit_add_table, digit_scale_table,
                     field_for_order, pack_coords, unpack_coords)


def gaussian_binomial(v: int, k: int, q: int) -> int:
    """Number of k-subspaces of GF(q)^v, as an exact integer."""
    if v < 0 or k < 0:
        raise ValueError("negative arguments")
    if q < 2:
        raise ValueError("q must be at least 2")
    if k > v:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (v - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


class VectorOps:
    """Row arithmetic for length-v vectors over GF(q), packed as ints."""

    def __init__(self, q: int, v: int):
        self.q = q
        self.v = v
        self.field = field_for_order(q)
        self.p = self.field.p
        self.qpow = [q ** j for j in range(v + 1)]

    @cached_property
    def tables(self) -> tuple[int, int, list | None, list] | None:
        """(C, n, add, scale) for q != 2, built on first use; None at q = 2 or q > TABLE_CAP.

        A vector is n chunks of w base-q digits, each chunk below C = q^w <=
        TABLE_CAP, where n is the fewest chunks that cover v and w the least
        width that gives n.  add[a][x] is the digit-wise sum of two chunks
        (None at p = 2, where it is a ^ x); scale[s][x] is s times each digit.
        """
        q, v = self.q, max(self.v, 1)
        if q == 2 or q > TABLE_CAP:
            return None
        most = 1  # base-q digits in the widest chunk below the cap
        while q ** (most + 1) <= TABLE_CAP:
            most += 1
        n = -(-v // most)
        w = -(-v // n)
        C = q ** w
        add = None if self.p == 2 else digit_add_table(self.p, C)
        return C, n, add, digit_scale_table(q, w)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self._add_scaled(a, 1, b)

    def smul(self, c: int, a: int) -> int:
        if c == 0:
            return 0
        if c == 1:
            return a
        tables = self.tables
        if tables is None:
            f, q = self.field, self.q
            out, mult = 0, 1
            while a:
                a, ca = divmod(a, q)
                if ca:
                    out += f.mul(c, ca) * mult
                mult *= q
            return out
        C, _, _, scale = tables
        row = scale[c]
        out, mult = 0, 1
        while a:
            a, x = divmod(a, C)
            out += row[x] * mult
            mult *= C
        return out

    def sub_scaled(self, a: int, c: int, b: int) -> int:
        """a - c*b."""
        if self.p == 2:
            return a ^ self.smul(c, b)
        return self._add_scaled(a, self.field.mul(self.p - 1, c), b)

    def _add_scaled(self, a: int, s: int, b: int) -> int:
        """a + s*b at odd p."""
        tables = self.tables
        if tables is None:
            return add_digits(a, self.smul(s, b), self.p)
        C, _, add, scale = tables
        row = scale[s]
        out, mult = 0, 1
        while a or b:
            out += add[a % C][row[b % C]] * mult
            a //= C
            b //= C
            mult *= C
        return out

    def digit(self, a: int, j: int) -> int:
        return (a // self.qpow[j]) % self.q

    def pivot(self, a: int) -> int:
        """Lowest nonzero coordinate position of a nonzero row."""
        if self.q == 2:
            return (a & -a).bit_length() - 1
        j = 0
        while a % self.q == 0:
            a //= self.q
            j += 1
        return j

    def rref(self, rows: Iterable[int]) -> tuple[int, ...]:
        """Reduced row-echelon basis, rows sorted by increasing pivot."""
        if self.q == 2:
            return _rref2(rows)
        f = self.field
        basis: list[int] = []
        pivots: list[int] = []
        for r in rows:
            for p, b in zip(pivots, basis):
                c = self.digit(r, p)
                if c:
                    r = self.sub_scaled(r, c, b)
            if r == 0:
                continue
            p = self.pivot(r)
            c = self.digit(r, p)
            if c != 1:
                r = self.smul(f.inv(c), r)
            for i in range(len(basis)):
                c = self.digit(basis[i], p)
                if c:
                    basis[i] = self.sub_scaled(basis[i], c, r)
            at = 0
            while at < len(pivots) and pivots[at] < p:
                at += 1
            pivots.insert(at, p)
            basis.insert(at, r)
        return tuple(basis)

    def span(self, rows: Sequence[int]) -> list[int]:
        """All q^len(rows) combinations of rows: span[c] has packed coefficients c.

        Base-q digit j of c is the coefficient of rows[j].  At odd p each
        chunk position is combined by table lookup alone, then the chunks
        are joined.
        """
        q, tables = self.q, self.tables
        if self.p == 2 or tables is None:
            out = [0]
            for r in rows:
                if q == 2:
                    out += [x ^ r for x in out]
                else:  # out plus each multiple c*r, c = 1..q-1
                    multiples = [self.smul(c, r) for c in range(1, q)]
                    out += [self.add(x, cr) for cr in multiples for x in out]
            return out
        C, n, add, scale = tables
        parts = []
        for i in range(n):
            part, base = [0], 1
            for r in rows:
                x = r // C ** i % C
                for c in range(1, q):
                    row = add[scale[c][x]]
                    part += [row[a] for a in part[:base]]
                base *= q
            parts.append(part)
        out = parts.pop()
        for part in reversed(parts):
            out = [hi * C + lo for hi, lo in zip(out, part)]
        return out

    def rank(self, rows: Iterable[int]) -> int:
        return len(self.rref(rows))


def _rref2(rows: Iterable[int]) -> tuple[int, ...]:
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r & (b & -b):
                r ^= b
        if not r:
            continue
        low = r & -r
        for i in range(len(basis)):
            if basis[i] & low:
                basis[i] ^= r
        at = 0
        while at < len(basis) and (basis[at] & -basis[at]) < low:
            at += 1
        basis.insert(at, r)
    return tuple(basis)


@lru_cache(maxsize=None)
def vector_ops(q: int, v: int) -> VectorOps:
    return VectorOps(q, v)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^v in canonical reduced-echelon basis form."""

    q: int
    v: int
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def span(q: int, v: int, rows: Iterable[int]) -> "Subspace":
        return Subspace(q, v, vector_ops(q, v).rref(rows))

    @staticmethod
    def zero(q: int, v: int) -> "Subspace":
        return Subspace(q, v, ())

    def basis_lists(self) -> list[list[int]]:
        return [list(unpack_coords(r, self.q, self.v)) for r in self.rows]

    def vectors(self) -> list[int]:
        """All q^dim vectors of the subspace, indexed by packed coefficients."""
        return vector_ops(self.q, self.v).span(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(q={self.q}, v={self.v}, rows={self.rows})"


def canonicalize(vectors: Sequence[Sequence[int]], q: int,
                 v: int | None = None) -> Subspace:
    """Canonical subspace spanned by coordinate vectors over GF(q)."""
    vectors = list(vectors)
    if not vectors:
        if v is None:
            raise ValueError("empty input needs an explicit ambient dimension")
        return Subspace.zero(q, v)
    if v is None:
        v = len(vectors[0])
    if any(len(vec) != v for vec in vectors):
        raise ValueError("vectors must share the ambient dimension")
    if any(not 0 <= c < q for vec in vectors for c in vec):
        raise ValueError("coordinates must lie in [0, q)")
    return Subspace.span(q, v, (pack_coords(vec, q) for vec in vectors))


def _completions(v: int, d: int, q: int,
                 positions: Sequence[int]) -> Iterator[list[list[int]]]:
    """Per pivot-column set of the canonical d-subspaces of GF(q)^v, in
    lexicographic order, the completions of each row, coordinate j placed at
    positions[j]: the pivot entry 1, the free entries in little-endian
    field-element order."""
    qpow = [q ** j for j in positions]
    for pivots in itertools.combinations(range(v), d):
        pivot_set = set(pivots)
        per_row = []
        for p in pivots:
            free = [qpow[j] for j in range(p + 1, v) if j not in pivot_set]
            completions = [0]
            for step in free:
                completions = [row + c * step for row in completions for c in range(q)]
            per_row.append([qpow[p] + row for row in completions])
        yield per_row


def iter_rref_runs(v: int, d: int, q: int, shard: tuple[int, int] = (0, 1)
                   ) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
    """iter_rref_bases(v, d, q, shard) cut into runs (prefix, last rows): the
    bases prefix + (x,) for x in last rows, one run per prefix of d - 1 rows.
    One last-row list serves every run of a pivot-column set; none is empty."""
    i, n = shard
    if not 0 <= d <= v:
        raise ValueError("need 0 <= d <= v")
    if not 0 <= i < n:
        raise ValueError(f"shard {shard} needs 0 <= i < n")
    unit = 0  # number of the first unit of this pivot set
    for first, *rest in _completions(v, d, q, range(v)) if d else ():
        *front, lasts = first[(i - unit) % n::n], *rest
        unit += len(first)
        if lasts:
            yield from zip(itertools.product(*front), itertools.repeat(lasts))


def iter_rref_bases(v: int, d: int, q: int,
                    shard: tuple[int, int] = (0, 1)) -> Iterator[tuple[int, ...]]:
    """All canonical d-subspace bases of GF(q)^v, packed rows.

    Deterministic order: pivot-column sets lexicographically, then free
    entries per row in little-endian field-element order.  The stream is
    cut into units, one per pivot-column set and completion of its first
    row, numbered in that order; shard (i, n) yields the units j with
    j % n == i, each in the order above, so the n shards partition the
    stream and (0, 1) is all of it.
    """
    for prefix, lasts in iter_rref_runs(v, d, q, shard):
        yield from map(prefix.__add__, zip(lasts))
    if d == 0 == shard[0]:
        yield ()


def runs_of(bases: Iterable[Sequence[int]]) -> Iterator[tuple[Sequence[int], list[int]]]:
    """A stream of nonempty bases as runs (prefix, last rows) of consecutive
    bases that share all rows but the last."""
    for prefix, run in itertools.groupby(bases, itemgetter(slice(-1))):
        yield prefix, list(map(itemgetter(-1), run))


def enumerate_subspaces(v: int, d: int, q: int) -> Iterator[Subspace]:
    """Each d-subspace of GF(q)^v exactly once, deterministic order."""
    for rows in iter_rref_bases(v, d, q):
        yield Subspace(q, v, rows)


def complement_positions(U: Subspace) -> list[int]:
    ops = vector_ops(U.q, U.v)
    pivots = {ops.pivot(r) for r in U.rows}
    return [j for j in range(U.v) if j not in pivots]


def iter_superspace_runs(U: Subspace, k: int
                         ) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
    """iter_superspace_bases(U, k) cut into runs (prefix, last rows), as
    iter_rref_runs; none for k = 0."""
    d = U.dim
    if not d <= k <= U.v:
        raise ValueError("need dim(U) <= k <= v")
    head = [(u,) for u in U.rows]
    for per_row in _completions(U.v - d, k - d, U.q, complement_positions(U)) if k else ():
        *front, lasts = *head, *per_row
        yield from zip(itertools.product(*front), itertools.repeat(lasts))


def iter_superspace_bases(U: Subspace, k: int) -> Iterator[tuple[int, ...]]:
    """Bases (not canonicalized) of the k-superspaces of U, one per superspace.

    Each basis is U's rows followed by the rows of a canonical basis of
    GF(q)^v / U, taken in iter_rref_bases order with the quotient
    coordinates placed on U's non-pivot positions.
    """
    for prefix, lasts in iter_superspace_runs(U, k):
        yield from map(prefix.__add__, zip(lasts))
    if k == 0:
        yield ()


def superspaces(U: Subspace, k: int) -> Iterator[Subspace]:
    """Each k-subspace containing U exactly once, deterministic order."""
    for rows in iter_superspace_bases(U, k):
        yield Subspace.span(U.q, U.v, rows)


def intersection_dim(A: Subspace, B: Subspace) -> int:
    """dim(A meet B) via rank of the stacked bases."""
    if A.v != B.v or A.q != B.q:
        raise ValueError("subspaces live in different ambient spaces")
    ops = vector_ops(A.q, A.v)
    return A.dim + B.dim - ops.rank(A.rows + B.rows)
