"""GL(m, q^l)-orbit structure on subspaces of GF(q)^(ml).

Subspaces are classified by (GF(q)-dimension, GF(q^l)-span dimension).  For
the implemented classes the orbit of a k-subspace is identified by a Singer
orbit over GF(q)^l:

  * span dimension 1     -- the subspace is W.v for a line v and a k-subspace
                            W of GF(q^l); label = Singer orbit of W;
  * span dimension k - 1 -- label = (r, Singer orbit of the (r+1)-subspace
                            spanned by 1 and the mixing coefficients);
  * span dimension k     -- a single orbit, no further data.

Classes with 2 <= span_dim <= dim - 2 have no labels; their subspaces are
keyed ("other", dim, span_dim), so sweeps can tally them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import xor
from typing import Iterable, Iterator, Sequence

from .fields import FieldTower, build_tower, pack_coords, prime_power, unpack_coords
from .singer import SingerAction, singer_action
from .subspaces import Subspace, vector_ops

GL_BRUTE_FORCE_LIMIT = 10_000_000


def check_block_dim(m: int, l: int, k: int, name: str = "k") -> None:
    """Labeled block orbits exist for 3 <= k <= min(m + 1, l)."""
    if not 3 <= k <= min(m + 1, l):
        raise ValueError(f"{name}={k} outside 3..min(m+1, l)")


def gl_order(m: int, Q: int) -> int:
    """Order of GL(m, Q), as an exact integer."""
    if m < 1:
        raise ValueError("m must be positive")
    Qm = Q ** m
    out = 1
    for i in range(m):
        out *= Qm - Q ** i
    return out


@dataclass(frozen=True)
class SpanClass:
    """A subspace class: GF(q)-dimension and GF(q^l)-span dimension."""

    dim: int
    span_dim: int


@dataclass(frozen=True)
class OrbitLabel:
    """Canonical identifier of a GL(m, q^l)-orbit of subspaces.

    rep_rows is the canonical Singer-orbit representative over GF(q)^l
    (None for the span_dim == dim class, which is a single orbit).
    """

    dim: int
    span_dim: int
    r: int | None
    rep_rows: tuple[int, ...] | None

    @property
    def kind(self) -> str:
        if self.span_dim == 1:
            return "line"
        if self.span_dim == self.dim:
            return "full"
        return "mixed"

    def key(self) -> tuple:
        if self.span_dim == 1:
            return ("line", self.dim, self.rep_rows)
        if self.span_dim == self.dim:
            return ("full", self.dim)
        return ("mixed", self.dim, self.r, self.rep_rows)

    def label_str(self) -> str:
        if self.kind == "full":
            return f"full(k={self.dim})"
        rep = ".".join(str(r) for r in self.rep_rows)
        if self.kind == "line":
            return f"line(k={self.dim}):{rep}"
        return f"mixed(k={self.dim};r={self.r}):{rep}"


class GlAtlas:
    """Orbit atlas for GL(m, q^l) acting on subspaces of GF(q)^(ml)."""

    def __init__(self, m: int, l: int, q: int):
        p, e = prime_power(q)
        self.m = m
        self.l = l
        self.q = q
        self.tower: FieldTower = build_tower(p, e, l, m)
        self.singer: SingerAction = singer_action(l, q)
        self.Q = self.tower.Q
        self.v = self.tower.v
        self._ops_l = vector_ops(q, l)
        self._ops_v = vector_ops(q, self.v)

    # -- classification -------------------------------------------------------

    def classify_rows(self, rows: Sequence[int]) -> SpanClass:
        dim = len(rows)
        tower = self.tower
        span = tower.mid_rank([tower.unflatten_packed(r) for r in rows])
        return SpanClass(dim, span)

    def label_key_rows(self, rows: Sequence[int]) -> tuple:
        """Orbit-label key for a (not necessarily canonical) basis.

        Unclassified span classes yield ("other", dim, span_dim) instead of
        raising, so streaming sweeps can tally them.  One-shot; sweeps over
        many bases use label_keys.
        """
        return next(self.label_keys([(rows[1:], rows[:1])]))[2][0]

    def label_keys(self, runs: Iterable[tuple[Sequence[int], Sequence[int]]]
                   ) -> Iterator[tuple[Sequence[int], Sequence[int], list[tuple]]]:
        """Stream (tail, first rows, keys) over runs of bases (x,) + tail, x in
        first rows: keys[j] = label_key_rows((first rows[j],) + tail).

        A label does not depend on the order of a basis: it is read from the
        GF(q^l)-rank of the rows and from the GF(q)-span of the coefficients of
        their first dependency, and reordering the rows only permutes those
        coefficients.  So the rows are eliminated tail first.  The tail is
        eliminated over GF(q^l) with a tracked transform, keeping the echelon of
        each leading part, so a run reduces only the tail rows past those it
        shares with the run before.  A first row x is reduced as [x | e_(k-1)]
        at width 0 (not scaled, not kept) into red(x), one int of m + k base-Q
        digits, GF(q)-linear in x and added digit-wise over GF(p) (XOR at
        p = 2).  So a run reduces its first x and each new difference x - x' of
        consecutive first rows (taken once per first-row list, reduced once per
        tail), builds its reductions in one accumulate pass and reads its keys
        in one list pass.  A nonzero residual red % Q^m gives the tail's one key
        for a rank one higher; a zero residual keeps the rank, and at rank
        k - 1 the transform red // Q^m is the first dependency, whose top digit
        1 fixes k.  Only rank 1 reads the row.
        """
        tower, Q, m = self.tower, self.Q, self.m
        unflatten = lru_cache(maxsize=None)(tower.unflatten_packed)  # each value once
        reduce, Qm = tower.mid_reduce, Q ** m
        mid_to_pow, orbit_containing = tower.ext.mid_to_pow, self.singer.orbit_containing
        ops = self._ops_v  # sub(x, x') = x - x'
        add, sub = (xor, xor) if tower.p == 2 else (ops.add, lambda a, b: ops.sub_scaled(a, 1, b))

        @lru_cache(maxsize=None)
        def mixed(dep: tuple[int, ...] | int) -> tuple:
            # a first dependency (a tail row's, or a first row's packed) spans
            # 1 and the mixing coefficients
            coeffs = unpack_coords(dep, Q, k) if isinstance(dep, int) else dep
            span = self._ops_l.rref([mid_to_pow[c] for c in coeffs])
            return "mixed", len(coeffs), len(span) - 1, orbit_containing(span).rep.rows

        def line(x: int) -> tuple:
            key = self.line_form([*vecs, unflatten(x)])
            assert len(key) == k, "line-class ratios must stay independent"
            return "line", k, orbit_containing(key).rep.rows

        @lru_cache(maxsize=None)  # cleared on each new tail
        def step(diff: int) -> int:
            return pack_coords(reduce(echelon, list(unflatten(diff)) + [0] * k, 0), Q)

        head = None     # the tail of the run before
        vecs: list[tuple[int, ...]] = []
        echelon: list[tuple[int, list[int]]] = []
        deps: list[tuple[int, ...]] = []
        # (len(echelon), len(deps)) after each leading part of head
        marks: list[tuple[int, int]] = [(0, 0)]
        seen = diffs = None  # the first-row list whose consecutive differences are diffs
        for tail, firsts in runs:
            if tail != head:
                k = len(tail) + 1
                shared = 0
                if len(vecs) == k - 1:
                    while shared < k - 1 and tail[shared] == head[shared]:
                        shared += 1
                del vecs[shared:], marks[shared + 1:]
                n_ech, n_dep = marks[shared]
                del echelon[n_ech:], deps[n_dep:]
                for i in range(shared, k - 1):
                    x = unflatten(tail[i])
                    # the input row followed by its transform, eliminated together
                    cur = list(x) + [0] * k
                    cur[m + i] = 1
                    dep = reduce(echelon, cur, m)
                    if dep is not None:
                        deps.append(tuple(dep[m:]))
                    vecs.append(x)
                    marks.append((len(echelon), len(deps)))
                head, rank = tail, len(echelon)
                step.cache_clear()
                # the key of a first row off the tail's span: rank + 1 is 1
                # only at k = 1 (full), as no row of a basis is 0
                own = (("full", k) if rank + 1 == k else mixed(deps[0]) if rank + 2 == k
                       else ("other", k, rank + 1))
            cur = list(unflatten(firsts[0])) + [0] * k
            cur[-1] = 1
            red = reduce(echelon, cur, 0)
            if len(firsts) == 1 and any(red[:m]):  # a lone row off the tail's span
                yield tail, firsts, [own]
                continue
            if firsts is not seen:
                seen, diffs = firsts, list(map(sub, firsts[1:], firsts))
            reds = accumulate(map(step, diffs), add, initial=pack_coords(red, Q))
            if rank == 1:
                keys = [own if r % Qm else line(x) for r, x in zip(reds, firsts)]
            elif rank < k - 1:
                other = ("other", k, rank)
                keys = [own if r % Qm else other for r in reds]
            else:  # rank k - 1: the transform is the first dependency
                keys = [own if r % Qm else mixed(r // Qm) for r in reds]
            yield tail, firsts, keys

    def line_form(self, vecs: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Canonical rows of the W in GF(q^l) with span(vecs) = W.x, vecs in one line.

        x is the first nonzero vector, scaled to 1 at its pivot.
        """
        mid = self.tower.mid
        v0 = next(vec for vec in vecs if any(vec))
        piv = next(i for i, c in enumerate(v0) if c)
        inv = mid.inv(v0[piv])
        mid_to_pow = self.tower.ext.mid_to_pow
        return self._ops_l.rref([mid_to_pow[mid.mul(vec[piv], inv)] for vec in vecs])

    def line_rows(self, rows_l: Sequence[int], gen: Sequence[int]) -> list[int]:
        """Packed rows of W.g for W with basis rows_l in GF(q)^l = GF(q^l)."""
        tower = self.tower
        mid, pow_to_mid = tower.mid, tower.ext.pow_to_mid
        return [tower.flatten_packed([mid.mul(pow_to_mid[row], g) for g in gen])
                for row in rows_l]

    # -- the orbit catalogue -----------------------------------------------------

    def orbit_labels(self, k: int) -> tuple[OrbitLabel, ...]:
        """The labeled k-orbits in incidence-column order.

        The span-1 orbits, then the mixed ones for r = 1..k-1, then the
        span-k orbit when k <= m; each block in Singer-orbit order.  For
        k = 2 these are the row orbits: the span-1 ones and the span-2 one.
        """
        if k != 2:
            check_block_dim(self.m, self.l, k)
        singer = self.singer
        out = [OrbitLabel(k, 1, None, o.rep.rows)
               for o in singer.orbit_representatives(k)]
        if k > 2:  # at k = 2 the r = 1 class is the span-1 one
            for r in range(1, k):
                out.extend(OrbitLabel(k, k - 1, r, o.rep.rows)
                           for o in singer.orbit_representatives(r + 1))
        if k <= self.m:
            out.append(OrbitLabel(k, k, None, None))
        return tuple(out)

    def label_u(self, label: OrbitLabel) -> int:
        """The u with GF(q^u)^* the Singer stabilizer of the label's representative."""
        return self.singer.orbit_containing(label.rep_rows).u

    def realize(self, label: OrbitLabel) -> Subspace:
        """A subspace of GF(q)^(ml) in the labeled orbit.

        W.Y_1 for a span-1 label with representative W, Y_1..Y_k for the
        span-k orbit, and for a mixed label Y_1..Y_(k-1) together with
        sum(u_i Y_i), u_i the GF(q^l) element of representative row i >= 1.
        Row 0 of a Singer representative is always 1: it is the least
        canonical basis in its orbit, some member contains 1, and the
        canonical basis of a subspace containing 1 starts with the row 1.
        """
        tower, k = self.tower, label.dim
        if label.kind == "line":
            rows = self.line_rows(label.rep_rows, (1,) + (0,) * (self.m - 1))
        elif label.kind == "full":
            rows = [tower.basis_vector(j) for j in range(k)]
        else:
            one, *coeffs = label.rep_rows
            assert one == 1, "a canonical Singer representative starts with 1"
            pow_to_mid = tower.ext.pow_to_mid
            rows = [tower.basis_vector(j) for j in range(k - 1)]
            rows.append(tower.flatten_packed(
                [pow_to_mid[c] for c in coeffs] + [0] * (self.m - len(coeffs))))
        return Subspace.span(self.q, self.v, rows)

    def label_orbit_size(self, label: OrbitLabel) -> int:
        """Number of subspaces in the labeled orbit, in closed form."""
        q, Q, m, k = self.q, self.Q, self.m, label.dim
        if label.kind == "mixed":
            stab = self.stabilizer_order(k, label.r, self.label_u(label))
            total = gl_order(m, Q)
            assert total % stab == 0, "stabilizer order does not divide |GL|"
            return total // stab
        if label.kind == "line":
            num, den = Q ** m - 1, q ** self.label_u(label) - 1
        else:
            # ordered bases of k independent vectors of GF(q^l)^m, per GL(k, q)
            num = den = 1
            for i in range(k):
                num *= Q ** m - Q ** i
                den *= q ** k - q ** i
        assert num % den == 0
        return num // den

    # -- stabilizer orders ---------------------------------------------------------

    def _check_params(self, k: int, r: int, u: int) -> None:
        check_block_dim(self.m, self.l, k)
        if not 1 <= r <= k - 1:
            raise ValueError("need 1 <= r <= k-1")
        if u < 1:
            raise ValueError(f"u={u} must be a positive integer")
        if math.gcd(r + 1, self.l) % u:
            raise ValueError(f"u={u} does not divide gcd(r+1, l)")

    def stabilizer_order(self, k: int, r: int, u: int) -> int:
        """Stabilizer order of a mixed-class representative, in closed form."""
        self._check_params(k, r, u)
        q, Q, m = self.q, self.Q, self.m
        out = q ** u - 1
        for i in range(r + 1, k):
            out *= q ** k - q ** i
        for i in range(k - 1, m):
            out *= Q ** m - Q ** i
        return out

    # -- the GL action itself ----------------------------------------------------

    def apply_matrix_rows(self, g: Sequence[Sequence[int]],
                          rows: Sequence[int]) -> tuple[int, ...]:
        """Image of a subspace basis under g in GL(m, q^l), canonicalized."""
        tower = self.tower
        mid = tower.mid
        out = []
        for row in rows:
            x = tower.unflatten_packed(row)
            y = []
            for i in range(self.m):
                acc = 0
                for j in range(self.m):
                    c = g[i][j]
                    if c and x[j]:
                        acc = mid.add(acc, mid.mul(c, x[j]))
                y.append(acc)
            out.append(tower.flatten_packed(y))
        return self._ops_v.rref(out)

    def gl_elements(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """All of GL(m, q^l), guarded by GL_BRUTE_FORCE_LIMIT."""
        total = gl_order(self.m, self.Q)
        if total > GL_BRUTE_FORCE_LIMIT:
            raise ValueError(f"|GL| = {total} exceeds brute-force guard")
        mid = self.tower.mid
        m = self.m
        columns: list[tuple[int, ...]] = []

        def extend() -> Iterator[tuple[tuple[int, ...], ...]]:
            if len(columns) == m:
                yield tuple(tuple(columns[j][i] for j in range(m))
                            for i in range(m))
                return
            span = set()
            if columns:
                vectors = [tuple(0 for _ in range(m))]
                for col in columns:
                    vectors = [tuple(mid.add(a, mid.mul(c, b))
                                     for a, b in zip(vec, col))
                               for vec in vectors for c in range(self.Q)]
                span = set(vectors)
            for packed in range(1, self.Q ** m):
                col = unpack_coords(packed, self.Q, m)
                if col in span:
                    continue
                columns.append(col)
                yield from extend()
                columns.pop()

        yield from extend()

    def brute_force_stabilizer_order(self, W: Subspace) -> int:
        """Count of GL elements fixing W, via full group enumeration."""
        if W.v != self.v or W.q != self.q:
            raise ValueError("subspace does not live in GF(q)^(ml) of this atlas")
        target = W.rows
        return sum(1 for g in self.gl_elements()
                   if self.apply_matrix_rows(g, target) == target)


@lru_cache(maxsize=None)
def gl_atlas(m: int, l: int, q: int) -> GlAtlas:
    return GlAtlas(m, l, q)
