"""GL(m, q^l)-orbit structure on subspaces of GF(q)^(ml).

Subspaces are classified by (GF(q)-dimension, GF(q^l)-span dimension).  For
the implemented classes the orbit of a k-subspace is identified by a Singer
orbit over GF(q)^l:

  * span dimension 1     -- the subspace is W.v for a line v and a k-subspace
                            W of GF(q^l); label = Singer orbit of W;
  * span dimension k - 1 -- label = (r, Singer orbit of the (r+1)-subspace
                            spanned by 1 and the mixing coefficients);
  * span dimension k     -- a single orbit, no further data.

Classes with 2 <= span_dim <= dim - 2 are rejected loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Sequence

from .fields import FieldTower, build_tower, prime_power
from .singer import SingerAction, singer_action
from .subspaces import Subspace, vector_ops

GL_BRUTE_FORCE_LIMIT = 10_000_000


class UnclassifiedOrbitError(ValueError):
    """Raised for subspaces whose orbit class has no implemented labels."""


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

    @staticmethod
    def from_key(key: tuple) -> "OrbitLabel":
        tag = key[0]
        if tag == "line":
            return OrbitLabel(key[1], 1, None, key[2])
        if tag == "full":
            return OrbitLabel(key[1], key[1], None, None)
        if tag == "mixed":
            return OrbitLabel(key[1], key[1] - 1, key[2], key[3])
        raise ValueError(f"not an orbit label key: {key!r}")

    def label_str(self) -> str:
        if self.kind == "full":
            return f"full(k={self.dim})"
        rep = ".".join(str(r) for r in self.rep_rows)
        if self.kind == "line":
            return f"line(k={self.dim}):{rep}"
        return f"mixed(k={self.dim};r={self.r}):{rep}"

    def sort_key(self) -> tuple:
        return (self.span_dim, self.r or 0, self.rep_rows or ())


@dataclass(frozen=True)
class OrbitRepresentative:
    """Canonical representative of a mixed-class orbit.

    The realized subspace is spanned by the first k-1 middle-level unit
    vectors together with sum(coeffs[i] * Y_(i+1)); coeffs are field elements
    of GF(q^l) that are independent of 1 over GF(q).
    """

    k: int
    r: int
    u: int
    coeffs: tuple[int, ...]
    subspace: Subspace
    label: OrbitLabel


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

    def classify(self, W: Subspace) -> SpanClass:
        self._check_ambient(W)
        cls = self.classify_rows(W.rows)
        lo = -(-cls.dim // self.l)
        if not (cls.dim == 0 or lo <= cls.span_dim <= min(cls.dim, self.m)):
            raise AssertionError(f"span class {cls} out of bounds")
        return cls

    def _check_ambient(self, W: Subspace) -> None:
        if W.v != self.v or W.q != self.q:
            raise ValueError("subspace does not live in GF(q)^(ml) of this atlas")

    def label_key_rows(self, rows: Sequence[int]) -> tuple:
        """Orbit-label key for a (not necessarily canonical) basis.

        Unclassified span classes yield ("other", dim, span_dim) instead of
        raising, so streaming sweeps can tally them.  One-shot; sweeps over
        many bases use label_keys.
        """
        tower = self.tower
        vecs = [tower.unflatten_packed(r) for r in rows]
        echelon, deps = tower.mid_echelon(vecs)
        return self._key_of(vecs, len(echelon), deps, {})

    def label_keys(self, bases: Iterable[Sequence[int]]
                   ) -> Iterator[tuple[Sequence[int], tuple]]:
        """Stream (rows, label_key_rows(rows)) over a stream of bases.

        Consecutive bases from iter_rref_bases or iter_superspace_bases
        mostly differ in their last row only.  The GF(q^l) echelon of every
        prefix of the previous basis is kept, so each basis reduces only the
        rows after the longest prefix it shares with the previous one.  A
        basis of another length than the previous one starts afresh.
        """
        tower = self.tower
        unflatten = tower.unflatten_packed
        reduce = tower.mid_reduce
        m = self.m
        prev: list[int] = []      # rows of the previous basis
        vecs: list[tuple[int, ...]] = []
        echelon: list[tuple[int, list[int]]] = []
        deps: list[list[int]] = []
        # (len(echelon), len(deps)) after each prefix of prev
        marks: list[tuple[int, int]] = [(0, 0)]
        memo: dict[tuple[int, ...], tuple] = {}
        for rows in bases:
            k = len(rows)
            shared = 0
            if k == len(prev):
                while shared < k and rows[shared] == prev[shared]:
                    shared += 1
            if shared < len(prev):
                del prev[shared:], vecs[shared:], marks[shared + 1:]
                n_ech, n_dep = marks[shared]
                del echelon[n_ech:], deps[n_dep:]
            for i in range(shared, k):
                x = unflatten(rows[i])
                # the input row followed by its transform, eliminated together
                cur = list(x) + [0] * k
                cur[m + i] = 1
                dep = reduce(echelon, cur, m)
                if dep is not None:
                    deps.append(dep[m:])
                prev.append(rows[i])
                vecs.append(x)
                marks.append((len(echelon), len(deps)))
            yield rows, self._key_of(vecs, len(echelon), deps, memo)

    def _key_of(self, vecs: Sequence[Sequence[int]], rank: int,
                deps: Sequence[Sequence[int]], memo: dict) -> tuple:
        """Label key of a basis from its GF(q^l) rank and first dependency.

        memo maps a dependency (length k, so it fixes k) to its mixed key.
        """
        k = len(vecs)
        if rank == k:
            return ("full", k)
        if rank == 1:
            key = self.line_form(vecs)
            assert len(key) == k, "line-class ratios must stay independent"
            return ("line", k, self.singer.orbit_containing(key).rep.rows)
        if rank == k - 1:
            dep = tuple(deps[0])
            out = memo.get(dep)
            if out is None:
                # the relation among the inputs spans 1 and the mixing coefficients
                mid_to_pow = self.tower.ext.mid_to_pow
                key = self._ops_l.rref([mid_to_pow[c] for c in dep])
                out = ("mixed", k, len(key) - 1,
                       self.singer.orbit_containing(key).rep.rows)
                memo[dep] = out
            return out
        return ("other", k, rank)

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

    def orbit_label(self, W: Subspace) -> OrbitLabel:
        """Orbit label of a subspace in an implemented class; loud otherwise."""
        self._check_ambient(W)
        key = self.label_key_rows(W.rows)
        if key[0] == "other":
            raise UnclassifiedOrbitError(
                f"no orbit labels for class (dim={key[1]}, span_dim={key[2]})")
        if key[0] == "full" and key[1] > self.m:
            raise AssertionError("span class exceeds middle dimension")
        return OrbitLabel.from_key(key)

    # -- canonical representatives --------------------------------------------

    def t_representative(self, k: int, coeffs: Sequence[int]) -> OrbitRepresentative:
        """Realize the representative spanned by Y_1..Y_(k-1) and sum(u_i Y_i)."""
        m, l, q = self.m, self.l, self.q
        if not 3 <= k <= min(m + 1, l):
            raise ValueError(f"k={k} outside 3..min(m+1, l)")
        r = len(coeffs)
        if not 1 <= r <= k - 1:
            raise ValueError(f"need 1 <= r <= k-1 coefficients, got {r}")
        mid_to_pow = self.tower.ext.mid_to_pow
        key = self._ops_l.rref([1] + [mid_to_pow[u] for u in coeffs])
        if len(key) != r + 1:
            raise ValueError("1, u_1, ..., u_r must be independent over GF(q)")
        tower = self.tower
        rows = [tower.basis_vector(j) for j in range(k - 1)]
        last = [0] * m
        for i, u in enumerate(coeffs):
            last[i] = u
        rows.append(tower.flatten_packed(last))
        sub = Subspace.span(q, self.v, rows)
        assert sub.dim == k
        cls = self.classify_rows(sub.rows)
        assert cls.span_dim == k - 1, "representative not in the expected class"
        orbit = self.singer.orbit_containing(key)
        label = OrbitLabel(k, k - 1, r, orbit.rep.rows)
        return OrbitRepresentative(k, r, orbit.u, tuple(coeffs), sub, label)

    def representatives(self, k: int, r: int) -> list[OrbitRepresentative]:
        """One representative per mixed-class orbit with the given r.

        Built from the Singer orbits of (r+1)-subspaces of GF(q)^l, each
        representative rescaled (least scalar) so that it contains 1.
        """
        if not 1 <= r <= k - 1:
            raise ValueError("need 1 <= r <= k-1")
        out = []
        for orbit in self.singer.orbit_representatives(r + 1):
            coeffs = self._coeffs_from_orbit(orbit)
            rep = self.t_representative(k, coeffs)
            assert rep.label.rep_rows == orbit.rep.rows
            out.append(rep)
        return out

    def _coeffs_from_orbit(self, orbit) -> tuple[int, ...]:
        mid = self.tower.mid
        ext = self.tower.ext
        sub = orbit.rep
        if not sub.contains_vector(1):
            scalars = sorted(mid.inv(ext.pow_to_mid[x])
                             for x in sub.vectors() if x)
            s = scalars[0]
            rows = [ext.mid_to_pow[mid.mul(s, ext.pow_to_mid[r])] for r in sub.rows]
            sub = Subspace.span(self.q, self.l, rows)
            assert sub.contains_vector(1)
        ops = self._ops_l
        reduced = []
        for row in sub.rows:
            c = ops.digit(row, 0)
            if c:
                row = ops.sub_scaled(row, c, 1)
            if row:
                reduced.append(row)
        rows = ops.rref(reduced)
        assert len(rows) == sub.dim - 1
        return tuple(ext.pow_to_mid[r] for r in rows)

    def line_rows(self, rows_l: Sequence[int], gen: Sequence[int]) -> list[int]:
        """Packed rows of W.g for W with basis rows_l in GF(q)^l = GF(q^l)."""
        tower = self.tower
        mid, pow_to_mid = tower.mid, tower.ext.pow_to_mid
        return [tower.flatten_packed([mid.mul(pow_to_mid[row], g) for g in gen])
                for row in rows_l]

    def realize_line_block(self, W: Subspace) -> Subspace:
        """The subspace W.Y_1 of GF(q)^(ml) for W a subspace of GF(q^l)."""
        Y1 = (1,) + (0,) * (self.m - 1)
        return Subspace.span(self.q, self.v, self.line_rows(W.rows, Y1))

    def full_class_rep(self, k: int) -> Subspace:
        if not 1 <= k <= self.m:
            raise ValueError("the span_dim == dim class needs k <= m")
        return Subspace.span(self.q, self.v,
                             [self.tower.basis_vector(j) for j in range(k)])

    # -- stabilizer orders and orbit sizes --------------------------------------

    def _check_params(self, k: int, r: int, u: int) -> None:
        if not 3 <= k <= min(self.m + 1, self.l):
            raise ValueError(f"k={k} outside 3..min(m+1, l)")
        if not 1 <= r <= k - 1:
            raise ValueError("need 1 <= r <= k-1")
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

    def orbit_size(self, k: int, r: int, u: int) -> int:
        total = gl_order(self.m, self.Q)
        stab = self.stabilizer_order(k, r, u)
        assert total % stab == 0, "stabilizer order does not divide |GL|"
        return total // stab

    def line_orbit_size(self, u: int) -> int:
        """Orbit size of W.Y_1 where the Singer stabilizer of W is GF(q^u)^*."""
        num = self.Q ** self.m - 1
        den = self.q ** u - 1
        assert num % den == 0
        return num // den

    def full_class_size(self, k: int) -> int:
        """Size of the single orbit with span_dim == dim == k (needs k <= m)."""
        if not 1 <= k <= self.m:
            raise ValueError("the span_dim == dim class needs k <= m")
        q, Q, m = self.q, self.Q, self.m
        num = 1
        den = 1
        for i in range(k):
            num *= Q ** m - Q ** i
            den *= q ** k - q ** i
        assert num % den == 0
        return num // den

    def label_orbit_size(self, label: OrbitLabel) -> int:
        if label.kind == "full":
            return self.full_class_size(label.dim)
        orbit = self.singer.orbit_containing(label.rep_rows)
        if label.kind == "line":
            return self.line_orbit_size(orbit.u)
        return self.orbit_size(label.dim, label.r, orbit.u)

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

    def apply_matrix(self, g: Sequence[Sequence[int]], W: Subspace) -> Subspace:
        self._check_ambient(W)
        return Subspace(self.q, self.v, self.apply_matrix_rows(g, W.rows))

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
                col = []
                rest = packed
                for _ in range(m):
                    rest, c = divmod(rest, self.Q)
                    col.append(c)
                col = tuple(col)
                if col in span:
                    continue
                columns.append(col)
                yield from extend()
                columns.pop()

        yield from extend()

    def random_gl(self, rng: Random) -> tuple[tuple[int, ...], ...]:
        m, Q = self.m, self.Q
        while True:
            g = tuple(tuple(rng.randrange(Q) for _ in range(m)) for _ in range(m))
            if self.tower.mid_rank([row for row in g]) == m:
                return g

    def brute_force_stabilizer_order(self, W: Subspace) -> int:
        """Count of GL elements fixing W, via full group enumeration."""
        self._check_ambient(W)
        target = W.rows
        return sum(1 for g in self.gl_elements()
                   if self.apply_matrix_rows(g, target) == target)

    # -- independence criterion ----------------------------------------------------

    def column_independence_criterion(self, coeffs: Sequence[int],
                                      a: Sequence[Sequence[int]],
                                      b: Sequence[int]) -> bool:
        """Whether the columns of (a_ij + b_j u_i) are GF(q^l)-independent.

        Decided over GF(q): the columns are independent exactly when the
        vectors (b_j, a_1j, ..., a_rj) are.
        """
        r = len(coeffs)
        s = len(b)
        if len(a) != r or any(len(row) != s for row in a):
            raise ValueError("a must be r x s")
        ops = vector_ops(self.q, r + 1)
        rows = []
        for j in range(s):
            vec = [b[j]] + [a[i][j] for i in range(r)]
            rows.append(ops.vector_from_coords(vec))
        return ops.rank(rows) == s

    def mixing_matrix(self, coeffs: Sequence[int], a: Sequence[Sequence[int]],
                      b: Sequence[int]) -> list[list[int]]:
        """The r x s matrix (a_ij + b_j u_i) over GF(q^l), for rank oracles."""
        mid = self.tower.mid
        embed = self.tower.ext.embed
        r, s = len(coeffs), len(b)
        return [[mid.add(embed[a[i][j]], mid.mul(embed[b[j]], coeffs[i]))
                 for j in range(s)] for i in range(r)]


@lru_cache(maxsize=None)
def gl_atlas(m: int, l: int, q: int) -> GlAtlas:
    return GlAtlas(m, l, q)
