"""Singer-cycle action on subspaces of GF(q)^l.

The Singer cycle H is generated by multiplication with the primitive element
w of GF(q^l), acting on coordinate vectors in the power basis 1, w, ...,
w^(l-1).  This module enumerates H-orbits by explicit cycling, evaluates the
closed-form orbit-count formulas, builds the H-incidence matrix between
t- and k-subspaces, and runs a bounded 0-1 Kramer-Mesner search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .fields import extension, factorize
from .matrices import LabeledIntMatrix
from .subspaces import (Subspace, gaussian_binomial, iter_rref_bases,
                        iter_superspace_bases, vector_ops)


def moebius(n: int) -> int:
    """The number-theoretic Moebius function, via trial factorization."""
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    out = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        out = -out
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def n_orbits(d: int, v: int, q: int) -> int:
    """Number of Singer-cycle orbits on d-subspaces of GF(q)^v.

    Every stabilizer is GF(q^u)^* for some u dividing gcd(d, v).
    """
    return sum(n_orbits_with_stabilizer(d, u, v, q)
               for u in divisors(math.gcd(d, v)))


def n_orbits_with_stabilizer(d: int, u: int, v: int, q: int) -> int:
    """Singer orbits on d-subspaces whose stabilizer is GF(q^u)^*."""
    if not 0 <= d <= v:
        raise ValueError("need 0 <= d <= v")
    if u < 1:
        raise ValueError(f"u={u} must be a positive integer")
    g = math.gcd(d, v)
    if g % u:
        raise ValueError(f"u={u} does not divide gcd(d, v)={g}")
    total = 0
    for t in divisors(g):
        if t % u:
            continue
        total += moebius(t // u) * gaussian_binomial(v // t, d // t, q ** t)
    num = (q ** u - 1) * total
    denom = q ** v - 1
    assert num % denom == 0, "stabilizer orbit count not divisible"
    return num // denom


@dataclass(frozen=True)
class HOrbit:
    """A Singer orbit of d-subspaces: canonical representative and stabilizer data."""

    d: int
    u: int
    length: int
    rep: Subspace

    def sort_key(self) -> tuple:
        return (self.u, self.rep.rows)

    def label_str(self) -> str:
        return f"u{self.u}:" + ".".join(str(r) for r in self.rep.rows)


class SingerAction:
    """Multiplication by the primitive element of GF(q^l) on GF(q)^l."""

    def __init__(self, l: int, q: int):
        self.l = l
        self.q = q
        self.ext = extension(q, l)
        self.mid = self.ext.mid
        self.order = self.mid.order - 1
        mid, ext = self.mid, self.ext
        self._mulw = [ext.mid_to_pow[mid.mul(ext.w, x)] for x in ext.pow_to_mid]
        self._ops = vector_ops(q, l)
        self._orbits: dict[int, list[HOrbit]] = {}
        self._index: dict[int, dict[tuple[int, ...], int]] = {}

    def step(self, rows: tuple[int, ...]) -> tuple[int, ...]:
        """Apply multiplication by w to a canonical basis, recanonicalized."""
        mulw = self._mulw
        return self._ops.rref([mulw[r] for r in rows])

    def cycle(self, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The orbit of a canonical basis: rows, then its images until it returns."""
        cur = rows
        while True:
            yield cur
            cur = self.step(cur)
            if cur == rows:
                return

    def _stabilizer_exponent(self, length: int) -> int:
        q = self.q
        total = q ** self.l - 1
        assert total % length == 0, "orbit length does not divide q^l - 1"
        qu = total // length + 1
        u = 0
        while qu % q == 0:
            qu //= q
            u += 1
        assert qu == 1, "orbit length incompatible with a subfield stabilizer"
        return u

    def _orbit(self, members: list[tuple[int, ...]]) -> HOrbit:
        """The HOrbit of a complete member list, as cycle() yields it."""
        return HOrbit(len(members[0]), self._stabilizer_exponent(len(members)),
                      len(members), Subspace(self.q, self.l, min(members)))

    def orbit_of(self, W: Subspace) -> HOrbit:
        if W.v != self.l or W.q != self.q:
            raise ValueError("subspace does not match this Singer action")
        return self._orbit(list(self.cycle(W.rows)))

    def orbit_representatives(self, d: int) -> list[HOrbit]:
        """One HOrbit per orbit of d-subspaces, sorted by (u, representative)."""
        self._ensure_orbits(d)
        return self._orbits[d]

    def orbit_index_map(self, d: int) -> dict[tuple[int, ...], int]:
        """Canonical basis rows -> index into orbit_representatives(d)."""
        self._ensure_orbits(d)
        return self._index[d]

    def orbit_containing(self, rows: tuple[int, ...]) -> HOrbit:
        """The orbit of the subspace with these canonical basis rows.

        Raises KeyError for rows that are not a canonical basis.
        """
        d = len(rows)
        self._ensure_orbits(d)
        return self._orbits[d][self._index[d][rows]]

    def incidence_row(self, rows: tuple[int, ...], k: int) -> list[int]:
        """Entry j: members of orbit j of k-subspaces containing span(rows).

        Streams the k-superspaces of the canonical basis rows into their orbits.
        """
        col_index = self.orbit_index_map(k)
        counts = [0] * len(self.orbit_representatives(k))
        for basis in iter_superspace_bases(Subspace(self.q, self.l, rows), k):
            counts[col_index[self._ops.rref(basis)]] += 1
        return counts

    def _ensure_orbits(self, d: int) -> None:
        if d in self._orbits:
            return
        if not 0 <= d <= self.l:
            raise ValueError("need 0 <= d <= l")
        index: dict[tuple[int, ...], int] = {}
        orbits: list[HOrbit] = []
        for rows in iter_rref_bases(self.l, d, self.q):
            if rows in index:
                continue
            members = list(self.cycle(rows))
            for key in members:
                index[key] = len(orbits)
            orbits.append(self._orbit(members))
        order = sorted(range(len(orbits)), key=lambda i: orbits[i].sort_key())
        rank = {old: new for new, old in enumerate(order)}
        self._orbits[d] = [orbits[i] for i in order]
        self._index[d] = {key: rank[idx] for key, idx in index.items()}


@lru_cache(maxsize=None)
def singer_action(l: int, q: int) -> SingerAction:
    return SingerAction(l, q)


def orbit_of(W: Subspace) -> HOrbit:
    """Singer orbit of a subspace of GF(q)^l, ambient parameters taken from W."""
    return singer_action(W.v, W.q).orbit_of(W)


def orbit_representatives(l: int, d: int, q: int) -> list[HOrbit]:
    return singer_action(l, q).orbit_representatives(d)


def h_incidence_matrix(l: int, t: int, k: int, q: int) -> LabeledIntMatrix:
    """H-incidence matrix between t-subspaces and k-subspaces of GF(q)^l.

    Entry (T, K) counts the members of the orbit of K containing the
    representative of T (SingerAction.incidence_row).
    """
    if not 0 <= t <= k <= l:
        raise ValueError("need t <= k <= l")
    action = singer_action(l, q)
    rows = action.orbit_representatives(t)
    return LabeledIntMatrix(
        tuple(o.label_str() for o in rows),
        tuple(o.label_str() for o in action.orbit_representatives(k)),
        tuple(tuple(action.incidence_row(o.rep.rows, k)) for o in rows),
    )


@dataclass(frozen=True)
class KmResult:
    """Outcome of a bounded 0-1 Kramer-Mesner search."""

    solutions: tuple[tuple[int, ...], ...]
    nodes: int
    exhausted: bool
    stopped_by: str | None  # None | "budget" | "solution_cap"
    solution_weights: tuple[int, ...] = ()

    @property
    def status(self) -> str:
        return "exhausted" if self.exhausted else f"stopped:{self.stopped_by}"


def kramer_mesner_solve(matrix: LabeledIntMatrix, lam: int,
                        budget: int = 10_000_000,
                        max_solutions: int | None = None,
                        weights: tuple[int, ...] | None = None) -> KmResult:
    """Depth-first search for 0-1 x with (matrix)x = lam * all-ones.

    Bounded by a node budget; an empty solution list with exhausted=False
    means "none found within budget", not nonexistence.  Optional column
    weights (orbit lengths, say) are totaled per solution.
    """
    entries = matrix.entries
    n_rows, n_cols = matrix.shape
    if any(x < 0 for row in entries for x in row):
        raise ValueError("matrix entries must be nonnegative")
    suffix = [[0] * n_rows for _ in range(n_cols + 1)]
    for c in range(n_cols - 1, -1, -1):
        for i in range(n_rows):
            suffix[c][i] = suffix[c + 1][i] + entries[i][c]
    resid = [lam] * n_rows
    taken: list[int] = []
    solutions: list[tuple[int, ...]] = []
    nodes = 0
    stopped: list[str | None] = [None]

    def dfs(c: int) -> bool:
        nonlocal nodes
        if nodes >= budget:
            stopped[0] = "budget"
            return False
        nodes += 1
        if c == n_cols:
            if all(r == 0 for r in resid):
                solutions.append(tuple(taken))
                if max_solutions is not None and len(solutions) >= max_solutions:
                    stopped[0] = "solution_cap"
                    return False
            return True
        cap = suffix[c]
        if any(r > m for r, m in zip(resid, cap)):
            return True
        col = [entries[i][c] for i in range(n_rows)]
        if all(x <= r for x, r in zip(col, resid)):
            for i in range(n_rows):
                resid[i] -= col[i]
            taken.append(1)
            ok = dfs(c + 1)
            taken.pop()
            for i in range(n_rows):
                resid[i] += col[i]
            if not ok:
                return False
        taken.append(0)
        ok = dfs(c + 1)
        taken.pop()
        return ok

    finished = dfs(0)
    totals = ()
    if weights is not None:
        if len(weights) != n_cols:
            raise ValueError("need one weight per column")
        totals = tuple(sum(w for w, x in zip(weights, sol) if x)
                       for sol in solutions)
    return KmResult(tuple(solutions), nodes, finished, stopped[0], totals)
