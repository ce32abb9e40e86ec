"""Singer-cycle action on subspaces of GF(q)^l.

The Singer cycle H is generated by multiplication with the primitive element
w of GF(q^l), acting on coordinate vectors in the power basis 1, w, ...,
w^(l-1).  This module names each H-orbit by a normal form, its least
canonical basis, found among the members through 1; it evaluates the
closed-form orbit-count formulas, builds the H-incidence matrix between t-
and k-subspaces, and runs a bounded 0-1 Kramer-Mesner search.
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
        # discrete logs of packed vectors, and packed powers w^i for 0 <= i < 2 * order
        self._log = [mid.log[x] for x in ext.pow_to_mid]
        self._exp = [ext.mid_to_pow[x] for x in mid.exp]
        self._ops = vector_ops(q, l)
        self._orbits: dict[int, list[HOrbit]] = {}
        self._memo: dict[tuple[int, ...], HOrbit] = {}  # rows asked of orbit_containing

    def step(self, rows: tuple[int, ...]) -> tuple[int, ...]:
        """Apply multiplication by w to a canonical basis, recanonicalized."""
        log, exp = self._log, self._exp
        return self._ops.rref([exp[log[r] + 1] for r in rows])

    def cycle(self, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The orbit of a canonical basis: rows, then its images until it returns."""
        cur = rows
        while True:
            yield cur
            cur = self.step(cur)
            if cur == rows:
                return

    def _images(self, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """rref(W.x^-1) over x in W = span(rows) with last coefficient 1: one per point."""
        log, exp, n, q = self._log, self._exp, self.order, self.q
        logs, span = [log[r] for r in rows], self._ops.span(rows)
        return (self._ops.rref([exp[b + n - log[x]] for b in logs])
                for j in range(len(rows)) for x in span[q ** j:2 * q ** j])

    def _orbit(self, rep: tuple[int, ...], hits: int) -> HOrbit:
        """The orbit with least member rep, whose stabilizer GF(q^u)^* holds the
        q^u - 1 = hits * (q - 1) vectors x of rep with rep.x^-1 = rep."""
        q, l = self.q, self.l
        u = next(u for u in divisors(l) if q ** u - 1 == hits * (q - 1)) if rep else l
        return HOrbit(len(rep), u, (q ** l - 1) // (q ** u - 1), Subspace(q, l, rep))

    def orbit_representatives(self, d: int) -> list[HOrbit]:
        """One HOrbit per orbit of d-subspaces, sorted by (u, representative)."""
        self._ensure_orbits(d)
        return self._orbits[d]

    def orbit_containing(self, rows: tuple[int, ...]) -> HOrbit:
        """The orbit of the subspace with these canonical basis rows.

        Its least member contains 1, so it is the least of _images(rows).
        Raises KeyError for rows that are not a canonical basis.
        """
        orbit = self._memo.get(rows)
        if orbit is None:
            if self._ops.rref(rows) != rows:
                raise KeyError(rows)
            images = list(self._images(rows))
            rep = min(images, default=())
            orbit = self._memo[rows] = self._orbit(rep, images.count(rep))
        return orbit

    def incidence_row(self, rows: tuple[int, ...], k: int) -> list[int]:
        """Entry j: members of orbit j of k-subspaces containing span(rows).

        Streams the k-superspaces of the canonical basis rows into their orbits.
        """
        col_index = {o.rep.rows: j for j, o in enumerate(self.orbit_representatives(k))}
        counts = [0] * len(col_index)
        for basis in iter_superspace_bases(Subspace(self.q, self.l, rows), k):
            counts[col_index[min(self._images(self._ops.rref(basis)))]] += 1
        return counts

    def _ensure_orbits(self, d: int) -> None:
        """Keep each subspace through 1 (row 1, then a (d-1)-subspace of the last
        l - 1 coordinates) that none of its images is below: the least members."""
        if d in self._orbits:
            return
        if not 0 <= d <= self.l:
            raise ValueError("need 0 <= d <= l")
        q = self.q
        orbits = [] if d else [self._orbit((), 0)]
        for rest in iter_rref_bases(self.l - 1, d - 1, q) if d else ():
            rows = (1,) + tuple(r * q for r in rest)
            hits = 0
            for image in self._images(rows):
                if image < rows:
                    break
                hits += image == rows
            else:
                orbits.append(self._orbit(rows, hits))
        self._orbits[d] = sorted(orbits, key=HOrbit.sort_key)


@lru_cache(maxsize=None)
def singer_action(l: int, q: int) -> SingerAction:
    return SingerAction(l, q)


def orbit_of(W: Subspace) -> HOrbit:
    """Singer orbit of a subspace of GF(q)^l, ambient parameters taken from W."""
    return singer_action(W.v, W.q).orbit_containing(W.rows)


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

    @property
    def status(self) -> str:
        return "exhausted" if self.exhausted else f"stopped:{self.stopped_by}"


def kramer_mesner_solve(matrix: LabeledIntMatrix, lam: int,
                        budget: int = 10_000_000,
                        max_solutions: int | None = None) -> KmResult:
    """Depth-first search for 0-1 x with (matrix)x = lam * all-ones.

    Bounded by a node budget; an empty solution list with exhausted=False
    means "none found within budget", not nonexistence.  The search stops
    after max_solutions solutions (at least 1) when that is given.
    """
    if max_solutions is not None and max_solutions < 1:
        raise ValueError(f"max_solutions={max_solutions} must be at least 1")
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
    return KmResult(tuple(solutions), nodes, finished, stopped[0])
