"""Reference implementations that the tests check the production routines against.

Each one is the plain, slow way of doing a job that qgdd does faster or
through a shared routine: the GL(m, q^l) action on subspaces, element
orders, addition one coordinate and one digit at a time, digit scaling
tables one entry at a time, GF(q)-vector arithmetic and row reduction one
coordinate at a time, canonical bases in stream order from the definition of
that order, GF(q)-combinations
one coefficient at a time, the pair keys of a block read from its whole
span table, containment by rank, superspace rows lifted one
digit at a time, orbit labels by eliminating every row of every basis, and
Singer incidence by cycling an orbit and testing containment, and the
Singer orbit catalogue by cycling every subspace.
"""

from __future__ import annotations

from itertools import combinations, product
from random import Random
from typing import Sequence

from qgdd.fields import (factorize, field_for_order, pack_coords, prime_power,
                         unpack_coords)
from qgdd.singer import HOrbit
from qgdd.subspaces import Subspace, iter_rref_bases, vector_ops


# -- the GL(m, q^l) action ------------------------------------------------------

def apply_matrix(atlas, g: Sequence[Sequence[int]], W: Subspace) -> Subspace:
    """Image of W under g in GL(m, q^l)."""
    return Subspace(atlas.q, atlas.v, atlas.apply_matrix_rows(g, W.rows))


def random_gl(atlas, rng: Random) -> tuple[tuple[int, ...], ...]:
    """A uniformly random element of GL(m, q^l), by rejection."""
    m, Q = atlas.m, atlas.Q
    while True:
        g = tuple(tuple(rng.randrange(Q) for _ in range(m)) for _ in range(m))
        if atlas.tower.mid_rank(list(g)) == m:
            return g


def column_independence_criterion(atlas, coeffs: Sequence[int],
                                  a: Sequence[Sequence[int]],
                                  b: Sequence[int]) -> bool:
    """Whether the columns of (a_ij + b_j u_i) are GF(q^l)-independent.

    Decided over GF(q): the columns are independent exactly when the
    vectors (b_j, a_1j, ..., a_rj) are.
    """
    r, s = len(coeffs), len(b)
    ops = vector_ops(atlas.q, r + 1)
    rows = [pack_coords([b[j]] + [a[i][j] for i in range(r)], atlas.q)
            for j in range(s)]
    return ops.rank(rows) == s


def mixing_matrix(atlas, coeffs: Sequence[int], a: Sequence[Sequence[int]],
                  b: Sequence[int]) -> list[list[int]]:
    """The r x s matrix (a_ij + b_j u_i) over GF(q^l)."""
    mid = atlas.tower.mid
    embed = atlas.tower.ext.embed
    r, s = len(coeffs), len(b)
    return [[mid.add(embed[a[i][j]], mid.mul(embed[b[j]], coeffs[i]))
             for j in range(s)] for i in range(r)]


# -- field elements ------------------------------------------------------------

def element_order(field, a: int) -> int:
    """Multiplicative order of a nonzero field element."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    n = field.order - 1
    order = n
    for r in factorize(n):
        while order % r == 0 and field.pow(a, order // r) == 1:
            order //= r
    return order


def add_per_coordinate(a: int, b: int, q: int, v: int, s: int = 1) -> int:
    """a + s*b for packed vectors of GF(q)^v, q = p^e.

    Each base-q coordinate is split into its e base-p digits, and each digit
    pair is added mod p on its own.
    """
    p, e = prime_power(q)
    coords = []
    for x, y in zip(unpack_coords(a, q, v), unpack_coords(b, q, v)):
        digits = [(dx + s * dy) % p
                  for dx, dy in zip(unpack_coords(x, p, e), unpack_coords(y, p, e))]
        coords.append(pack_coords(digits, p))
    return pack_coords(coords, q)


# -- GF(q)^v vectors, one FiniteField operation per coordinate -------------------

def coordinate_add_scaled(a: int, s: int, b: int, q: int, v: int) -> int:
    """a + s*b for packed vectors of GF(q)^v."""
    f = field_for_order(q)
    return pack_coords([f.add(x, f.mul(s, y)) for x, y in
                        zip(unpack_coords(a, q, v), unpack_coords(b, q, v))], q)


def coordinate_span(rows: Sequence[int], q: int, v: int) -> list[int]:
    """Every combination of rows; entry c has the base-q digits of c as coefficients."""
    out = []
    for c in range(q ** len(rows)):
        x = 0
        for coeff, row in zip(unpack_coords(c, q, len(rows)), rows):
            x = coordinate_add_scaled(x, coeff, row, q, v)
        out.append(x)
    return out


def coordinate_rref(rows: Sequence[int], q: int, v: int) -> tuple[int, ...]:
    """Reduced row-echelon basis by Gauss-Jordan on coordinate lists.

    The pivot of a row is its first nonzero coordinate; rows come out by
    increasing pivot.
    """
    f = field_for_order(q)
    basis: list[list[int]] = []
    for row in rows:
        x = list(unpack_coords(row, q, v))
        for b in basis:
            c = f.sub(0, x[b.index(1)])
            x = [f.add(xi, f.mul(c, bi)) for xi, bi in zip(x, b)]
        if not any(x):
            continue
        inv = f.inv(next(c for c in x if c))
        x = [f.mul(inv, xi) for xi in x]
        piv = x.index(1)
        for i, b in enumerate(basis):
            c = f.sub(0, b[piv])
            basis[i] = [f.add(bi, f.mul(c, xi)) for bi, xi in zip(b, x)]
        basis.append(x)
    basis.sort(key=lambda b: b.index(1))
    return tuple(pack_coords(b, q) for b in basis)


def scale_table_by_entry(q: int, w: int) -> list[list[int]]:
    """scale[s][x]: s times each base-q digit of x < q^w, one entry at a time."""
    f = field_for_order(q)
    return [[pack_coords([f.mul(s, d) for d in unpack_coords(x, q, w)], q)
             for x in range(q ** w)] for s in range(q)]


# -- canonical bases in stream order -------------------------------------------------

def rref_bases_in_order(v: int, d: int, q: int,
                        shard: tuple[int, int] = (0, 1)) -> list[tuple[int, ...]]:
    """The canonical d-subspace bases of GF(q)^v in iter_rref_bases order, from
    its definition: pivot-column sets in lexicographic order; within one, each
    row's free entries as base-q digits counted up with the lowest free column
    slowest, and the first row slowest of all.  Shard (i, n) keeps the units j
    (a pivot set with one completion of its first row) with j % n == i."""
    i, n = shard
    out, unit = [], 0
    for pivots in combinations(range(v), d):
        per_row = []
        for p in pivots:
            free = [j for j in range(p + 1, v) if j not in pivots]
            per_row.append([q ** p + sum(c * q ** j for c, j in zip(digits, free))
                            for digits in product(range(q), repeat=len(free))])
        for head in [(x,) for x in per_row[0]] if d else [()]:
            if unit % n == i:
                out += [head + rest for rest in product(*per_row[1:])]
            unit += 1
    return out


# -- containment ------------------------------------------------------------------

def contains_vector(W: Subspace, x: int) -> bool:
    """Whether x lies in W: adding it to a basis leaves the rank at dim W."""
    return vector_ops(W.q, W.v).rank(list(W.rows) + [x]) == W.dim


def lift_row(row: int, positions: Sequence[int], q: int) -> int:
    """A row of GF(q)^len(positions) with its coordinate j moved to position positions[j]."""
    coords = unpack_coords(row, q, len(positions))
    return sum(c * q ** pos for pos, c in zip(positions, coords))


# -- GF(q)-combinations -----------------------------------------------------------

def combine(coeff_row: int, rows: Sequence[int], ops) -> int:
    """The combination of rows whose coefficients are the base-q digits of coeff_row."""
    out = 0
    q = ops.q
    j = 0
    while coeff_row:
        coeff_row, c = divmod(coeff_row, q)
        if c:
            out = ops.add(out, ops.smul(c, rows[j]))
        j += 1
    return out


def span_table(rows: Sequence[int], ops) -> list[int]:
    """VectorOps.span, one coefficient vector at a time."""
    return [combine(c, rows, ops) for c in range(ops.q ** len(rows))]


def span_pair_keys(rows: Sequence[int], q: int, v: int) -> list[tuple[int, int]]:
    """Pair keys of a block read from its whole VectorOps.span table.

    span[c] is the combination of rows with packed coefficients c, so the
    key of the 2-subspace with canonical coefficient basis (a, b) is
    (span[a], span[b]), in iter_rref_bases order; none for fewer than 2 rows.
    """
    if len(rows) < 2:
        return []
    span = vector_ops(q, v).span(rows)
    return [(span[a], span[b]) for a, b in iter_rref_bases(len(rows), 2, q)]


def hole_coords(hole: Subspace, row: int) -> int:
    """Packed coordinates of a vector of the hole w.r.t. the hole basis."""
    ops = vector_ops(hole.q, hole.v)
    coeffs = []
    for b in hole.rows:
        c = ops.digit(row, ops.pivot(b))
        coeffs.append(c)
        if c:
            row = ops.sub_scaled(row, c, b)
    assert row == 0, "not a vector of the hole"
    return sum(c * hole.q ** j for j, c in enumerate(coeffs))


def fill_holes_blocks(gdd_blocks, groups, master_blocks, hole: Subspace,
                      v_gdd: int) -> dict[tuple[int, ...], int]:
    """The block multiset fill_holes assembles, built by per-row combination."""
    q, n = hole.q, hole.dim
    ops_out = vector_ops(q, v_gdd + n)
    hole_images = [q ** (v_gdd + j) for j in range(n)]
    out: dict[tuple[int, ...], int] = {}

    def add(rows, mult):
        key = ops_out.rref(rows)
        out[key] = out.get(key, 0) + mult

    inside = [(rows, mult) for rows, mult in master_blocks
              if all(contains_vector(hole, r) for r in rows)]
    outside = [item for item in master_blocks if item not in inside]
    for rows, mult in gdd_blocks:
        add(rows, mult)
    for g in groups:
        basis = list(g.rows) + hole_images
        for rows, mult in outside:
            add([combine(r, basis, ops_out) for r in rows], mult)
    for rows, mult in inside:
        add([combine(hole_coords(hole, r), hole_images, ops_out) for r in rows],
            mult)
    return out


# -- orbit labels ------------------------------------------------------------------

def label_keys_by_elimination(atlas, bases) -> list[tuple]:
    """(rows, key) for each basis, every row of every basis reduced afresh.

    Each row x_i, unflattened to GF(q^l)^m, is eliminated as [x_i | e_i]
    against the rows before it, so a dependent row leaves its relation to the
    earlier rows in the transform.  The key follows from the GF(q^l) rank
    and the first relation: full, line (line_form, then its Singer orbit),
    mixed (the Singer orbit of the span of the relation's coefficients) or
    ("other", k, rank).
    """
    tower, m = atlas.tower, atlas.m
    mid_to_pow = tower.ext.mid_to_pow
    ops_l = vector_ops(atlas.q, atlas.l)
    out = []
    for rows in bases:
        k = len(rows)
        vecs = [tower.unflatten_packed(r) for r in rows]
        echelon, deps = [], []
        for i, x in enumerate(vecs):
            cur = list(x) + [0] * k
            cur[m + i] = 1
            dep = tower.mid_reduce(echelon, cur, m)
            if dep is not None:
                deps.append(dep[m:])
        rank = len(echelon)
        if rank == k:
            key = ("full", k)
        elif rank == 1:
            key = ("line", k, atlas.singer.orbit_containing(atlas.line_form(vecs)).rep.rows)
        elif rank == k - 1:
            span = ops_l.rref([mid_to_pow[c] for c in deps[0]])
            key = ("mixed", k, len(span) - 1, atlas.singer.orbit_containing(span).rep.rows)
        else:
            key = ("other", k, rank)
        out.append((rows, key))
    return out


# -- Singer incidence ------------------------------------------------------------

def containment_count(action, rows: tuple[int, ...], orbit_rows: tuple[int, ...]) -> int:
    """Members of the Singer orbit of orbit_rows that contain span(rows)."""
    count = 0
    for member in action.cycle(orbit_rows):
        K = Subspace(action.q, action.l, member)
        if all(contains_vector(K, r) for r in rows):
            count += 1
    return count


def singer_orbits_by_cycling(action, d: int) -> tuple[list, dict]:
    """The Singer d-orbits found by cycling every d-subspace of GF(q)^l.

    Returns the HOrbits sorted by sort_key and a member -> index map.  The
    representative is the least member, and u is read off the orbit length:
    (q^l - 1) / length = q^u - 1.
    """
    q, l = action.q, action.l
    orbits: list[HOrbit] = []
    index: dict[tuple[int, ...], int] = {}
    for rows in iter_rref_bases(l, d, q):
        if rows in index:
            continue
        members = list(action.cycle(rows))
        for member in members:
            index[member] = len(orbits)
        qu = (q ** l - 1) // len(members) + 1
        u = next(u for u in range(l + 1) if q ** u == qu)
        orbits.append(HOrbit(d, u, len(members), Subspace(q, l, min(members))))
    order = sorted(range(len(orbits)), key=lambda i: orbits[i].sort_key())
    rank = {old: new for new, old in enumerate(order)}
    return [orbits[i] for i in order], {m: rank[i] for m, i in index.items()}
