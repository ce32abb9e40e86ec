import math
from random import Random

import pytest

from qgdd.singer import (HOrbit, SingerAction, h_incidence_matrix, kramer_mesner_solve,
                         moebius, n_orbits, n_orbits_with_stabilizer,
                         orbit_of, orbit_representatives, singer_action)
from qgdd.subspaces import (Subspace, canonicalize, gaussian_binomial,
                            iter_rref_bases)


def moebius_oracle(n):
    """Independent brute-force oracle from the definition."""
    flat = []
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            flat.append(d)
            m //= d
        d += 1
    if m > 1:
        flat.append(m)
    if len(set(flat)) != len(flat):
        return 0
    return (-1) ** len(flat)


def test_moebius_trivial():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1


def test_moebius_vs_oracle():
    for n in range(1, 200):
        assert moebius(n) == moebius_oracle(n)
    with pytest.raises(ValueError):
        moebius(0)


def test_orbit_of_one_subspaces_sharply_transitive():
    action = singer_action(3, 2)
    for rows in iter_rref_bases(3, 1, 2):
        orbit = action.orbit_containing(rows)
        assert orbit.length == 7 and orbit.u == 1
    assert n_orbits(1, 5, 2) == 1
    assert n_orbits(1, 4, 3) == 1


SUBFIELD_POINTS = [(q, l, u) for q in (2, 3, 4) for l in range(1, 13)
                   if q ** l <= 1 << 12 for u in range(1, l + 1) if l % u == 0]


@pytest.mark.parametrize("q,l,u", SUBFIELD_POINTS)
def test_orbit_of_subfield(q, l, u):
    # the subfield GF(q^u) inside GF(q^l), as a u-subspace of GF(q)^l, is
    # fixed exactly by GF(q^u)^*; at (2, 4, 2) it is GF(4) inside GF(16)
    action = singer_action(l, q)
    mid, ext = action.mid, action.ext
    g = mid.pow(ext.w, (q ** l - 1) // (q ** u - 1))  # generates GF(q^u)^*
    W = Subspace.span(q, l, [ext.mid_to_pow[mid.pow(g, i)] for i in range(u)])
    assert W.dim == u
    orbit = action.orbit_containing(W.rows)
    assert orbit.u == u and orbit.length == (q ** l - 1) // (q ** u - 1)
    assert orbit_of(W) == orbit


def test_orbit_of_generic_pair():
    action = singer_action(4, 2)
    W = Subspace.span(2, 4, [1, 2])  # span of 1 and w
    orbit = action.orbit_containing(W.rows)
    assert orbit.length == 15 and orbit.u == 1


def test_orbit_reps_examples():
    assert [(o.u, o.length) for o in orbit_representatives(3, 2, 2)] == [(1, 7)]
    reps = orbit_representatives(4, 2, 2)
    assert sorted((o.u, o.length) for o in reps) == [(1, 15), (1, 15), (2, 5)]
    whole = orbit_representatives(3, 3, 2)
    assert [(o.u, o.length) for o in whole] == [(3, 1)]


@pytest.mark.parametrize("q,lmax", [(2, 6), (3, 4)])
def test_orbit_counts_formula_vs_enumeration(q, lmax):
    for l in range(1, lmax + 1):
        for d in range(l + 1):
            reps = orbit_representatives(l, d, q)
            assert n_orbits(d, l, q) == len(reps)
            g = math.gcd(d, l) if d else l
            total = sum(n_orbits_with_stabilizer(d, u, l, q)
                        for u in range(1, l + 1) if g % u == 0)
            assert total == len(reps)
            assert sum(o.length for o in reps) == gaussian_binomial(l, d, q)
            for o in reps:
                assert o.length * (q ** o.u - 1) == q ** l - 1


def test_n_orbits_examples():
    assert n_orbits(2, 4, 2) == 3
    assert n_orbits(3, 3, 2) == 1
    assert n_orbits_with_stabilizer(3, 1, 3, 2) == 0
    assert n_orbits_with_stabilizer(3, 3, 3, 2) == 1
    assert n_orbits_with_stabilizer(3, 1, 7, 2) == 93
    with pytest.raises(ValueError):
        n_orbits_with_stabilizer(3, 2, 3, 2)
    for u in (0, -1):
        with pytest.raises(ValueError, match=f"u={u} must be a positive integer"):
            n_orbits_with_stabilizer(3, u, 3, 2)


def test_orbit_reps_sorted_and_deterministic():
    a = orbit_representatives(5, 2, 2)
    b = singer_action(5, 2).orbit_representatives(2)
    assert a == b
    assert [o.sort_key() for o in a] == sorted(o.sort_key() for o in a)


def test_matrix_order():
    # the Singer cycle is multiplication by a primitive element
    from oracles import element_order
    action = singer_action(4, 2)
    assert element_order(action.mid, action.ext.w) == 15
    action3 = singer_action(3, 3)
    assert element_order(action3.mid, action3.ext.w) == 26


def test_orbit_members_length():
    action = singer_action(4, 2)
    for o in action.orbit_representatives(2):
        members = list(action.cycle(o.rep.rows))
        assert len(members) == o.length
        assert len(set(members)) == o.length


ORACLE_POINTS = ([(l, 2, None) for l in range(1, 9)] + [(l, 3, None) for l in range(1, 6)]
                 + [(4, 4, 2), (4, 9, 2)])


@pytest.mark.parametrize("l,q,d", ORACLE_POINTS)
def test_catalogue_matches_cycling_oracle(l, q, d):
    # the catalogue from the subspaces through 1 and the normal form of every
    # member (a sample of 300 per dimension at l = 8) against cycling
    from oracles import singer_orbits_by_cycling
    action = SingerAction(l, q)  # its own lookup memo, dropped after the test
    for d in range(l + 1) if d is None else (d,):
        orbits, index = singer_orbits_by_cycling(action, d)
        assert action.orbit_representatives(d) == orbits
        members = sorted(index)
        if l == 8 and len(members) > 300:
            members = Random(d).sample(members, 300)
        for member in members:
            assert action.orbit_containing(member) == orbits[index[member]]


@pytest.mark.parametrize("l,q", [(4, 2), (6, 2), (3, 3)])
def test_cycle_and_orbit_containing_agree(l, q):
    action = singer_action(l, q)
    for d in range(l + 1):
        orbits = action.orbit_representatives(d)
        assert sum(o.length for o in orbits) == gaussian_binomial(l, d, q)
        for orbit in orbits:
            members = list(action.cycle(orbit.rep.rows))
            assert len(members) == orbit.length
            assert min(members) == orbit.rep.rows
            for member in members:
                assert action.orbit_containing(member) == orbit


def test_orbit_containing_rejects_non_canonical_rows():
    with pytest.raises(KeyError):
        singer_action(3, 2).orbit_containing((3, 5))


def test_h_incidence_trivial():
    m = h_incidence_matrix(3, 2, 3, 2)
    assert m.entries == ((1,),)


@pytest.mark.parametrize("l,expected", [(4, 3), (7, 31)])
def test_h_incidence_row_sums(l, expected):
    m = h_incidence_matrix(l, 2, 3, 2)
    assert {sum(row) for row in m.entries} == {expected}
    assert expected == gaussian_binomial(l - 2, 1, 2)


def test_h_incidence_brute_force_cross_check():
    # every entry recounted by filtering the full orbit of each column
    from oracles import containment_count
    action = singer_action(4, 2)
    m = h_incidence_matrix(4, 2, 3, 2)
    rows = action.orbit_representatives(2)
    cols = action.orbit_representatives(3)
    for i, ro in enumerate(rows):
        for j, co in enumerate(cols):
            assert containment_count(action, ro.rep.rows, co.rep.rows) == m.entries[i][j]


INCIDENCE_POINTS = [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)]


@pytest.mark.parametrize("l,q", INCIDENCE_POINTS)
def test_incidence_row_matches_containment_count(l, q):
    # every (2-orbit, d-orbit) pair, d = 2..l
    from oracles import containment_count
    action = singer_action(l, q)
    for row in action.orbit_representatives(2):
        for d in range(2, l + 1):
            got = action.incidence_row(row.rep.rows, d)
            want = [containment_count(action, row.rep.rows, col.rep.rows)
                    for col in action.orbit_representatives(d)]
            assert got == want


@pytest.mark.parametrize("l,q", INCIDENCE_POINTS)
def test_line_coverage_matches_containment_count(l, q):
    # a design whose line labels are every Singer orbit of dimension 1..l,
    # with distinct multiplicities, so a misread entry changes the total
    from oracles import containment_count
    from qgdd.atlas import OrbitLabel
    from qgdd.designs import (DesignInstance, ImplicitBlocks, LabelWeight,
                              _ImplicitCoverage)
    action = singer_action(l, q)
    orbits = [o for d in range(1, l + 1) for o in action.orbit_representatives(d)]
    weights = [LabelWeight(OrbitLabel(o.d, 1, None, o.rep.rows), i + 1)
               for i, o in enumerate(orbits)]
    design = DesignInstance(q=q, v=2 * l, kind="design", K=(3,), claimed_lambda=None,
                            blocks=ImplicitBlocks(2, l, 3, (), tuple(weights), False))
    cov = _ImplicitCoverage(design)
    rows = action.orbit_representatives(2)
    # W.x for each row W, at x = (1, 0) and at a second point of another line
    pairs = [cov.atlas.line_rows(row.rep.rows, x) for row in rows
             for x in ((1, 0), (1, 1))]
    counted = [n for _, n in cov.coverage(pairs)]
    for i, row in enumerate(rows):
        want = sum(lw.multiplicity * containment_count(action, row.rep.rows, o.rep.rows)
                   for lw, o in zip(weights, orbits) if o.d >= 2)
        assert counted[2 * i:2 * i + 2] == [want, want]
    # line blocks hold no span-2 pair
    assert ("full", 2) not in cov.by_key


def test_km_solve_trivial():
    from qgdd.matrices import LabeledIntMatrix
    m = LabeledIntMatrix(("r",), ("c",), ((1,),))
    res = kramer_mesner_solve(m, 1)
    assert res.solutions == ((1,),)
    assert res.exhausted and res.status == "exhausted"


def test_km_solve_whole_space():
    m = h_incidence_matrix(3, 2, 3, 2)
    res = kramer_mesner_solve(m, 1)
    assert res.solutions == ((1,),)


def test_km_solve_budget_reporting():
    m = h_incidence_matrix(7, 2, 3, 2)
    res = kramer_mesner_solve(m, 7, budget=10_000)
    assert not res.exhausted
    assert res.status == "stopped:budget"
    assert res.nodes <= 10_000
    # deterministic across runs
    res2 = kramer_mesner_solve(m, 7, budget=10_000)
    assert res == res2


def test_km_solve_finds_complete_design():
    m = h_incidence_matrix(7, 2, 3, 2)
    res = kramer_mesner_solve(m, 31, budget=100_000, max_solutions=1)
    assert res.solutions and all(x == 1 for x in res.solutions[0])
    assert res.status == "stopped:solution_cap"


def test_km_solutions_reverify():
    # any returned selection must expand to a design with the stated coverage
    from collections import Counter
    from qgdd.designs import block_pair_keys
    l, q, lam = 4, 2, 3
    m = h_incidence_matrix(l, 2, 3, q)
    res = kramer_mesner_solve(m, lam, budget=200_000)
    assert res.solutions  # the complete design at least
    action = singer_action(l, q)
    cols = action.orbit_representatives(3)
    for sol in res.solutions:
        counts = Counter()
        for x, orbit in zip(sol, cols):
            if x:
                for member in action.cycle(orbit.rep.rows):
                    for key in block_pair_keys(member, q, l):
                        counts[key] += 1
        for rows in iter_rref_bases(l, 2, q):
            assert counts[rows] == lam


def test_km_solve_with_weights():
    m = h_incidence_matrix(7, 2, 3, 2)
    lengths = tuple(o.length for o in orbit_representatives(7, 3, 2))
    res = kramer_mesner_solve(m, 31, budget=100_000, max_solutions=1,
                              weights=lengths)
    assert res.solution_weights == (gaussian_binomial(7, 3, 2),)
    with pytest.raises(ValueError):
        kramer_mesner_solve(m, 31, weights=(1, 2))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(2, 5), (2, 6), (3, 3)]))
def test_orbit_properties_random_subspaces(seed, params):
    from random import Random
    from qgdd.subspaces import vector_ops
    q, l = params
    rng = Random(seed)
    d = rng.randrange(1, l + 1)
    ops = vector_ops(q, l)
    rows = ops.rref([rng.randrange(1, q ** l) for _ in range(d)])
    W = Subspace(q, l, rows)
    orbit = orbit_of(W)
    assert (q ** l - 1) % orbit.length == 0
    assert orbit.length * (q ** orbit.u - 1) == q ** l - 1
    action = singer_action(l, q)
    members = list(action.cycle(orbit.rep.rows))
    assert W.rows in members
    assert orbit.rep.rows == min(members)
