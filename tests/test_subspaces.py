import inspect
import itertools
import math
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgdd.atlas import gl_atlas
from qgdd.fields import TABLE_CAP, build_tower, digit_scale_table, field_for_order
from qgdd.subspaces import (Subspace, canonicalize, complement_positions,
                            enumerate_subspaces, gaussian_binomial,
                            intersection_dim, iter_rref_bases, iter_rref_runs,
                            iter_superspace_bases, iter_superspace_runs,
                            superspaces, vector_ops)

from oracles import (contains_vector, coordinate_add_scaled, coordinate_rref,
                     coordinate_span, lift_row, rref_bases_in_order, runs_of,
                     scale_table_by_entry)


def brute_count_subspaces(v, d, q):
    """Independent oracle: count d-subspaces by collecting row spans."""
    ops = vector_ops(q, v)
    seen = set()
    vectors = range(q ** v)
    for combo in itertools.combinations(vectors, d):
        rows = ops.rref(combo)
        if len(rows) == d:
            seen.add(rows)
    return len(seen)


def test_gaussian_binomial_trivial():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(3, 5, 2) == 0
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 2)


def test_gaussian_binomial_vs_brute_force():
    assert gaussian_binomial(3, 2, 2) == brute_count_subspaces(3, 2, 2) == 7
    assert gaussian_binomial(3, 2, 3) == brute_count_subspaces(3, 2, 3)
    assert gaussian_binomial(4, 2, 2) == brute_count_subspaces(4, 2, 2) == 35


def test_gaussian_binomial_large_vs_enumeration():
    assert gaussian_binomial(6, 3, 2) == 1395
    assert sum(1 for _ in iter_rref_bases(6, 3, 2)) == 1395


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pascal_recurrence_and_symmetry(q):
    for v in range(2, 13):
        for k in range(v + 1):
            assert gaussian_binomial(v, k, q) == gaussian_binomial(v, v - k, q)
            if 1 <= k:
                assert gaussian_binomial(v, k, q) == (
                    gaussian_binomial(v - 1, k - 1, q)
                    + q ** k * gaussian_binomial(v - 1, k, q))


def test_canonicalize_examples():
    s = canonicalize([(1, 1, 0), (0, 1, 1)], 2)
    assert s.basis_lists() == [[1, 0, 1], [0, 1, 1]]
    t = canonicalize([(1, 0, 0)], 2)
    assert t.basis_lists() == [[1, 0, 0]]
    u = canonicalize([(1, 1), (1, 1)], 2)
    assert u.dim == 1 and u.basis_lists() == [[1, 1]]


def test_canonicalize_empty_needs_ambient():
    with pytest.raises(ValueError):
        canonicalize([], 2)
    z = canonicalize([], 2, v=4)
    assert z.dim == 0


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonicalize([(2, 0)], 2)
    with pytest.raises(ValueError):
        canonicalize([(1, 0), (1,)], 2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_uniqueness_under_change_of_basis(data):
    q = data.draw(st.sampled_from([2, 3]))
    v = data.draw(st.integers(2, 5))
    d = data.draw(st.integers(1, v))
    rng = Random(data.draw(st.integers(0, 10 ** 6)))
    ops = vector_ops(q, v)
    rows = None
    while rows is None or len(rows) != d:
        rows = ops.rref([rng.randrange(q ** v) for _ in range(d)])
    sub = Subspace(q, v, rows)
    # random invertible recombination of the basis
    mixed = list(rows)
    for _ in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            c = rng.randrange(1, q)
            mixed[i] = ops.add(mixed[i], ops.smul(c, mixed[j]))
    assert Subspace.span(q, v, mixed) == sub


def test_enumerate_counts_and_uniqueness():
    subs = list(enumerate_subspaces(4, 2, 2))
    assert len(subs) == 35
    assert len(set(subs)) == 35
    zero = list(enumerate_subspaces(4, 0, 2))
    assert zero == [Subspace(2, 4, ())]


def test_enumerate_deterministic():
    a = list(iter_rref_bases(5, 2, 2))
    b = list(iter_rref_bases(5, 2, 2))
    assert a == b


@pytest.mark.parametrize("q,v,d", [(2, 5, 2), (3, 4, 2), (2, 6, 3)])
def test_enumerate_total(q, v, d):
    assert sum(1 for _ in iter_rref_bases(v, d, q)) == gaussian_binomial(v, d, q)


# -- run streams ------------------------------------------------------------------

def _flat(runs):
    return [(x, *tail) for tail, firsts in runs for x in firsts]


@pytest.mark.parametrize("q,v,d", [(2, 6, 3), (3, 4, 2), (2, 5, 1), (4, 4, 2),
                                   (2, 4, 4), (2, 3, 0)])
def test_rref_shards_partition_the_stream(q, v, d):
    stream = list(iter_rref_bases(v, d, q))
    runs = list(iter_rref_runs(v, d, q))
    assert list(iter_rref_runs(v, d, q, (0, 1))) == runs
    assert sorted(_flat(runs)) == (sorted(stream) if d else [])
    for n in range(1, 6):
        # the shards deal out the runs in turn, each keeping their order
        assert [list(iter_rref_runs(v, d, q, (i, n))) for i in range(n)] == \
            [runs[i::n] for i in range(n)]


def test_rref_shards_deal_out_runs():
    # one run per pivot set and completion of rows 2..d, dealt round-robin
    ops = vector_ops(2, 5)
    units = {}
    for rows in iter_rref_bases(5, 3, 2):
        units.setdefault((ops.pivot(rows[0]), rows[1:]), []).append(rows[0])
    assert len(units) > 3 and max(map(len, units.values())) > 1
    for i in range(3):
        want = [(tail, firsts) for j, ((_, tail), firsts) in enumerate(units.items())
                if j % 3 == i]
        assert [(tail, list(firsts)) for tail, firsts in iter_rref_runs(5, 3, 2, (i, 3))] == want


@pytest.mark.parametrize("shard", [(1, 1), (-1, 2), (0, 0)])
def test_rref_shard_out_of_range(shard):
    with pytest.raises(ValueError):
        list(iter_rref_runs(4, 2, 2, shard))


@pytest.mark.parametrize("q,v", [(2, 5), (3, 4), (4, 3)])
def test_rref_runs_flatten_to_the_stream_in_every_shard(q, v):
    # d = 1 included: there a run is a whole pivot set, its tail empty
    for d in range(v + 1):
        want = rref_bases_in_order(v, d, q)
        assert list(iter_rref_bases(v, d, q)) == want
        for n in (1, 2, 3):
            flat = []
            for i in range(n):
                runs = list(iter_rref_runs(v, d, q, (i, n)))
                assert all(firsts and len(tail) == d - 1 for tail, firsts in runs)
                flat += _flat(runs)
            # each canonical basis exactly once over the shards
            assert sorted(flat) == (sorted(want) if d else [])
        # every run of a pivot-column set shares one first-row list
        runs = list(iter_rref_runs(v, d, q))
        assert len({id(firsts) for _, firsts in runs}) == (math.comb(v, d) if d else 0)


def test_runs_of_groups_consecutive_tails():
    bases = [(2, 1), (4, 1), (4, 3), (8, 1), (5,), (6,), (4, 1, 2)]
    assert list(runs_of(bases)) == [((1,), [2, 4]), ((3,), [4]), ((1,), [8]),
                                    ((), [5, 6]), ((1, 2), [4])]
    assert _flat(runs_of(bases)) == bases


@pytest.mark.parametrize("m,l,k,q", [(3, 4, 4, 2), (3, 3, 3, 3), (2, 3, 3, 9)])
def test_superspace_runs_flatten_to_the_lifted_stream(m, l, k, q):
    # every row orbit's realized 2-subspace: its rows, then each canonical
    # quotient basis lifted onto its non-pivot positions, in order; the runs
    # hold each of these bases once, its first quotient row moved to the front
    at = gl_atlas(m, l, q)
    quotient = rref_bases_in_order(at.v - 2, k - 2, q)
    for U in map(at.realize, at.orbit_labels(2)):
        lifted = [lift_row(r, complement_positions(U), q) for r in range(q ** (at.v - 2))]
        want = [U.rows + tuple(map(lifted.__getitem__, rows)) for rows in quotient]
        assert list(iter_superspace_bases(U, k)) == want
        runs = list(iter_superspace_runs(U, k))
        assert all(tail[:2] == U.rows for tail, _ in runs)
        flat = [(*tail[:2], x, *tail[2:]) for x, *tail in _flat(runs)]
        assert sorted(flat) == sorted(want)


def test_superspace_runs_of_u_itself():
    U = canonicalize([(1, 0, 1, 0), (0, 1, 1, 0)], 2)
    assert list(iter_superspace_runs(U, 2)) == [(U.rows[1:], [U.rows[0]])]
    assert list(iter_superspace_bases(U, 2)) == [U.rows]
    assert list(iter_superspace_runs(Subspace.zero(2, 4), 0)) == []
    assert list(iter_superspace_bases(Subspace.zero(2, 4), 0)) == [()]


def test_superspaces_count_and_filter():
    U = canonicalize([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], 2)
    sup = list(superspaces(U, 3))
    assert len(sup) == gaussian_binomial(4, 1, 2) == 15
    assert len(set(sup)) == 15
    by_filter = [s for s in enumerate_subspaces(6, 3, 2)
                 if all(contains_vector(s, r) for r in U.rows)]
    assert sorted(s.rows for s in sup) == sorted(s.rows for s in by_filter)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_superspaces_order_and_coverage(q):
    # pivots 0 and 2, so the complement positions 1, 3, 4 are not contiguous
    U = canonicalize([(1, q - 1, 0, 0, 0), (0, 0, 1, 0, 1)], q)
    assert inspect.isgeneratorfunction(iter_superspace_bases)
    positions = complement_positions(U)
    for k in range(2, 6):
        # U's rows, then each canonical quotient basis lifted row by row, in order
        want = [U.rows + tuple(lift_row(r, positions, q) for r in rows)
                for rows in iter_rref_bases(3, k - 2, q)]
        assert list(iter_superspace_bases(U, k)) == want
        # as many distinct superspaces of U as there are, so all of them
        sup = set(superspaces(U, k))
        assert len(sup) == len(want) == gaussian_binomial(3, k - 2, q)
        assert all(s.dim == k and all(contains_vector(s, r) for r in U.rows)
                   for s in sup)
    if q <= 4:
        by_filter = [s for s in enumerate_subspaces(5, 3, q)
                     if all(contains_vector(s, r) for r in U.rows)]
        assert sorted(s.rows for s in superspaces(U, 3)) == sorted(s.rows for s in by_filter)


def test_superspaces_trivial():
    U = Subspace(2, 4, (1, 2, 4, 8))
    assert list(superspaces(U, 4)) == [U]


def test_superspaces_large_count():
    U = canonicalize([[1] + [0] * 13, [0, 1] + [0] * 12], 2)
    assert sum(1 for _ in superspaces(U, 3)) == gaussian_binomial(12, 1, 2) == 4095


def test_intersection_dim():
    A = canonicalize([(1, 0, 0), (0, 1, 0)], 2)
    B = canonicalize([(0, 1, 0), (0, 0, 1)], 2)
    assert intersection_dim(A, A) == 2
    assert intersection_dim(A, B) == 1
    C = canonicalize([(0, 0, 1)], 2)
    D = canonicalize([(1, 0, 0)], 2)
    assert intersection_dim(C, D) == 0
    with pytest.raises(ValueError):
        intersection_dim(A, canonicalize([(1, 0)], 2))


def test_contains_vector_gf3():
    s = canonicalize([(1, 0, 2), (0, 1, 1)], 3)
    ops = vector_ops(3, 3)
    for coeffs in itertools.product(range(3), repeat=2):
        x = 0
        for c, row in zip(coeffs, s.rows):
            x = ops.add(x, ops.smul(c, row))
        assert contains_vector(s, x)
    assert s.dim == 2
    outside = set(range(27)) - set(s.vectors())
    assert len(outside) == 18
    assert not any(contains_vector(s, x) for x in outside)


def test_vectors_iteration():
    s = canonicalize([(1, 0, 0), (0, 1, 0)], 2)
    assert sorted(s.vectors()) == [0, 1, 2, 3]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_span_matches_per_coefficient_combination(q, d):
    from oracles import span_table
    rng = Random(10 * q + d)
    ops = vector_ops(q, d + 1)
    for _ in range(4):
        rows = [rng.randrange(q ** (d + 1)) for _ in range(d)]
        assert ops.span(rows) == span_table(rows, ops)


# -- chunk tables of VectorOps ------------------------------------------------------

TABLE_QS = (3, 4, 5, 7, 8, 9)


def _most_digits(q):
    """Base-q digits in the widest chunk below the table cap."""
    w = 0
    while q ** (w + 1) <= TABLE_CAP:
        w += 1
    return w


@st.composite
def vector_rows(draw):
    """(q, v, chunk count, rows): 1, 2 or 3 chunks, or q = 2 and the above-cap q = 257."""
    q = draw(st.sampled_from(TABLE_QS + (2, 257)))
    if q in (2, 257):
        n, v = None, draw(st.integers(1, 4 if q == 2 else 2))
    else:
        n = draw(st.integers(1, 3))
        w = _most_digits(q)
        v = draw(st.integers((n - 1) * w + 1, n * w))
    vec = st.integers(0, q ** v - 1)
    rows = draw(st.lists(vec, max_size=4))
    if rows and draw(st.booleans()):  # a dependent row
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(coordinate_add_scaled(a, draw(st.integers(0, q - 1)), b, q, v))
    return q, v, n, rows


@settings(max_examples=300, deadline=None)
@given(case=vector_rows(), data=st.data())
def test_vector_ops_match_per_coordinate_oracle(case, data):
    q, v, n, rows = case
    ops = vector_ops(q, v)
    assert (ops.tables is None) == (n is None)
    if n is not None:
        assert ops.tables[1] == n
    a, b = (data.draw(st.integers(0, q ** v - 1)) for _ in range(2))
    c = data.draw(st.integers(0, q - 1))
    minus_c = field_for_order(q).sub(0, c)
    assert ops.add(a, b) == coordinate_add_scaled(a, 1, b, q, v)
    assert ops.smul(c, b) == coordinate_add_scaled(0, c, b, q, v)
    assert ops.sub_scaled(a, c, b) == coordinate_add_scaled(a, minus_c, b, q, v)
    assert ops.rref(rows) == coordinate_rref(rows, q, v)
    spanned = [r for i, r in enumerate(rows) if q ** (i + 1) <= 729]  # a prefix
    assert ops.span(spanned) == coordinate_span(spanned, q, v)


@pytest.mark.parametrize("q,v", [(3, 6), (3, 7), (4, 5), (5, 7), (7, 3), (8, 3), (9, 3)])
def test_vector_tables_match_field_arithmetic(q, v):
    """Every scale entry and every table sum, against FiniteField, exhaustively."""
    C, n, add, scale = vector_ops(q, v).tables
    w = next(w for w in range(1, 9) if q ** w == C)
    p = field_for_order(q).p
    assert len(scale) == q and all(len(row) == C for row in scale)
    for s in range(q):
        assert scale[s] == [coordinate_add_scaled(0, s, x, q, w) for x in range(C)]
    assert (add is None) == (p == 2)
    if add is not None:
        assert len(add) == C and all(len(row) == C for row in add)
        for a in range(C):
            assert add[a] == [coordinate_add_scaled(a, 1, x, q, w) for x in range(C)]


@pytest.mark.parametrize("q,w", [(3, 1), (3, 5), (4, 4), (5, 3), (9, 2), (16, 2)])
def test_digit_scale_table_matches_per_entry_oracle(q, w):
    assert digit_scale_table(q, w) == scale_table_by_entry(q, w)


def test_scale_tables_are_shared_per_chunk_width():
    # q = 243 = 3^5: one digit per chunk below the cap, so every v shares C = 243
    a, b = vector_ops(243, 2).tables, vector_ops(243, 5).tables
    assert (a[:2], b[:2]) == ((243, 2), (243, 5))
    assert a[3] is b[3] is digit_scale_table(243, 1)
    assert a[3] == scale_table_by_entry(243, 1)


def test_import_builds_no_vector_table():
    code = ("import qgdd, qgdd.cli\n"
            "from qgdd.fields import digit_add_table, digit_scale_table\n"
            "print(digit_add_table.cache_info().currsize,"
            " digit_scale_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.split()) == (0, ["0", "0"])


def test_vector_tables_cap():
    assert TABLE_CAP == 256
    assert build_tower(3, 1, 5, 2).elimination_tables[1] is not None
    assert build_tower(3, 1, 6, 2).elimination_tables == (None, None)
    # (q, v) -> (C, chunks): the fewest chunks below the cap, then the least width
    for (q, v), (C, n) in {(3, 6): (27, 2), (5, 7): (125, 3), (9, 3): (81, 2),
                           (3, 5): (243, 1), (4, 4): (256, 1), (256, 2): (256, 2)}.items():
        assert vector_ops(q, v).tables[:2] == (C, n)
    assert vector_ops(2, 6).tables is None
    assert vector_ops(257, 2).tables is None
    assert vector_ops(3, 6).tables[2] is build_tower(3, 1, 3, 2).elimination_tables[1]
