import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgdd.fields import (Extension, FieldTower, add_digits, build_tower,
                         finite_field, field_for_order, pack_coords,
                         prime_power, unpack_coords)
from qgdd.subspaces import Subspace, canonicalize, vector_ops

from oracles import add_per_coordinate, apply_matrix, element_order, random_gl


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power(12)
    with pytest.raises(ValueError):
        prime_power(1)


def test_build_tower_smallest():
    t = build_tower(2, 1, 3, 2)
    assert (t.q, t.Q, t.v) == (2, 8, 6)
    assert finite_field(2, 6).order == 64


def test_build_tower_identity():
    t = build_tower(2, 1, 1, 1)
    assert t.base.order == t.mid.order == 2
    assert t.v == 1


def test_build_tower_orders_gf3():
    # primitive-element orders checked by their definition
    t = build_tower(3, 1, 4, 2)
    assert t.mid.order == 81
    assert element_order(t.mid, t.mid.primitive) == 80
    top = finite_field(3, 8)
    assert element_order(top, top.primitive) == 6560


def test_build_tower_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tower(4, 1, 2, 2)
    with pytest.raises(ValueError):
        build_tower(2, 0, 2, 2)
    with pytest.raises(ValueError):
        build_tower(2, 1, 0, 2)


def test_tower_deterministic():
    a = FieldTower(2, 1, 3, 2)
    b = FieldTower(2, 1, 3, 2)
    assert a.mid.modulus == b.mid.modulus
    assert a.mid.primitive == b.mid.primitive
    assert a.ext.pow_to_mid == b.ext.pow_to_mid


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 2), (5, 2), (2, 6)])
def test_field_inverses_exhaustive(p, e):
    f = finite_field(p, e)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2)])
def test_field_ring_axioms_exhaustive(p, e):
    f = finite_field(p, e)
    els = list(range(f.order))
    for a in els:
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            assert f.sub(f.add(a, b), b) == a
    for a in els[:5]:
        for b in els:
            for c in els[:5]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2)])
def test_field_tables_match_polynomial_arithmetic(p, e):
    # the log/antilog tables against the polynomial arithmetic they are built from
    f = finite_field(p, e)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == f._mul_raw(a, b)
        for n in range(2 * f.order):
            assert f.pow(a, n) == f._pow_raw(a, n)
        if a:
            assert f.inv(a) == f._pow_raw(a, f.order - 2)


def test_field_above_table_limit_is_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="table limit"):
        finite_field(2, 21)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("m,l,q", [(2, 3, 2), (3, 4, 2), (2, 3, 3), (2, 3, 4)])
def test_atlas_and_singer_share_one_extension(m, l, q):
    from qgdd.atlas import gl_atlas
    from qgdd.singer import singer_action
    assert gl_atlas(m, l, q).tower.ext is singer_action(l, q).ext


def test_modulus_is_irreducible():
    # trial factorization: no monic divisor of degree 1..e/2
    from qgdd.fields import _monic_irreducibles, _poly_mod
    f = finite_field(2, 6)
    for g in _monic_irreducibles(2, 3):
        assert _poly_mod(f.modulus, g, 2) != ()


def test_flatten_examples():
    t = build_tower(2, 1, 3, 2)
    w = t.ext.w
    w2 = t.mid.mul(w, w)
    assert t.flatten_packed((1, 0)) == 0b000001
    assert t.flatten_packed((w, 0)) == 0b000010
    assert t.flatten_packed((t.mid.add(w, w2), w2)) == 0b100110


def test_flatten_roundtrip_exhaustive():
    t = build_tower(2, 1, 3, 2)
    for x in range(t.Q):
        for y in range(t.Q):
            vec = (x, y)
            assert t.unflatten_packed(t.flatten_packed(vec)) == vec


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 1))
def test_flatten_is_linear(a, b, c):
    t = build_tower(2, 1, 3, 2)
    va = t.unflatten_packed(a)
    vb = t.unflatten_packed(b)
    s = tuple(t.mid.add(x, y) for x, y in zip(va, vb))
    assert t.flatten_packed(s) == a ^ b
    scaled = tuple(t.mid.mul(c, x) for x in va)
    assert t.flatten_packed(scaled) == (a if c else 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7))
def test_scalar_multiplication_induces_invertible_matrix(s):
    # multiplication by s in GF(8) acting on flattened GF(2)^6 coordinates
    t = build_tower(2, 1, 3, 2)
    rows = []
    for j in range(6):
        vec = t.unflatten_packed(1 << j)
        scaled = tuple(t.mid.mul(s, x) for x in vec)
        rows.append(t.flatten_packed(scaled))
    from qgdd.subspaces import vector_ops
    assert vector_ops(2, 6).rank(rows) == 6


def test_span_dim_examples():
    from qgdd.atlas import gl_atlas
    at = gl_atlas(2, 3, 2)
    t = at.tower
    w = t.ext.w
    Y1 = t.flatten_packed((1, 0))
    Y2 = t.flatten_packed((0, 1))
    x2Y1 = t.flatten_packed((w, 0))
    x2Y1_plus_x2Y2 = t.flatten_packed((w, w))
    assert at.classify_rows(Subspace.span(2, 6, [Y1, x2Y1]).rows).span_dim == 1
    assert at.classify_rows(Subspace.span(2, 6, [Y1, Y2]).rows).span_dim == 2
    assert at.classify_rows(
        Subspace.span(2, 6, [Y1, Y2, x2Y1_plus_x2Y2]).rows).span_dim == 2


# (tower, vector length): GF(8)^3, GF(9)^2, length-3 columns over GF(16),
# GF(27)^2 (odd-p tables) and GF(512)^2 (above the table cap: field calls)
ECHELON_CASES = ((build_tower(2, 1, 3, 3), 3), (build_tower(3, 1, 2, 2), 2),
                 (build_tower(2, 1, 4, 2), 3), (build_tower(3, 1, 3, 2), 2),
                 (build_tower(2, 1, 9, 2), 2))


@pytest.mark.parametrize("p,l", [(2, 4), (3, 3), (2, 6), (2, 7)])
def test_elimination_tables_match_field_arithmetic(p, l):
    """Every scale row and every table sum, against FiniteField, exhaustively."""
    tower = build_tower(p, 1, l, 2)
    mid, Q = tower.mid, tower.Q
    scale, add = tower.elimination_tables
    assert len(scale) == Q and all(len(row) == Q for row in scale)
    for c in range(Q):
        assert scale[c] == [mid.mul(c, x) for x in range(Q)]
    assert (add is None) == (p == 2)
    for a in range(Q):
        for x in range(Q):
            # mid_reduce forms a - x as a ^ x at p = 2 and add[a][-x] otherwise
            minus_x = scale[p - 1][x]
            assert mid.sub(a, x) == (a ^ x if add is None else add[a][minus_x])
            assert mid.add(a, x) == (a ^ x if add is None else add[a][x])


def test_elimination_tables_cap():
    assert build_tower(2, 1, 8, 2).elimination_tables[0] is not None
    assert build_tower(2, 1, 9, 2).elimination_tables == (None, None)
    assert build_tower(3, 1, 5, 2).elimination_tables[1] is not None
    assert build_tower(3, 1, 6, 2).elimination_tables == (None, None)


@pytest.mark.parametrize("p,e,l", [(2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 2, 3)])
def test_packed_mid_rows_add_entry_by_entry(p, e, l):
    """Rows of GF(q^l) elements packed as base-q^l digits add and subtract
    entry by entry under VectorOps' digit-wise GF(p) addition, whatever their
    length: XOR at p = 2, chunk tables at odd p, GF(9^3) above TABLE_CAP."""
    tower, rng = build_tower(p, e, l, 2), Random(p * 100 + e * 10 + l)
    mid, Q, ops = tower.mid, tower.Q, vector_ops(tower.q, tower.v)
    for n in (1, 4, 7):
        for _ in range(50):
            a = [rng.randrange(Q) for _ in range(n)]
            b = [rng.randrange(Q) for _ in range(n)]
            packed_a, packed_b = pack_coords(a, Q), pack_coords(b, Q)
            assert ops.add(packed_a, packed_b) == pack_coords(list(map(mid.add, a, b)), Q)
            assert ops.sub_scaled(packed_a, 1, packed_b) == pack_coords(list(map(mid.sub, a, b)), Q)


def _combination(mid, coef, vecs):
    out = [0] * len(vecs[0])
    for c, vec in zip(coef, vecs):
        out = [mid.add(a, mid.mul(c, b)) for a, b in zip(out, vec)]
    return out


@st.composite
def middle_vectors(draw):
    tower, width = draw(st.sampled_from(ECHELON_CASES))
    entry = st.integers(0, tower.Q - 1)
    vecs = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=5))
    # insert GF(q^l)-combinations of the vectors so dependencies are common
    for _ in range(draw(st.integers(0, 2))):
        coef = draw(st.lists(entry, min_size=len(vecs), max_size=len(vecs)))
        combo = tuple(_combination(tower.mid, coef, vecs))
        vecs.insert(draw(st.integers(0, len(vecs))), combo)
    return tower, vecs


@settings(max_examples=300, deadline=None)
@given(middle_vectors())
def test_mid_echelon_vs_rank_and_relations(case):
    """mid_reduce with a tracked transform: rank, relations and echelon rows."""
    tower, vecs = case
    mid = tower.mid
    n, width = len(vecs), len(vecs[0])
    echelon, deps = [], []
    for idx, vec in enumerate(vecs):
        # the input row followed by its transform, eliminated together
        cur = list(vec) + [0] * n
        cur[width + idx] = 1
        dep = tower.mid_reduce(echelon, cur, width)
        if dep is not None:
            assert not any(dep[:width])
            deps.append(dep[width:])
    assert len(echelon) == tower.mid_rank(vecs)
    assert len(echelon) + len(deps) == len(vecs)
    own = []
    for coef in deps:
        assert len(coef) == len(vecs)
        j = max(i for i, c in enumerate(coef) if c)
        assert coef[j] == 1
        own.append(j)
        assert not any(_combination(mid, coef, vecs))
    pivots = []
    for piv, reduced in echelon:
        row, transform = reduced[:width], reduced[width:]
        assert row == _combination(mid, transform, vecs)
        assert row[piv] == 1 and not any(row[:piv])
        assert all(row[p] == 0 for p in pivots)
        pivots.append(piv)
        own.append(max(i for i, c in enumerate(transform) if c))
    assert sorted(own) == list(range(len(vecs)))


def test_span_dim_invariant_under_middle_linear_maps():
    from random import Random
    from qgdd.atlas import gl_atlas
    at = gl_atlas(2, 3, 2)
    rng = Random(5)
    W = Subspace.span(2, 6, [9, 18, 27])
    d0 = at.classify_rows(W.rows).span_dim
    for _ in range(25):
        g = random_gl(at, rng)
        assert at.classify_rows(apply_matrix(at, g, W).rows).span_dim == d0


def test_extension_with_nonprime_base():
    # GF(4) inside GF(64): the embedding is a ring homomorphism
    base = finite_field(2, 2)
    ext = Extension(base, 3)
    phi = ext.embed
    mid = ext.mid
    for a in range(base.order):
        for b in range(base.order):
            assert phi[base.add(a, b)] == mid.add(phi[a], phi[b])
            assert phi[base.mul(a, b)] == mid.mul(phi[a], phi[b])
    assert sorted(ext.pow_to_mid) == list(range(64))


def test_pack_unpack_roundtrip():
    for n in range(81):
        assert pack_coords(unpack_coords(n, 3, 4), 3) == n


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 8, 9]), v=st.integers(1, 6), data=st.data())
def test_digit_addition_matches_per_coordinate_oracle(q, v, data):
    field = field_for_order(q)
    p = field.p
    ops = vector_ops(q, v)
    a, b = (data.draw(st.integers(0, q ** v - 1)) for _ in range(2))
    c = data.draw(st.integers(0, q - 1))
    for s in range(1, p):
        assert add_digits(a, b, p, s) == add_per_coordinate(a, b, q, v, s)
    assert ops.add(a, b) == add_per_coordinate(a, b, q, v)
    cb = pack_coords([field.mul(c, y) for y in unpack_coords(b, q, v)], q)
    assert ops.sub_scaled(a, c, b) == add_per_coordinate(a, cb, q, v, p - 1)
    x, y = a % q, b % q
    assert field.add(x, y) == add_per_coordinate(x, y, q, 1)
    assert field.sub(x, y) == add_per_coordinate(x, y, q, 1, p - 1)
