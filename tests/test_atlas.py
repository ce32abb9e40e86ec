from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgdd.atlas import OrbitLabel, SpanClass, gl_atlas, gl_order
from qgdd.fields import FieldTower
from qgdd.subspaces import (Subspace, gaussian_binomial, iter_rref_bases, iter_rref_runs,
                            iter_superspace_bases, iter_superspace_runs, runs_of,
                            vector_ops)

from oracles import (apply_matrix, column_independence_criterion,
                     label_keys_by_elimination, mixing_matrix, random_gl)


@pytest.fixture(scope="module")
def at23():
    return gl_atlas(2, 3, 2)


def test_gl_order():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 8) == 3528
    assert gl_order(3, 8) == 115379712


def test_classify_examples(at23):
    t = at23.tower
    w = t.ext.w
    w2 = t.mid.mul(w, w)
    line3 = Subspace.span(2, 6, [t.flatten_packed((1, 0)),
                                 t.flatten_packed((w, 0)),
                                 t.flatten_packed((w2, 0))])
    assert at23.classify_rows(line3.rows) == SpanClass(3, 1)
    mixed = Subspace.span(2, 6, [t.flatten_packed((1, 0)),
                                 t.flatten_packed((0, 1)),
                                 t.flatten_packed((w, 0))])
    assert at23.classify_rows(mixed.rows) == SpanClass(3, 2)
    at33 = gl_atlas(3, 3, 2)
    t3 = at33.tower
    full = Subspace.span(2, 9, [t3.basis_vector(j) for j in range(3)])
    assert at33.classify_rows(full.rows) == SpanClass(3, 3)


def _mixed(at, k, r=None):
    return [lb for lb in at.orbit_labels(k)
            if lb.kind == "mixed" and r in (None, lb.r)]


def test_realize_examples(at23):
    # Y_1, Y_2 and sum(u_i Y_i), where 1, u_1, ... are the Singer representative's rows
    t = at23.tower
    w = t.ext.w
    w2 = t.mid.mul(w, w)
    line, r1, r2 = at23.orbit_labels(3)
    assert (line.kind, r1.r, r2.r) == ("line", 1, 2)
    assert (r1.rep_rows, r2.rep_rows) == ((1, 2), (1, 2, 4))  # 1, w (, w^2)
    Y = [t.basis_vector(0), t.basis_vector(1)]
    assert at23.realize(r1) == Subspace.span(2, 6, Y + [t.flatten_packed((w, 0))])
    assert at23.realize(r2) == Subspace.span(2, 6, Y + [t.flatten_packed((w, w2))])
    assert at23.classify_rows(at23.realize(r2).rows) == SpanClass(3, 2)
    assert at23.realize(line) == Subspace.span(
        2, 6, [t.flatten_packed((c, 0)) for c in (1, w, w2)])
    with pytest.raises(ValueError):
        at23.orbit_labels(5)  # k out of range


def test_orbit_label_full_class():
    at33 = gl_atlas(3, 3, 2)
    full = at33.orbit_labels(3)[-1]
    assert full.kind == "full"
    W = at33.realize(full)
    assert W.dim == 3 and at33.label_key_rows(W.rows) == ("full", 3)


def test_orbit_label_line_class(at23):
    # W'.Y_1 gets the Singer-orbit label of W'
    action = at23.singer
    orbit = action.orbit_representatives(2)[0]
    realized = at23.realize(OrbitLabel(2, 1, None, orbit.rep.rows))
    assert at23.label_key_rows(realized.rows) == ("line", 2, orbit.rep.rows)


def test_orbit_label_invariance_under_group(at23):
    rng = Random(7)
    label, = _mixed(at23, 3, r=1)
    rep = at23.realize(label)
    base = at23.label_key_rows(rep.rows)
    assert base == label.key()
    for _ in range(100):
        g = random_gl(at23, rng)
        assert at23.label_key_rows(apply_matrix(at23, g, rep).rows) == base


def test_orbit_label_rejects_unclassified():
    at = gl_atlas(4, 4, 2)
    t = at.tower
    w = t.ext.w
    # dim 4, span 2: spanned by two full lines
    rows = [t.flatten_packed((1, 0, 0, 0)), t.flatten_packed((w, 0, 0, 0)),
            t.flatten_packed((0, 1, 0, 0)), t.flatten_packed((0, w, 0, 0))]
    W = Subspace.span(2, 16, rows)
    assert at.classify_rows(W.rows) == SpanClass(4, 2)
    # no labels for this class: it is keyed by (dim, span_dim) alone
    assert at.label_key_rows(W.rows) == ("other", 4, 2)


def test_stabilizer_order_formula(at23):
    assert at23.stabilizer_order(3, 2, 3) == 7
    assert at23.stabilizer_order(3, 1, 1) == 4
    at33 = gl_atlas(3, 3, 2)
    assert at33.stabilizer_order(3, 1, 1) == 4 * (2 ** 9 - 2 ** 6)
    with pytest.raises(ValueError):
        at23.stabilizer_order(3, 2, 2)  # u must divide gcd(r+1, l)


def test_stabilizer_brute_force_all_reps(at23):
    # every representative's stabilizer counted over all 3528 group elements
    labels = _mixed(at23, 3)
    assert [lb.r for lb in labels] == [1, 2]
    for label in labels:
        brute = at23.brute_force_stabilizer_order(at23.realize(label))
        assert brute == at23.stabilizer_order(3, label.r, at23.label_u(label))


def test_orbit_sizes(at23):
    r1, r2 = _mixed(at23, 3)
    assert (at23.label_u(r1), at23.label_u(r2)) == (1, 3)
    assert at23.label_orbit_size(r2) == 504
    assert at23.label_orbit_size(r1) == 882
    at33 = gl_atlas(3, 3, 2)
    assert at33.label_orbit_size(at33.orbit_labels(3)[-1]) == gl_order(3, 8) // 168


def test_orbit_size_by_exhaustive_generation(at23):
    # independent oracle: expand each orbit by exhaustive classification
    sizes = Counter()
    for rows in iter_rref_bases(6, 3, 2):
        sizes[at23.label_key_rows(rows)] += 1
    r1, r2 = _mixed(at23, 3)
    assert sizes[r1.key()] == 882
    assert sizes[r2.key()] == 504
    line_total = sum(n for key, n in sizes.items() if key[0] == "line")
    assert line_total == 9
    assert sum(sizes.values()) == 1395


def test_partition_identity(at23):
    # 9 + 882 + 504 = [6 3]_2 with the span-3 class empty for m=2
    assert 9 + 882 + 504 == gaussian_binomial(6, 3, 2)
    by_span = Counter()
    for rows in iter_rref_bases(6, 3, 2):
        by_span[at23.classify_rows(rows).span_dim] += 1
    assert by_span == Counter({1: 9, 2: 1386})


def test_representatives_counts(at23):
    from qgdd.singer import n_orbits
    assert len(_mixed(at23, 3, r=2)) == n_orbits(3, 3, 2) == 1
    assert len(_mixed(at23, 3, r=1)) == n_orbits(2, 3, 2) == 1
    at27 = gl_atlas(2, 7, 2)
    labels = _mixed(at27, 3, r=2)
    assert len(labels) == n_orbits(3, 7, 2) == 93
    assert len(set(labels)) == 93


def test_representatives_contain_one():
    # realize reads u_1, u_2 off rows 1, 2 of a representative whose row 0 is 1
    at27 = gl_atlas(2, 7, 2)
    for label in _mixed(at27, 3):
        assert label.rep_rows[0] == 1
        assert vector_ops(2, 7).rank(label.rep_rows) == label.r + 1


def test_line_orbit_size(at23):
    # (Q^m - 1)/(q^u - 1): 63/7 = 9 line blocks of the whole middle field
    line3, line2 = at23.orbit_labels(3)[0], at23.orbit_labels(2)[0]
    assert (at23.label_u(line3), at23.label_u(line2)) == (3, 1)
    assert at23.label_orbit_size(line3) == 9
    assert at23.label_orbit_size(line2) == 63


def test_column_independence_criterion(at23):
    w = at23.tower.ext.w
    w2 = at23.tower.mid.mul(w, w)
    coeffs = (w, w2)
    assert column_independence_criterion(at23, coeffs, [[1, 0], [0, 1]], [0, 0])
    assert not column_independence_criterion(at23, coeffs, [[1, 1], [0, 0]], [0, 0])


def test_column_independence_vs_rank_oracle():
    at = gl_atlas(2, 4, 2)
    tower = at.tower
    rng = Random(42)
    w = tower.ext.w
    coeffs = (w, tower.mid.mul(w, w), tower.mid.pow(w, 3))
    r = len(coeffs)
    trials = 10_000
    for _ in range(trials):
        s = rng.randrange(1, r + 1)
        a = [[rng.randrange(2) for _ in range(s)] for _ in range(r)]
        b = [rng.randrange(2) for _ in range(s)]
        predicted = column_independence_criterion(at, coeffs, a, b)
        matrix = mixing_matrix(at, coeffs, a, b)
        cols = [tuple(matrix[i][j] for i in range(r)) for j in range(s)]
        direct = tower.mid_rank(cols) == s
        assert predicted == direct


def test_line_form_inverts_line_rows():
    # W.g read back through line_form is W divided by its first vector, so
    # it lies in the Singer orbit of W whatever the spread line g
    from qgdd.designs import _spread_generators
    at = gl_atlas(2, 3, 2)
    gens = _spread_generators(at)
    for d in range(2, 4):
        for rows in iter_rref_bases(3, d, 2):
            orbit = at.singer.orbit_containing(rows)
            for gen in gens:
                image = at.line_rows(rows, gen)
                form = at.line_form([at.tower.unflatten_packed(r) for r in image])
                assert at.singer.orbit_containing(form) == orbit
                assert at.label_key_rows(image) == ("line", d, orbit.rep.rows)


def test_label_serialization_roundtrip(at23):
    label, = _mixed(at23, 3, r=1)
    assert at23.label_key_rows(at23.realize(label).rows) == label.key()
    assert label.key() == ("mixed", 3, 1, label.rep_rows)
    assert "mixed" in label.label_str()


def test_gl_elements_guard():
    at33 = gl_atlas(3, 3, 2)
    with pytest.raises(ValueError):
        next(at33.gl_elements())


def test_gl_elements_complete(at23):
    els = list(at23.gl_elements())
    assert len(els) == 3528
    assert len(set(els)) == 3528


def test_span_class_partition_m3():
    # [9 3]_2 splits as lines + two mixed orbits + the span-3 orbit
    at = gl_atlas(3, 3, 2)
    assert gaussian_binomial(9, 3, 2) == 788035
    lines = 73 * 1
    mixed_r1 = gl_order(3, 8) // at.stabilizer_order(3, 1, 1)
    mixed_r2 = gl_order(3, 8) // at.stabilizer_order(3, 2, 3)
    assert (lines, mixed_r1, mixed_r2) == (73, 64386, 36792)
    full = at.orbit_labels(3)[-1]
    assert lines + mixed_r1 + mixed_r2 + at.label_orbit_size(full) == 788035
    assert sum(map(at.label_orbit_size, at.orbit_labels(3))) == 788035


def run_keys(at, runs):
    """(basis, key) for each basis prefix + (x,) of a run stream, from label_keys."""
    return [((*prefix, x), key) for prefix, lasts, keys in at.label_keys(runs)
            for x, key in zip(lasts, keys, strict=True)]


def _superspace_streams(at, k):
    """(bases, runs) of the k-superspaces of each row orbit's realized 2-subspace."""
    return [(list(iter_superspace_bases(U, k)), iter_superspace_runs(U, k))
            for U in map(at.realize, at.orbit_labels(2))]


def test_label_keys_match_oracle_on_sweep(at23):
    bases = list(iter_rref_bases(6, 3, 2))
    assert run_keys(at23, iter_rref_runs(6, 3, 2)) == label_keys_by_elimination(at23, bases)


@pytest.mark.parametrize("m,l,q", [(3, 3, 2), (2, 3, 3), (2, 3, 4), (2, 3, 9), (3, 3, 3)])
def test_label_keys_match_oracle_on_superspaces(m, l, q):
    # q = 4: p = 2, so packed rows of base-4 digits add by XOR; GF(9^3) is
    # above TABLE_CAP: mid_reduce uses field operations, and packed rows add
    # digit by digit
    at = gl_atlas(m, l, q)
    kinds = set()
    for bases, runs in _superspace_streams(at, 3):
        got = run_keys(at, runs)
        assert got == label_keys_by_elimination(at, bases)
        kinds.update(key[0] for _, key in got)
    assert {"line", "mixed"} <= kinds
    assert ("full" in kinds) == (m >= 3)


@pytest.mark.parametrize("q", [4, 9])
def test_label_keys_match_oracle_on_4_superspaces(q):
    # every row of (3,2,q) at k = 4: dependencies of four base-q^2 digits
    at = gl_atlas(3, 2, q)
    kinds = set()
    for bases, runs in _superspace_streams(at, 4):
        got = run_keys(at, runs)
        assert got == label_keys_by_elimination(at, bases)
        kinds.update(key[0] for _, key in got)
    assert kinds == {"mixed", "other"}


def _prefix_sharing_stream(at, pick, n_bases):
    """Bases of GF(q)^(ml), each keeping a prefix of the last.

    New rows are random or GF(q^l)-multiples of the first row's vector, so
    the stream reaches the line, mixed, full and unclassified classes.
    """
    tower, ops = at.tower, vector_ops(at.q, at.v)
    stream, prev = [], ()
    for _ in range(n_bases):
        keep = pick(0, len(prev))
        rows = list(prev[:keep])
        k = pick(max(keep, 1), 4)
        for _ in range(4 * k):
            if len(rows) == k:
                break
            if rows and pick(0, 1):
                c = pick(1, at.Q - 1)
                x = tower.unflatten_packed(rows[0])
                row = tower.flatten_packed([tower.mid.mul(c, a) for a in x])
            else:
                row = pick(1, at.q ** at.v - 1)
            if ops.rank(rows + [row]) == len(rows) + 1:
                rows.append(row)
        prev = tuple(rows)
        stream.append(prev)
    return stream


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_label_keys_match_oracle_on_prefix_sharing_streams(data):
    def pick(lo, hi):
        return data.draw(st.integers(lo, hi))
    at = gl_atlas(*data.draw(st.sampled_from([(2, 4, 2), (2, 3, 3), (2, 3, 4), (2, 3, 9)])))
    stream = _prefix_sharing_stream(at, pick, data.draw(st.integers(1, 12)))
    assert run_keys(at, runs_of(stream)) == label_keys_by_elimination(at, stream)


def test_label_keys_prefix_sharing_reaches_every_class():
    at = gl_atlas(2, 4, 2)
    stream = _prefix_sharing_stream(at, Random(5).randint, 400)
    got = run_keys(at, runs_of(stream))
    assert got == label_keys_by_elimination(at, stream)
    assert {key[0] for _, key in got} == {"line", "mixed", "full", "other"}
    # prefixes shared by consecutive bases of one length: every length occurs
    shared = {next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), len(x))
              for x, y in zip(stream, stream[1:]) if len(x) == len(y)}
    assert shared >= {0, 1, 2, 3, 4}


def test_label_keys_reduces_only_past_the_shared_prefix(monkeypatch):
    # a lost prefix reuse would reduce all 3 rows of each of the 127 bases
    at = gl_atlas(3, 3, 2)
    bases = list(iter_superspace_bases(at.realize(at.orbit_labels(2)[-1]), 3))
    assert len(bases) == 127
    prefixes = {b[:i] for b in bases for i in range(1, len(b))}
    calls, reductions = [], []
    unflatten, reduce = FieldTower.unflatten_packed, FieldTower.mid_reduce

    def counted(self, row):
        calls.append(row)
        return unflatten(self, row)

    def counted_reduce(self, *args):
        reductions.append(1)
        return reduce(self, *args)

    monkeypatch.setattr(FieldTower, "unflatten_packed", counted)
    monkeypatch.setattr(FieldTower, "mid_reduce", counted_reduce)
    # the stream runs twice, so a lost row memo would unflatten every row again
    stream = bases + bases
    assert len(run_keys(at, runs_of(stream))) == 2 * len(bases)
    assert len(reductions) <= 2 * len(bases) + len(prefixes) + 2
    # every basis shares U's rows, whose rank is 2, so no basis has rank 1:
    # the prefix rows and the first last row are unflattened, then only the
    # differences of consecutive last rows (XOR at q = 2), each value once
    last_rows = [b[-1] for b in stream]
    diffs = {x ^ y for x, y in zip(last_rows, last_rows[1:])}
    assert sorted(calls) == sorted(set(bases[0]) | diffs)
    assert len(calls) < len(set(last_rows))


@pytest.mark.parametrize("m,l,q,k", [(2, 4, 2, 3), (2, 3, 3, 3)])
def test_label_keys_match_oracle_on_full_sweeps(m, l, q, k):
    # the (8,3)_2 and (6,3)_3 sweeps of full-gf2 and odd-q3, whole and in shards
    at, v = gl_atlas(m, l, q), m * l
    want = label_keys_by_elimination(at, iter_rref_bases(v, k, q))
    assert run_keys(at, iter_rref_runs(v, k, q)) == want
    key_of = dict(want)
    for n in (2, 3):
        for i in range(n):
            bases = list(iter_rref_bases(v, k, q, shard=(i, n)))
            assert run_keys(at, iter_rref_runs(v, k, q, (i, n))) == [(b, key_of[b]) for b in bases]


@pytest.mark.parametrize("row", [0, 1, 2, -1], ids=["row0", "row1", "row2", "span2"])
def test_label_keys_match_oracle_on_k4_rows(row):
    # the 4-superspaces of each span-1 row and of the span-2 row of (3,4,4,2),
    # 174251 each in 4097 runs: the stream of incidence-k4 and of criterion 3
    at = gl_atlas(3, 4, 2)
    U = at.realize(at.orbit_labels(2)[row])
    bases = list(iter_superspace_bases(U, 4))
    assert run_keys(at, iter_superspace_runs(U, 4)) == label_keys_by_elimination(at, bases)


def test_label_keys_match_oracle_on_mixed_lengths():
    # runs of 1..4-subspaces of GF(3)^6 cut into chunks and dealt out in
    # turn, so the basis length changes in the middle of prefix runs
    at, rng = gl_atlas(2, 3, 3), Random(7)
    sweeps = [list(iter_rref_bases(6, d, 3))[:3000] for d in (1, 2, 3, 4)]
    stream = []
    while any(sweeps):
        for sweep in sweeps:
            cut = rng.randint(1, 60)
            stream += sweep[:cut]
            del sweep[:cut]
    assert {len(b) for b in stream} == {1, 2, 3, 4}
    got = run_keys(at, runs_of(stream))
    assert got == label_keys_by_elimination(at, stream)
    assert {key[0] for _, key in got} == {"line", "mixed", "full", "other"}


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_label_keys_dependency_fixes_the_length(q):
    # y0, y1, c = -(a y0 + b y1) has the last-row dependency (a, b, 1), and
    # y0, y1, y2, c has (a, b, 0, 1): the same packed int below the top
    # digit, so a memo keyed without the e_(k-1) entry would give the second
    # basis the first one's length
    at, rng = gl_atlas(3, 3, q), Random(q)
    tower, mid, ops = at.tower, at.tower.mid, vector_ops(q, at.v)
    stream = []
    while len(stream) < 40:
        y = [tuple(rng.randrange(at.Q) for _ in range(3)) for _ in range(3)]
        a, b = rng.randrange(1, at.Q), rng.randrange(at.Q)
        c = tuple(mid.sub(0, mid.add(mid.mul(a, y0), mid.mul(b, y1)))
                  for y0, y1 in zip(y[0], y[1]))
        if tower.mid_rank(y) < 3:
            continue
        rows = [tower.flatten_packed(vec) for vec in y + [c]]
        short, long = (rows[0], rows[1], rows[3]), tuple(rows)
        if ops.rank(short) == 3 and ops.rank(long) == 4:
            stream += [short, long] if rng.randrange(2) else [long, short]
    got = run_keys(at, runs_of(stream))
    assert got == label_keys_by_elimination(at, stream)
    assert {key[:2] for _, key in got} == {("mixed", 3), ("mixed", 4)}


def test_label_keys_reduces_last_rows_by_linearity(monkeypatch):
    # one reduction per prefix row, per run of bases sharing a prefix and per
    # new last-row difference in the run: 1346 on the 2667 4-superspaces of a
    # (3,3,2) row; one reduction per basis, as without the linear step, is 2990
    at = gl_atlas(3, 3, 2)
    U = at.realize(at.orbit_labels(2)[0])
    bases = list(iter_superspace_bases(U, 4))
    assert len(bases) == 2667
    want = label_keys_by_elimination(at, bases)
    reductions = []
    reduce = FieldTower.mid_reduce

    def counted_reduce(self, *args):
        reductions.append(1)
        return reduce(self, *args)

    monkeypatch.setattr(FieldTower, "mid_reduce", counted_reduce)
    assert run_keys(at, iter_superspace_runs(U, 4)) == want
    assert len(reductions) <= 1400


SWEEP_LIMIT = 100_000  # sweep a dimension only when it has at most this many subspaces


ORBIT_POINTS = [(2, 3, 3, 2), (2, 4, 3, 2), (3, 4, 4, 2), (2, 3, 3, 3), (2, 3, 3, 4),
                (2, 7, 3, 2)]


@pytest.mark.parametrize("m,l,k,q", ORBIT_POINTS)
def test_orbit_labels_realize_and_size(m, l, k, q):
    # each label realizes into its own orbit; sizes match exhaustive counts
    at = gl_atlas(m, l, q)
    v = m * l
    for d in (k, 2):
        labels = at.orbit_labels(d)
        assert len(set(labels)) == len(labels)
        for label in labels:
            W = at.realize(label)
            assert W.dim == d and at.label_key_rows(W.rows) == label.key()
        sizes = {lb.key(): at.label_orbit_size(lb) for lb in labels}
        if gaussian_binomial(v, d, q) <= SWEEP_LIMIT:
            counts = Counter(key for _, key in run_keys(at, iter_rref_runs(v, d, q)))
            assert {key: counts[key] for key in sizes} == sizes
            assert set(counts) - set(sizes) <= {("other", d, s) for s in range(2, d - 1)}
    assert sum(map(at.label_orbit_size, at.orbit_labels(2))) == gaussian_binomial(v, 2, q)


@pytest.mark.parametrize("m,l,k,q", ORBIT_POINTS)
def test_block_side_coverage_matches_streamed_rows(m, l, k, q):
    """The block-side sum equals the streamed superspace count, entry by entry.

    Every row orbit against every labeled k-orbit, and against the line
    orbits of each dimension d < k (d = 1 holds no pair, d = 2 only itself),
    each taken alone as a design; the oracle streams the d-superspaces of
    each realized row (incidence.row_coverage).
    """
    from qgdd.designs import (DesignInstance, ImplicitBlocks, LabelWeight,
                              _ImplicitCoverage)
    from qgdd.incidence import row_coverage
    at = gl_atlas(m, l, q)
    rows = at.orbit_labels(2)
    realized = [at.realize(row) for row in rows]
    streamed = {d: [row_coverage(at, U, d) for U in realized] for d in range(2, k + 1)}
    columns = list(at.orbit_labels(k)) + [
        OrbitLabel(d, 1, None, o.rep.rows)
        for d in range(1, k) for o in at.singer.orbit_representatives(d)]
    for col in columns:
        one = (LabelWeight(col, 1),)
        blocks = ImplicitBlocks(m, l, k, one if col.kind == "mixed" else (),
                                one if col.kind == "line" else (), col.kind == "full")
        cov = _ImplicitCoverage(DesignInstance(q=q, v=m * l, kind="design", K=(k,),
                                               claimed_lambda=None, blocks=blocks))
        for i, row in enumerate(rows):
            want = streamed[col.dim][i][col.key()] if col.dim >= 2 else 0
            assert cov.by_key.get(row.key(), 0) == want, (row, col)
