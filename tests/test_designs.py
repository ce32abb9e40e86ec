import json
from collections import Counter
from random import Random

import pytest

from qgdd.designs import (DesignInstance, ExplicitBlocks, GddSelection,
                          ImplicitBlocks, LabelWeight, block_count,
                          block_pair_keys, break_blocks, build_gdd, build_pbd,
                          coverage_counter, desarguesian_spread,
                          design_from_json_dict, design_to_json_dict,
                          expand_blocks, fill_holes, gdd_lambda,
                          h_orbit_decomposition, make_explicit,
                          pair_key_of_rows, supplementary, verify_design,
                          verify_gdd)
from qgdd.subspaces import (Subspace, gaussian_binomial, intersection_dim,
                            iter_rref_bases)


def complete_design(v, k, q, mult=1):
    lam = gaussian_binomial(v - 2, k - 2, q) * mult
    return DesignInstance(
        q=q, v=v, kind="design", K=(k,), claimed_lambda=lam,
        blocks=make_explicit((rows, mult) for rows in iter_rref_bases(v, k, q)))


@pytest.fixture(scope="module")
def gdd633():
    return build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))


# -- spreads -------------------------------------------------------------------

@pytest.mark.parametrize("m,l,q,count", [(2, 3, 2, 9), (1, 3, 2, 1), (3, 3, 2, 73)])
def test_spread_counts(m, l, q, count):
    spread = desarguesian_spread(m, l, q)
    assert len(spread) == count == (q ** (m * l) - 1) // (q ** l - 1)
    assert all(s.dim == l for s in spread)


def test_spread_partitions():
    spread = desarguesian_spread(2, 3, 2)
    seen = set()
    for s in spread:
        for x in s.vectors():
            if x:
                assert x not in seen
                seen.add(x)
    assert len(seen) == 2 ** 6 - 1
    for i, a in enumerate(spread):
        for b in spread[i + 1:]:
            assert intersection_dim(a, b) == 0


# -- selections and the coverage formula ----------------------------------------

def test_selection_validation():
    with pytest.raises(ValueError):
        GddSelection.of({(1, 1): 1}).validate(2, 3, 3, 2)  # r out of range
    with pytest.raises(ValueError):
        GddSelection.of({(2, 2): 1}).validate(2, 3, 3, 2)  # u does not divide
    with pytest.raises(ValueError):
        GddSelection.of({(2, 3): 2}).validate(2, 3, 3, 2)  # exceeds n_(3,3)
    with pytest.raises(ValueError):
        GddSelection.of({}, omega_kk=True).validate(2, 3, 3, 2)  # k > m
    GddSelection.of({(2, 3): 1}).validate(2, 3, 3, 2)


def test_gdd_lambda_examples():
    assert gdd_lambda(GddSelection.of({(2, 3): 1}), 2, 3, 3, 2) == 6
    assert gdd_lambda(GddSelection.of({}, omega_kk=True), 3, 3, 3, 2) == 112
    assert gdd_lambda(GddSelection.of({(2, 1): 1}), 2, 7, 3, 2) == 42


def test_gdd_lambda_matches_observed(gdd633):
    report = verify_gdd(gdd633, mode="full")
    assert report.observed_lambda("span2") == gdd633.claimed_lambda == 6


# -- gdd building and verification -----------------------------------------------

def test_build_gdd_block_count(gdd633):
    assert block_count(gdd633) == 504
    expanded = list(expand_blocks(gdd633))
    assert sum(m for _, m in expanded) == 504
    assert len({rows for rows, _ in expanded}) == 504  # duplicate-free


def test_verify_gdd_full(gdd633):
    report = verify_gdd(gdd633, mode="full")
    assert report.passed and report.simple
    assert dict(report.lambda_by_class) == {"span1": 0, "span2": 6}
    assert dict(report.pair_counts) == {"span1": 63, "span2": 588}


def test_verify_gdd_dim_condition(gdd633):
    # dim(B meet G) <= 1 for every block and group, checked directly
    groups = gdd633.groups
    for rows, _ in expand_blocks(gdd633):
        B = Subspace(2, 6, rows)
        assert all(intersection_dim(B, G) <= 1 for G in groups)


def test_corrupted_gdd_fails_with_witnesses(gdd633):
    expanded = list(expand_blocks(gdd633))
    removed = expanded[17]
    rest = [it for it in expanded if it != removed]
    corrupted = DesignInstance(
        q=2, v=6, kind="gdd", K=(3,), claimed_lambda=6,
        blocks=make_explicit(iter(rest)), groups=gdd633.groups)
    report = verify_gdd(corrupted, mode="full")
    assert not report.passed
    assert len(report.failures) == 7  # exactly the pairs of the removed block
    assert all(f["count"] == 5 for f in report.failures)


def test_sampled_matches_full(gdd633):
    rep = verify_gdd(gdd633, mode="sampled", sample=200, seed=13)
    assert rep.passed
    assert rep.observed_lambda("span2") == 6
    assert rep.sample == (200, 13)


@pytest.mark.parametrize("n", [0, -5])
def test_sampled_needs_a_sample(gdd633, n):
    with pytest.raises(ValueError, match="sample >= 1"):
        verify_design(gdd633, mode="sampled", sample=n)


def test_sampled_deterministic(gdd633):
    a = verify_gdd(gdd633, mode="sampled", sample=100, seed=4)
    b = verify_gdd(gdd633, mode="sampled", sample=100, seed=4)
    assert a == b


def test_threads_agree(gdd633):
    a = verify_gdd(gdd633, mode="full", threads=1)
    b = verify_gdd(gdd633, mode="full", threads=2)
    assert a == b


def test_gdd_omega_m3():
    g = build_gdd(3, 3, 3, 2, GddSelection.of({}, omega_kk=True))
    assert g.claimed_lambda == 112
    assert block_count(g) == 686784
    rep = verify_gdd(g, mode="sampled", sample=60, seed=2)
    assert rep.passed


def test_implicit_coverage_mixed_with_omega():
    # selection mixing an r-orbit and the span-k orbit: lambda adds up
    sel = GddSelection.of({(2, 3): 1}, omega_kk=True)
    g = build_gdd(3, 3, 3, 2, sel)
    assert g.claimed_lambda == gdd_lambda(sel, 3, 3, 3, 2)
    rep = verify_gdd(g, mode="sampled", sample=40, seed=8)
    assert rep.passed


# -- pairwise balanced designs ----------------------------------------------------

def test_h_orbit_decomposition_rejects_partial_orbit():
    blocks = list(iter_rref_bases(3, 2, 2))[:3]  # not a union of orbits
    seed = DesignInstance(q=2, v=3, kind="design", K=(2,), claimed_lambda=1,
                          blocks=make_explicit((r, 1) for r in blocks))
    with pytest.raises(ValueError):
        h_orbit_decomposition(seed)


def test_build_pbd_mechanism():
    seed = complete_design(3, 2, 2)  # all 2-subspaces: coverage 1
    pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
    assert pbd.kind == "mixed"
    assert dict(pbd.claimed_lambda_by_class) == {"span1": 1, "span2": 6}
    assert pbd.K == (2, 3)
    assert block_count(pbd) == 504 + 63
    report = verify_design(pbd, mode="full")
    assert report.passed
    assert dict(report.lambda_by_class) == {"span1": 1, "span2": 6}


def test_build_pbd_single_block_seed():
    seed = complete_design(3, 3, 2)  # the whole space, coverage 1
    pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
    report = verify_design(pbd, mode="full")
    assert report.passed
    assert dict(report.lambda_by_class) == {"span1": 1, "span2": 6}


def test_build_pbd_cross_class_separation():
    # seed orbits cover no span-2 pairs; the gdd part covers no span-1 pairs
    seed = complete_design(3, 2, 2)
    pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
    seed_only = DesignInstance(
        q=2, v=6, kind="mixed", K=(2,), claimed_lambda=None,
        blocks=ImplicitBlocks(2, 3, 3, (), pbd.blocks.line_labels, False),
        claimed_lambda_by_class=(("span1", 1), ("span2", 0)))
    assert verify_design(seed_only, mode="full").passed
    gdd_only = DesignInstance(
        q=2, v=6, kind="mixed", K=(3,), claimed_lambda=None,
        blocks=ImplicitBlocks(2, 3, 3, pbd.blocks.labels, (), False),
        claimed_lambda_by_class=(("span1", 0), ("span2", 6)))
    assert verify_design(gdd_only, mode="full").passed


def test_build_pbd_true_pbd_when_coverages_agree():
    # seed = six copies of every 2-subspace orbit of GF(2)^3: coverage 6
    seed = DesignInstance(
        q=2, v=3, kind="design", K=(2,), claimed_lambda=6,
        blocks=make_explicit((rows, 6) for rows in iter_rref_bases(3, 2, 2)))
    pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
    assert pbd.kind == "pbd" and pbd.claimed_lambda == 6
    report = verify_design(pbd, mode="full")
    assert report.passed
    assert dict(report.lambda_by_class) == {"span1": 6, "span2": 6}
    assert not report.simple  # the seed orbits repeat


def test_build_pbd_sampled_line_coverage():
    seed = complete_design(3, 2, 2)
    pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
    rep = verify_design(pbd, mode="sampled", sample=300, seed=21)
    assert rep.passed
    assert rep.observed_lambda("span1") == 1


# -- breaking blocks ---------------------------------------------------------------

def test_break_blocks_main_example():
    pbd = complete_design(4, 3, 2)
    ing = complete_design(3, 2, 2)
    out = break_blocks(pbd, {3: ing})
    assert out.claimed_lambda == 3 and out.K == (2,)
    report = verify_design(out, mode="full")
    assert report.passed
    assert report.observed_lambda("all") == 3


def test_break_blocks_identity_ingredient():
    pbd = complete_design(4, 3, 2)
    out = break_blocks(pbd, {3: complete_design(3, 3, 2)})
    assert out.blocks == pbd.blocks


def test_break_blocks_multiset_output():
    pbd34 = DesignInstance(
        q=2, v=4, kind="pbd", K=(3, 4), claimed_lambda=4,
        blocks=make_explicit(
            list(expand_blocks(complete_design(4, 3, 2)))
            + list(expand_blocks(complete_design(4, 4, 2)))))
    assert verify_design(pbd34, mode="full").passed
    ing3 = complete_design(3, 3, 2, mult=3)  # trivial non-simple 2-(3,3,3)
    ing4 = complete_design(4, 3, 2)          # 2-(4,3,3)
    out = break_blocks(pbd34, {3: ing3, 4: ing4})
    assert out.claimed_lambda == 12
    report = verify_design(out, mode="full")
    assert report.passed and not report.simple


def test_break_blocks_errors():
    pbd = complete_design(4, 3, 2)
    with pytest.raises(ValueError):
        break_blocks(pbd, {})
    with pytest.raises(ValueError):
        break_blocks(pbd, {3: complete_design(4, 3, 2)})  # wrong space
    pbd34 = DesignInstance(
        q=2, v=4, kind="pbd", K=(3, 4), claimed_lambda=4,
        blocks=make_explicit(
            list(expand_blocks(complete_design(4, 3, 2)))
            + list(expand_blocks(complete_design(4, 4, 2)))))
    with pytest.raises(ValueError):
        break_blocks(pbd34, {3: complete_design(3, 2, 2),
                             4: complete_design(4, 3, 2)})  # mu mismatch


# -- filling holes ------------------------------------------------------------------

def test_fill_holes_degenerate(gdd633):
    master = complete_design(3, 3, 2, mult=6)  # trivial 2-(3,3,6)
    out, report = fill_holes(gdd633, master, 0)
    assert report.passed
    assert out.v == 6 and out.claimed_lambda == 6
    assert block_count(out) == 504 + 9 * 6
    assert verify_design(out, mode="full").passed


def test_fill_holes_validates_lambda(gdd633):
    bad = complete_design(3, 3, 2, mult=5)
    with pytest.raises(ValueError):
        fill_holes(gdd633, bad, 0)


def test_fill_holes_validates_hole_restriction(gdd633):
    # master on GF(2)^4 with n=1: needs lambda = 2^(1*(3-2)) * 6 = 12,
    # and there are no blocks inside a 1-dimensional hole, so the
    # restriction check passes vacuously but assembly under-covers:
    # the report must surface the failure rather than hide it.
    master = complete_design(4, 3, 2, mult=4)  # 2-(4,3,12)
    out, report = fill_holes(gdd633, master, 1)
    assert not report.passed
    assert report.failures


def test_fill_holes_shares_the_hole():
    # n = 2 with a master whose hole restriction is a genuine design
    gdd = build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))
    # build a master on GF(2)^5 = 3 + 2: impossible for the hole restriction
    # to be a 2-design with blocks of dim 3 covering 2-subspaces of a 2-dim
    # hole lam times unless lam = 0; expect a loud precondition error
    master = complete_design(5, 3, 2)  # lambda = 7, needs 24
    with pytest.raises(ValueError):
        fill_holes(gdd, master, 2)


# -- supplementary designs -------------------------------------------------------------

def test_supplementary_trivial_cases():
    comp = complete_design(4, 3, 2)
    empty = supplementary(comp)
    assert block_count(empty) == 0 and empty.claimed_lambda == 0
    empty_design = DesignInstance(q=2, v=4, kind="design", K=(3,),
                                  claimed_lambda=0,
                                  blocks=ExplicitBlocks(()))
    full = supplementary(empty_design)
    assert block_count(full) == gaussian_binomial(4, 3, 2)
    assert full.claimed_lambda == gaussian_binomial(2, 1, 2)


def test_supplementary_random_submultiset():
    rng = Random(123)
    chosen = [rows for rows in iter_rref_bases(4, 3, 2) if rng.random() < 0.4]
    D = DesignInstance(q=2, v=4, kind="design", K=(3,), claimed_lambda=None,
                       blocks=make_explicit((r, 1) for r in chosen))
    S = supplementary(D)
    cd, _ = coverage_counter(D)
    cs, _ = coverage_counter(S)
    for rows in iter_rref_bases(4, 2, 2):
        key = pair_key_of_rows(rows, 2, 4)
        assert cd.get(key, 0) + cs.get(key, 0) == 3


def test_supplementary_of_mixed_input(gdd633):
    # the supplement of the gdd's (mixed) supplement is the gdd's block set
    S = supplementary(gdd633)
    assert S.groups == gdd633.groups
    back = supplementary(S)
    assert dict(back.claimed_lambda_by_class) == {"span1": 0, "span2": 6}
    assert sorted(back.blocks.items) == sorted(expand_blocks(gdd633))


def test_supplementary_rejects_non_simple():
    with pytest.raises(ValueError):
        supplementary(complete_design(4, 3, 2, mult=2))


# -- serialization ----------------------------------------------------------------------

def test_json_roundtrip_implicit(gdd633):
    data = design_to_json_dict(gdd633)
    assert data["format_version"] == 1
    back = design_from_json_dict(json.loads(json.dumps(data)))
    assert back.blocks == gdd633.blocks
    assert back.claimed_lambda == 6
    assert back.groups == gdd633.groups


def test_json_roundtrip_explicit():
    d = complete_design(4, 3, 2)
    back = design_from_json_dict(design_to_json_dict(d))
    assert back.blocks == d.blocks


def test_json_strict_rejects_non_canonical():
    d = complete_design(3, 2, 2)
    data = design_to_json_dict(d)
    entry = data["blocks"]["explicit"][0]
    assert entry["basis"] == [[1, 0, 0], [0, 1, 0]]
    entry["basis"] = [[1, 1, 0], [0, 1, 0]]  # same span, not echelon
    with pytest.raises(ValueError):
        design_from_json_dict(data)
    lenient = design_from_json_dict(data, strict=False)
    assert lenient.blocks == d.blocks
    assert verify_design(lenient, mode="full").passed


def _set_label(field, value):
    def mutate(data):
        data["blocks"]["implicit"]["labels"][0][field] = value
    return mutate


def _set_implicit(field, value):
    def mutate(data):
        data["blocks"]["implicit"][field] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set_implicit("labels", None),
    _set_implicit("labels", [1]),
    _set_implicit("line_labels", "none"),
    _set_label("multiplicity", -3),
    _set_label("multiplicity", 0),
    _set_label("multiplicity", True),
    _set_label("multiplicity", "1"),
    _set_label("r", 0),
    _set_label("r", 3),
    _set_label("r", None),
    _set_label("r", 1),  # three rep rows, r + 1 = 2 expected
    _set_label("rep", None),
    _set_label("rep", [[1, 0, 0], [0, 1]]),
    _set_implicit("line_labels", [{"rep": [[1, 0, 0], [0, 1, 0]], "dim": 3,
                                   "multiplicity": 1}]),
    _set_implicit("line_labels", [{"rep": [[1, 0, 0]], "dim": 0,
                                   "multiplicity": 1}]),
    _set_implicit("k", 4),  # k <= min(m + 1, l) = 3
    _set_implicit("k", 2),
    _set_label("u", 1),  # the label's representative has u = 3
    _set_label("u", None),
    _set_label("u", "3"),
    _set_implicit("line_labels", [{"rep": [[1, 0, 0], [0, 1, 0]], "dim": 2,
                                   "multiplicity": 1, "u": 3}]),  # u = 1
    _set_implicit("line_labels", [{"rep": [[1, 0, 0], [0, 1, 0]], "dim": 2,
                                   "multiplicity": 1}]),
])
def test_json_rejects_malformed_labels(gdd633, mutate):
    data = json.loads(json.dumps(design_to_json_dict(gdd633)))
    mutate(data)
    with pytest.raises(ValueError):
        design_from_json_dict(data)


def test_json_rejects_non_positive_explicit_multiplicity():
    data = design_to_json_dict(complete_design(3, 2, 2))
    data["blocks"]["explicit"][0]["multiplicity"] = 0
    with pytest.raises(ValueError, match="multiplicity"):
        design_from_json_dict(data)


def test_orbit_rep_check_rejects_unknown_rows():
    from qgdd.designs import _orbit_rep_check
    assert _orbit_rep_check(2, 3, (1,)) == (1,)
    assert _orbit_rep_check(2, 3, (2,)) == (1,)
    with pytest.raises(ValueError, match="do not index a Singer orbit"):
        _orbit_rep_check(2, 3, (3, 5))


def test_json_rejects_explicit_block_outside_K():
    data = design_to_json_dict(complete_design(4, 3, 2))
    data["blocks"]["explicit"][0]["basis"] = [[1, 0, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(ValueError, match="not in K"):
        design_from_json_dict(data)


def _set_top(field, value):
    def mutate(data):
        data[field] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set_top("q", None),
    _set_top("q", "2"),
    _set_top("q", 1),
    _set_top("v", None),
    _set_top("v", 6.0),
    _set_top("kind", None),
    _set_top("K", None),
    _set_top("K", []),
    _set_top("K", [3, None]),
    _set_top("claimed_lambda", [6]),
    _set_top("claimed_lambda", -1),
    _set_top("claimed_lambda_by_class", [6]),
    _set_top("claimed_lambda_by_class", {"span2": None}),
    _set_top("groups", 5),
    _set_top("blocks", None),
    _set_top("blocks", {"implicit": None}),
    _set_implicit("m", None),
    _set_implicit("l", None),
    _set_implicit("k", None),
    _set_implicit("k", "3"),
])
def test_json_rejects_malformed_top_level(gdd633, mutate):
    data = json.loads(json.dumps(design_to_json_dict(gdd633)))
    mutate(data)
    with pytest.raises(ValueError):
        design_from_json_dict(data)


def test_json_rejects_unknown_version():
    d = complete_design(3, 2, 2)
    data = design_to_json_dict(d)
    data["format_version"] = 99
    with pytest.raises(ValueError):
        design_from_json_dict(data)


def test_json_bytes_stable(gdd633):
    a = json.dumps(design_to_json_dict(gdd633), indent=2, sort_keys=True)
    b = json.dumps(design_to_json_dict(
        build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))),
        indent=2, sort_keys=True)
    assert a == b


def test_json_pbd_roundtrip():
    seed = complete_design(3, 2, 2)
    pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
    back = design_from_json_dict(design_to_json_dict(pbd))
    assert back.blocks == pbd.blocks
    assert back.claimed_lambda_by_class == pbd.claimed_lambda_by_class


def test_gdd_groups_partition_enforced(gdd633):
    data = design_to_json_dict(gdd633)
    data["groups"] = data["groups"][:-1]
    with pytest.raises(ValueError):
        design_from_json_dict(data)


def test_build_gdd_explicit_label_choice():
    # choosing a different orbit than the canonical first one
    at_params = (2, 7, 3, 2)
    sel = GddSelection.of({(2, 1): 1})
    default = build_gdd(*at_params, sel)
    alt = build_gdd(*at_params, sel, chosen={(2, 1): (5,)})
    assert default.blocks.labels != alt.blocks.labels
    assert default.claimed_lambda == alt.claimed_lambda == 42
    with pytest.raises(ValueError):
        build_gdd(*at_params, sel, chosen={(2, 1): (0, 1)})


def test_gdd_odd_characteristic_full():
    # end-to-end over GF(3): generic elimination, pair keys, and sampling
    g = build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1}))
    assert g.claimed_lambda == 24
    assert block_count(g) == 19656
    report = verify_gdd(g, mode="full")
    assert report.passed
    assert dict(report.lambda_by_class) == {"span1": 0, "span2": 24}
    assert dict(report.pair_counts) == {"span1": 364, "span2": 10647}
    assert 19656 * 13 == 10647 * 24
    sampled = verify_gdd(g, mode="sampled", sample=40, seed=17)
    assert sampled.passed


def test_sampled_generic_path_k4_matches_closed_form():
    # coverage of the span-2 representative equals the matrix entry
    from qgdd.designs import _ImplicitCoverage
    from qgdd.incidence import closed_form_matrix
    g = build_gdd(3, 4, 4, 2, GddSelection.of({(2, 1): 1}))
    cov = _ImplicitCoverage(g)
    at = cov.atlas
    rep = at.full_class_rep(2)
    A = closed_form_matrix(3, 4, 4, 2)
    label = g.blocks.labels[0].label
    col = A.col_labels.index(label)
    assert cov.coverage(rep.rows) == A.entries[-1][col] == g.claimed_lambda


# -- orbit-memoized sampled coverage against fresh counts -------------------------

def _weighted_k3_design(m, l, q, omega_kk):
    """Mixed 3-orbit labels of both r with multiplicities 1, 2, (absent), 3, ..."""
    from qgdd.atlas import gl_atlas
    atlas = gl_atlas(m, l, q)
    reps = atlas.representatives(3, 1) + atlas.representatives(3, 2)
    labels = tuple(LabelWeight(rep.label, [1, 2, 0, 3][i % 4])
                   for i, rep in enumerate(reps) if i % 4 != 2)
    assert len({lw.multiplicity for lw in labels}) >= 2
    return DesignInstance(q=q, v=m * l, kind="design", K=(3,), claimed_lambda=None,
                          blocks=ImplicitBlocks(m, l, 3, labels, (), omega_kk))


def _random_line_pair(rng, atlas):
    """A seeded random 2-subspace W.x of one spread line."""
    from qgdd.designs import _random_2subspace
    from qgdd.subspaces import vector_ops
    W = _random_2subspace(rng, atlas.q, atlas.l)
    x = [0] * atlas.m
    while not any(x):
        x = [rng.randrange(atlas.Q) for _ in range(atlas.m)]
    return vector_ops(atlas.q, atlas.v).rref(atlas.line_rows(W, x))


def _fresh_coverage(design, rows):
    """Blocks through span(rows), counted for this pair alone.

    Every k-superspace of the pair itself is labeled and weighted by its
    label's multiplicity, and the line labels are expanded into blocks and
    tested for containment: no orbit memo, no representative and no closed
    form.
    """
    from dataclasses import replace
    from qgdd.atlas import gl_atlas
    from qgdd.incidence import row_coverage
    b = design.blocks
    weights = {lw.label.key(): lw.multiplicity for lw in b.labels}
    if b.omega_kk:
        weights[("full", b.k)] = 1
    superspaces = row_coverage(gl_atlas(b.m, b.l, design.q),
                               Subspace(design.q, design.v, rows), b.k)
    total = sum(weights.get(key, 0) * n for key, n in superspaces.items())
    lines_only = replace(design, blocks=replace(design.blocks, labels=(),
                                                omega_kk=False))
    for block_rows, mult in expand_blocks(lines_only):
        block = Subspace(design.q, design.v, block_rows)
        if all(block.contains_vector(r) for r in rows):
            total += mult
    return total


def _check_orbit_memo(design, seed, n_pairs=6):
    """Memoized sampled coverage equals the fresh count on seeded pairs.

    Draws n_pairs span-2 pairs and n_pairs span-1 pairs W.x through one
    coverage instance, and checks that its memo holds one key per orbit
    met, at most one per Singer orbit of 2-subspaces plus the span-2 one.
    Returns the (span-2, span-1) counts.
    """
    from qgdd.designs import _ImplicitCoverage, _random_2subspace
    cov = _ImplicitCoverage(design)
    atlas = cov.atlas
    rng = Random(seed)
    span2 = []
    while len(span2) < n_pairs:
        rows = _random_2subspace(rng, atlas.q, atlas.v)
        if atlas.label_key_rows(rows)[0] == "full":
            span2.append(rows)
    span1 = [_random_line_pair(rng, atlas) for _ in range(n_pairs)]
    counts = []
    for pairs in (span2, span1):
        counts.append([cov.coverage(rows) for rows in pairs])
        assert counts[-1] == [_fresh_coverage(design, rows) for rows in pairs]
    assert ("full", 2) in cov.memo
    assert len(cov.memo) == 1 + len({atlas.label_key_rows(r) for r in span1})
    assert len(cov.memo) <= 1 + len(atlas.singer.orbit_representatives(2))
    return counts


@pytest.mark.parametrize("omega_kk", [False, True])
@pytest.mark.parametrize("m,l,q", [(2, 3, 2), (2, 4, 2), (3, 3, 2), (2, 3, 3),
                                   (3, 3, 3)])
def test_k3_kernels_match_generic_on_weighted_designs(m, l, q, omega_kk):
    span2, span1 = _check_orbit_memo(_weighted_k3_design(m, l, q, omega_kk),
                                     100 * m + 10 * l + q)
    assert min(span2) > 0 and any(span1)
    if (m, l, q) == (2, 4, 2):
        # its span-1 orbits carry different counts, so a memo keyed by the
        # span class alone would fail here
        assert len(set(span1)) > 1


@pytest.mark.parametrize("seed_v,seed_k", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_orbit_memo_on_pbd_line_labels(seed_v, seed_k):
    pbd = build_pbd(complete_design(seed_v, seed_k, 2), 2, 3,
                    GddSelection.of({(2, 3 if seed_v == 3 else 1): 1}))
    span2, span1 = _check_orbit_memo(pbd, 10 * seed_v + seed_k)
    claims = dict(pbd.claimed_lambda_by_class)
    assert (set(span1), set(span2)) == ({claims["span1"]}, {claims["span2"]})


def test_span1_coverage_k4_is_the_r1_diagonal():
    # a pair W.x at k = 4 lies in the orbit of W's r=1 label (multiplicity
    # 2) through the diagonal entry at k = 4, and in no r=2 block
    from qgdd.atlas import gl_atlas
    from qgdd.designs import _ImplicitCoverage
    from qgdd.subspaces import vector_ops
    atlas = gl_atlas(3, 4, 2)
    r1 = atlas.representatives(4, 1)[0].label
    r2 = atlas.representatives(4, 2)[0].label
    blocks = ImplicitBlocks(3, 4, 4, (LabelWeight(r1, 2), LabelWeight(r2, 1)),
                            (), False)
    design = DesignInstance(q=2, v=12, kind="design", K=(4,),
                            claimed_lambda=None, blocks=blocks)
    rows = vector_ops(2, 12).rref(atlas.line_rows(r1.rep_rows, (0, 1, 6)))
    assert atlas.label_key_rows(rows) == ("line", 2, r1.rep_rows)
    assert _ImplicitCoverage(design).coverage(rows) == _fresh_coverage(design, rows) > 0


def test_coverage_counter_caps_workers_at_cpu_count(gdd633, monkeypatch):
    import concurrent.futures
    import os
    started = []

    class SerialPool:
        """Records max_workers and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = coverage_counter(gdd633, threads=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert coverage_counter(gdd633, threads=10 ** 6) == serial
    assert coverage_counter(gdd633, threads=2) == serial
    assert started == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert coverage_counter(gdd633, threads=8) == serial
    assert started == [3, 2]
