import json
from collections import Counter
from random import Random

import pytest

from qgdd import designs
from qgdd.atlas import GlAtlas, OrbitLabel
from qgdd.designs import (DesignInstance, ExplicitBlocks, GddSelection,
                          ImplicitBlocks, LabelWeight, block_count,
                          block_pair_keys, break_blocks, build_gdd, build_pbd,
                          coverage_counter, desarguesian_spread,
                          expand_blocks, fill_holes, gdd_lambda,
                          h_orbit_decomposition, make_explicit,
                          supplementary, verify_design,
                          verify_gdd)
from qgdd.designfile import design_from_json_dict, design_to_json_dict
from qgdd.singer import orbit_representatives
from qgdd.subspaces import (Subspace, gaussian_binomial, intersection_dim,
                            iter_rref_bases, iter_rref_runs, vector_ops)

from oracles import combine, contains_vector, span_pair_keys


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
    assert dict(report.lambda_by_class)["span2"] == gdd633.claimed_lambda == 6


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
    assert dict(rep.lambda_by_class)["span2"] == 6
    assert rep.sample == (200, 13)


def test_repeated_label_counts_alike_in_both_modes(gdd633):
    """A mixed label listed twice counts twice, in full and in sampled mode."""
    data = design_to_json_dict(gdd633)
    data["claimed_lambda"] = 12
    implicit = data["blocks"]["implicit"]
    listed_twice = design_from_json_dict(
        dict(data, blocks={"implicit": dict(implicit, labels=implicit["labels"] * 2)}))
    doubled = design_from_json_dict(dict(data, blocks={"implicit": dict(
        implicit, labels=[dict(implicit["labels"][0], multiplicity=2)])}))
    reports = [verify_gdd(design, mode=mode, sample=200, seed=13)
               for design in (listed_twice, doubled) for mode in ("full", "sampled")]
    for rep in reports:
        assert rep.passed and not rep.simple
        assert dict(rep.lambda_by_class)["span2"] == 12
        assert rep.block_count == 2 * block_count(gdd633)
    assert list(expand_blocks(listed_twice)) == list(expand_blocks(doubled))


def test_sampled_labels_drawn_pairs_in_bounded_batches(gdd633, monkeypatch):
    """Each label_keys stream of drawn pairs holds at most LABEL_BATCH of them."""
    whole = verify_gdd(gdd633, mode="sampled", sample=50, seed=7)
    sizes = []
    label_keys = GlAtlas.label_keys

    def recorded(self, runs):
        runs = list(runs)
        sizes.append(sum(len(lasts) for _, lasts in runs))
        return label_keys(self, runs)

    monkeypatch.setattr(designs, "LABEL_BATCH", 8)
    monkeypatch.setattr(GlAtlas, "label_keys", recorded)
    assert verify_gdd(gdd633, mode="sampled", sample=50, seed=7) == whole
    # the block side first labels the [3,2]_2 = 7 pairs of one block per orbit
    assert sizes[-7:] == [8] * 6 + [2] and set(sizes[:-7]) == {7}


@pytest.mark.parametrize("mode", ["full", "sampled"])
def test_verify_needs_two_dimensions(mode):
    design = DesignInstance(q=2, v=1, kind="design", K=(1,), claimed_lambda=0,
                            blocks=make_explicit([((1,), 1)]))
    with pytest.raises(ValueError, match="v >= 2, got v=1"):
        verify_design(design, mode=mode, sample=5)


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
    assert dict(rep.lambda_by_class)["span1"] == 1


# -- breaking blocks ---------------------------------------------------------------

def test_break_blocks_main_example():
    pbd = complete_design(4, 3, 2)
    ing = complete_design(3, 2, 2)
    out = break_blocks(pbd, {3: ing})
    assert out.claimed_lambda == 3 and out.K == (2,)
    report = verify_design(out, mode="full")
    assert report.passed
    assert dict(report.lambda_by_class)["all"] == 3


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


@pytest.mark.parametrize("q", [2, 3])
def test_fill_holes_inside_the_hole(gdd633, q):
    # n = 3: a master on GF(q)^6 claiming q^3 * lambda (48 at q = 2) that holds
    # the hole itself that many times, so the hole restriction is a design, and
    # 40 blocks elsewhere; each group gets the 40, the hole block is placed once.
    # [9,2]_3 is past PAIR_SWEEP_BUDGET, so at q = 3 the output is sampled
    from oracles import fill_holes_blocks
    gdd = gdd633 if q == 2 else build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1}))
    lam = q ** 3 * gdd.claimed_lambda
    hole = (q ** 3, q ** 4, q ** 5)
    others = Random(3).sample([r for r in iter_rref_bases(6, 3, q) if r != hole], 40)

    def master(hole_mult):
        return DesignInstance(
            q=q, v=6, kind="design", K=(3,), claimed_lambda=lam,
            blocks=make_explicit([(hole, hole_mult)] + [(r, 1) for r in others]))

    mode = "full" if q == 2 else "sampled"
    out, report = fill_holes(gdd, master(lam), 3, verify_mode=mode, sample=500)
    assert out.v == 9 and block_count(out) == {2: 504 + 48 + 9 * 40, 3: 19656 + 648 + 28 * 40}[q]
    want = fill_holes_blocks(list(expand_blocks(gdd)), gdd.groups,
                             master(lam).blocks.items, Subspace(q, 6, hole), 6)
    assert dict(out.blocks.items) == want
    assert want[(q ** 6, q ** 7, q ** 8)] == lam  # the hole, moved to the last coordinates
    assert report.checked == {2: gaussian_binomial(9, 2, 2), 3: 500}[q]
    # one hole block short, the restriction to the hole under-covers its pairs
    with pytest.raises(ValueError, match="restricted to the hole"):
        fill_holes(gdd, master(lam - 1), 3, verify_mode=mode, sample=500)


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
    for a, b in iter_rref_bases(4, 2, 2):  # packed keys a·2^4 + b
        assert cd[a * 16 + b] + cs[a * 16 + b] == 3


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
    _set_implicit("line_labels", [{"rep": [[1, 0, 0], [0, 1, 0]], "dim": 2,
                                   "multiplicity": 1, "u": 1}]),  # 2 not in K
    _set_implicit("omega_kk", "false"),
    _set_implicit("omega_kk", 0),
    _set_implicit("omega_kk", True),  # k = 3 > m = 2
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
    from qgdd.designfile import _singer_orbit
    assert _singer_orbit(2, 3, (1,)).rep.rows == (1,)
    assert _singer_orbit(2, 3, (2,)).rep.rows == (1,)
    with pytest.raises(ValueError, match="do not index a Singer orbit"):
        _singer_orbit(2, 3, (3, 5))


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
    _set_top("K", [5]),  # the design's blocks have dimension 3
    _set_top("K", [2]),
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


@pytest.mark.parametrize("build", [
    lambda: build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1})),
    lambda: build_gdd(3, 3, 3, 2, GddSelection.of({(2, 3): 1}, omega_kk=True)),
    lambda: build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1})),
    lambda: build_pbd(complete_design(3, 2, 2), 2, 3,
                      GddSelection.of({(2, 3): 1})),
    lambda: build_pbd(complete_design(3, 3, 2), 2, 3,
                      GddSelection.of({(2, 3): 1})),
    lambda: build_pbd(complete_design(3, 2, 2, mult=6), 2, 3,
                      GddSelection.of({(2, 3): 1})),
    lambda: build_pbd(complete_design(3, 2, 2), 3, 3,
                      GddSelection.of({}, omega_kk=True)),
    lambda: break_blocks(complete_design(4, 3, 2), {3: complete_design(3, 2, 2)}),
    lambda: fill_holes(build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1})),
                       complete_design(3, 3, 2, mult=6), 0)[0],
    lambda: supplementary(build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))),
], ids=["gdd", "gdd-omega", "gdd-q3", "pbd-mixed", "pbd-seed-k3", "pbd",
        "pbd-omega", "break-blocks", "fill-holes", "supplement"])
def test_every_builder_output_loads(build):
    design = build()
    data = json.loads(json.dumps(design_to_json_dict(design)))
    assert design_from_json_dict(data) == design


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


def test_gdd_groups_overlap_rejected_every_time(gdd633):
    data = design_to_json_dict(gdd633)
    data["groups"][-1] = data["groups"][0]  # sizes still add up
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError, match="overlap"):
            design_from_json_dict(data)


def test_group_index_built_once_per_loaded_gdd(gdd633):
    designs._group_index.cache_clear()
    loaded = design_from_json_dict(design_to_json_dict(gdd633))
    assert verify_design(loaded, mode="sampled", sample=20, seed=1).passed
    info = designs._group_index.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_loading_a_design_builds_no_singer_catalogue():
    # the representative check of each label is a normal form, not a lookup
    # in the catalogue of every 3-subspace of GF(2)^8
    from qgdd.atlas import gl_atlas
    from qgdd.singer import singer_action
    data = design_to_json_dict(build_gdd(2, 8, 3, 2, GddSelection.of({(2, 1): 1})))
    singer_action.cache_clear()
    gl_atlas.cache_clear()
    loaded = design_from_json_dict(data)
    assert singer_action(8, 2)._orbits == {}
    assert design_to_json_dict(loaded) == data


# -- the vector -> group index ---------------------------------------------------------

@pytest.mark.parametrize("case", [(2, 3, 2), (2, 3, 3), (2, 4, 2), "mixed-dim"])
def test_group_index_matches_group_pair_keys(case):
    from qgdd.designs import _ClassTally, _group_index, group_pair_keys
    if case == "mixed-dim":  # a 2-subspace of GF(2)^3 and the four points off it
        q, v = 2, 3
        points = [Subspace.span(2, 3, [x]) for x in (4, 5, 6, 7)]
        groups = (points[0], Subspace.span(2, 3, [1, 2]), *points[1:])
    else:
        m, l, q = case
        v, groups = m * l, tuple(desarguesian_spread(m, l, q))
    index = _group_index(q, v, groups)
    assert len(index) == q ** v - 1
    for i, g in enumerate(groups):
        assert all(index[x] == i for x in g.vectors() if x)
    tally = _ClassTally(DesignInstance(
        q=q, v=v, kind="mixed", K=(3,), claimed_lambda=None,
        blocks=ExplicitBlocks(()), groups=groups))
    inside = group_pair_keys(groups)  # a point group holds no 2-subspace
    classes = Counter()
    for rows in iter_rref_bases(v, 2, q):
        want = "span1" if rows in inside else "span2"
        assert tally.classify(rows) == want
        classes[want] += 1
    assert classes["span1"] == len(inside)


def test_verify_with_point_groups():
    # every 2-subspace is a block once; only the group plane lies inside a group
    points = [Subspace.span(2, 3, [x]) for x in (4, 5, 6, 7)]
    design = DesignInstance(
        q=2, v=3, kind="mixed", K=(2,), claimed_lambda=None,
        blocks=make_explicit((rows, 1) for rows in iter_rref_bases(3, 2, 2)),
        groups=(Subspace.span(2, 3, [1, 2]), *points),
        claimed_lambda_by_class=(("span1", 1), ("span2", 1)))
    report = verify_design(design)
    assert report.passed
    assert dict(report.pair_counts) == {"span1": 1, "span2": 6}


@pytest.mark.parametrize("how,message", [
    ("truncated", "do not cover the 1-subspaces exactly once"),
    ("overlap", "overlap in a nonzero vector"),
], ids=["truncated", "overlap"])
@pytest.mark.parametrize("mode", ["full", "sampled"])
def test_group_partition_errors_at_verify(gdd633, how, message, mode):
    from dataclasses import replace
    groups = gdd633.groups[:-1] + (gdd633.groups[:1] if how == "overlap" else ())
    with pytest.raises(ValueError, match=message):
        verify_gdd(replace(gdd633, groups=groups), mode=mode, sample=50)
    mixed = replace(supplementary(gdd633), groups=groups)
    assert mixed.kind == "mixed"
    with pytest.raises(ValueError, match=message):
        verify_design(mixed, mode=mode, sample=50)


def test_build_gdd_explicit_label_choice():
    # another orbit of the (2, 1) class than the first one gives a GDD as well
    from dataclasses import replace
    default = build_gdd(2, 7, 3, 2, GddSelection.of({(2, 1): 1}))
    orbit = [o for o in orbit_representatives(7, 3, 2) if o.u == 1][5]
    label = LabelWeight(OrbitLabel(3, 2, 2, orbit.rep.rows), 1)
    alt = replace(default, blocks=replace(default.blocks, labels=(label,)))
    assert default.blocks.labels != alt.blocks.labels
    report = verify_gdd(alt, mode="sampled", sample=200, seed=5)
    assert report.passed and dict(report.lambda_by_class)["span2"] == 42


def test_build_gdd_reads_each_class_off_the_catalogue():
    # at l = 6 the 3-subspaces have u = 1 and u = 3, so each class is a
    # strict part of the catalogue; the oracle filters the atlas labels by u
    design = build_gdd(2, 6, 3, 2, GddSelection.of({(2, 1): 2, (2, 3): 1}))
    atlas = GlAtlas(2, 6, 2)
    by_u = {u: [lb for lb in atlas.orbit_labels(3) if lb.r == 2 and atlas.label_u(lb) == u]
            for u in (1, 3)}
    assert [lw.label for lw in design.blocks.labels] == by_u[1][:2] + by_u[3][:1]
    assert {lw.multiplicity for lw in design.blocks.labels} == {1}


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


def _cover(cov, rows):
    """Blocks through span(rows), read through the coverage stream."""
    (_, count), = cov.coverage([rows])
    return count


def test_sampled_generic_path_k4_matches_closed_form():
    # coverage of the span-2 representative equals the matrix entry
    from qgdd.designs import _ImplicitCoverage
    from qgdd.incidence import closed_form_matrix
    g = build_gdd(3, 4, 4, 2, GddSelection.of({(2, 1): 1}))
    cov = _ImplicitCoverage(g)
    at = cov.atlas
    rep = at.realize(at.orbit_labels(2)[-1])
    A = closed_form_matrix(3, 4, 4, 2)
    label = g.blocks.labels[0].label
    col = A.col_labels.index(label)
    assert _cover(cov, rep.rows) == A.entries[-1][col] == g.claimed_lambda


# -- block-side sampled coverage against fresh counts ------------------------------

def _weighted_k3_design(m, l, q, omega_kk):
    """Mixed 3-orbit labels of both r with multiplicities 1, 2, (absent), 3, ..."""
    from qgdd.atlas import gl_atlas
    atlas = gl_atlas(m, l, q)
    mixed = [lb for lb in atlas.orbit_labels(3) if lb.kind == "mixed"]
    labels = tuple(LabelWeight(lb, [1, 2, 0, 3][i % 4])
                   for i, lb in enumerate(mixed) if i % 4 != 2)
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
    tested for containment: no orbit sum, no representative and no closed
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
        if all(contains_vector(block, r) for r in rows):
            total += mult
    return total


def _check_block_side_coverage(design, seed, n_pairs=6):
    """Block-side sampled coverage equals the fresh count on seeded pairs.

    Draws n_pairs span-2 pairs and n_pairs span-1 pairs W.x and streams them
    through one coverage instance.  Its table holds at most one count per
    Singer orbit of 2-subspaces plus the span-2 one, and every pair whose
    orbit it lacks is covered 0 times.  Returns the (span-2, span-1) counts.
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
        streamed = list(cov.coverage(iter(pairs)))
        assert [rows for rows, _ in streamed] == pairs
        counts.append([n for _, n in streamed])
        assert counts[-1] == [_fresh_coverage(design, rows) for rows in pairs]
        for rows, n in streamed:
            assert cov.by_key.get(atlas.label_key_rows(rows), 0) == n
    assert set(cov.by_key) <= {("full", 2)} | {
        ("line", 2, o.rep.rows) for o in atlas.singer.orbit_representatives(2)}
    assert all(cov.by_key.values())
    return counts


@pytest.mark.parametrize("omega_kk", [False, True])
@pytest.mark.parametrize("m,l,q", [(2, 3, 2), (2, 4, 2), (3, 3, 2), (2, 3, 3),
                                   (3, 3, 3)])
def test_k3_kernels_match_generic_on_weighted_designs(m, l, q, omega_kk):
    span2, span1 = _check_block_side_coverage(_weighted_k3_design(m, l, q, omega_kk),
                                              100 * m + 10 * l + q)
    assert min(span2) > 0 and any(span1)
    if (m, l, q) == (2, 4, 2):
        # its span-1 orbits carry different counts, so a sum keyed by the
        # span class alone would fail here
        assert len(set(span1)) > 1


@pytest.mark.parametrize("seed_v,seed_k", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_orbit_memo_on_pbd_line_labels(seed_v, seed_k):
    # line labels of dimension 2 (d != k = 3) or 3 (at l = 3 the whole spread line)
    pbd = build_pbd(complete_design(seed_v, seed_k, 2), 2, 3,
                    GddSelection.of({(2, 3 if seed_v == 3 else 1): 1}))
    assert {lw.label.dim for lw in pbd.blocks.line_labels} == {seed_k}
    span2, span1 = _check_block_side_coverage(pbd, 10 * seed_v + seed_k)
    claims = dict(pbd.claimed_lambda_by_class)
    assert (set(span1), set(span2)) == ({claims["span1"]}, {claims["span2"]})


def test_span1_coverage_k4_is_the_r1_diagonal():
    # a pair W.x at k = 4 lies in the orbit of W's r=1 label (multiplicity
    # 2) through the diagonal entry at k = 4, and in no r=2 block
    from qgdd.atlas import gl_atlas
    from qgdd.designs import _ImplicitCoverage
    from qgdd.incidence import diagonal_entry
    from qgdd.subspaces import vector_ops
    atlas = gl_atlas(3, 4, 2)
    r1, r2 = (next(lb for lb in atlas.orbit_labels(4) if lb.r == r) for r in (1, 2))
    blocks = ImplicitBlocks(3, 4, 4, (LabelWeight(r1, 2), LabelWeight(r2, 1)),
                            (), False)
    design = DesignInstance(q=2, v=12, kind="design", K=(4,),
                            claimed_lambda=None, blocks=blocks)
    rows = vector_ops(2, 12).rref(atlas.line_rows(r1.rep_rows, (0, 1, 6)))
    assert atlas.label_key_rows(rows) == ("line", 2, r1.rep_rows)
    got = _cover(_ImplicitCoverage(design), rows)
    assert got == _fresh_coverage(design, rows) == 2 * diagonal_entry(3, 4, 4, 2)


# Small designs of every block source: mixed labels at q = 2 and 3, line
# labels (a build_pbd output) and explicit blocks (a supplement).
SHARD_DESIGNS = {
    "gdd633": lambda: build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1})),
    "gdd6324-q3": lambda: build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1})),
    "pbd-line-labels": lambda: build_pbd(complete_design(3, 2, 2), 2, 3,
                                         GddSelection.of({(2, 3): 1})),
    "supplement-633": lambda: supplementary(
        build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))),
}


@pytest.fixture(scope="module", params=sorted(SHARD_DESIGNS))
def shard_design(request):
    return SHARD_DESIGNS[request.param]()


def _shard_blocks(design, shard):
    """Stream (rows, multiplicity) of the blocks of one shard: the flattened _block_runs."""
    for tail, firsts, mult in designs._block_runs(design, shard):
        for x in firsts:
            yield (x, *tail), mult


def test_expand_blocks_shards_partition_the_blocks(shard_design):
    whole = list(expand_blocks(shard_design))
    assert list(_shard_blocks(shard_design, (0, 1))) == whole
    for n in range(2, 6):
        union = Counter()
        for i in range(n):
            for rows, mult in _shard_blocks(shard_design, (i, n)):
                union[rows] += mult
        assert union == _multiset(whole)


def _multiset(items):
    out = Counter()
    for rows, mult in items:
        out[rows] += mult
    return out


def test_coverage_counter_threads_agree(shard_design):
    serial = coverage_counter(shard_design, threads=1)
    assert coverage_counter(shard_design, threads=2) == serial
    assert serial[1] == block_count(shard_design)


def test_coverage_counter_threads_omega():
    # the span-k orbit at (9,3,3)_2 (criterion 5's design): its full sweep
    # takes seconds, so the two shards are checked against the closed form
    g = build_gdd(3, 3, 3, 2, GddSelection.of({}, omega_kk=True))
    counts, n_blocks = coverage_counter(g, threads=2)
    assert n_blocks == block_count(g) == 686784
    assert len(counts) == 42924 and set(counts.values()) == {112}


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_coverage_counter_threads_under_start_method(method, monkeypatch):
    # workers get the design as an argument, so no start method needs fork
    import concurrent.futures
    import multiprocessing
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    real = concurrent.futures.ProcessPoolExecutor
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: real(max_workers, mp_context=context))
    design = SHARD_DESIGNS["pbd-line-labels"]()
    assert coverage_counter(design, threads=2) == coverage_counter(design, threads=1)


@pytest.mark.parametrize("threads", [1, 2])
def test_over_budget_sweep_fails_before_any_pool(gdd633, monkeypatch, threads):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started for an over-budget sweep")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(designs, "EXPANSION_BUDGET", 1000)
    with pytest.raises(ValueError, match=r"sweep over 1395 subspaces \(budget 1000\)"):
        coverage_counter(gdd633, threads=threads)
    with pytest.raises(ValueError, match=r"sweep over 1395 subspaces \(budget 1000\)"):
        verify_gdd(gdd633, mode="full", threads=threads)


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


# -- pair keys and the one verification loop ------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_block_pair_keys_brute_force(q):
    from qgdd.subspaces import vector_ops
    rng = Random(q)
    for d in (2, 3, 4, 1):  # d = 1 last: a line holds no 2-subspace
        if q ** d > 1000:  # the brute force pairs up every point
            continue
        v = d + 2
        ops = vector_ops(q, v)
        for _ in range(5):
            rows = ()
            while len(rows) != d:
                rows = ops.rref(rng.randrange(q ** v) for _ in range(d))
            # each 2-subspace is spanned by two of its points (pivot digit 1)
            points = [x for x in Subspace(q, v, rows).vectors()
                      if x and ops.digit(x, ops.pivot(x)) == 1]
            brute = {ops.rref((a, b)) for a in points for b in points if a != b}
            keys = list(block_pair_keys(rows, q, v))
            assert len(keys) == gaussian_binomial(d, 2, q)
            assert all(len(key) == 2 for key in keys)
            assert set(keys) == brute


# -- pair keys from normalized combinations, against the span table ----------------

def _span_oracle_tally(items, q, v):
    """The pair tally of (rows, multiplicity) items, each block keyed from its span
    table, by packed keys a·q^v + b."""
    counts = Counter()
    for rows, mult in items:
        for a, b in span_pair_keys(rows, q, v):
            counts[a * q ** v + b] += mult
    return counts


def _explicit_in_order(q, v, items):
    """An explicit design that streams items as given: make_explicit would sort them."""
    return DesignInstance(q=q, v=v, kind="design", K=tuple(sorted({len(r) for r, _ in items})),
                          claimed_lambda=None, blocks=ExplicitBlocks(tuple(items)))


@pytest.mark.parametrize("q,v,k", [(2, 6, 3), (2, 6, 4), (3, 6, 3), (3, 5, 4), (4, 4, 3),
                                   (5, 4, 2), (5, 4, 3), (9, 3, 2), (7, 4, 3), (7, 3, 2),
                                   (2, 5, 1), (3, 4, 1)])
def test_pair_tally_matches_span_oracle_on_subspace_streams(q, v, k):
    # the sweep order: blocks that share all rows but the first seldom follow each other
    items = [(rows, 1) for rows in iter_rref_bases(v, k, q)]
    counts, n_blocks = coverage_counter(_explicit_in_order(q, v, items))
    assert n_blocks == len(items)
    assert counts == _span_oracle_tally(items, q, v)
    assert sum(counts.values()) == len(items) * gaussian_binomial(k, 2, q)


def test_pair_keys_past_the_table_cap(monkeypatch):
    # q = 343 > TABLE_CAP adds whole rows digit by digit; a span table of a
    # 3-block would hold 343^3 entries, so sampled keys are checked against
    # the combination of the rows with their coefficient basis instead.  The
    # keys form only the combinations of the tail they read, never its span table
    from qgdd.fields import TABLE_CAP
    from qgdd.subspaces import VectorOps
    q, v = 343, 4
    assert q > TABLE_CAP
    ops = vector_ops(q, v)
    monkeypatch.setattr(VectorOps, "span", None)
    rng = Random(343)
    bases = list(iter_rref_bases(3, 2, q))
    items, want = [], Counter()
    for mult in (1, 2):
        rows = ()
        while len(rows) != 3:
            rows = ops.rref(rng.randrange(q ** v) for _ in range(3))
        keys = list(block_pair_keys(rows, q, v))
        assert len(keys) == len(bases) == gaussian_binomial(3, 2, q)
        for i in rng.sample(range(len(bases)), 150):
            a, b = bases[i]
            assert keys[i] == (combine(a, rows, ops), combine(b, rows, ops))
        items.append((rows, mult))
        want.update({a * q ** v + b: mult for a, b in keys})
    assert coverage_counter(_explicit_in_order(q, v, items)) == (want, 3)


def test_pair_tally_matches_span_oracle_on_shuffled_items():
    # blocks of three dimensions with multiplicities 1..4, in random order
    rng = Random(25)
    q, v = 3, 5
    items = [(rows, rng.randrange(1, 5)) for k in (2, 3, 4)
             for rows in iter_rref_bases(v, k, q) if rng.random() < 0.3]
    rng.shuffle(items)
    assert {m for _, m in items} == {1, 2, 3, 4}
    counts, n_blocks = coverage_counter(_explicit_in_order(q, v, items))
    assert n_blocks == sum(m for _, m in items)
    assert counts == _span_oracle_tally(items, q, v)


@pytest.mark.parametrize("n", [2, 3])
def test_pair_tally_matches_span_oracle_by_shard(shard_design, n):
    # mixed labels at q = 2 and 3, a PBD that mixes k = 2 and 3, explicit blocks
    q, v = shard_design.q, shard_design.v
    total = Counter()
    for i in range(n):
        items = list(_shard_blocks(shard_design, (i, n)))
        tally = designs._sweep_shard(shard_design, (i, n))
        assert tally == (_span_oracle_tally(items, q, v), sum(m for _, m in items))
        total += tally[0]
    assert coverage_counter(shard_design) == (total, block_count(shard_design))


def test_pair_keys_of_interleaved_spaces():
    # (1, 9) is the first two rows of blocks of GF(3)^4, GF(3)^6 and GF(9)^4,
    # each with its own combinations and, at q = 3, chunk widths (n = 1, 2)
    streams = {(q, v): [rows for rows in iter_rref_bases(v, 3, q) if rows[:2] == (1, 9)]
               for q, v in [(3, 4), (3, 6), (9, 4)]}
    assert all(streams.values())
    calls = 0
    for step in range(max(map(len, streams.values()))):
        for (q, v), blocks in streams.items():
            rows = blocks[step % len(blocks)]
            assert list(block_pair_keys(rows, q, v)) == span_pair_keys(rows, q, v), (q, v, rows)
            calls += 1
    assert calls >= 3 * 9


def test_set_up_builds_no_pair_key_state(tmp_path):
    # the pair-key cache fills on the first block_pair_keys call, never while
    # a design is built or loaded: set-up stays as cheap as before it
    caches = (designs._pair_plan,)
    for cache in caches:
        cache.cache_clear()
    design = build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1}))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(design_to_json_dict(design)))
    loaded = design_from_json_dict(json.loads(path.read_text()))
    assert loaded.blocks == design.blocks
    assert [cache.cache_info().currsize for cache in caches] == [0]
    list(block_pair_keys(loaded.groups[0].rows, 3, 6))
    assert [cache.cache_info().currsize for cache in caches] == [1]


# -- pair keys of whole runs, against the span table and a per-block tally -------------

def _packed_span_keys(rows, q, v):
    return sorted(a * q ** v + b for a, b in span_pair_keys(rows, q, v))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_run_pair_keys_match_span_oracle(q, k):
    # sampled runs of the k-subspace sweep, cut to runs of several blocks and of
    # one: the shared keys are those of the tail, and with key list j they are
    # the keys of block j (a packed key is a·q^v + b, a the first basis row)
    v = k + 2 if q ** (k + 2) <= 5000 else k + 1
    rng = Random(10 * q + k)
    runs = list(iter_rref_runs(v, k, q))
    for tail, firsts in rng.sample(runs, min(len(runs), 5)):
        for part in (list(firsts[:4]), [firsts[-1]], list(firsts[1::3][:3])):
            shared, keys = designs._run_pair_keys(tail, part, q, v)
            assert sorted(shared) == _packed_span_keys(tail, q, v)
            assert all(len(col) == len(part) for col in keys)
            for j, x in enumerate(part):
                got = sorted(shared + [col[j] for col in keys])
                assert got == _packed_span_keys((x,) + tail, q, v), (tail, x)


@pytest.mark.parametrize("q,v", [(2, 6), (3, 5), (4, 4), (9, 3)])
def test_pair_tally_of_runs_matches_per_block_tally(q, v):
    # explicit items run by tail and multiplicity (multiplicities 1-4), sorted
    # or shuffled
    rng = Random(q * v)
    items = [(rows, rng.choice((1, 1, 2, 3, 4))) for k in (2, 3, 4) if k <= v
             for rows in iter_rref_bases(v, k, q) if rng.random() < 0.5]
    want = (_span_oracle_tally(items, q, v), sum(m for _, m in items))
    runs = list(designs._block_runs(_explicit_in_order(q, v, items), (0, 1)))
    assert max(len(firsts) for _, firsts, _ in runs) > 1
    assert {m for *_, m in runs} == {1, 2, 3, 4}
    assert coverage_counter(_explicit_in_order(q, v, items)) == want
    rng.shuffle(items)
    runs = list(designs._block_runs(_explicit_in_order(q, v, items), (0, 1)))
    assert max(len(firsts) for _, firsts, _ in runs) > 1
    assert coverage_counter(_explicit_in_order(q, v, items)) == want


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_runs_with_omega_and_weights_match_per_block_tally(monkeypatch, n):
    # (9,3,3)_2 with the span-3 orbit (weight 1) and a mixed label of weight 2:
    # a run of the sweep splits by multiplicity.  The design has 760368 blocks
    # with multiplicity, so each shard is checked on the first 200 runs of its stream
    from dataclasses import replace
    from itertools import islice
    g = build_gdd(3, 3, 3, 2, GddSelection.of({(2, 3): 1}, omega_kk=True))
    design = replace(g, blocks=replace(g.blocks, labels=tuple(
        LabelWeight(lw.label, 2) for lw in g.blocks.labels)))
    for i in range(n):
        runs = list(islice(designs._block_runs(design, (i, n)), 200))
        items = [((x, *tail), m) for tail, firsts, m in runs for x in firsts]
        assert items == list(islice(_shard_blocks(design, (i, n)), len(items)))
        assert all(rows == vector_ops(2, 9).rref(rows) for rows, _ in items)
        assert {m for *_, m in runs} == {1, 2}
        monkeypatch.setattr(designs, "_block_runs", lambda *args, runs=runs: iter(runs))
        tally = designs._sweep_shard(design, (i, n))
        monkeypatch.undo()
        assert tally == (_span_oracle_tally(items, 2, 9), sum(m for _, m in items))


def test_coverage_counter_streams_its_keys():
    # the (6,3,3,24)_3 sweep keys 255528 pairs: built into one list they take
    # about 9.8 MB, streamed run by run the tally peaks below 2 MB
    import tracemalloc
    g = build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1}))
    counts, n_blocks = coverage_counter(g)  # fills the field and plan caches
    assert sum(counts.values()) == 255528 and n_blocks == 19656
    tracemalloc.start()
    try:
        assert coverage_counter(g) == (counts, n_blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"coverage_counter peaked at {peak / 2 ** 20:.1f} MB"


def _oracle_sampled_report(design, sample, seed):
    """The sampled report, each sample counted by testing every block."""
    from qgdd.designs import _ClassTally, _random_2subspace
    q, v = design.q, design.v
    tally = _ClassTally(design)
    rng = Random(seed)
    for _ in range(sample):
        rows = _random_2subspace(rng, q, v)
        got = 0
        for block_rows, mult in design.blocks.items:
            block = Subspace(q, v, block_rows)
            if all(contains_vector(block, r) for r in rows):
                got += mult
        tally.record(rows, got)
    return tally.report("sampled", block_count(design), sample=(sample, seed))


def _random_explicit_q3():
    """Random multiset of 3-subspaces of GF(3)^4; its coverage is nonuniform."""
    rng = Random(11)
    items = [(rows, rng.randrange(1, 4)) for rows in iter_rref_bases(4, 3, 3)
             if rng.random() < 0.5]
    return DesignInstance(q=3, v=4, kind="design", K=(3,), claimed_lambda=4,
                          blocks=make_explicit(iter(items)))


@pytest.mark.parametrize("which", ["supplement-633", "random-q3"])
def test_sampled_explicit_matches_per_block_count(gdd633, which):
    design = supplementary(gdd633) if which == "supplement-633" else _random_explicit_q3()
    assert isinstance(design.blocks, ExplicitBlocks)
    for seed in (0, 5):
        report = verify_design(design, mode="sampled", sample=150, seed=seed)
        assert report == _oracle_sampled_report(design, 150, seed)
    if which == "random-q3":
        assert not report.passed and report.failures


@pytest.mark.parametrize("sample", [10, 1000])
def test_sampled_explicit_expands_each_block_once(gdd633, monkeypatch, sample):
    import qgdd.designs as designs
    design = supplementary(gdd633)
    calls = []
    real = designs._run_pair_keys

    def counted(tail, firsts, q, v):
        calls.extend((x, *tail) for x in firsts)
        return real(tail, firsts, q, v)

    monkeypatch.setattr(designs, "_run_pair_keys", counted)
    report = verify_design(design, mode="sampled", sample=sample, seed=1)
    assert report.passed and report.checked == sample
    assert sorted(calls) == [rows for rows, _ in design.blocks.items]
