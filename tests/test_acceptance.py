"""Acceptance criteria, one test per criterion, at stated exactness and time
budgets.  Run with `pytest tests/test_acceptance.py -v` for one line each."""

import json
import math
import time
from collections import Counter

import pytest

from qgdd.atlas import gl_atlas, gl_order
from qgdd.designs import (DesignInstance, GddSelection, ImplicitBlocks,
                          block_count, break_blocks, build_gdd, build_pbd,
                          coverage_counter, expand_blocks,
                          fill_holes, make_explicit,
                          supplementary, verify_design, verify_gdd)
from qgdd.designfile import design_to_json_dict
from qgdd.incidence import closed_form_matrix, span1_row_entry, verify_closed_form
from qgdd.singer import n_orbits, n_orbits_with_stabilizer, singer_action
from qgdd.subspaces import gaussian_binomial, intersection_dim, iter_rref_bases, Subspace


class budget:
    """Context manager asserting a wall-clock budget and printing one line."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its time budget: {elapsed:.1f}s")
        return False


def complete_design(v, k, q, mult=1):
    lam = gaussian_binomial(v - 2, k - 2, q) * mult
    return DesignInstance(
        q=q, v=v, kind="design", K=(k,), claimed_lambda=lam,
        blocks=make_explicit((rows, mult) for rows in iter_rref_bases(v, k, q)))


def test_criterion_01_orbit_count_formulas():
    with budget("criterion 1: orbit-count formulas vs brute force", 60):
        for q, lmax in ((2, 8), (3, 5)):
            for l in range(1, lmax + 1):
                action = singer_action(l, q)
                for d in range(l + 1):
                    reps = action.orbit_representatives(d)
                    assert n_orbits(d, l, q) == len(reps), (q, l, d)
                    g = math.gcd(d, l) if d else l
                    by_u = Counter(o.u for o in reps)
                    for u in range(1, l + 1):
                        if g % u == 0:
                            assert n_orbits_with_stabilizer(d, u, l, q) == by_u.get(u, 0)
        assert n_orbits_with_stabilizer(3, 1, 7, 2) == 93
        assert 93 == ((2 ** 6 - 1) * (2 ** 5 - 1)) // ((2 ** 3 - 1) * (2 ** 2 - 1))


def test_criterion_02_orbit_atlas_exhaustive():
    with budget("criterion 2: exhaustive atlas of 3-subspaces of GF(2)^6", 60):
        at = gl_atlas(2, 3, 2)
        sizes = Counter()
        for rows in iter_rref_bases(6, 3, 2):
            sizes[at.label_key_rows(rows)] += 1
        assert sum(sizes.values()) == 1395
        line_total = sum(n for key, n in sizes.items() if key[0] == "line")
        mixed = {key: n for key, n in sizes.items() if key[0] == "mixed"}
        assert line_total == 9
        assert sorted(mixed.values()) == [504, 882]
        assert sum(mixed.values()) == 1386
        assert not any(key[0] == "full" for key in sizes)  # span-3 class empty
        # orbit sizes match |GL(2,8)| / stabilizer order, and brute-force
        # stabilizer counts over all 3528 elements match the closed form
        mixed = [lb for lb in at.orbit_labels(3) if lb.kind == "mixed"]
        for label in mixed:
            stab = at.stabilizer_order(3, label.r, at.label_u(label))
            assert sizes[label.key()] == gl_order(2, 8) // stab == at.label_orbit_size(label)
            assert at.brute_force_stabilizer_order(at.realize(label)) == stab
        assert {at.stabilizer_order(3, lb.r, at.label_u(lb)) for lb in mixed} == {4, 7}


@pytest.mark.parametrize("params", [(2, 3, 3, 2), (3, 3, 3, 2), (2, 4, 3, 2),
                                    (3, 4, 4, 2)])
def test_criterion_03_closed_form_matrix(params):
    with budget(f"criterion 3: closed form vs brute force {params}", 600):
        report = verify_closed_form(*params)
        assert report.equal, report.mismatches
        assert not report.partial
        m, l, k, q = params
        if l % 2 == 0:
            # the even-l value lands at the unique u=2 column of the r=1 block
            A = closed_form_matrix(m, l, k, q)
            (start, stop), = [b[1:] for b in A.col_blocks if b[0] == "r=1"]
            p_row = A.entries[-1][start:stop]
            assert p_row[-1] == span1_row_entry(m, l, k, q, 2)
            assert p_row[0] == span1_row_entry(m, l, k, q, 1) != p_row[-1]


def test_criterion_04_gdd_soundness():
    with budget("criterion 4: (6,3,3,6) gdd full verification", 10):
        g = build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))
        assert block_count(g) == 504
        assert len(g.groups) == 9
        report = verify_gdd(g, mode="full")
        assert report.passed
        assert dict(report.pair_counts) == {"span1": 63, "span2": 588}
        assert dict(report.lambda_by_class) == {"span1": 0, "span2": 6}
        for rows, _ in expand_blocks(g):
            B = Subspace(2, 6, rows)
            assert all(intersection_dim(B, G) <= 1 for G in g.groups)


def test_criterion_05_gdd_at_scale():
    with budget("criterion 5: (9,3,3,112) gdd full sweep", 120):
        g = build_gdd(3, 3, 3, 2, GddSelection.of({}, omega_kk=True))
        assert g.claimed_lambda == 112
        assert block_count(g) == 686784
        report = verify_gdd(g, mode="full")
        assert report.passed
        assert report.block_count == 686784
        assert dict(report.lambda_by_class) == {"span1": 0, "span2": 112}
        assert report.pair_count("span2") == 42924
        assert 686784 * 7 == 42924 * 112


def test_criterion_06_sampled_verification_at_scale():
    with budget("criterion 6: (14,7,3,42) gdd sampled verification", 300):
        g = build_gdd(2, 7, 3, 2, GddSelection.of({(2, 1): 1}))
        assert g.claimed_lambda == 42
        report = verify_gdd(g, mode="sampled", sample=10_200, seed=42)
        assert report.passed
        assert dict(report.lambda_by_class)["span2"] == 42
        assert report.pair_count("span2") >= 10_000


def test_criterion_07_pbd_mechanism():
    with budget("criterion 7: pbd mechanism, per-class coverage", 60):
        seed = complete_design(3, 2, 2)  # 2-(3,2,1)
        pbd = build_pbd(seed, 2, 3, GddSelection.of({(2, 3): 1}))
        report = verify_design(pbd, mode="full")
        assert report.passed
        assert dict(report.lambda_by_class) == {"span1": 1, "span2": 6}
        # embedded seed orbits cover zero span-2 pairs; gdd blocks zero span-1
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


def test_criterion_08_block_breaking():
    with budget("criterion 8: block breaking to a 2-(4,2,3) design", 1):
        out = break_blocks(complete_design(4, 3, 2), {3: complete_design(3, 2, 2)})
        report = verify_design(out, mode="full")
        assert report.passed
        assert dict(report.lambda_by_class)["all"] == 3
        assert out.claimed_lambda == 3 and out.K == (2,)


def test_criterion_09_supplementary():
    with budget("criterion 9: supplementary coverage sums", 1):
        from random import Random
        rng = Random(123)
        chosen = [rows for rows in iter_rref_bases(4, 3, 2)
                  if rng.random() < 0.4]
        D = DesignInstance(q=2, v=4, kind="design", K=(3,),
                           claimed_lambda=None,
                           blocks=make_explicit((r, 1) for r in chosen))
        S = supplementary(D)
        cd, _ = coverage_counter(D)
        cs, _ = coverage_counter(S)
        for a, b in iter_rref_bases(4, 2, 2):  # packed keys a·2^4 + b
            assert cd[a * 16 + b] + cs[a * 16 + b] == gaussian_binomial(2, 1, 2) == 3


def test_criterion_10_hole_filling_properties():
    with budget("criterion 10: hole filling validation and degenerate case", 60):
        gdd = build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))
        # the degenerate case passes exactly
        master = complete_design(3, 3, 2, mult=6)
        out, report = fill_holes(gdd, master, 0)
        assert report.passed
        assert verify_design(out, mode="full").passed
        assert out.claimed_lambda == 6 and out.v == 6
        # precondition failures are reported before assembly
        with pytest.raises(ValueError):
            fill_holes(gdd, complete_design(3, 3, 2, mult=5), 0)
        with pytest.raises(ValueError):
            fill_holes(gdd, complete_design(5, 3, 2), 2)  # hole check fails
        # assembled output is never trusted: divergence is surfaced
        master1 = complete_design(4, 3, 2, mult=4)  # 2-(4,3,12)
        _, report1 = fill_holes(gdd, master1, 1)
        assert not report1.passed and report1.failures


def test_criterion_11_determinism(tmp_path, capsys):
    with budget("criterion 11: byte-stable output and thread independence", 60):
        from qgdd.cli import main

        def run(args):
            code = main(args)
            out = capsys.readouterr().out
            return code, out

        gdd_file = tmp_path / "g.json"
        for cmd in (
            ["gbinom", "--v", "6", "--k", "3", "--q", "2"],
            ["singer-orbits", "--l", "7", "--d", "3", "--q", "2",
             "--counts-only", "--json"],
            ["orbit-atlas", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--json"],
            ["incidence", "--m", "2", "--l", "4", "--k", "3", "--q", "2",
             "--mode", "both", "--json"],
        ):
            code1, out1 = run(cmd)
            code2, out2 = run(cmd)
            assert code1 == code2 == 0
            assert out1 == out2
        args = ["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
                "--select", "2,3=1", "--out", str(gdd_file)]
        run(args)
        bytes1 = gdd_file.read_bytes()
        run(args)
        assert gdd_file.read_bytes() == bytes1
        _, sampled1 = run(["verify", "--in", str(gdd_file), "--sample", "200",
                           "--seed", "9", "--json"])
        _, sampled2 = run(["verify", "--in", str(gdd_file), "--sample", "200",
                           "--seed", "9", "--json"])
        assert sampled1 == sampled2
        _, t1 = run(["verify", "--in", str(gdd_file), "--threads", "1", "--json"])
        _, t8 = run(["verify", "--in", str(gdd_file), "--threads", "8", "--json"])
        assert t1 == t8
        assert json.loads(t1)["passed"] is True
