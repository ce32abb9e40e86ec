from collections import Counter
from random import Random

import pytest

from qgdd.atlas import OrbitLabel, gl_atlas
from qgdd.incidence import (brute_force_matrix, closed_form_matrix,
                            diagonal_entry, full_class_entry, mixed_row_entry,
                            realize_2row, row_coverage, span1_row_entry,
                            verify_closed_form)
from qgdd.subspaces import Subspace, gaussian_binomial


def test_block_values_smallest():
    assert diagonal_entry(2, 3, 3, 2) == 14
    assert span1_row_entry(2, 3, 3, 2, 1) == 9
    assert mixed_row_entry(2, 3, 3, 2, 2, 3) == 6
    assert full_class_entry(3, 3, 3, 2) == 112


def test_span1_row_even_l():
    assert span1_row_entry(2, 4, 3, 2, 1) == 9
    assert span1_row_entry(2, 4, 3, 2, 2) == 3


def test_closed_form_smallest():
    A = closed_form_matrix(2, 3, 3, 2)
    assert A.entries == ((1, 14, 0), (0, 9, 6))
    assert [b[0] for b in A.col_blocks] == ["line", "r=1", "r=2"]


def test_closed_form_has_full_block_iff_k_le_m():
    A = closed_form_matrix(3, 3, 3, 2)
    assert A.block("full") == ((0,), (112,))
    A2 = closed_form_matrix(2, 3, 3, 2)
    with pytest.raises(KeyError):
        A2.block("full")


def test_closed_form_even_l_p_row():
    A = closed_form_matrix(2, 4, 3, 2)
    last = A.entries[-1]
    assert A.block("r=1")[-1] == (9, 9, 3)
    assert last[0] == 0  # line block of the span-2 row is zero


def test_incidence_entry_zero_blocks():
    # span-1 row against the span-k column is zero
    at = gl_atlas(3, 3, 2)
    line_label = OrbitLabel(2, 1, None,
                            at.singer.orbit_representatives(2)[0].rep.rows)
    full_label = OrbitLabel(3, 3, None, None)
    assert row_coverage(at, realize_2row(at, line_label), 3)[full_label.key()] == 0


def test_incidence_entry_diagonal_and_mixed():
    at = gl_atlas(2, 3, 2)
    two_orbit = at.singer.orbit_representatives(2)[0]
    line_label = OrbitLabel(2, 1, None, two_orbit.rep.rows)
    r1_label = OrbitLabel(3, 2, 1, two_orbit.rep.rows)
    assert row_coverage(at, realize_2row(at, line_label), 3)[r1_label.key()] == 14
    full2 = OrbitLabel(2, 2, None, None)
    three_orbit = at.singer.orbit_representatives(3)[0]
    r2_label = OrbitLabel(3, 2, 2, three_orbit.rep.rows)
    assert row_coverage(at, realize_2row(at, full2), 3)[r2_label.key()] == 6
    # brute count over the 15 superspaces directly
    realized = at.full_class_rep(2)
    cov = row_coverage(at, realized, 3)
    assert sum(cov.values()) == gaussian_binomial(4, 1, 2) == 15
    assert cov[r2_label.key()] == 6


@pytest.mark.parametrize("params", [(2, 3, 3, 2), (3, 3, 3, 2), (2, 4, 3, 2)])
def test_verify_closed_form_small(params):
    report = verify_closed_form(*params)
    assert report.equal and not report.partial
    assert report.mismatches == ()


def test_verify_closed_form_budget_marks_partial():
    report = verify_closed_form(2, 4, 3, 2, budget=100)
    assert report.partial
    assert len(report.rows_checked) >= 1
    assert report.equal  # the checked prefix still matches


def test_zero_block_laws_exhaustive():
    # no superspace of a span-1 pair lies in an r>=2 or span-k orbit;
    # no superspace of a span-2 pair lies in a line orbit
    for (m, l) in ((2, 3), (3, 3)):
        at = gl_atlas(m, l, 2)
        two_orbit = at.singer.orbit_representatives(2)[0]
        span1 = realize_2row(at, OrbitLabel(2, 1, None, two_orbit.rep.rows))
        cov1 = row_coverage(at, span1, 3)
        for key in cov1:
            assert not (key[0] == "mixed" and key[2] >= 2)
            assert key[0] != "full"
        span2 = realize_2row(at, OrbitLabel(2, 2, None, None))
        cov2 = row_coverage(at, span2, 3)
        assert all(key[0] != "line" for key in cov2)


def test_diagonality_of_r1_block():
    # a span-1 pair is covered only by r=1 columns with its own orbit label
    for (m, l) in ((2, 3), (2, 4)):
        at = gl_atlas(m, l, 2)
        for orbit in at.singer.orbit_representatives(2):
            realized = realize_2row(at, OrbitLabel(2, 1, None, orbit.rep.rows))
            cov = row_coverage(at, realized, 3)
            for key in cov:
                if key[0] == "mixed" and key[2] == 1:
                    assert key[3] == orbit.rep.rows


def test_double_counting_identity():
    # orbit_size(K) * (pairs of the row class inside K) =
    #   (pairs in the row class) * entry, for the span-2 row
    m, l, k, q = 2, 3, 3, 2
    at = gl_atlas(m, l, q)
    A = closed_form_matrix(m, l, k, q)
    span2_pairs = 588  # 651 - 63 in-line pairs
    w = at.tower.ext.w
    w2 = at.tower.mid.mul(w, w)
    for rep in (at.t_representative(3, (w,)), at.t_representative(3, (w, w2))):
        size = at.orbit_size(3, rep.r, rep.u)
        pairs_inside = sum(
            1 for rows in _pairs_of(rep.subspace)
            if at.classify_rows(rows).span_dim == 2)
        col = A.col_labels.index(rep.label)
        entry = A.entries[-1][col]
        assert size * pairs_inside == span2_pairs * entry


def _pairs_of(block):
    from qgdd.subspaces import iter_rref_bases, vector_ops
    ops = vector_ops(block.q, block.v)
    from qgdd.designs import _combine
    for coeff in iter_rref_bases(block.dim, 2, block.q):
        yield ops.rref((_combine(coeff[0], block.rows, ops),
                        _combine(coeff[1], block.rows, ops)))


def test_entry_independent_of_realization():
    # recount the same row from random orbit members of the realized pair
    m, l, q = 2, 3, 2
    at = gl_atlas(m, l, q)
    rng = Random(31)
    base = realize_2row(at, OrbitLabel(2, 2, None, None))
    cov0 = row_coverage(at, base, 3)
    for _ in range(5):
        g = at.random_gl(rng)
        moved = at.apply_matrix(g, base)
        assert row_coverage(at, moved, 3) == cov0


def test_matrix_export_shapes():
    A = closed_form_matrix(2, 4, 3, 2)
    labeled = A.to_labeled()
    assert labeled.shape == A.shape
    d = A.to_json_dict()
    assert d["m"] == 2 and len(d["entries"]) == A.shape[0]
    csv = labeled.to_csv()
    assert csv.count("\n") == A.shape[0] + 1
