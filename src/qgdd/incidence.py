"""The GL(m, q^l)-incidence machinery between 2-subspaces and k-subspaces.

Builds the block submatrix of the orbit incidence matrix whose columns are
the labeled orbit classes (span dimension 1, k-1, and k), both in closed
form and by brute-force superspace streaming, and checks the two against
each other entrywise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .atlas import GlAtlas, OrbitLabel, check_block_dim, gl_atlas
from .matrices import LabeledIntMatrix
from .singer import h_incidence_matrix
from .subspaces import Subspace, gaussian_binomial, iter_superspace_bases


@dataclass(frozen=True)
class AkMatrix:
    """Incidence block matrix: rows index 2-subspace orbits, columns k-orbits.

    Rows are GlAtlas.orbit_labels(2): the span-1 orbits sorted by
    (stabilizer, representative), then the single span-2 orbit.  Columns
    are orbit_labels(k): span-1 orbits of k-subspaces, then the mixed blocks
    r = 1..k-1 (each sorted by (stabilizer, representative)), then the
    span-k orbit when k <= m.
    """

    m: int
    l: int
    k: int
    q: int
    row_labels: tuple[OrbitLabel, ...]
    col_labels: tuple[OrbitLabel, ...]
    col_blocks: tuple[tuple[str, int, int], ...]  # (name, start, stop)
    entries: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def to_labeled(self) -> LabeledIntMatrix:
        return LabeledIntMatrix(
            tuple(lb.label_str() for lb in self.row_labels),
            tuple(lb.label_str() for lb in self.col_labels),
            self.entries,
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m, "l": self.l, "k": self.k, "q": self.q,
            "col_blocks": [list(b) for b in self.col_blocks],
            **self.to_labeled().to_json_dict(),
        }


def _prod(factors) -> int:
    out = 1
    for f in factors:
        out *= f
    return out


def _exact_div(num: int, den: int, what: str) -> int:
    assert num % den == 0, f"{what}: {num} not divisible by {den}"
    return num // den


def diagonal_entry(m: int, l: int, k: int, q: int) -> int:
    """The diagonal value pairing a span-1 2-orbit with its r=1 column."""
    Q = q ** l
    num = _prod(Q ** m - Q ** i for i in range(1, k - 1))
    den = _prod(q ** k - q ** i for i in range(2, k))
    return _exact_div(num, den, "diagonal entry")


def span1_row_entry(m: int, l: int, k: int, q: int, u: int) -> int:
    """Entry of the span-2 row against an r=1 column with stabilizer GF(q^u)*."""
    Q = q ** l
    num = ((q ** k - 1) * (q ** k - q) - (q ** 2 - 1) * (q ** 2 - q)) \
        * _prod(Q ** m - Q ** i for i in range(2, k - 1))
    den = (q ** u - 1) * _prod(q ** k - q ** i for i in range(2, k))
    return _exact_div(num, den, "span-2 row, r=1 column")


def mixed_row_entry(m: int, l: int, k: int, q: int, r: int, u: int) -> int:
    """Entry of the span-2 row against an r>=2 column with stabilizer GF(q^u)*."""
    Q = q ** l
    num = (q ** k - 1) * (q ** k - q) * _prod(Q ** m - Q ** j
                                              for j in range(2, k - 1))
    den = (q ** u - 1) * _prod(q ** k - q ** j for j in range(r + 1, k))
    return _exact_div(num, den, "span-2 row, mixed column")


def full_class_entry(m: int, l: int, k: int, q: int) -> int:
    """Entry of the span-2 row against the single span-k column (k <= m)."""
    num = _prod(q ** ((m - i) * l) - 1 for i in range(2, k))
    den = _prod(q ** (k - i) - 1 for i in range(2, k))
    scale = q ** ((l - 1) * (k * (k - 1) // 2 - 1))
    return scale * _exact_div(num, den, "span-k column")


def _col_blocks(cols) -> tuple[tuple[str, int, int], ...]:
    """(name, start, stop) of each run of columns: line, r=1..k-1, full."""
    blocks = []
    start = 0
    for name, run in groupby(cols, lambda lb: f"r={lb.r}" if lb.r else lb.kind):
        stop = start + len(list(run))
        blocks.append((name, start, stop))
        start = stop
    return tuple(blocks)


def closed_form_matrix(m: int, l: int, k: int, q: int) -> AkMatrix:
    """Assemble the incidence block matrix from the closed-form entries."""
    check_block_dim(m, l, k)
    atlas = gl_atlas(m, l, q)
    rows, cols = atlas.orbit_labels(2), atlas.orbit_labels(k)
    htilde = h_incidence_matrix(l, 2, k, q).entries
    e = diagonal_entry(m, l, k, q)

    def span2_entry(col: OrbitLabel) -> int:
        if col.kind == "line":
            return 0
        if col.kind == "full":
            return full_class_entry(m, l, k, q)
        u = atlas.label_u(col)
        if col.r == 1:
            return span1_row_entry(m, l, k, q, u)
        return mixed_row_entry(m, l, k, q, col.r, u)

    # a span-1 row W.x meets the line columns as in H~ and only its own r=1 column
    entries = [tuple(htilde[i][j] if col.kind == "line"
                     else e if col.r == 1 and col.rep_rows == row.rep_rows else 0
                     for j, col in enumerate(cols))
               for i, row in enumerate(rows[:-1])]
    entries.append(tuple(span2_entry(col) for col in cols))
    return AkMatrix(m, l, k, q, rows, cols, _col_blocks(cols), tuple(entries))


def row_coverage(atlas: GlAtlas, realized: Subspace, k: int) -> Counter:
    """Label-key counts over all k-superspaces of a realized 2-subspace."""
    return Counter(map(itemgetter(1), atlas.label_keys(iter_superspace_bases(realized, k))))


def brute_force_matrix(m: int, l: int, k: int, q: int,
                       row_subset: list[int] | None = None) -> AkMatrix:
    """The same block matrix computed by streaming superspaces of each row."""
    check_block_dim(m, l, k)
    atlas = gl_atlas(m, l, q)
    rows, cols = atlas.orbit_labels(2), atlas.orbit_labels(k)
    col_index = {lb.key(): j for j, lb in enumerate(cols)}
    picked = set(range(len(rows)) if row_subset is None else row_subset)
    entries = []
    for i, row_label in enumerate(rows):
        row = [0] * len(cols)
        if i in picked:
            for key, n in row_coverage(atlas, atlas.realize(row_label), k).items():
                if key[0] != "other":
                    row[col_index[key]] = n
        entries.append(tuple(row))
    return AkMatrix(m, l, k, q, rows, cols, _col_blocks(cols), tuple(entries))


@dataclass(frozen=True)
class ClosedFormReport:
    """Result of checking the closed-form matrix against brute force."""

    m: int
    l: int
    k: int
    q: int
    equal: bool
    mismatches: tuple[tuple[int, int, int, int], ...]
    rows_checked: tuple[int, ...]
    partial: bool
    superspaces_per_row: int

    def to_json_dict(self) -> dict:
        return {
            "params": {"m": self.m, "l": self.l, "k": self.k, "q": self.q},
            "equal": self.equal,
            "partial": self.partial,
            "rows_checked": list(self.rows_checked),
            "superspaces_per_row": self.superspaces_per_row,
            "mismatches": [list(x) for x in self.mismatches],
        }


def verify_closed_form(m: int, l: int, k: int, q: int,
                       budget: int = 5_000_000) -> ClosedFormReport:
    """Compare closed-form and brute-force matrices entrywise.

    When the total superspace count exceeds the budget only a prefix of the
    rows is checked and the report is marked partial.
    """
    closed = closed_form_matrix(m, l, k, q)
    per_row = gaussian_binomial(m * l - 2, k - 2, q)
    n_rows = len(closed.row_labels)
    max_rows = n_rows if per_row * n_rows <= budget else max(1, budget // per_row)
    subset = list(range(min(n_rows, max_rows)))
    brute = brute_force_matrix(m, l, k, q, row_subset=subset)
    # rows past the checked prefix are zero in brute
    mism = [d for d in closed.to_labeled().diff(brute.to_labeled())
            if d[0] < len(subset)]
    return ClosedFormReport(m, l, k, q, not mism, tuple(mism), tuple(subset),
                            len(subset) < n_rows, per_row)
