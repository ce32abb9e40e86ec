"""The GL(m, q^l)-incidence machinery between 2-subspaces and k-subspaces.

Builds the block submatrix of the orbit incidence matrix whose columns are
the labeled orbit classes (span dimension 1, k-1, and k), both in closed
form and by brute-force superspace streaming, and checks the two against
each other entrywise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .atlas import GlAtlas, OrbitLabel, check_block_dim, gl_atlas
from .matrices import LabeledIntMatrix
from .singer import h_incidence_matrix
from .subspaces import Subspace, gaussian_binomial, iter_superspace_bases


@dataclass(frozen=True)
class AkMatrix:
    """Incidence block matrix: rows index 2-subspace orbits, columns k-orbits.

    Row order: the span-1 orbits sorted by (stabilizer, representative), then
    the single span-2 orbit.  Column order: span-1 orbits of k-subspaces,
    then the mixed blocks r = 1..k-1 (each sorted by (stabilizer,
    representative)), then the span-k orbit when k <= m.
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


def _row_and_col_labels(atlas: GlAtlas, k: int):
    l, m = atlas.l, atlas.m
    singer = atlas.singer
    rows = [OrbitLabel(2, 1, None, o.rep.rows)
            for o in singer.orbit_representatives(2)]
    rows.append(OrbitLabel(2, 2, None, None))
    cols: list[OrbitLabel] = []
    blocks: list[tuple[str, int, int]] = []
    start = 0
    line = [OrbitLabel(k, 1, None, o.rep.rows)
            for o in singer.orbit_representatives(k)]
    cols.extend(line)
    blocks.append(("line", start, len(cols)))
    for r in range(1, k):
        start = len(cols)
        cols.extend(OrbitLabel(k, k - 1, r, o.rep.rows)
                    for o in singer.orbit_representatives(r + 1))
        blocks.append((f"r={r}", start, len(cols)))
    if k <= m:
        start = len(cols)
        cols.append(OrbitLabel(k, k, None, None))
        blocks.append(("full", start, len(cols)))
    return tuple(rows), tuple(cols), tuple(blocks)


def closed_form_matrix(m: int, l: int, k: int, q: int) -> AkMatrix:
    """Assemble the incidence block matrix from the closed-form entries."""
    check_block_dim(m, l, k)
    atlas = gl_atlas(m, l, q)
    rows, cols, blocks = _row_and_col_labels(atlas, k)
    singer = atlas.singer
    two_orbits = singer.orbit_representatives(2)
    n2 = len(two_orbits)
    htilde = h_incidence_matrix(l, 2, k, q)
    e = diagonal_entry(m, l, k, q)
    entries: list[tuple[int, ...]] = []
    n_line = len(singer.orbit_representatives(k))
    for i in range(n2):
        row = list(htilde.entries[i])
        row.extend(e if j == i else 0 for j in range(n2))  # r=1 block
        for r in range(2, k):
            row.extend([0] * len(singer.orbit_representatives(r + 1)))
        if k <= m:
            row.append(0)
        entries.append(tuple(row))
    last = [0] * n_line
    last.extend(span1_row_entry(m, l, k, q, o.u) for o in two_orbits)
    for r in range(2, k):
        last.extend(mixed_row_entry(m, l, k, q, r, o.u)
                    for o in singer.orbit_representatives(r + 1))
    if k <= m:
        last.append(full_class_entry(m, l, k, q))
    entries.append(tuple(last))
    return AkMatrix(m, l, k, q, rows, cols, blocks, tuple(entries))


def realize_2row(atlas: GlAtlas, label: OrbitLabel) -> Subspace:
    """A concrete 2-subspace of GF(q)^(ml) carrying the given row label."""
    if label.dim != 2:
        raise ValueError("row labels are labels of 2-subspaces")
    if label.kind == "line":
        return atlas.realize_line_block(Subspace(atlas.q, atlas.l, label.rep_rows))
    return atlas.full_class_rep(2)


def row_coverage(atlas: GlAtlas, realized: Subspace, k: int) -> Counter:
    """Label-key counts over all k-superspaces of a realized 2-subspace."""
    return Counter(key for _, key in
                   atlas.label_keys(iter_superspace_bases(realized, k)))


def brute_force_matrix(m: int, l: int, k: int, q: int,
                       row_subset: list[int] | None = None) -> AkMatrix:
    """The same block matrix computed by streaming superspaces of each row."""
    check_block_dim(m, l, k)
    atlas = gl_atlas(m, l, q)
    rows, cols, blocks = _row_and_col_labels(atlas, k)
    col_index = {lb.key(): j for j, lb in enumerate(cols)}
    entries = []
    picked = range(len(rows)) if row_subset is None else row_subset
    picked_set = set(picked)
    for i, row_label in enumerate(rows):
        if i not in picked_set:
            entries.append(tuple([0] * len(cols)))
            continue
        counts = row_coverage(atlas, realize_2row(atlas, row_label), k)
        row = [0] * len(cols)
        for key, n in counts.items():
            if key[0] == "other":
                continue
            row[col_index[key]] = n
        entries.append(tuple(row))
    return AkMatrix(m, l, k, q, rows, cols, blocks, tuple(entries))


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
