"""Construction and verification of group divisible designs over GF(q).

Designs live on GF(q)^(ml) with the Desarguesian l-spread as group set and
are stored either explicitly (block multiset) or implicitly (orbit labels
with multiplicities, expanded lazily).  Verification is exact counting:
full sweeps tally every 2-subspace covered by every block; sampled sweeps
count the blocks through seeded-random 2-subspaces, for explicit designs by
testing every block and for implicit designs once per GL(m, q^l)-orbit of
2-subspaces, as that orbit's incidence row dotted with the design's label
weights.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterator, Sequence

from . import incidence
from .atlas import GlAtlas, OrbitLabel, gl_atlas
from .singer import n_orbits_with_stabilizer, singer_action
from .subspaces import Subspace, gaussian_binomial, iter_rref_bases, vector_ops
# Not called here; perfbench/spans.py still traces it under this module.
from .subspaces import iter_superspace_bases  # noqa: F401

FORMAT_VERSION = 1
EXPANSION_BUDGET = 2_000_000
PAIR_SWEEP_BUDGET = 3_000_000


# ---------------------------------------------------------------------------
# block sources and design instances

@dataclass(frozen=True)
class LabelWeight:
    label: OrbitLabel
    multiplicity: int


@dataclass(frozen=True)
class ImplicitBlocks:
    """Blocks given as orbit labels over the (m, l) structure."""

    m: int
    l: int
    k: int
    labels: tuple[LabelWeight, ...]        # mixed-class k-orbit labels
    line_labels: tuple[LabelWeight, ...]   # span-1 labels, any dimension
    omega_kk: bool


@dataclass(frozen=True)
class ExplicitBlocks:
    """Blocks as a canonical-sorted multiset of (rows, multiplicity)."""

    items: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class DesignInstance:
    """A block collection with header metadata.

    kind is one of gdd / design / pbd / mixed; "mixed" marks a collection
    whose two spread classes of 2-subspaces carry different coverage.
    """

    q: int
    v: int
    kind: str
    K: tuple[int, ...]
    claimed_lambda: int | None
    blocks: ImplicitBlocks | ExplicitBlocks
    groups: tuple[Subspace, ...] | None = None
    claimed_lambda_by_class: tuple[tuple[str, int], ...] | None = None


def make_explicit(items: Iterator[tuple[tuple[int, ...], int]]) -> ExplicitBlocks:
    merged: dict[tuple[int, ...], int] = {}
    for rows, mult in items:
        merged[rows] = merged.get(rows, 0) + mult
    return ExplicitBlocks(tuple(sorted(merged.items())))


def block_count(design: DesignInstance) -> int:
    """Exact number of blocks (with multiplicity), without expansion."""
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        return sum(m for _, m in blocks.items)
    atlas = gl_atlas(blocks.m, blocks.l, design.q)
    total = 0
    for lw in blocks.labels:
        total += lw.multiplicity * atlas.label_orbit_size(lw.label)
    for lw in blocks.line_labels:
        total += lw.multiplicity * atlas.label_orbit_size(lw.label)
    if blocks.omega_kk:
        total += atlas.full_class_size(blocks.k)
    return total


def is_simple(design: DesignInstance) -> bool:
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        return all(m == 1 for _, m in blocks.items)
    weights = [lw.multiplicity for lw in blocks.labels + blocks.line_labels]
    return all(w == 1 for w in weights)


def expand_blocks(design: DesignInstance,
                  budget: int = EXPANSION_BUDGET) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stream (canonical rows, multiplicity) for every block.

    Implicit mixed-class labels are expanded by a single labeled sweep over
    all k-subspaces; span-1 labels expand structurally along the spread.
    """
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        yield from blocks.items
        return
    q, v = design.q, design.v
    atlas = gl_atlas(blocks.m, blocks.l, q)
    ops = vector_ops(q, v)
    for lw in blocks.line_labels:
        members = list(atlas.singer.cycle(lw.label.rep_rows))
        for gen in _spread_generators(atlas):
            for member in members:
                yield ops.rref(atlas.line_rows(member, gen)), lw.multiplicity
    wanted = _label_weights(blocks)
    if not wanted:
        return
    total = gaussian_binomial(v, blocks.k, q)
    if total > budget:
        raise ValueError(
            f"expansion needs a sweep over {total} subspaces (budget {budget}); "
            "use sampled verification")
    for rows, key in atlas.label_keys(iter_rref_bases(v, blocks.k, q)):
        mult = wanted.get(key)
        if mult:
            yield rows, mult


def _label_weights(blocks: ImplicitBlocks) -> dict[tuple, int]:
    """Multiplicity of each k-orbit of an implicit design, by label key.

    The mixed labels and, with omega_kk, the span-k orbit ("full", k).
    """
    weights = {lw.label.key(): lw.multiplicity for lw in blocks.labels}
    if blocks.omega_kk:
        weights[("full", blocks.k)] = 1
    return weights


def _spread_generators(atlas: GlAtlas) -> list[tuple[int, ...]]:
    """One generator vector in GF(q^l)^m per Desarguesian spread line."""
    m, Q = atlas.m, atlas.Q
    gens = []
    for lead in range(m):
        tail = m - lead - 1
        for packed in range(Q ** tail):
            vec = [0] * lead + [1]
            rest = packed
            for _ in range(tail):
                rest, c = divmod(rest, Q)
                vec.append(c)
            gens.append(tuple(vec))
    return gens


def desarguesian_spread(m: int, l: int, q: int) -> list[Subspace]:
    """The GF(q^l)-lines of GF(q^l)^m as l-subspaces of GF(q)^(ml)."""
    atlas = gl_atlas(m, l, q)
    powers = [q ** t for t in range(l)]  # 1, w, ..., w^(l-1) in GF(q)^l
    return [Subspace.span(q, atlas.v, atlas.line_rows(powers, gen))
            for gen in _spread_generators(atlas)]


# ---------------------------------------------------------------------------
# GDD construction

@dataclass(frozen=True)
class GddSelection:
    """Orbit multiplicities w_(r,u) in {0..n_(r+1,u)} plus the span-k flag."""

    weights: tuple[tuple[tuple[int, int], int], ...]  # ((r, u), w) pairs
    omega_kk: bool = False

    @staticmethod
    def of(weights: dict[tuple[int, int], int] | None = None,
           omega_kk: bool = False) -> "GddSelection":
        weights = weights or {}
        return GddSelection(tuple(sorted(weights.items())), omega_kk)

    def validate(self, m: int, l: int, k: int, q: int) -> None:
        if not 3 <= k <= min(m + 1, l):
            raise ValueError(f"k={k} outside 3..min(m+1, l)")
        for (r, u), w in self.weights:
            if not 2 <= r <= k - 1:
                raise ValueError(f"selection r={r} outside 2..k-1")
            if math.gcd(r + 1, l) % u:
                raise ValueError(f"u={u} does not divide gcd(r+1, l)")
            bound = n_orbits_with_stabilizer(r + 1, u, l, q)
            if not 0 <= w <= bound:
                raise ValueError(
                    f"w_({r},{u})={w} outside 0..{bound} available orbits")
        if self.omega_kk and k > m:
            raise ValueError(
                "the span-k orbit exists only for k <= m; w is forced to 0")


def gdd_lambda(selection: GddSelection, m: int, l: int, k: int, q: int) -> int:
    """The coverage count of the group divisible design built from a selection."""
    selection.validate(m, l, k, q)
    Q = q ** l
    lam = 0
    for (r, u), w in selection.weights:
        if w == 0:
            continue
        num = (q ** k - 1) * (q ** k - q)
        for j in range(2, k - 1):
            num *= Q ** m - Q ** j
        den = (q ** u - 1)
        for j in range(r + 1, k):
            den *= q ** k - q ** j
        assert num % den == 0
        lam += w * (num // den)
    if selection.omega_kk:
        num = 1
        den = 1
        for j in range(2, k):
            num *= q ** ((m - j) * l) - 1
            den *= q ** (k - j) - 1
        assert num % den == 0
        lam += q ** ((l - 1) * (k * (k - 1) // 2 - 1)) * (num // den)
    return lam


def build_gdd(m: int, l: int, k: int, q: int, selection: GddSelection,
              chosen: dict[tuple[int, int], Sequence[int]] | None = None,
              ) -> DesignInstance:
    """Simple q-GDD over the Desarguesian spread from an orbit selection.

    For each (r, u) the first w_(r,u) orbit labels in canonical order are
    taken with multiplicity 1; `chosen` overrides the default with explicit
    indices into the (r, u) label list, for exploring alternative designs.
    Distinct orbits keep the design simple.
    """
    selection.validate(m, l, k, q)
    atlas = gl_atlas(m, l, q)
    labels = []
    for (r, u), w in selection.weights:
        if w == 0:
            continue
        available = [rep for rep in atlas.representatives(k, r) if rep.u == u]
        picks = range(w)
        if chosen and (r, u) in chosen:
            picks = chosen[(r, u)]
            if len(set(picks)) != w:
                raise ValueError(
                    f"chosen indices for ({r},{u}) must be {w} distinct values")
        for i in picks:
            labels.append(LabelWeight(available[i].label, 1))
    blocks = ImplicitBlocks(m, l, k, tuple(labels), (), selection.omega_kk)
    return DesignInstance(
        q=q, v=m * l, kind="gdd", K=(k,),
        claimed_lambda=gdd_lambda(selection, m, l, k, q),
        blocks=blocks, groups=tuple(desarguesian_spread(m, l, q)))


# ---------------------------------------------------------------------------
# pair keys and coverage sweeps

@lru_cache(maxsize=None)
def _coeff_pair_masks(d: int) -> tuple[tuple[int, int, int], ...]:
    """Coefficient 2-subspaces of GF(2)^d as triples of nonzero masks."""
    return tuple((a[0], a[1], a[0] ^ a[1]) for a in iter_rref_bases(d, 2, 2))


@lru_cache(maxsize=None)
def _coeff_pair_rows(d: int, q: int) -> tuple[tuple[int, ...], ...]:
    return tuple(iter_rref_bases(d, 2, q))


def block_pair_keys(rows: tuple[int, ...], q: int, v: int) -> Iterator[tuple]:
    """Keys of the 2-subspaces inside the block spanned by rows.

    Over GF(2) the key is the sorted triple of nonzero vectors; otherwise
    the canonical basis rows.  Keys are only compared against keys produced
    by this module.
    """
    d = len(rows)
    if q == 2:
        vs = [0] * (1 << d)
        for i, r in enumerate(rows):
            base = 1 << i
            for mask in range(base):
                vs[base + mask] = vs[mask] ^ r
        for m1, m2, m3 in _coeff_pair_masks(d):
            a, b, c = vs[m1], vs[m2], vs[m3]
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            yield (a, b, c)
    else:
        ops = vector_ops(q, v)
        for coeff in _coeff_pair_rows(d, q):
            ra = _combine(coeff[0], rows, ops)
            rb = _combine(coeff[1], rows, ops)
            yield ops.rref((ra, rb))


def _combine(coeff_row: int, rows: Sequence[int], ops) -> int:
    out = 0
    q = ops.q
    j = 0
    while coeff_row:
        coeff_row, c = divmod(coeff_row, q)
        if c:
            out = ops.add(out, ops.smul(c, rows[j]))
        j += 1
    return out


def pair_key_of_rows(rows: tuple[int, ...], q: int, v: int) -> tuple:
    """Key of the 2-subspace with the given canonical basis rows."""
    if q == 2:
        a, b = rows
        return tuple(sorted((a, b, a ^ b)))
    return tuple(rows)


def _sweep_chunk(args) -> tuple[Counter, int]:
    """Pair-key tally and block count of (rows, multiplicity) items."""
    items, q, v = args
    counts: Counter = Counter()
    n_blocks = 0
    for rows, mult in items:
        n_blocks += mult
        for key in block_pair_keys(rows, q, v):
            counts[key] += mult
    return counts, n_blocks


def coverage_counter(design: DesignInstance, threads: int = 1,
                     budget: int = EXPANSION_BUDGET) -> tuple[Counter, int]:
    """Pair-coverage counter and block count by full expansion.

    threads > 1 splits the blocks over at most os.cpu_count() processes.
    """
    q, v = design.q, design.v
    expanded = expand_blocks(design, budget=budget)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1:
        return _sweep_chunk((expanded, q, v))
    blocks = list(expanded)
    chunk_size = max(1, (len(blocks) + workers - 1) // workers)
    chunks = [(blocks[i:i + chunk_size], q, v)
              for i in range(0, len(blocks), chunk_size)]
    counts: Counter = Counter()
    n_blocks = 0
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, n in pool.map(_sweep_chunk, chunks):
                counts.update(part)
                n_blocks += n
    except OSError:  # pragma: no cover - process pools unavailable
        return _sweep_chunk((blocks, q, v))
    return counts, n_blocks


def group_pair_keys(groups: Sequence[Subspace]) -> set[tuple]:
    keys: set[tuple] = set()
    for g in groups:
        keys.update(block_pair_keys(g.rows, g.q, g.v))
    return keys


def _design_groups(design: DesignInstance) -> tuple[Subspace, ...] | None:
    if design.groups:
        return design.groups
    if isinstance(design.blocks, ImplicitBlocks):
        b = design.blocks
        return tuple(desarguesian_spread(b.m, b.l, design.q))
    return None


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    mode: str
    kind: str
    block_count: int
    simple: bool
    lambda_by_class: tuple[tuple[str, int | None], ...]
    pair_counts: tuple[tuple[str, int], ...]
    checked: int
    failures: tuple[dict, ...]
    sample: tuple[int, int] | None = None  # (N, seed)

    def observed_lambda(self, cls: str = "all") -> int | None:
        for name, lam in self.lambda_by_class:
            if name == cls:
                return lam
        return None

    def pair_count(self, cls: str) -> int:
        for name, n in self.pair_counts:
            if name == cls:
                return n
        return 0

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "kind": self.kind,
            "block_count": self.block_count,
            "simple": self.simple,
            "lambda_by_class": {k: v for k, v in self.lambda_by_class},
            "pair_counts": {k: v for k, v in self.pair_counts},
            "checked": self.checked,
            "failures": list(self.failures),
            "sample": list(self.sample) if self.sample else None,
        }


def _expected_by_class(design: DesignInstance) -> dict[str, int | None]:
    """Expected coverage per 2-subspace class given the design kind."""
    lam = design.claimed_lambda
    if design.kind == "gdd":
        return {"span1": 0, "span2": lam, "all": None}
    if design.kind == "mixed":
        by = dict(design.claimed_lambda_by_class or ())
        return {"span1": by.get("span1"), "span2": by.get("span2"), "all": None}
    return {"span1": lam, "span2": lam, "all": lam}


class _ClassTally:
    """Per-class coverage tallies with capped deviation witnesses.

    The classes are span1 (inside a group) and span2, or all without groups.
    """

    def __init__(self, design: DesignInstance):
        self.design = design
        self.expected = _expected_by_class(design)
        groups = _design_groups(design)
        self.group_keys = group_pair_keys(groups) if groups else None
        self.counts: dict[str, int] = {}
        self.values: dict[str, set[int]] = {}
        self.first: dict[str, int] = {}
        self.failures: list[dict] = []

    def record(self, key: tuple, got: int) -> None:
        if self.group_keys is None:
            cls = "all"
        else:
            cls = "span1" if key in self.group_keys else "span2"
        self.counts[cls] = self.counts.get(cls, 0) + 1
        self.values.setdefault(cls, set()).add(got)
        want = self.expected.get(cls)
        if want is None:
            want = self.first.setdefault(cls, got)
        if got != want and len(self.failures) < 10:
            self.failures.append({"pair_key": [int(x) for x in key],
                                  "class": cls, "count": got,
                                  "expected": want})

    def report(self, mode: str, n_blocks: int,
               sample: tuple[int, int] | None = None) -> VerificationReport:
        lambda_by_class = []
        passed = True
        for cls in sorted(self.counts):
            vals = self.values[cls]
            lam = next(iter(vals)) if len(vals) == 1 else None
            lambda_by_class.append((cls, lam))
            want = self.expected.get(cls)
            if want is None:
                if lam is None:
                    passed = False
            elif lam != want:
                passed = False
        return VerificationReport(
            passed=passed, mode=mode, kind=self.design.kind, block_count=n_blocks,
            simple=is_simple(self.design), lambda_by_class=tuple(lambda_by_class),
            pair_counts=tuple(sorted(self.counts.items())),
            checked=sum(self.counts.values()), failures=tuple(self.failures),
            sample=sample)


def verify_design(design: DesignInstance, mode: str = "full",
                  sample: int = 10_000, seed: int = 0,
                  threads: int = 1,
                  budget: int = EXPANSION_BUDGET) -> VerificationReport:
    """Check 2-subspace coverage against the design's claims.

    Full mode sweeps every block and every 2-subspace of the ambient space;
    sampled mode draws sample >= 1 seeded-random 2-subspaces.  An implicit
    design is a union of GL(m, q^l)-orbits, so the coverage of a sampled
    2-subspace is counted once per orbit of 2-subspaces and reused for the
    others; explicit blocks are tested one by one for every sample.
    """
    if mode == "full":
        return _verify_full(design, threads, budget)
    if mode == "sampled":
        if sample < 1:
            raise ValueError(f"sampled verification needs sample >= 1, got {sample}")
        return _verify_sampled(design, sample, seed)
    raise ValueError(f"unknown verification mode {mode!r}")


def verify_gdd(design: DesignInstance, mode: str = "full",
               sample: int = 10_000, seed: int = 0, threads: int = 1,
               budget: int = EXPANSION_BUDGET) -> VerificationReport:
    """verify_design plus the group-partition invariant check."""
    if design.kind != "gdd":
        raise ValueError("verify_gdd needs a gdd instance")
    groups = _design_groups(design)
    if not groups:
        raise ValueError("gdd instance has no group set")
    _check_groups_partition(design.q, design.v, groups)
    return verify_design(design, mode=mode, sample=sample, seed=seed,
                         threads=threads, budget=budget)


def _check_groups_partition(q: int, v: int, groups: Sequence[Subspace]) -> None:
    total = sum(q ** g.dim - 1 for g in groups)
    if total != q ** v - 1:
        raise ValueError("groups do not cover the 1-subspaces exactly once")
    seen: set[int] = set()
    for g in groups:
        for x in g.vectors():
            if x:
                if x in seen:
                    raise ValueError("groups overlap in a nonzero vector")
                seen.add(x)


def _verify_full(design: DesignInstance, threads: int,
                 budget: int) -> VerificationReport:
    q, v = design.q, design.v
    n_pairs = gaussian_binomial(v, 2, q)
    if n_pairs > PAIR_SWEEP_BUDGET:
        raise ValueError(
            f"full verification sweeps {n_pairs} 2-subspaces; use sampled mode")
    counts, n_blocks = coverage_counter(design, threads, budget)
    tally = _ClassTally(design)
    for rows in iter_rref_bases(v, 2, q):
        key = pair_key_of_rows(rows, q, v)
        tally.record(key, counts.get(key, 0))
    return tally.report("full", n_blocks)


def _random_2subspace(rng: Random, q: int, v: int) -> tuple[int, ...]:
    ops = vector_ops(q, v)
    while True:
        a = rng.randrange(1, q ** v)
        b = rng.randrange(1, q ** v)
        rows = ops.rref((a, b))
        if len(rows) == 2:
            return rows


def _verify_sampled(design: DesignInstance, sample: int,
                    seed: int) -> VerificationReport:
    q, v = design.q, design.v
    tally = _ClassTally(design)
    rng = Random(seed)
    if isinstance(design.blocks, ImplicitBlocks):
        counter = _ImplicitCoverage(design)
    else:
        counter = _ExplicitCoverage(design)
    for _ in range(sample):
        rows = _random_2subspace(rng, q, v)
        tally.record(pair_key_of_rows(rows, q, v), counter.coverage(rows))
    return tally.report("sampled", block_count(design), sample=(sample, seed))


class _ExplicitCoverage:
    def __init__(self, design: DesignInstance):
        self.items = design.blocks.items
        self.q, self.v = design.q, design.v

    def coverage(self, rows: tuple[int, ...]) -> int:
        q, v = self.q, self.v
        total = 0
        for block_rows, mult in self.items:
            block = Subspace(q, v, block_rows)
            if all(block.contains_vector(r) for r in rows):
                total += mult
        return total


class _ImplicitCoverage:
    """Coverage of a 2-subspace U by an implicit design, counted once per orbit.

    The design is a union of G = GL(m, q^l)-orbits: each mixed label and the
    span-k label is one G-orbit of k-subspaces, and line labels, expanded
    along every spread line, are G-invariant too.  So the number of blocks
    through U depends only on the G-orbit of U, which label_key_rows names:
    ("full", 2) for the span-2 pairs, which form one orbit, and
    ("line", 2, Singer rep of W) for a pair U = W.x inside a spread line.
    Each key is counted once per instance, that is once per verification
    call, as U's row of the incidence matrix dotted with the label weights.
    The span-2 row is streamed (incidence.row_coverage).  The one nonzero
    mixed entry of the row of W.x is the r=1 diagonal entry, a closed form
    for every k, in the column of W's label.  Line blocks are counted on
    the representative W.
    """

    def __init__(self, design: DesignInstance):
        blocks = design.blocks
        self.atlas = gl_atlas(blocks.m, blocks.l, design.q)
        self.k = blocks.k
        self.weights = _label_weights(blocks)
        self.line_weights = blocks.line_labels
        self.q, self.v = design.q, design.v
        self.memo: dict[tuple, int] = {}

    def coverage(self, rows: tuple[int, ...]) -> int:
        key = self.atlas.label_key_rows(rows)
        count = self.memo.get(key)
        if count is None:
            count = self.memo[key] = self._count(rows, key)
        return count

    def _count(self, rows: tuple[int, ...], key: tuple) -> int:
        atlas, weights, k = self.atlas, self.weights, self.k
        if key[0] == "full":
            # line blocks live inside single spread lines; span-2 pairs do not
            if not weights:
                return 0
            row = incidence.row_coverage(atlas, Subspace(self.q, self.v, rows), k)
            return sum(weights.get(col, 0) * n for col, n in row.items())
        rep = key[2]
        total = self._line_coverage(rep)
        w = weights.get(("mixed", k, 1, rep), 0)
        if w:
            total += w * incidence.diagonal_entry(atlas.m, atlas.l, k, self.q)
        return total

    def _line_coverage(self, rep: tuple[int, ...]) -> int:
        """Line blocks through W.x, for W with Singer representative rep."""
        atlas = self.atlas
        total = 0
        for lw in self.line_weights:
            if lw.label.dim == 2:
                if lw.label.rep_rows == rep:
                    total += lw.multiplicity
                continue
            for member in atlas.singer.cycle(lw.label.rep_rows):
                member_sub = Subspace(atlas.q, atlas.l, member)
                if all(member_sub.contains_vector(r) for r in rep):
                    total += lw.multiplicity
        return total

# ---------------------------------------------------------------------------
# pairwise balanced designs

def h_orbit_decomposition(seed: DesignInstance) -> list[LabelWeight]:
    """Decompose an explicit design on GF(q)^l into Singer orbits.

    Raises if the block multiset is not a union of whole orbits with uniform
    multiplicity (the design is then not Singer-invariant).
    """
    if not isinstance(seed.blocks, ExplicitBlocks):
        raise ValueError("seed decomposition needs explicit blocks")
    action = singer_action(seed.v, seed.q)
    remaining = dict(seed.blocks.items)
    out: list[LabelWeight] = []
    while remaining:
        rows = next(iter(sorted(remaining)))
        orbit = action.orbit_containing(rows)
        members = list(action.cycle(rows))
        mults = {remaining.get(m, 0) for m in members}
        if len(mults) != 1:
            raise ValueError(
                "seed is not Singer-invariant: orbit with mixed multiplicities")
        mult = mults.pop()
        for m in members:
            remaining.pop(m, None)
        out.append(LabelWeight(OrbitLabel(orbit.d, 1, None, orbit.rep.rows), mult))
    out.sort(key=lambda lw: (lw.label.dim, lw.label.rep_rows))
    return out


def build_pbd(seed: DesignInstance, m: int, k: int,
              selection: GddSelection) -> DesignInstance:
    """Combine a Singer-invariant seed on GF(q)^l with a GDD on GF(q)^(ml).

    The seed's orbit representatives W are embedded as the orbits of W.Y_1;
    together with the GDD blocks this covers span-1 pairs with the seed's
    coverage and span-2 pairs with the GDD's.  The output is a genuine
    pairwise balanced design exactly when the two coverages agree, and is
    marked "mixed" otherwise.
    """
    l = seed.v
    q = seed.q
    if seed.kind not in ("design", "pbd"):
        raise ValueError("seed must be a design or pbd instance")
    if seed.claimed_lambda is None:
        raise ValueError("seed must claim a coverage count")
    orbit_weights = h_orbit_decomposition(seed)
    gdd = build_gdd(m, l, k, q, selection)
    lam_seed = seed.claimed_lambda
    lam_gdd = gdd.claimed_lambda
    blocks = ImplicitBlocks(
        m, l, k, gdd.blocks.labels, tuple(orbit_weights),
        gdd.blocks.omega_kk)
    K = tuple(sorted(set(seed.K) | {k}))
    if lam_seed == lam_gdd:
        return DesignInstance(q=q, v=m * l, kind="pbd", K=K,
                              claimed_lambda=lam_seed, blocks=blocks)
    return DesignInstance(q=q, v=m * l, kind="mixed", K=K,
                          claimed_lambda=None, blocks=blocks,
                          claimed_lambda_by_class=(("span1", lam_seed),
                                                   ("span2", lam_gdd)))


# ---------------------------------------------------------------------------
# breaking up blocks

def break_blocks(pbd: DesignInstance,
                 ingredients: dict[int, DesignInstance],
                 budget: int = EXPANSION_BUDGET) -> DesignInstance:
    """Replace every block by a copy of an ingredient design on it.

    Each ingredient for dimension u must be a 2-design on GF(q)^u with a
    common block dimension k and common coverage mu; the result covers every
    2-subspace lambda * mu times.
    """
    mus = set()
    ks = set()
    for u in pbd.K:
        ing = ingredients.get(u)
        if ing is None:
            raise ValueError(f"no ingredient for block dimension {u}")
        if ing.v != u or ing.q != pbd.q:
            raise ValueError(f"ingredient for u={u} lives on the wrong space")
        if ing.claimed_lambda is None:
            raise ValueError("ingredients must claim a coverage count")
        if len(ing.K) != 1:
            raise ValueError("ingredients must have a single block dimension")
        if ing.K[0] > u:
            raise ValueError(f"ingredient block dimension exceeds u={u}")
        mus.add(ing.claimed_lambda)
        ks.add(ing.K[0])
    if len(mus) != 1 or len(ks) != 1:
        raise ValueError("ingredients must share mu and k")
    mu = mus.pop()
    k_out = ks.pop()
    if pbd.claimed_lambda is None:
        raise ValueError("the input design must claim a coverage count")
    q, v = pbd.q, pbd.v
    ops = vector_ops(q, v)
    expanded_ing = {u: list(expand_blocks(ingredients[u], budget=budget))
                    for u in pbd.K}

    def transplanted() -> Iterator[tuple[tuple[int, ...], int]]:
        for rows, mult in expand_blocks(pbd, budget=budget):
            u = len(rows)
            for ing_rows, ing_mult in expanded_ing[u]:
                image = [_combine(c, rows, ops) for c in ing_rows]
                yield ops.rref(image), mult * ing_mult

    return DesignInstance(
        q=q, v=v, kind="design", K=(k_out,),
        claimed_lambda=pbd.claimed_lambda * mu,
        blocks=make_explicit(transplanted()))


# ---------------------------------------------------------------------------
# filling holes

def canonical_hole(q: int, g_dim: int, n: int) -> Subspace:
    """The last-n-coordinates subspace of GF(q)^(g_dim + n)."""
    ops = vector_ops(q, g_dim + n)
    return Subspace(q, g_dim + n, tuple(ops.qpow[g_dim + j] for j in range(n)))


def fill_holes(gdd: DesignInstance, master: DesignInstance,
               hole_dim: int, hole: Subspace | None = None,
               verify_mode: str = "full", threads: int = 1,
               budget: int = EXPANSION_BUDGET,
               sample: int = 10_000, seed: int = 0,
               ) -> tuple[DesignInstance, VerificationReport]:
    """Glue one master-design copy per group, all sharing a common hole.

    Preconditions are validated before assembly; the assembled collection is
    never trusted and is re-verified before being returned, with the report
    attached.  The hole defaults to the last hole_dim coordinates of the
    master's space.
    """
    if gdd.kind != "gdd":
        raise ValueError("first input must be a gdd instance")
    groups = _design_groups(gdd)
    if not groups:
        raise ValueError("gdd instance has no group set")
    g_dims = {g.dim for g in groups}
    if len(g_dims) != 1:
        raise ValueError("groups must share one dimension")
    g_dim = g_dims.pop()
    if len(gdd.K) != 1:
        raise ValueError("the gdd must have a single block dimension")
    k = gdd.K[0]
    n = hole_dim
    q = gdd.q
    if master.q != q or master.v != g_dim + n:
        raise ValueError(
            f"master must live on GF({q})^{g_dim + n}, got GF({master.q})^{master.v}")
    if tuple(master.K) != (k,):
        raise ValueError("master and gdd must share the block dimension")
    if gdd.claimed_lambda is None or master.claimed_lambda is None:
        raise ValueError("both inputs must claim coverage counts")
    lam_expected = q ** (n * (k - 2)) * gdd.claimed_lambda
    if master.claimed_lambda != lam_expected:
        raise ValueError(
            f"master coverage {master.claimed_lambda} != q^(n(k-2)) * lambda "
            f"= {lam_expected}")
    if hole is None:
        hole = canonical_hole(q, g_dim, n)
    if hole.q != q or hole.v != master.v or hole.dim != n:
        raise ValueError("hole must be an n-subspace of the master's space")
    master_blocks = list(expand_blocks(master, budget=budget))
    hole_sub = hole
    inside = []
    outside = []
    for rows, mult in master_blocks:
        if all(hole_sub.contains_vector(r) for r in rows):
            inside.append((rows, mult))
        else:
            outside.append((rows, mult))
    _check_hole_restriction(q, n, k, hole_sub, inside, lam_expected)
    v_out = gdd.v + n
    ops_out = vector_ops(q, v_out)
    hole_images = [q ** (gdd.v + j) for j in range(n)]  # e_(v+j) rows
    hole_basis = list(hole_sub.rows)

    def hole_coords(row: int) -> int:
        """Coordinates of a hole vector w.r.t. the hole basis, packed."""
        ops_m = vector_ops(q, master.v)
        coeffs = []
        for b in hole_basis:
            c = ops_m.digit(row, ops_m.pivot(b))
            coeffs.append(c)
            if c:
                row = ops_m.sub_scaled(row, c, b)
        assert row == 0
        return sum(c * q ** j for j, c in enumerate(coeffs))

    def assembled() -> Iterator[tuple[tuple[int, ...], int]]:
        for rows, mult in expand_blocks(gdd, budget=budget):
            yield rows, mult  # digits extend with zeros into the new space
        for g in groups:
            basis_imgs = list(g.rows) + hole_images
            for rows, mult in outside:
                image = [_combine(r, basis_imgs, ops_out) for r in rows]
                yield ops_out.rref(image), mult
        for rows, mult in inside:
            image = [_combine(hole_coords(r), hole_images, ops_out)
                     for r in rows]
            yield ops_out.rref(image), mult

    out = DesignInstance(
        q=q, v=v_out, kind="design", K=(k,), claimed_lambda=lam_expected,
        blocks=make_explicit(assembled()))
    report = verify_design(out, mode=verify_mode, threads=threads,
                           budget=budget, sample=sample, seed=seed)
    return out, report


def _check_hole_restriction(q: int, n: int, k: int, hole: Subspace,
                            inside: list, lam: int) -> None:
    """The master blocks inside the hole must cover its 2-subspaces lam times."""
    if n < 2:
        if inside:
            raise ValueError("blocks inside a hole of dimension < 2")
        return
    counts, _ = _sweep_chunk((inside, q, hole.v))
    for key in block_pair_keys(hole.rows, q, hole.v):
        if counts.get(key, 0) != lam:
            raise ValueError(
                "master restricted to the hole is not a design with the "
                f"expected coverage {lam}")


# ---------------------------------------------------------------------------
# supplementary designs

def supplementary(design: DesignInstance,
                  budget: int = EXPANSION_BUDGET) -> DesignInstance:
    """All admissible blocks not in a simple design's block set.

    Each 2-subspace lies in sum_k [v-2, k-2]_q admissible blocks, so the
    supplement covers it that many times minus its coverage in the input.
    A gdd or mixed input keeps its groups and gives a mixed design with
    that difference claimed per class.
    """
    if not is_simple(design):
        raise ValueError("supplementary design needs a simple input")
    q, v = design.q, design.v
    chosen: set[tuple[int, ...]] = set()
    for rows, mult in expand_blocks(design, budget=budget):
        if rows in chosen:
            raise ValueError("supplementary design needs a simple input")
        chosen.add(rows)
    total = sum(gaussian_binomial(v, k, q) for k in design.K)
    if total > budget:
        raise ValueError("complement enumeration exceeds the budget")

    def complement() -> Iterator[tuple[tuple[int, ...], int]]:
        for k in design.K:
            for rows in iter_rref_bases(v, k, q):
                if rows not in chosen:
                    yield rows, 1

    through = sum(gaussian_binomial(v - 2, k - 2, q) for k in design.K)
    blocks = make_explicit(complement())
    if design.kind in ("gdd", "mixed"):
        expected = _expected_by_class(design)
        by_class = tuple((cls, through - expected[cls]) for cls in ("span1", "span2")
                         if expected[cls] is not None)
        return DesignInstance(q=q, v=v, kind="mixed", K=design.K,
                              claimed_lambda=None, blocks=blocks,
                              groups=_design_groups(design),
                              claimed_lambda_by_class=by_class or None)
    lam = design.claimed_lambda
    kind = "design" if len(design.K) == 1 else "pbd"
    return DesignInstance(q=q, v=v, kind=kind, K=design.K,
                          claimed_lambda=None if lam is None else through - lam,
                          blocks=blocks)


# ---------------------------------------------------------------------------
# serialization (format_version 1)

def subspace_to_lists(sub: Subspace) -> list[list[int]]:
    return sub.basis_lists()


def subspace_from_lists(rows: list[list[int]], q: int, v: int,
                        strict: bool = True) -> Subspace:
    from .subspaces import canonicalize
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(c) is int for c in r) for r in rows):
        raise ValueError("a basis must be a list of integer coordinate lists")
    sub = canonicalize(rows, q, v)
    if strict:
        packed = tuple(vector_ops(q, v).vector_from_coords(r) for r in rows)
        if packed != sub.rows:
            raise ValueError("basis rows are not in canonical echelon form")
    return sub


def design_to_json_dict(design: DesignInstance) -> dict:
    out: dict = {
        "format_version": FORMAT_VERSION,
        "q": design.q,
        "v": design.v,
        "kind": design.kind,
        "K": list(design.K),
        "claimed_lambda": design.claimed_lambda,
    }
    if design.claimed_lambda_by_class:
        out["claimed_lambda_by_class"] = {
            k: v for k, v in design.claimed_lambda_by_class}
    if design.groups:
        out["groups"] = [subspace_to_lists(g) for g in design.groups]
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        out["blocks"] = {"explicit": [
            {"basis": subspace_to_lists(Subspace(design.q, design.v, rows)),
             "multiplicity": mult}
            for rows, mult in blocks.items]}
    else:
        action = singer_action(blocks.l, design.q)

        def label_dict(lw: LabelWeight) -> dict:
            rep = Subspace(design.q, blocks.l, lw.label.rep_rows)
            d: dict = {"rep": subspace_to_lists(rep),
                       "multiplicity": lw.multiplicity}
            if lw.label.kind == "mixed":
                d["r"] = lw.label.r
            else:
                d["dim"] = lw.label.dim
            d["u"] = action.orbit_containing(lw.label.rep_rows).u
            return d

        out["blocks"] = {"implicit": {
            "m": blocks.m, "l": blocks.l, "k": blocks.k,
            "labels": [label_dict(lw) for lw in blocks.labels],
            "line_labels": [label_dict(lw) for lw in blocks.line_labels],
            "omega_kk": blocks.omega_kk,
        }}
    return out


def design_from_json_dict(data: dict, strict: bool = True) -> DesignInstance:
    if not isinstance(data, dict):
        raise ValueError("a design file must hold a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {data.get('format_version')}")
    q = _int_field(data, "q", 2)
    v = _int_field(data, "v", 1)
    kind = data.get("kind")
    if kind not in ("gdd", "design", "pbd", "mixed"):
        raise ValueError(f"unknown design kind {kind!r}")
    K = data.get("K")
    if not isinstance(K, list) or not K or any(
            type(k) is not int or k < 1 for k in K):
        raise ValueError(f"K must be a non-empty list of integers >= 1, got {K!r}")
    K = tuple(sorted(K))
    lam = None if data.get("claimed_lambda") is None else \
        _int_field(data, "claimed_lambda", 0)
    by_class = data.get("claimed_lambda_by_class")
    if by_class is not None and not isinstance(by_class, dict):
        raise ValueError("claimed_lambda_by_class must be an object")
    by_class_t = tuple(sorted((cls, _int_field(by_class, cls, 0))
                              for cls in by_class)) if by_class else None
    groups = None
    if data.get("groups"):
        if not isinstance(data["groups"], list):
            raise ValueError("groups must be a list of bases")
        groups = tuple(subspace_from_lists(g, q, v, strict)
                       for g in data["groups"])
    raw = data.get("blocks")
    if not isinstance(raw, dict) or not (
            "explicit" in raw or isinstance(raw.get("implicit"), dict)):
        raise ValueError("blocks must be an object holding explicit or implicit blocks")
    if "explicit" in raw:
        items = []
        for entry in _object_list(raw["explicit"], "explicit blocks"):
            sub = subspace_from_lists(entry.get("basis"), q, v, strict)
            if sub.dim not in K:
                raise ValueError(
                    f"explicit block of dimension {sub.dim} is not in K={list(K)}")
            items.append((sub.rows, _int_field(entry, "multiplicity", 1)))
        blocks: ImplicitBlocks | ExplicitBlocks = make_explicit(iter(items))
    else:
        imp = raw["implicit"]
        m, l, k = (_int_field(imp, name, 1) for name in ("m", "l", "k"))
        if m * l != v:
            raise ValueError("implicit structure does not match the ambient space")
        if strict and not 3 <= k <= min(m + 1, l):
            raise ValueError(f"implicit k={k} outside 3..min(m+1, l)")
        labels = []
        for entry in _object_list(imp["labels"], "labels"):
            r = _int_field(entry, "r", 1, k - 1)
            rep = _label_rep(entry, q, l, r + 1, strict)
            labels.append(LabelWeight(OrbitLabel(k, k - 1, r, rep),
                                      _int_field(entry, "multiplicity", 1)))
        line_labels = []
        for entry in _object_list(imp.get("line_labels", []), "line_labels"):
            dim = _int_field(entry, "dim", 1, l)
            rep = _label_rep(entry, q, l, dim, strict)
            line_labels.append(LabelWeight(OrbitLabel(dim, 1, None, rep),
                                           _int_field(entry, "multiplicity", 1)))
        blocks = ImplicitBlocks(m, l, k, tuple(labels), tuple(line_labels),
                                bool(imp.get("omega_kk", False)))
    design = DesignInstance(q=q, v=v, kind=kind, K=K, claimed_lambda=lam,
                            blocks=blocks, groups=groups,
                            claimed_lambda_by_class=by_class_t)
    if strict and kind == "gdd":
        g = _design_groups(design)
        if g:
            _check_groups_partition(q, v, g)
    return design


def _object_list(value, what: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ValueError(f"{what} must be a list of objects")
    return value


def _int_field(entry: dict, name: str, lo: int, hi: int | None = None) -> int:
    """entry[name] as an integer in lo..hi (no upper bound for hi=None)."""
    x = entry.get(name)
    if type(x) is not int or x < lo or (hi is not None and x > hi):
        bound = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise ValueError(f"{name} must be an integer {bound}, got {x!r}")
    return x


def _label_rep(entry: dict, q: int, l: int, dim: int,
               strict: bool) -> tuple[int, ...]:
    """Canonical rows of a label's representative, which must span dim."""
    rep = subspace_from_lists(entry.get("rep"), q, l, strict)
    if rep.dim != dim:
        raise ValueError(f"label representative has dimension {rep.dim}, "
                         f"expected {dim}")
    if strict:
        if _orbit_rep_check(q, l, rep.rows) != rep.rows:
            raise ValueError("label representative is not orbit-canonical")
        u = singer_action(l, q).orbit_containing(rep.rows).u
        if type(entry.get("u")) is not int or entry["u"] != u:
            raise ValueError(f"label u must be {u}, the Singer stabilizer exponent "
                             f"of its representative, got {entry.get('u')!r}")
    return rep.rows


def _orbit_rep_check(q: int, l: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    try:
        return singer_action(l, q).orbit_containing(rows).rep.rows
    except KeyError:
        raise ValueError("representative rows do not index a Singer orbit") from None
