"""Construction and verification of group divisible designs over GF(q).

Designs live on GF(q)^(ml) with the Desarguesian l-spread as group set and
are stored either explicitly (block multiset) or implicitly (orbit labels
with multiplicities, expanded lazily).  Verification is exact counting
over a stream of 2-subspaces, each keyed by its canonical basis rows: every
2-subspace in full mode, seeded-random ones in sampled mode.  The blocks
through each are read from one tally of the pairs inside every block, or,
for a sampled implicit design, from one exact block-side sum per
GL(m, q^l)-orbit of 2-subspaces over the pairs inside one block of each of
the design's own orbit labels.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from random import Random
from typing import Iterable, Iterator, Sequence

from . import incidence
from .atlas import GlAtlas, OrbitLabel, check_block_dim, gl_atlas
from .fields import unpack_coords
from .singer import n_orbits_with_stabilizer, singer_action
from .subspaces import Subspace, gaussian_binomial, iter_rref_bases, iter_rref_runs, vector_ops
# Not called here; perfbench/spans.py still traces it under this module.
from .subspaces import iter_superspace_bases  # noqa: F401

EXPANSION_BUDGET = 2_000_000
PAIR_SWEEP_BUDGET = 3_000_000
LABEL_BATCH = 4096  # drawn pairs labeled per label_keys stream


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
    return sum(lw.multiplicity * atlas.label_orbit_size(lw.label)
               for lw in _block_orbits(blocks))


def is_simple(design: DesignInstance) -> bool:
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        return all(m == 1 for _, m in blocks.items)
    return all(w == 1 for w in _orbit_weights(blocks).values())


def expand_blocks(design: DesignInstance) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stream (canonical rows, multiplicity) for every block: the flattening of the whole
    _block_runs stream, which raises first past EXPANSION_BUDGET (_check_sweep_budget)."""
    for tail, firsts, mult in _block_runs(design, (0, 1)):
        for x in firsts:
            yield (x, *tail), mult


def _block_runs(design: DesignInstance, shard: tuple[int, int]
                ) -> Iterator[tuple[tuple[int, ...], Sequence[int], int]]:
    """The blocks as runs (tail, first rows, multiplicity) of canonical blocks (x,) + tail,
    x in first rows: the tail is all rows but the first, which has the lowest pivot.

    Mixed labels are found by one labeled sweep, a run per run of iter_rref_runs and
    multiplicity; span-1 labels expand along the spread.  Explicit items and the line
    blocks of each spread line are grouped by tail and multiplicity (_item_runs): two
    spread lines meet in 0, so their blocks share no tail.  Shard (i, n) is one of n
    disjoint parts of the stream: the explicit items i, i + n, ..., the line blocks on
    spread lines i, i + n, ..., and the sweep's iter_rref_runs shard."""
    i, n = shard
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        yield from _item_runs(blocks.items[i::n])
        return
    _check_sweep_budget(design)
    q, v = design.q, design.v
    atlas = gl_atlas(blocks.m, blocks.l, q)
    ops = vector_ops(q, v)
    cycles = [(lw.multiplicity, list(atlas.singer.cycle(lw.label.rep_rows)))
              for lw in blocks.line_labels]
    for gen in _spread_generators(atlas)[i::n]:
        yield from _item_runs((ops.rref(atlas.line_rows(member, gen)), mult)
                              for mult, members in cycles for member in members)
    # the mixed labels and the span-k orbit, found by one labeled sweep
    picks = _swept_labels(blocks)
    if not picks:
        return
    for tail, firsts, keys in atlas.label_keys(iter_rref_runs(v, blocks.k, q, shard)):
        for mult, chosen in picks.items():
            run = list(compress(firsts, map(chosen.__contains__, keys)))
            if run:
                yield tail, run, mult


def _item_runs(items: Iterable[tuple[tuple[int, ...], int]]
               ) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """(rows, multiplicity) items as runs (tail, first rows, multiplicity), one per tail and
    multiplicity in order of first appearance: sorted items seldom share a tail in a row."""
    runs: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for rows, mult in items:
        runs.setdefault((rows[1:], mult), []).append(rows[0])
    for (tail, mult), firsts in runs.items():
        yield tail, firsts, mult


def _swept_labels(blocks: ImplicitBlocks) -> dict[int, set]:
    """Label keys by multiplicity of the block orbits found by the k-subspace sweep."""
    weights = {key: w for key, w in _orbit_weights(blocks).items() if key[0] != "line" and w}
    return {w: {key for key in weights if weights[key] == w} for w in set(weights.values())}


def _check_sweep_budget(design: DesignInstance) -> None:
    """Raise if expanding the design would sweep more than EXPANSION_BUDGET k-subspaces,
    the module constant as it reads at call time."""
    blocks = design.blocks
    if isinstance(blocks, ImplicitBlocks) and _swept_labels(blocks):
        total = gaussian_binomial(design.v, blocks.k, design.q)
        if total > EXPANSION_BUDGET:
            raise ValueError(
                f"expansion needs a sweep over {total} subspaces (budget {EXPANSION_BUDGET}); "
                "use sampled verification")


def _block_orbits(blocks: ImplicitBlocks) -> tuple[LabelWeight, ...]:
    """Every GL(m, q^l)-orbit of blocks of an implicit design, with multiplicity.

    The line labels (W.x over every nonzero x is one orbit), the mixed labels
    and, with omega_kk, the span-k orbit.
    """
    full = (LabelWeight(OrbitLabel(blocks.k, blocks.k, None, None), 1),)
    return blocks.line_labels + blocks.labels + (full if blocks.omega_kk else ())


def _orbit_weights(blocks: ImplicitBlocks) -> Counter:
    """Multiplicity of each block orbit by label key; a label listed twice adds up."""
    weights: Counter = Counter()
    for lw in _block_orbits(blocks):
        weights[lw.label.key()] += lw.multiplicity
    return weights


def _spread_generators(atlas: GlAtlas) -> list[tuple[int, ...]]:
    """One generator vector in GF(q^l)^m per Desarguesian spread line."""
    m, Q = atlas.m, atlas.Q
    gens = []
    for lead in range(m):
        tail = m - lead - 1
        for packed in range(Q ** tail):
            gens.append((0,) * lead + (1,) + unpack_coords(packed, Q, tail))
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
        check_block_dim(m, l, k)
        for (r, u), w in self.weights:
            if not 2 <= r <= k - 1:
                raise ValueError(f"selection r={r} outside 2..k-1")
            bound = n_orbits_with_stabilizer(r + 1, u, l, q)
            if not 0 <= w <= bound:
                raise ValueError(
                    f"w_({r},{u})={w} outside 0..{bound} available orbits")
        if self.omega_kk and k > m:
            raise ValueError(
                "the span-k orbit exists only for k <= m; w is forced to 0")


def gdd_lambda(selection: GddSelection, m: int, l: int, k: int, q: int) -> int:
    """The coverage count of the group divisible design built from a selection.

    The span-2 row of the incidence matrix dotted with the selection.
    """
    selection.validate(m, l, k, q)
    lam = sum(w * incidence.mixed_row_entry(m, l, k, q, r, u)
              for (r, u), w in selection.weights if w)
    if selection.omega_kk:
        lam += incidence.full_class_entry(m, l, k, q)
    return lam


def build_gdd(m: int, l: int, k: int, q: int, selection: GddSelection) -> DesignInstance:
    """Simple q-GDD over the Desarguesian spread from an orbit selection.

    The (r, u) class is read off the Singer catalogue: its orbits of
    (r+1)-subspaces of GF(q)^l with stabilizer GF(q^u)^*, in catalogue order.
    The first w_(r,u) of them give mixed labels, each taken with multiplicity
    1; distinct orbits keep the design simple.
    """
    lam = gdd_lambda(selection, m, l, k, q)
    singer = singer_action(l, q)
    labels = []
    for (r, u), w in selection.weights:
        orbits = [o for o in singer.orbit_representatives(r + 1) if o.u == u]
        for o in orbits[:w]:
            labels.append(LabelWeight(OrbitLabel(k, k - 1, r, o.rep.rows), 1))
    blocks = ImplicitBlocks(m, l, k, tuple(labels), (), selection.omega_kk)
    return DesignInstance(
        q=q, v=m * l, kind="gdd", K=(k,), claimed_lambda=lam,
        blocks=blocks, groups=tuple(desarguesian_spread(m, l, q)))


# ---------------------------------------------------------------------------
# pair keys and coverage sweeps

@lru_cache(maxsize=None)
def _pair_plan(d: int, q: int) -> tuple[list, list, list[int], list[int]]:
    """The 2-subspaces of blocks (x,) + tail of d rows, from the canonical bases (A, B) of
    the 2-subspaces of the coefficient space GF(q)^d, coordinate 0 for x: the pairs inside
    the tail, (A, B) // q, and the pairs through x, (c, B // q) for A = 1 + q·c, each an
    index pair into span(tail) in iter_rref_bases order; the indices they read, sorted;
    then rank, pair i of that order being rank[i] of the two chained."""
    pairs = list(iter_rref_bases(d, 2, q)) if d > 1 else []
    inside = [(a // q, b // q) for a, b in pairs if a % q == 0]
    through = [(a // q, b // q) for a, b in pairs if a % q]
    read = sorted(set(chain.from_iterable(inside + through)))
    order = sorted(range(len(pairs)), key=lambda j: pairs[j][0] % q)  # inside first
    return inside, through, read, sorted(range(len(order)), key=order.__getitem__)


def _span_at(q: int, v: int, rows: Sequence[int], read: Sequence[int]) -> dict[int, int]:
    """{c: span(rows)[c] for c in read}: past TABLE_CAP, where a whole span table costs a
    digit-by-digit add per entry, only the read combinations are formed (a run of k = 3
    at q = 343 reads 1027 of 117649)."""
    ops = vector_ops(q, v)
    return {c: reduce(ops.add, [ops.smul(c // q ** j % q, row) for j, row in enumerate(rows)])
            for c in read}


def _shifted(q: int, v: int, firsts: Sequence[int], c: int) -> list[int]:
    """[x + c for x in firsts] at odd p: a lookup per chunk when VectorOps.tables cut a
    row into at most two chunks, else VectorOps.add."""
    ops = vector_ops(q, v)
    C, n, add, _ = ops.tables or (0, 0, None, None)
    if add and n <= 2:
        lo, hi = add[c % C], add[c // C]
        return [hi[x // C] * C + lo[x % C] for x in firsts]
    return [ops.add(x, c) for x in firsts]


def _run_pair_keys(tail: Sequence[int], firsts: Sequence[int], q: int,
                   v: int) -> tuple[list[int], list[list[int]]]:
    """Packed keys a·q^v + b, (a, b) the canonical basis rows of a 2-subspace, of the
    pairs inside the canonical blocks (x,) + tail, x in firsts: the keys inside the
    tail, and one key list over firsts per pair through x.  x has the lowest pivot, so
    such a pair is (x + c, b): b in N(tail), the combinations of the tail with lowest
    nonzero coefficient 1, and c in span(tail) with coefficient 0 at b's leading row, as
    x + c is 0 at b's pivot.  A canonical coefficient basis has pivots 1, so its
    combination with the rows is the canonical basis of its image.  At p = 2 digits add
    by XOR, so (x + c)·q^v + b = x·q^v XOR (c·q^v + b)."""
    inside, through, read, _ = _pair_plan(len(tail) + 1, q)
    ops, qv = vector_ops(q, v), q ** v
    span = ops.span(tail) if q == 2 or ops.tables else _span_at(q, v, tail, read)
    shared = [span[a] * qv + span[b] for a, b in inside]
    if q % 2 == 0:
        heads = [x * qv for x in firsts]
        return shared, [[h ^ key for h in heads]
                        for key in [span[c] * qv + span[b] for c, b in through]]
    cols = {c: [y * qv for y in _shifted(q, v, firsts, span[c])] for c, _ in through}
    return shared, [[h + span[b] for h in cols[c]] for c, b in through]


def block_pair_keys(rows: tuple[int, ...], q: int, v: int) -> Iterator[tuple[int, int]]:
    """Canonical basis rows of each 2-subspace inside the block of canonical
    rows, in iter_rref_bases order: _run_pair_keys of a run of one."""
    if len(rows) < 2:
        return
    shared, keys = _run_pair_keys(rows[1:], rows[:1], q, v)
    flat = shared + [key for key, in keys]
    yield from map(divmod, map(flat.__getitem__, _pair_plan(len(rows), q)[-1]), repeat(q ** v))


def _sweep_shard(design: DesignInstance, shard: tuple[int, int]) -> tuple[Counter, int]:
    """The packed pair-key tally and the block count of a shard of _block_runs; a pool
    worker given the design itself, so any start method serves.  The key lists of runs
    of multiplicity 1 stream into one Counter.update, the others add with weight."""
    counts, n_blocks = Counter(), 0

    def singles() -> Iterator[list[list[int]]]:
        nonlocal n_blocks
        for tail, firsts, mult in _block_runs(design, shard):
            n_blocks += (weight := len(firsts) * mult)
            shared, keys = _run_pair_keys(tail, firsts, design.q, design.v)
            for key in shared:
                counts[key] += weight
            if mult == 1:
                yield keys
            else:
                for key in chain.from_iterable(keys):
                    counts[key] += mult

    counts.update(chain.from_iterable(chain.from_iterable(singles())))
    return counts, n_blocks


def coverage_counter(design: DesignInstance, threads: int = 1) -> tuple[Counter, int]:
    """Pair-coverage counter and block count by full expansion.  A 2-subspace with
    canonical basis rows (a, b) has the packed key a·q^v + b.  threads > 1 runs one
    process per shard, at most os.cpu_count(); only the tallies come back, summed in
    shard order.  EXPANSION_BUDGET is checked here, before any process starts."""
    _check_sweep_budget(design)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1:
        return _sweep_shard(design, (0, 1))
    shards = [(i, workers) for i in range(workers)]
    sweep = partial(_sweep_shard, design)
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _merge_tallies(pool.map(sweep, shards))
    except OSError:  # pragma: no cover - process pools unavailable
        return _merge_tallies(map(sweep, shards))


def _merge_tallies(parts: Iterable[tuple[Counter, int]]) -> tuple[Counter, int]:
    """Sum the packed-key tallies and block counts of _sweep_shard."""
    total, n_blocks = Counter(), 0
    for counts, n in parts:
        total.update(counts)
        n_blocks += n
    return total, n_blocks


def group_pair_keys(groups: Sequence[Subspace]) -> set[tuple]:
    """Keys of every 2-subspace inside a group, by brute force (test oracle)."""
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
        self.group_of = _group_index(design.q, design.v, groups) if groups else None
        self.counts: dict[str, int] = {}
        self.values: dict[str, set[int]] = {}
        self.first: dict[str, int] = {}
        self.failures: list[dict] = []

    def classify(self, rows: tuple[int, ...]) -> str:
        """span1 when both basis rows, hence the whole 2-subspace, lie in one group."""
        group_of = self.group_of
        if group_of is None:
            return "all"
        return "span1" if group_of[rows[0]] == group_of[rows[1]] else "span2"

    def record(self, rows: tuple[int, ...], got: int) -> None:
        cls = self.classify(rows)
        self.counts[cls] = self.counts.get(cls, 0) + 1
        self.values.setdefault(cls, set()).add(got)
        want = self.expected.get(cls)
        if want is None:
            want = self.first.setdefault(cls, got)
        if got != want and len(self.failures) < 10:
            key = rows
            if self.design.q == 2:  # witnesses name a binary pair by its three points
                a, b = rows
                key = sorted((a, b, a ^ b))
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
                  threads: int = 1) -> VerificationReport:
    """Check 2-subspace coverage against the design's claims.

    Full mode checks every 2-subspace of the ambient space; sampled mode
    draws sample >= 1 seeded-random 2-subspaces.  An implicit design is a
    union of GL(m, q^l)-orbits, so in sampled mode the drawn pairs are
    labeled by orbit in batched streams and each orbit's coverage is one
    exact block-side sum over the design's labels (_ImplicitCoverage), with
    no block expanded.  A label listed twice counts with the sum of its
    multiplicities in both modes.  Otherwise every block is expanded once into a pair tally.
    """
    if mode not in ("full", "sampled"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if mode == "sampled" and sample < 1:
        raise ValueError(f"sampled verification needs sample >= 1, got {sample}")
    q, v = design.q, design.v
    if v < 2:
        raise ValueError(f"verification needs v >= 2, got v={v}")
    tally = _ClassTally(design)  # checks the groups before any expensive work
    if mode == "full":
        n_pairs = gaussian_binomial(v, 2, q)
        if n_pairs > PAIR_SWEEP_BUDGET:
            raise ValueError(
                f"full verification sweeps {n_pairs} 2-subspaces; use sampled mode")
        pairs = iter_rref_bases(v, 2, q)
        drawn = None
    else:
        rng = Random(seed)
        pairs = (_random_2subspace(rng, q, v) for _ in range(sample))
        drawn = (sample, seed)
    if drawn and isinstance(design.blocks, ImplicitBlocks):
        counted = _ImplicitCoverage(design).coverage(pairs)
        n_blocks = block_count(design)
    else:
        counts, n_blocks = coverage_counter(design, threads)
        qv = q ** v
        counted = ((rows, counts[rows[0] * qv + rows[1]]) for rows in pairs)
    for rows, got in counted:
        tally.record(rows, got)
    return tally.report(mode, n_blocks, sample=drawn)


def verify_gdd(design: DesignInstance, mode: str = "full",
               sample: int = 10_000, seed: int = 0, threads: int = 1) -> VerificationReport:
    """verify_design on a gdd instance, which must carry groups.

    The verification itself checks that the groups partition the space.
    """
    if design.kind != "gdd":
        raise ValueError("verify_gdd needs a gdd instance")
    if not _design_groups(design):
        raise ValueError("gdd instance has no group set")
    return verify_design(design, mode=mode, sample=sample, seed=seed, threads=threads)


@lru_cache(maxsize=1)  # the loader's check and the verification share one build
def _group_index(q: int, v: int, groups: tuple[Subspace, ...]) -> dict[int, int]:
    """Index of the group holding each nonzero vector of GF(q)^v.

    Raises unless the groups partition the nonzero vectors.  The dict is
    cached and shared: do not change it.
    """
    if sum(q ** g.dim - 1 for g in groups) != q ** v - 1:
        raise ValueError("groups do not cover the 1-subspaces exactly once")
    index: dict[int, int] = {}
    for i, g in enumerate(groups):
        for x in g.vectors():
            if x and index.setdefault(x, i) != i:
                raise ValueError("groups overlap in a nonzero vector")
    return index


def _random_2subspace(rng: Random, q: int, v: int) -> tuple[int, ...]:
    ops = vector_ops(q, v)
    while True:
        a = rng.randrange(1, q ** v)
        b = rng.randrange(1, q ** v)
        rows = ops.rref((a, b))
        if len(rows) == 2:
            return rows


class _ImplicitCoverage:
    """Coverage of 2-subspaces by an implicit design, from the block side.

    The design is a union of G = GL(m, q^l)-orbits C of blocks (_block_orbits),
    so the number of blocks through a 2-subspace depends only on its G-orbit
    R, which label_keys names: ("full", 2) for the span-2 pairs and
    ("line", 2, Singer rep of W) for a pair W.x inside a spread line.
    Counting the pairs (U, B), U in R inside B in C, both ways gives the
    Kramer-Mesner identity A[R][C]·|R| = |C|·N(C, R), N(C, R) being the
    number of 2-subspaces of one block of C that lie in R.  by_key holds the
    exact sum_C w_C·|C|·N(C, R) / |R| for each R met, from one realized
    block per label, whatever v; any other R is covered 0 times.
    """

    def __init__(self, design: DesignInstance):
        blocks, q, v = design.blocks, design.q, design.v
        self.atlas = atlas = gl_atlas(blocks.m, blocks.l, q)
        incident: Counter = Counter()  # R -> sum_C w_C·|C|·N(C, R)
        for lw in _block_orbits(blocks):
            weight = lw.multiplicity * atlas.label_orbit_size(lw.label)
            if not weight:  # the span-k orbit is empty for k > m
                continue
            block = atlas.realize(lw.label)
            pairs = block_pair_keys(block.rows, q, v)
            for *_, keys in atlas.label_keys((rows[1:], rows[:1]) for rows in pairs):
                for key in keys:
                    incident[key] += weight
        self.by_key = {
            key: incidence._exact_div(n, atlas.label_orbit_size(_pair_label(key)),
                                      f"coverage of {key}")
            for key, n in incident.items()}

    def coverage(self, pairs: Iterable[tuple[int, ...]]
                 ) -> Iterator[tuple[tuple[int, ...], int]]:
        """(rows, blocks through span(rows)) over a stream of 2-subspace bases.

        The bases are labeled by orbit, LABEL_BATCH at a time, each batch in
        one label_keys stream of runs of one: drawn pairs seldom share a row.
        """
        by_key, pairs = self.by_key, iter(pairs)
        # a fresh stream per batch bounds the stream's row cache
        while batch := list(islice(pairs, LABEL_BATCH)):
            runs = self.atlas.label_keys((rows[1:], rows[:1]) for rows in batch)
            keys = chain.from_iterable(map(itemgetter(2), runs))
            yield from zip(batch, map(by_key.get, keys, repeat(0)))


def _pair_label(key: tuple) -> OrbitLabel:
    """The orbit label of a 2-subspace label key, ("full", 2) or ("line", 2, rep)."""
    return OrbitLabel(2, 2, None, None) if key[0] == "full" else OrbitLabel(2, 1, None, key[2])

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
        rows = min(remaining)
        members = list(action.cycle(rows))
        mults = {remaining.get(m, 0) for m in members}
        if len(mults) != 1:
            raise ValueError(
                "seed is not Singer-invariant: orbit with mixed multiplicities")
        mult = mults.pop()
        for m in members:
            remaining.pop(m, None)
        out.append(LabelWeight(OrbitLabel(len(rows), 1, None, min(members)), mult))
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
                 ingredients: dict[int, DesignInstance]) -> DesignInstance:
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
    expanded_ing = {u: list(expand_blocks(ingredients[u])) for u in pbd.K}

    def transplanted() -> Iterator[tuple[tuple[int, ...], int]]:
        for rows, mult in expand_blocks(pbd):
            span = ops.span(rows)
            for ing_rows, ing_mult in expanded_ing[len(rows)]:
                yield ops.rref([span[c] for c in ing_rows]), mult * ing_mult

    return DesignInstance(
        q=q, v=v, kind="design", K=(k_out,),
        claimed_lambda=pbd.claimed_lambda * mu,
        blocks=make_explicit(transplanted()))


# ---------------------------------------------------------------------------
# filling holes

def fill_holes(gdd: DesignInstance, master: DesignInstance, hole_dim: int,
               verify_mode: str = "full", threads: int = 1,
               sample: int = 10_000, seed: int = 0,
               ) -> tuple[DesignInstance, VerificationReport]:
    """Glue one master-design copy per group, all sharing a common hole.

    Preconditions are validated before assembly; the assembled collection is
    never trusted and is re-verified before being returned, with the report
    attached.  The hole is the last hole_dim coordinates of the master's
    space, and it goes to the last hole_dim coordinates of the output's: a
    master row r lies in it iff r % q^g_dim == 0, and its image is
    (r // q^g_dim)·q^v.  Both maps shift digits, so canonical rows stay
    canonical.
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
    low, high = q ** g_dim, q ** gdd.v
    inside = []  # in hole coordinates
    outside = []
    for rows, mult in expand_blocks(master):
        if all(r % low == 0 for r in rows):
            inside.append((tuple(r // low for r in rows), mult))
        else:
            outside.append((rows, mult))
    _check_hole_restriction(q, n, k, inside, lam_expected)
    v_out = gdd.v + n
    ops_out = vector_ops(q, v_out)
    hole_images = tuple(high * q ** j for j in range(n))  # e_(v+j) rows

    def assembled() -> Iterator[tuple[tuple[int, ...], int]]:
        for rows, mult in expand_blocks(gdd):
            yield rows, mult  # digits extend with zeros into the new space
        for g in groups:
            span = ops_out.span(g.rows + hole_images)
            for rows, mult in outside:
                yield ops_out.rref([span[r] for r in rows]), mult
        for rows, mult in inside:
            yield tuple(r * high for r in rows), mult

    out = DesignInstance(
        q=q, v=v_out, kind="design", K=(k,), claimed_lambda=lam_expected,
        blocks=make_explicit(assembled()))
    report = verify_design(out, mode=verify_mode, threads=threads,
                           sample=sample, seed=seed)
    return out, report


def _check_hole_restriction(q: int, n: int, k: int, inside: list, lam: int) -> None:
    """The master blocks inside the hole, in hole coordinates, must form a 2-design on
    GF(q)^n that covers every 2-subspace lam times: verify_design checks it."""
    if n < 2:
        if inside:
            raise ValueError("blocks inside a hole of dimension < 2")
        return
    restricted = DesignInstance(q=q, v=n, kind="design", K=(k,), claimed_lambda=lam,
                                blocks=ExplicitBlocks(tuple(inside)))
    if not verify_design(restricted).passed:
        raise ValueError(
            "master restricted to the hole is not a design with the "
            f"expected coverage {lam}")


# ---------------------------------------------------------------------------
# supplementary designs

def supplementary(design: DesignInstance) -> DesignInstance:
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
    for rows, mult in expand_blocks(design):
        if rows in chosen:
            raise ValueError("supplementary design needs a simple input")
        chosen.add(rows)
    total = sum(gaussian_binomial(v, k, q) for k in design.K)
    if total > EXPANSION_BUDGET:
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
