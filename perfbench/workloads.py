"""The benchmark's workloads: set-up, timed calls and exact oracles.

Every timed call goes through qgdd's public API (``qgdd.cli.main`` for the
CLI workload).  Each result is checked against an exact answer known in
advance, and against the first result of the same call with the same
inputs in the run, so a wrong or non-deterministic answer is a failure and
never a fast run.

Sampled verification draws a new sample set in every cycle (seed
``cycle_seed(seed, i)``): the time of one call depends on how many of its
samples land in a spread line and take the slow superspace path, so a run
that reused one sample set would time one draw instead of the workload.
Names are looked up through their modules at call time so that the tracer
can replace them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import qgdd.atlas
import qgdd.cli
import qgdd.designs
import qgdd.incidence
from qgdd.singer import n_orbits


@dataclass(frozen=True)
class GddExpect:
    """Exact answers for a GDD whose 2-subspaces split into span1/span2.

    ``blocks * pairs_per_block == lam * span2`` must hold: every block
    covers pairs_per_block 2-subspaces, all of span class 2.
    """

    blocks: int
    lam: int
    span1: int
    span2: int
    pairs_per_block: int

    def identity_holds(self) -> bool:
        return self.blocks * self.pairs_per_block == self.lam * self.span2


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    why = ""
    main_op = ""          # the call whose median is reported as verify_s
    samples_per_cycle = 0

    def __init__(self, seed: int):
        self.seed = seed
        self._reference: dict[str, str] = {}

    def setup(self, workdir: Path, tag: str) -> list[str]:
        """Build the design or atlas in this process; return oracle errors."""
        raise NotImplementedError

    def calls(self, cycle: int) -> list[tuple[str, str, object]]:
        """The timed calls of one cycle: (op name, input key, zero-argument callable).

        Calls with equal input keys must give identical output.
        """
        raise NotImplementedError

    def check(self, op: str, key: str, raw) -> tuple[list[str], dict]:
        """Oracle errors and work counts for one call's raw result."""
        raise NotImplementedError

    def mid_field(self):
        """GF(q^l), the middle field of the workload's tower."""
        m, l, _, q = self.params
        return qgdd.atlas.gl_atlas(m, l, q).tower.mid

    def _same_as_before(self, key: str, text: str) -> list[str]:
        ref = self._reference.setdefault(key, text)
        return [] if text == ref else [f"{key}: output differs from the first call"]


def cycle_seed(seed: int, cycle: int) -> int:
    """The sampling seed of one cycle, derived from the benchmark seed."""
    return seed * 1000 + cycle


class GddWorkload(Workload):
    """Build an orbit-label GDD, then verify it fully and/or by sampling."""

    def __init__(self, seed: int, *, name: str, params: tuple[int, int, int, int],
                 weights: dict[tuple[int, int], int], expect: GddExpect,
                 threads: tuple[int, ...] = (), sample: int = 0,
                 via_cli: bool = False, why: str = ""):
        super().__init__(seed)
        self.name, self.why = name, why
        self.params = params
        self.weights = weights
        self.expect = expect
        self.threads = threads
        self.sample = sample
        self.via_cli = via_cli
        self.main_op = "full_verify_s" if threads else "sampled_verify_s"
        self.samples_per_cycle = sample
        self.design = None
        self.path: Path | None = None

    def setup(self, workdir: Path, tag: str) -> list[str]:
        m, l, k, q = self.params
        exp = self.expect
        if self.via_cli:
            self.path = workdir / f"{self.name}-{tag}.json"
            select = ",".join(f"{r},{u}={w}" for (r, u), w in sorted(self.weights.items()))
            rc, out = run_cli(["build-gdd", "--m", str(m), "--l", str(l), "--k", str(k),
                               "--q", str(q), "--select", select, "--out", str(self.path)])
            want = (f"({m * l},{l},{k},{exp.lam})_{q} gdd with {exp.blocks} blocks")
            if rc != 0 or want not in out:
                return [f"build-gdd: exit {rc}, output {out.strip()!r}, want {want!r}"]
            return []
        sel = qgdd.designs.GddSelection.of(self.weights)
        self.design = qgdd.designs.build_gdd(m, l, k, q, sel)
        errors = []
        if self.design.claimed_lambda != exp.lam:
            errors.append(f"claimed lambda {self.design.claimed_lambda} != {exp.lam}")
        if qgdd.designs.block_count(self.design) != exp.blocks:
            errors.append(f"block count {qgdd.designs.block_count(self.design)} != {exp.blocks}")
        return errors

    def calls(self, cycle: int) -> list[tuple[str, str, object]]:
        out = []
        for t in self.threads:
            op = "full_verify_s" if t == 1 else f"full_verify_t{t}_s"
            # every thread count must print the same bytes: one input key
            if self.via_cli:
                argv = ["verify", "--in", str(self.path), "--json", "--threads", str(t)]
                out.append((op, "full", lambda argv=argv: run_cli(argv)))
            else:
                out.append((op, "full", lambda t=t: qgdd.designs.verify_gdd(
                    self.design, mode="full", threads=t)))
        if self.sample:
            seed = cycle_seed(self.seed, cycle)
            if self.via_cli:
                argv = ["verify", "--in", str(self.path), "--json",
                        "--sample", str(self.sample), "--seed", str(seed)]
                call = lambda: run_cli(argv)  # noqa: E731
            else:
                call = lambda: qgdd.designs.verify_gdd(  # noqa: E731
                    self.design, mode="sampled", sample=self.sample, seed=seed)
            out.append(("sampled_verify_s", f"sampled:{seed}", call))
        return out

    def check(self, op: str, key: str, raw) -> tuple[list[str], dict]:
        errors = []
        if self.via_cli:
            rc, text = raw
            if rc != 0:
                errors.append(f"{op}: exit code {rc}")
            try:
                rep = json.loads(text)
            except ValueError:
                return errors + [f"{op}: stdout is not JSON"], {}
        else:
            rep = raw.to_json_dict()
            text = json.dumps(rep, sort_keys=True)
        exp = self.expect
        lam = rep.get("lambda_by_class", {})
        pairs = rep.get("pair_counts", {})
        if rep.get("passed") is not True:
            errors.append(f"{op}: verification did not pass")
        if rep.get("block_count") != exp.blocks:
            errors.append(f"{op}: block_count {rep.get('block_count')} != {exp.blocks}")
        if rep.get("failures"):
            errors.append(f"{op}: witnesses reported")
        if op == "sampled_verify_s":
            if lam.get("span2") != exp.lam or lam.get("span1", 0) != 0:
                errors.append(f"{op}: lambda {lam} != span1 0, span2 {exp.lam}")
            if sum(pairs.values()) != self.sample or rep.get("checked") != self.sample:
                errors.append(f"{op}: per-class samples {pairs} do not sum to {self.sample}")
            want = [self.sample, int(key.split(":")[1])]
            if rep.get("sample") != want:
                errors.append(f"{op}: sample/seed {rep.get('sample')} != {want}")
            work = {"samples": self.sample}
        else:
            if lam != {"span1": 0, "span2": exp.lam}:
                errors.append(f"{op}: lambda {lam} != span1 0, span2 {exp.lam}")
            if pairs != {"span1": exp.span1, "span2": exp.span2}:
                errors.append(f"{op}: pair counts {pairs} != {exp.span1}/{exp.span2}")
            work = {"blocks": rep.get("block_count", 0), "pairs_swept": rep.get("checked", 0)}
        return errors + self._same_as_before(key, text), work

class IncidenceWorkload(Workload):
    """Closed-form vs. brute-force incidence on a prefix of the rows."""

    main_op = "incidence_s"

    def __init__(self, seed: int, *, name: str, params: tuple[int, int, int, int],
                 budget: int, rows: tuple[int, ...], partial: bool,
                 per_row: int, why: str = ""):
        super().__init__(seed)
        self.name, self.why = name, why
        self.params = params
        self.budget = budget
        self.rows = rows
        self.partial = partial
        self.per_row = per_row

    def setup(self, workdir: Path, tag: str) -> list[str]:
        m, l, k, q = self.params
        singer = qgdd.atlas.gl_atlas(m, l, q).singer
        errors = []
        for d in range(1, k + 1):
            got = len(singer.orbit_representatives(d))
            if got != n_orbits(d, l, q):
                errors.append(f"{got} Singer orbits of {d}-subspaces, "
                              f"closed form says {n_orbits(d, l, q)}")
        return errors

    def calls(self, cycle: int) -> list[tuple[str, str, object]]:
        return [("incidence_s", "incidence",
                 lambda: qgdd.incidence.verify_closed_form(*self.params, budget=self.budget))]

    def check(self, op: str, key: str, raw) -> tuple[list[str], dict]:
        rep = raw.to_json_dict()
        errors = []
        if rep["equal"] is not True or rep["mismatches"]:
            errors.append(f"{op}: closed form and brute force differ: {rep['mismatches'][:3]}")
        if tuple(rep["rows_checked"]) != self.rows or rep["partial"] != self.partial:
            errors.append(f"{op}: rows {rep['rows_checked']} partial={rep['partial']}, "
                          f"want {list(self.rows)} partial={self.partial}")
        if rep["superspaces_per_row"] != self.per_row:
            errors.append(f"{op}: {rep['superspaces_per_row']} superspaces per row "
                          f"!= {self.per_row}")
        work = {"superspaces": rep["superspaces_per_row"] * len(rep["rows_checked"])}
        return errors + self._same_as_before(key, json.dumps(rep)), work


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``qdesign`` in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = qgdd.cli.main(argv)
    return rc, buf.getvalue()


# Sizes.  SAMPLES_GF2 makes one sampled call on the (14,7,3,42)_2 design
# take about 2.5 s, so a run holds enough calls for a steady median.
SAMPLES_GF2 = 700
SAMPLES_Q3 = 2000
# One row of the (3,4,4,2) matrix: all 4-superspaces of one 2-subspace of
# GF(2)^12, [10 choose 2]_2 = 174251 of them.
INCIDENCE_ROW = 174251


def full_gf2(seed: int) -> GddWorkload:
    # (8,4,3,42)_2: 61200 blocks; [8 choose 2]_2 = 10795 pairs, of which the
    # 17 spread lines hold 17 * 35 = 595.  61200 * 7 == 42 * 10200.
    return GddWorkload(
        seed, name="full-gf2", params=(2, 4, 3, 2), weights={(2, 1): 1},
        expect=GddExpect(blocks=61200, lam=42, span1=595, span2=10200, pairs_per_block=7),
        threads=(1, 2), via_cli=True,
        why="exhaustive sweep through the CLI at threads 1 and 2: labeling, "
            "pair keys and the process pool; no sampling, no incidence")


def sampled_gf2(seed: int) -> GddWorkload:
    # (14,7,3,42)_2, never expanded.  [14 choose 2]_2 = 44731051 pairs, the
    # 129 spread lines hold 129 * 2667 = 344043, so span2 = 44387008 and
    # blocks = 42 * 44387008 / 7 = 266322048.
    return GddWorkload(
        seed, name="sampled-gf2", params=(2, 7, 3, 2), weights={(2, 1): 1},
        expect=GddExpect(blocks=266322048, lam=42, span1=344043, span2=44387008,
                         pairs_per_block=7),
        sample=SAMPLES_GF2,
        why="seeded sampled check of the (14,7,3,42)_2 design: the GF(2) "
            "coverage kernel, spread keys and pair table; no k-subspace sweep")


def odd_q3(seed: int) -> GddWorkload:
    # (6,3,3,24)_3: [6 choose 2]_3 = 11011 pairs, 28 spread lines of 13 pairs
    # hold 364.  Each block holds [3 choose 2]_3 = 13 pairs: 19656 * 13 == 24 * 10647.
    return GddWorkload(
        seed, name="odd-q3", params=(2, 3, 3, 3), weights={(2, 3): 1},
        expect=GddExpect(blocks=19656, lam=24, span1=364, span2=10647, pairs_per_block=13),
        threads=(1,), sample=SAMPLES_Q3,
        why="odd characteristic: base-3 digit loops and GF(27) arithmetic in "
            "a full sweep and the generic k=3 sampled path")


def incidence_k4(seed: int) -> IncidenceWorkload:
    return IncidenceWorkload(
        seed, name="incidence-k4", params=(3, 4, 4, 2), budget=INCIDENCE_ROW,
        rows=(0,), partial=True, per_row=INCIDENCE_ROW,
        why="closed form vs brute force on one row of (3,4,4,2): superspace "
            "streaming and k=4 labeling, the only workload that runs incidence")


WORKLOADS = {
    "full-gf2": full_gf2,
    "sampled-gf2": sampled_gf2,
    "odd-q3": odd_q3,
    "incidence-k4": incidence_k4,
}
