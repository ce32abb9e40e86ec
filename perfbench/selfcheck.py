"""Fast self-check of the benchmark itself, at toy size (a few seconds).

    python3 perfbench/selfcheck.py

Runs the benchmark's own machinery on the (6,3,3,6)_2 GDD (through the CLI
at --threads 1 and 2, plus 50 samples) and on the full (2,3,3,2)
incidence point, and checks that:

1. every oracle passes on the correct expectations;
2. a corrupted expectation makes the calls fail, so failed_ratio rises;
3. a traced cycle's per-layer self times add up to its wall time within
   SLACK (the rest is the benchmark's own checking, outside any span);
4. the metric names the runs print are exactly those in BENCHMARK.json;
5. the exact identities behind every workload's expectations hold.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from layers import field_rates, layer_metrics, overhead_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (WORKLOADS, GddExpect, GddWorkload,  # noqa: E402
                       IncidenceWorkload)

SLACK = 0.05  # share of a traced cycle's wall time allowed outside spans


def toy_gdd(expect: GddExpect) -> GddWorkload:
    return GddWorkload(7, name="toy-gdd", params=(2, 3, 3, 2), weights={(2, 3): 1},
                       expect=expect, threads=(1, 2), sample=50, via_cli=True)


# (6,3,3,6)_2: 504 blocks; [6 choose 2]_2 = 651 pairs, 9 spread lines hold 63.
TOY_EXPECT = GddExpect(blocks=504, lam=6, span1=63, span2=588, pairs_per_block=7)


def toy_incidence() -> IncidenceWorkload:
    # One Singer orbit of 2-subspaces of GF(2)^3 gives two rows (span 1, span 2);
    # each 2-subspace of GF(2)^6 lies in [4 choose 1]_2 = 15 3-subspaces.
    return IncidenceWorkload(7, name="toy-incidence", params=(2, 3, 3, 2), budget=10**6,
                             rows=(0, 1), partial=False, per_row=15)


def cycle(workload, workdir: Path) -> run.Tally:
    tally = run.Tally()
    tally.record(workload.setup(workdir, "self"))
    run.run_cycle(workload, tally, 0)
    run.run_cycle(workload, tally, 1)
    run.repeat_first_cycle(workload, tally)
    return tally


def main() -> int:
    problems: list[str] = []
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=HERE / ".work"))
    try:
        for workload in (toy_gdd(TOY_EXPECT), toy_incidence()):
            tally = cycle(workload, workdir)
            if tally.failed:
                problems.append(f"{workload.name}: {tally.errors}")

        wrong = GddExpect(blocks=504, lam=7, span1=63, span2=588, pairs_per_block=7)
        tally = cycle(toy_gdd(wrong), workdir)
        if tally.failed != tally.attempted:
            problems.append(f"corrupted lambda: {tally.failed}/{tally.attempted} failed")

        workload = toy_gdd(TOY_EXPECT)
        tracer = Tracer()
        workload.setup(workdir, "traced")
        run.run_cycle(workload, run.Tally(), 0)  # warm caches
        tracer.install()
        try:
            wall = run.run_cycle(workload, run.Tally(), 1)
        finally:
            tracer.uninstall()
        edges = tracer.take()
        attributed = sum(e.self_time for e in edges.values())
        if not (1 - SLACK) * wall <= attributed <= wall:
            problems.append(f"self times {attributed:.4f} s vs traced wall {wall:.4f} s")
        print(f"traced toy cycle: wall {wall:.4f} s, self times {attributed:.4f} s")

        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        per_layer = set(layer_metrics(edges, workload.samples_per_cycle))
        per_layer |= set(field_rates(workload.mid_field(), ops=1024, reps=1))
        per_layer |= set(overhead_metrics([wall], [wall], edges, 0.0))
        if per_layer != {m["name"] for m in bench["per_layer"]}:
            problems.append("per_layer names differ from BENCHMARK.json: "
                            f"{sorted(per_layer ^ {m['name'] for m in bench['per_layer']})}")
        end_to_end = {"setup_s", "verify_s", "cycle_s", "peak_rss_mb"}
        if end_to_end != {m["name"] for m in bench["end_to_end"]}:
            problems.append("end_to_end names differ from BENCHMARK.json")
        if set(WORKLOADS) != {w["name"] for w in bench["workloads"]}:
            problems.append("workload names differ from BENCHMARK.json")

        for make in WORKLOADS.values():
            w = make(0)
            if isinstance(w, GddWorkload) and not w.expect.identity_holds():
                problems.append(f"{w.name}: blocks * pairs_per_block != lam * span2")
        if not TOY_EXPECT.identity_holds():
            problems.append("toy: blocks * pairs_per_block != lam * span2")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"FAIL: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    t0 = perf_counter()
    code = main()
    print(f"({perf_counter() - t0:.1f} s)")
    sys.exit(code)
