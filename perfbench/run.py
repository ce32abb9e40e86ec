"""qgdd benchmark: exact-verification workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload full-gf2 --seed 1 --seconds 25 --trace 0

Run from the root of a qgdd checkout; qgdd is imported from its ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics with tracing
off; with ``--trace 1`` it reports per-layer metrics from spans recorded
around qgdd's public functions.  Human-readable lines start with ``#``;
the last line of stdout is the JSON result.  Every call is checked against
an exact answer; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 11         # fresh interpreters per run for setup_s
PROBE_TIMEOUT_S = 120
UNTRACED_SHARE = 1 / 3  # share of a traced run spent measuring untraced cycles


def log(line: str = "") -> None:
    print(f"# {line}", flush=True)


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qgdd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": git_head(),
            "src_sha256": digest.hexdigest()[:16]}


def git_head() -> str:
    """HEAD commit read from .git without running git (the checkout may not be one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def probe_setup(name: str, workdir: Path, tag: str) -> tuple[float, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(workdir), tag],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["errors"]


class Tally:
    """Timed calls, oracle failures and work counts of one run."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.work: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def run_cycle(workload, tally: Tally, cycle: int) -> float:
    """Run every timed call of one cycle; return the cycle's wall time."""
    c0 = perf_counter()
    for op, key, call in workload.calls(cycle):
        t0 = perf_counter()
        raw = call()
        tally.times.setdefault(op, []).append(perf_counter() - t0)
        errors, work = workload.check(op, key, raw)
        tally.record(errors)
        for name, n in work.items():
            tally.work[name] = tally.work.get(name, 0) + n
    return perf_counter() - c0


def run_cycles(workload, tally: Tally, budget_s: float, first: int = 0) -> list[float]:
    """Closed loop: start another cycle only if it should end within the budget."""
    walls: list[float] = []
    start = perf_counter()
    while True:
        walls.append(run_cycle(workload, tally, first + len(walls)))
        if perf_counter() - start + walls[-1] > budget_s:
            return walls


def repeat_first_cycle(workload, tally: Tally) -> None:
    """Rerun, untimed, the calls of cycle 0 whose inputs no later cycle repeats.

    The check compares each output with cycle 0's, so a sampled report with
    the same seed must come out identical.
    """
    later = {key for _, key, _ in workload.calls(1)}
    for op, key, call in workload.calls(0):
        if key not in later:
            tally.record(workload.check(op, key, call())[0])


def describe(name: str, values: list[float], unit: str) -> str:
    """Median with its sample count and the highest percentile with ten samples beyond it."""
    line = f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}"
    n = len(values)
    if n > 10:
        cut = sorted(values)[n - 11]
        return line + f", p{100 * (n - 10) // n} {cut:.6g} {unit}"
    return line + " (10 or fewer samples: no tail percentile)"


def end_to_end(workload, args, workdir: Path, tally: Tally) -> tuple[dict, int]:
    setup_times = []
    for i in range(SETUP_REPS):
        seconds, errors = probe_setup(workload.name, workdir, f"probe{i}")
        setup_times.append(seconds)
        tally.record(errors)
    log(describe("setup_s", setup_times, "s") + " (fresh interpreters)")
    tally.record(workload.setup(workdir, "main"))
    walls = run_cycles(workload, tally, args.seconds)
    repeat_first_cycle(workload, tally)
    for op, values in tally.times.items():
        log(describe(op, values, "s"))
    log(describe("cycle_s", walls, "s"))
    verify = tally.times[workload.main_op]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "verify_s": (statistics.median(verify), "s"),
        "cycle_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, len(walls)


def traced(workload, args, workdir: Path, tally: Tally) -> tuple[dict, int]:
    from layers import field_rates, layer_metrics, overhead_metrics
    from spans import Tracer, combine, write

    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        tally.record(workload.setup(workdir, "main"))
        setup_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    setup_edges = tracer.take()
    run_start = perf_counter()
    plain = run_cycles(workload, tally, args.seconds * UNTRACED_SHARE)
    tracer.install()
    try:
        spans_walls = run_cycles(workload, tally, args.seconds - (perf_counter() - run_start),
                                 first=len(plain))
    finally:
        tracer.uninstall()
    repeat_first_cycle(workload, tally)
    cycle_edges = tracer.take()
    n = len(spans_walls)
    edges = combine([(setup_edges, 1.0), (cycle_edges, 1.0 / n)])
    bases: dict[str, str] = {}
    metrics = layer_metrics(edges, workload.samples_per_cycle, bases)
    metrics.update(field_rates(workload.mid_field()))
    metrics.update(overhead_metrics(plain, spans_walls, cycle_edges, setup_wall))
    out = workdir.parent / f"spans-{workload.name}-seed{args.seed}.json"
    write(out, edges, {"workload": workload.name, "seed": args.seed,
                       "traced_cycles": n, "untraced_cycles": len(plain),
                       "scope": "one set-up plus the mean of one traced cycle"})
    log(f"traced cycles {n}, untraced cycles {len(plain)}; spans written to "
        f"{out.relative_to(ROOT)}")
    for name, base in bases.items():
        log(f"base of {name}: {base}")
    return metrics, n + len(plain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgdd" / "__init__.py").is_file():
        print(f"error: no qgdd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qgdd
    if Path(qgdd.__file__).resolve().parent != SRC / "qgdd":
        print(f"error: imported qgdd from {qgdd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    log(f"qgdd benchmark: workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"why: {workload.why}")
    log("machine: " + " ".join(f"{k}={v}" for k, v in machine_info().items()))
    workdir = HERE / ".work" / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, cycles = traced(workload, args, workdir, tally)
        else:
            metrics, cycles = end_to_end(workload, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"work in {cycles} cycles: "
        + " ".join(f"{k}={v}" for k, v in sorted(tally.work.items())))
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    log(f"failed_ratio = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:.6g}")
    for err in tally.errors[:20]:
        log(f"FAILED: {err}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
