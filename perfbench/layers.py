"""Per-layer metrics computed from a traced run's aggregated spans.

Counts and times are for one set-up plus one timed cycle of the workload
(see README.md).  A layer the workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from spans import Edge, by_span


def layer_metrics(edges: dict, samples_per_cycle: int,
                  bases: dict[str, str] | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; ``bases``, if given, receives each ratio's operands."""
    spans = by_span(edges)
    get = lambda name: spans.get(name, Edge())  # noqa: E731
    out: dict[str, tuple[float, str]] = {}
    bases = {} if bases is None else bases

    def ratio(name: str, num: float, den: float, unit: str) -> None:
        out[name] = (num / den if den else 0.0, unit)
        bases[name] = f"{num:.6g} / {den:.6g}"

    def counts(name: str, *fields: str) -> None:
        e = get(name)
        for f in fields:
            value = {"calls": e.calls, "yielded": e.yielded, "self_s": e.self_time}[f]
            out[f"{name}.{f}"] = (value, "s" if f == "self_s" else "count")

    counts("fields.build_tower", "self_s")
    counts("fields.unflatten_packed", "calls", "self_s")
    counts("fields.mid_rank", "calls", "self_s")
    counts("subspaces.iter_rref_bases", "yielded", "self_s")
    counts("subspaces.iter_superspace_bases", "yielded", "self_s")
    counts("subspaces.rref", "calls", "self_s")
    rref = get("subspaces.rref")
    ratio("subspaces.rref_per_s", rref.calls, rref.total, "1/s")
    counts("singer.orbit_representatives", "self_s")
    counts("atlas.gl_atlas", "self_s")
    counts("atlas.label_key_rows", "calls", "self_s")
    lab = get("atlas.label_key_rows")
    ratio("atlas.labels_per_s", lab.calls, lab.total, "1/s")
    counts("atlas.classify_rows", "calls", "self_s")
    counts("incidence.closed_form_matrix", "self_s")
    counts("incidence.row_coverage", "self_s")
    streamed = edges.get(("incidence.row_coverage", "subspaces.iter_superspace_bases"), Edge())
    ratio("incidence.superspaces_per_s", streamed.yielded,
          get("incidence.row_coverage").total, "1/s")
    counts("designs.build_gdd", "self_s")
    counts("designs.expand_blocks", "yielded", "self_s")
    swept = edges.get(("designs.expand_blocks", "subspaces.iter_rref_bases"), Edge())
    ratio("designs.expand_yield_ratio", get("designs.expand_blocks").yielded,
          swept.yielded, "ratio")
    counts("designs.block_pair_keys", "calls", "self_s")
    keys = get("designs.block_pair_keys")
    ratio("designs.pair_keys_per_s", keys.yielded, keys.total, "1/s")
    counts("designs.coverage_counter", "self_s")
    counts("designs.group_pair_keys", "self_s")
    counts("designs.verify_gdd", "self_s")
    ratio("designs.sample_ms", 1000 * get("designs.verify_gdd[sampled]").self_time,
          samples_per_cycle, "ms")
    counts("cli.main", "self_s")
    return out


def field_rates(field, ops: int = 100_000, reps: int = 3) -> dict[str, tuple[float, str]]:
    """Median rates of mul and add on the workload's middle field."""
    n = field.order
    xs = [(i * 7919 + 1) % n for i in range(1024)]
    ys = [(i * 104729 + 3) % n for i in range(1024)]
    pairs = list(zip(xs, ys)) * (ops // 1024)
    out = {}
    for name, fn in (("fields.mid_mul_per_s", field.mul), ("fields.mid_add_per_s", field.add)):
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            for a, b in pairs:
                fn(a, b)
            times.append(perf_counter() - t0)
        times.sort()
        out[name] = (len(pairs) / times[reps // 2], "1/s")
    return out


def overhead_metrics(untraced: list[float], traced: list[float], cycle_edges: dict,
                     setup_wall: float) -> dict[str, tuple[float, str]]:
    """Tracing overhead: traced minus untraced cycle wall time (medians)."""
    plain, spans = statistics.median(untraced), statistics.median(traced)
    attributed = sum(e.self_time for e in cycle_edges.values()) / len(traced)
    return {
        "trace.untraced_cycle_s": (plain, "s"),
        "trace.traced_cycle_s": (spans, "s"),
        "trace.overhead_s": (spans - plain, "s"),
        "trace.unattributed_s": (sum(traced) / len(traced) - attributed, "s"),
        "trace.setup_wall_s": (setup_wall, "s"),
    }
