"""In-memory span tracing of qgdd layers, installed from the benchmark side.

The tracer replaces public callables at the name their caller looks up
(a module global such as ``qgdd.designs.iter_rref_bases`` or a class
attribute such as ``GlAtlas.label_key_rows``) with timing wrappers, and
restores them on ``uninstall``.  Nothing in ``src/`` is changed.

Spans are aggregated per (parent span, span) edge: calls, items yielded,
total time and self time (span time minus the time of its child spans).
Generators are timed per ``next()``, so the consumer's work between items
is not charged to the generator.  Keeping edges instead of one record per
span keeps memory flat at millions of spans; the edges are the call tree
that ``write`` dumps when the benchmark ends.

Field element operations (``FiniteField.mul`` and friends) run millions
of times per verification and are deliberately not wrapped: their time
stays in the self time of the layer that calls them.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute path, span name, is_generator).  One span name can be
# installed at several caller-side names; the layer is the prefix.
POINTS = (
    ("qgdd.atlas", "build_tower", "fields.build_tower", False),
    ("qgdd.fields", "FieldTower.unflatten_packed", "fields.unflatten_packed", False),
    ("qgdd.fields", "FieldTower.mid_rank", "fields.mid_rank", False),
    ("qgdd.designs", "iter_rref_bases", "subspaces.iter_rref_bases", True),
    ("qgdd.singer", "iter_rref_bases", "subspaces.iter_rref_bases", True),
    ("qgdd.designs", "iter_superspace_bases", "subspaces.iter_superspace_bases", True),
    ("qgdd.incidence", "iter_superspace_bases", "subspaces.iter_superspace_bases", True),
    ("qgdd.singer", "iter_superspace_bases", "subspaces.iter_superspace_bases", True),
    ("qgdd.subspaces", "VectorOps.rref", "subspaces.rref", False),
    # Orbit enumeration runs lazily in _ensure_orbits, reached first through
    # either orbit_representatives or orbit_index_map.
    ("qgdd.singer", "SingerAction._ensure_orbits", "singer.orbit_representatives", False),
    ("qgdd.atlas", "gl_atlas", "atlas.gl_atlas", False),
    ("qgdd.designs", "gl_atlas", "atlas.gl_atlas", False),
    ("qgdd.incidence", "gl_atlas", "atlas.gl_atlas", False),
    ("qgdd.cli", "gl_atlas", "atlas.gl_atlas", False),
    ("qgdd.atlas", "GlAtlas.label_key_rows", "atlas.label_key_rows", False),
    ("qgdd.atlas", "GlAtlas.classify_rows", "atlas.classify_rows", False),
    ("qgdd.incidence", "verify_closed_form", "incidence.verify_closed_form", False),
    ("qgdd.incidence", "closed_form_matrix", "incidence.closed_form_matrix", False),
    ("qgdd.incidence", "row_coverage", "incidence.row_coverage", False),
    ("qgdd.designs", "build_gdd", "designs.build_gdd", False),
    ("qgdd.cli", "build_gdd", "designs.build_gdd", False),
    ("qgdd.designs", "expand_blocks", "designs.expand_blocks", True),
    ("qgdd.designs", "block_pair_keys", "designs.block_pair_keys", True),
    ("qgdd.designs", "coverage_counter", "designs.coverage_counter", False),
    ("qgdd.designs", "group_pair_keys", "designs.group_pair_keys", False),
    ("qgdd.designs", "verify_gdd", "designs.verify_gdd", False),
    ("qgdd.cli", "verify_gdd", "designs.verify_gdd", False),
    ("qgdd.cli", "main", "cli.main", False),
)

# Verification spans are split by mode so that the sampled kernel's self
# time can be divided by the samples drawn.
SPLIT_BY_MODE = {"designs.verify_gdd"}

# Spans opened only when the guard holds.  Orbit lookups reach
# _ensure_orbits once per label; only the first call per dimension
# enumerates, and the cached returns would otherwise bury it in overhead.
GUARDS = {"singer.orbit_representatives": lambda action, d: d not in action._orbits}


class Edge:
    """Totals over all spans of one name opened under one parent span."""

    __slots__ = ("calls", "yielded", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.yielded = 0
        self.total = 0.0
        self.self_time = 0.0

    def add(self, other: "Edge", scale: float = 1.0) -> None:
        self.calls += other.calls * scale
        self.yielded += other.yielded * scale
        self.total += other.total * scale
        self.self_time += other.self_time * scale


class Tracer:
    """Installs span wrappers at POINTS and aggregates the spans they record."""

    def __init__(self):
        self.edges: dict[tuple[str | None, str], Edge] = {}
        self._stack: list[list] = []  # [span name, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -----------------------------------------------------

    def _close(self, t0: float, calls: int, yielded: int) -> None:
        dur = perf_counter() - t0
        name, child = self._stack.pop()
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            parent = top[0]
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = Edge()
        edge.calls += calls
        edge.yielded += yielded
        edge.total += dur
        edge.self_time += dur - child

    def _wrap_function(self, fn, name: str):
        stack, close = self._stack, self._close
        split = name in SPLIT_BY_MODE
        guard = GUARDS.get(name)

        def traced(*args, **kwargs):
            if guard is not None and not guard(*args, **kwargs):
                return fn(*args, **kwargs)
            span = f"{name}[{kwargs.get('mode', 'full')}]" if split else name
            stack.append([span, 0.0])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(t0, 1, 0)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name: str):
        stack, close = self._stack, self._close

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            while True:
                stack.append([name, 0.0])
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    close(t0, calls, 0)
                    return
                except BaseException:
                    close(t0, calls, 0)
                    raise
                close(t0, calls, 1)
                calls = 0
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name, is_gen in POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrap = self._wrap_generator if is_gen else self._wrap_function
            setattr(owner, attr, wrap(original, name))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> dict[tuple[str | None, str], Edge]:
        """Return the edges recorded so far and start a fresh record."""
        if self._stack:
            raise RuntimeError("spans still open")
        edges, self.edges = self.edges, {}
        return edges


def combine(parts: list[tuple[dict, float]]) -> dict[tuple[str | None, str], Edge]:
    """Sum edge records, each scaled by its weight."""
    out: dict[tuple[str | None, str], Edge] = {}
    for edges, weight in parts:
        for key, edge in edges.items():
            out.setdefault(key, Edge()).add(edge, weight)
    return out


def by_span(edges: dict) -> dict[str, Edge]:
    """Collapse edges onto span names, splitting [mode] suffixes both ways."""
    out: dict[str, Edge] = {}
    for (_, name), edge in edges.items():
        out.setdefault(name, Edge()).add(edge)
        if "[" in name:
            out.setdefault(name.split("[")[0], Edge()).add(edge)
    return out


def write(path, edges: dict, meta: dict) -> None:
    """Dump the aggregated call tree as JSON."""
    rows = [{"parent": parent, "span": name, "calls": e.calls,
             "yielded": e.yielded, "total_s": e.total, "self_s": e.self_time}
            for (parent, name), e in sorted(edges.items(),
                                            key=lambda kv: (str(kv[0][0]), kv[0][1]))]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "edges": rows}, fh, indent=1)
        fh.write("\n")
