"""The benchmark tracer's hook points must name real qgdd attributes.

perfbench/spans.py wraps callables at the names listed in POINTS, looking
each one up with ``owner.__dict__[attr]``.  A rename in src/ that drops one
of those names would only surface in a traced benchmark run; this test
catches it in the ordinary suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    points = _load_spans().POINTS
    assert points
    for module, path, name, is_gen in points:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module}.{path} (span {name}) is gone"
        target = owner.__dict__[attr]
        assert inspect.isgeneratorfunction(target) == is_gen, \
            f"{module}.{path}: generator flag disagrees with the tracer"
