"""The benchmark tracer wraps the public names listed in
``perfbench/tracer.py`` ``TARGETS``; a name it cannot find is only listed
under "missing" in its tally.  This test reads that list without importing
the tracer and fails when a target stops resolving, unless the target is
one of the known dead names below."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# targets whose code is gone; the tracer may drop them without touching this test
DEAD = {
    ("series", "QXSeries.__mul__"),
    ("series", "series_exp"),
    ("stirling", "partial_r_bell"),
    ("qpoly", "poly_gcd"),
}


def _targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(f"gstirling.{module}")
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_tracer_targets_resolve_except_the_dead_ones():
    targets = _targets()
    assert targets
    missing = {(module, attr) for _, module, attr in targets if not _resolves(module, attr)}
    assert missing <= DEAD
