"""Every function the benchmark's traced pass wraps must exist.

``perfbench/tracer.py`` looks each name up with ``getattr``, so a deleted or
renamed library function would only show as an ``AttributeError`` in
``perfbench/run.py --trace 1``.  This test reads its ``TRACED`` table and
fails in the tier-1 suite instead.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_table():
    """The literal ``TRACED`` dict of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves():
    table = traced_table()
    assert table
    missing = []
    for module, names in table.items():
        namespace = importlib.import_module("stokerlab." + module)
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(namespace, name, None))]
    assert missing == []
