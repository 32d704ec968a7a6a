"""Every parameter of a library function is read by its body.

Walks ``src/stokerlab/*.py`` with ``ast``.  A parameter counts as read when
its name is loaded anywhere in the function's body, nested functions
included; defaults and annotations do not count.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "stokerlab"


def unused_parameters(tree):
    """(function name, line, parameter) for every parameter never loaded."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(name, node.lineno, p) for p in params if p not in loaded]
    return found


def test_checker_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b=1, *c, d, **e):\n    return a + d + len(c)\n"
                     "g = lambda x, y: x\n")
    assert unused_parameters(tree) == [("f", 1, "b"), ("f", 1, "e"), ("<lambda>", 3, "y")]


def test_library_reads_every_parameter():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    unused = [f"{path.name}:{line} {name}({param})"
              for path in paths
              for name, line, param in unused_parameters(ast.parse(path.read_text("utf-8")))]
    assert unused == []
