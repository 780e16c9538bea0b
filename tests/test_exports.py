"""Every module of the package imports, and every name in its __all__ exists
and has a caller outside the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import eaqc


def test_every_public_name_resolves():
    names = ["eaqc"] + [m.name for m in pkgutil.iter_modules(eaqc.__path__, "eaqc.")]
    assert "eaqc.clifford" in names and "eaqc.cli" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing


_ROOT = Path(__file__).resolve().parents[1]


def _references(tree: ast.Module, skip: ast.AST | None):
    """(name, enclosing definitions) of each name a module's code mentions.

    Names, attributes, imports and identifier-shaped strings (the tracer
    wraps functions by name) count; docstrings and the skipped node do not.
    """
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and node.body and isinstance(node.body[0], ast.Expr)}

    def visit(node, owners):
        if node is skip:
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners + (node.name,)
        if isinstance(node, ast.Name):
            yield node.id, owners
        elif isinstance(node, ast.Attribute):
            yield node.attr, owners
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], owners
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            for part in node.value.split("."):
                yield part, owners
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owners)

    return visit(tree, ())


def test_every_public_name_has_a_caller_outside_tests():
    exports, callers = [], {}
    for folder in ("src", "perfbench"):
        for path in sorted((_ROOT / folder).rglob("*.py")):
            # perfbench/out/ holds untracked copies that smoke runs leave
            if (_ROOT / "perfbench" / "out") in path.parents:
                continue
            tree = ast.parse(path.read_text())
            all_node = next((node for node in tree.body if isinstance(node, ast.Assign)
                             and any(getattr(t, "id", None) == "__all__" for t in node.targets)),
                            None)
            if all_node is not None:
                exports += [(path, elt.value) for elt in all_node.value.elts]
            for name, owners in _references(tree, all_node):
                callers.setdefault(name, set()).add((path, owners[:1]))
    # a caller is any mention outside the name's own top-level definition
    unused = [f"{path.name}:{name}" for path, name in exports
              if not any(p != path or o != (name,) for p, o in callers.get(name, ()))]
    assert not unused, f"exported but only tests call: {unused}"
