import ast
import importlib
import pathlib
import pkgutil

import pytest

import momentdist as md

_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(md.__path__)
    if hasattr(importlib.import_module(f"momentdist.{m.name}"), "__all__")
)
_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_modules_with_public_lists_found():
    assert {"experiments", "graphs", "learn", "metrics"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_public_names_importable_from_package(name):
    module = importlib.import_module(f"momentdist.{name}")
    missing = [attr for attr in module.__all__ if getattr(md, attr, None) is not getattr(module, attr)]
    assert missing == []


def _used_names(tree: ast.AST, skip=frozenset()) -> set[str]:
    """Every name and attribute name read or written in ``tree``, outside the nodes in ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _definitions(tree: ast.Module, name: str) -> frozenset:
    """The top-level statements that define ``name`` or list the public names."""
    def defines(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return node.name == name
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return any(isinstance(t, ast.Name) and t.id in (name, "__all__") for t in targets)

    return frozenset(node for node in tree.body if defines(node))


def _public_methods(trees, cls: str) -> list:
    """(name, definition) of each public method of the class ``cls`` defined in ``trees``."""
    return [(f.name, f) for tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls
            for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def test_public_names_reached_outside_tests():
    """Each public name, and each public method of a public class, is used by
    another part of the package, the benchmark or an acceptance criterion: by
    a command, an experiment or a criterion, not only by the unit tests.
    Imports, ``__init__.py`` and the name's own definition do not count."""
    package = {p.stem: ast.parse(p.read_text())
               for p in (_ROOT / "src" / "momentdist").glob("*.py") if p.stem != "__init__"}
    users = [*sorted((_ROOT / "perfbench").glob("*.py")), _ROOT / "tests" / "test_acceptance.py"]
    outside = set().union(*(_used_names(ast.parse(p.read_text())) for p in users))
    public = [(module, name) for module in _MODULES
              for name in importlib.import_module(f"momentdist.{module}").__all__]
    # (reported name, name, the definitions that do not count as a use)
    names = [(f"{module}.{name}", name, _definitions(package[module], name))
             for module, name in public]
    names += [(f"{module}.{cls}.{method}", method, frozenset([node]))
              for module, cls in public
              for method, node in _public_methods(package.values(), cls)]
    unused = [
        reported for reported, name, own in names
        if name not in outside and not any(name in _used_names(tree, own)
                                           for tree in package.values())
    ]
    assert unused == []
