import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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


def _defines(node: ast.stmt, name: str) -> bool:
    """Whether the statement ``node`` defines ``name``: by def, class or assignment, not by import."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _definitions(tree: ast.Module, name: str) -> frozenset:
    """The top-level statements that define ``name`` or list the public names."""
    return frozenset(node for node in tree.body
                     if _defines(node, name) or _defines(node, "__all__"))


def _public_methods(trees, cls: str) -> list:
    """(name, definition) of each public method of the class ``cls`` defined in ``trees``."""
    return [(f.name, f) for tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls
            for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def _package() -> dict[str, ast.Module]:
    """The syntax tree of each package module but ``__init__.py``, by module name."""
    return {p.stem: ast.parse(p.read_text())
            for p in (_ROOT / "src" / "momentdist").glob("*.py") if p.stem != "__init__"}


def _users() -> list[ast.Module]:
    """The syntax trees of the benchmark and of the acceptance criteria."""
    paths = [*sorted((_ROOT / "perfbench").glob("*.py")), _ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(p.read_text()) for p in paths]


def _public() -> list[tuple[str, str]]:
    """(module, name) of each public name."""
    return [(module, name) for module in _MODULES
            for name in importlib.import_module(f"momentdist.{module}").__all__]


def test_public_names_defined_in_own_module():
    """Each ``__all__`` entry is defined at the top level of its own module,
    so no public name is declared by two modules."""
    package = _package()
    foreign = [f"{module}.{name}" for module, name in _public()
               if not any(_defines(node, name) for node in package[module].body)]
    assert foreign == []


def test_package_init_binds_only_star_imports():
    """``__init__.py`` holds its docstring, ``__version__`` and one star import
    per module, so the modules' ``__all__`` lists are the only public list."""
    tree = ast.parse((_ROOT / "src" / "momentdist" / "__init__.py").read_text())
    stray = [ast.unparse(node) for node in tree.body[1:]  # after the docstring
             if not _defines(node, "__version__")
             and not (isinstance(node, ast.ImportFrom) and node.level == 1
                      and [alias.name for alias in node.names] == ["*"])]
    assert stray == []


def test_public_names_reached_outside_tests():
    """Each public name, and each public method of a public class, is used by
    another part of the package, the benchmark or an acceptance criterion: by
    a command, an experiment or a criterion, not only by the unit tests.
    Imports, ``__init__.py`` and the name's own definition do not count."""
    package = _package()
    outside = set().union(*(_used_names(tree) for tree in _users()))
    public = _public()
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


def _calls(tree: ast.AST, name: str, skip: ast.AST) -> list[ast.Call]:
    """Every call in ``tree``, outside ``skip``, of a function or method called ``name``."""
    calls, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, call position) of each parameter of ``fn`` with a default; the
    position counts the call's positional arguments (after ``self`` or ``cls``
    for a ``method``) and is None for a keyword-only parameter."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    bound = 1 if method and not static else 0
    params = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
    params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return params


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` may set ``param``: by its keyword, by ``**``, or by a
    positional argument at ``position`` or a starred one."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_defaulted_parameters_set_outside_tests():
    """Each parameter with a default, of a public function or of a public
    method of a public class, is passed by some call in the package, the
    benchmark or an acceptance criterion: an option that only the unit tests
    set is not kept. Calls match by the called name; the function's own
    definition does not count."""
    package = _package()
    trees = [*package.values(), *_users()]
    public = _public()
    functions = [(f"{module}.{name}", node, False) for module, name in public
                 for node in package[module].body
                 if isinstance(node, ast.FunctionDef) and node.name == name]
    functions += [(f"{module}.{cls}.{method}", node, True) for module, cls in public
                  for method, node in _public_methods(package.values(), cls)]
    unset = [
        f"{reported}({param})" for reported, fn, method in functions
        for param, position in _defaulted(fn, method)
        if not any(_passes(call, param, position)
                   for tree in trees for call in _calls(tree, fn.name, fn))
    ]
    assert unset == []


# Run in a fresh interpreter, since pytest's own process may already hold the
# modules. Prints, after each command, its exit code and which of the scipy
# subpackages that only some functions need are loaded.
_DEFERRED_IMPORTS_PROBE = textwrap.dedent("""
    import json, sys
    from momentdist.cli import main

    DEFERRED = ("scipy.optimize", "scipy.sparse.linalg", "scipy.sparse.csgraph")
    corpus, out = sys.argv[1:]
    for argv in (["moments", "--named", "K4"],
                 ["moments", "--named", "K4", "--state", "trace"],
                 ["pairwise", "--named", "K4", "C4", "P4"],
                 ["spectrum", "--named", "C4uK1"],
                 ["classify", "--corpus", corpus, "--folds", "3"],
                 ["cluster", "--corpus", corpus]):
        code = main([*argv, "--out", out])
        print(json.dumps([argv[0], code, [m for m in DEFERRED if m in sys.modules]]))
""")


def test_commands_import_scipy_subpackages_only_where_called(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"synthetic": {"seed": 1, "settings": [
        {"nv": 20, "ne": 40, "rho": 0.1, "count": 4},
        {"nv": 20, "ne": 80, "rho": 0.1, "count": 4},
    ]}}))
    path = [str(_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _DEFERRED_IMPORTS_PROBE, str(corpus), str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(cmd, code) for cmd, code, _ in runs] == [
        ("moments", 0), ("moments", 0), ("pairwise", 0), ("spectrum", 0), ("classify", 0),
        ("cluster", 0)]
    assert [loaded for cmd, _, loaded in runs if cmd != "cluster"] == [[]] * 5
    # cluster's accuracy call loads csgraph for its bipartite matching (whose
    # own package import brings scipy.sparse.linalg along), not scipy.optimize
    loaded = runs[-1][2]
    assert "scipy.sparse.csgraph" in loaded and "scipy.optimize" not in loaded


def _imported_modules(tree: ast.AST):
    """The dotted name of every module that an import anywhere in ``tree`` names,
    local imports included; for ``from m import a``, both ``m`` and ``m.a``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_private_numpy_or_scipy_module_imported():
    # numpy's and scipy's private modules change between releases without notice
    private = []
    for path in sorted((_ROOT / "src" / "momentdist").glob("*.py")):
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            parts = name.split(".")
            if parts[0] in ("numpy", "scipy") and any(p.startswith("_") for p in parts[1:]):
                private.append(f"{path.name}: {name}")
    assert private == []


def _package_calls(name: str) -> list[str]:
    """``module.py:line`` of every call in the package of a function or method called ``name``."""
    return [f"{path.name}:{call.lineno}"
            for path in sorted((_ROOT / "src" / "momentdist").glob("*.py"))
            for call in _calls(ast.parse(path.read_text(encoding="utf-8")), name, None)]


def test_no_fromstring_call():
    # the bulk edge-list parser reads token values at the bounds it has found;
    # np.fromstring would tokenize the whole text a second time
    assert _package_calls("fromstring") == []


def test_no_vectorize_call():
    # np.vectorize is a Python loop per element: the pair engine and every
    # per-pair or per-token path stay array code
    assert _package_calls("vectorize") == []
