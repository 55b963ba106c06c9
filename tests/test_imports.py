import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "xlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private_definitions(tree):
    """Module-level functions, classes and assignments named ``_x``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node):
    """Names a subtree reads: bare names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_dead_private_names():
    # a private module-level name that nothing in the package reads outside
    # its own definition is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in PACKAGE}
    reads = collections.Counter(name for tree in trees.values()
                                for name in _reads(tree))
    dead = [f"{module}:{node.lineno} {name}"
            for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if reads[name] == sum(read == name for read in _reads(node))]
    assert dead == []


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES + DEMOS + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_public_names_resolve_once():
    import xlab

    assert len(xlab.__all__) == len(set(xlab.__all__))
    missing = [name for name in xlab.__all__ if not hasattr(xlab, name)]
    assert missing == []
