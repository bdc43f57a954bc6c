"""Every module-level name the package defines is loaded somewhere in the
package. A constant, helper or class that no code in ``src/`` reads is left
behind by a change that took away its last reader: it is dead weight, and a
reader has to prove that to themselves. Such a name goes, so a new one fails
this test. An import is not a definition, and a re-export in ``__init__`` is
not a load.

The same holds for imports: a name a module imports at module level and
never loads itself (a stray ``import heapq`` left after its last call went)
fails the second test. ``__init__``'s imports are its re-exports, and
``from __future__`` imports are compiler directives; both are exempt."""

import ast
from pathlib import Path

import metriclab

SRC = Path(metriclab.__file__).resolve().parent

UNLOADED = {
    # package metadata, read by tools and users, not by the package
    ("__init__", "__version__"),
    # the tests' search oracle; perfbench's tracer LAYERS looks it up by
    # this name (see test_uncalled_functions.py)
    ("numeric", "golden_min"),
}


def _defined(tree):
    """The names a module's top-level statements define: functions, classes
    and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=path.name)
            for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    """The names a module's top-level import statements bind, apart from
    ``from __future__`` directives."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                yield alias.asname or alias.name.split(".")[0]


def test_every_module_level_name_is_loaded_in_the_package():
    trees = _trees()
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unloaded = {(mod, name) for mod, tree in trees.items()
                for name in _defined(tree) if name not in loaded}
    assert unloaded == UNLOADED


def test_every_module_level_import_is_loaded_in_its_module():
    unloaded = set()
    for mod, tree in _trees().items():
        if mod == "__init__":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unloaded |= {(mod, name) for name in _imported(tree) if name not in loaded}
    assert unloaded == set()
