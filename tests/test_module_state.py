"""No function in the package changes a module-level value, so a check's
verdict depends only on its arguments. A function may still read module
tables built at import time; it may not append to, clear, update, assign
into, slice or ``del`` from a module-level name, nor rebind one through
``global``. The one store allowed is listed with its reason."""

import ast
from pathlib import Path

import metriclab

PACKAGE = Path(metriclab.__file__).parent

ALLOWED = {
    ("verify", "_pair_tables"): "is_isometry reads the two distance tables that "
                                "preserves_unit_distance built on the same sample; "
                                "without them the pair checks run about a third fewer "
                                "checks per second",
}

MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "appendleft", "extendleft",
            "difference_update", "intersection_update", "symmetric_difference_update",
            "__setitem__", "__delitem__"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_names(tree):
    """Names a module binds at its top level by assignment or by
    ``from ... import``: plain ``import``s name modules, whose functions
    are called, not stored into."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _local_names(fn):
    """The names a function binds itself: its parameters and every name
    stored in its body."""
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None}
    return names | {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, (ast.Store, ast.Del))}


def _module_mutations(source):
    """(line, name) of each place a function changes a module-level name."""
    tree = ast.parse(source)
    module = _module_names(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        outer = module - _local_names(fn)

        def hit(node, value):
            if isinstance(value, ast.Name) and value.id in outer:
                found.add((node.lineno, value.id))
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found |= {(node.lineno, name) for name in node.names}
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS):
                hit(node, node.func.value)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit(node, node.value)
    return sorted(found)


def test_the_scan_sees_each_kind_of_module_mutation():
    src = ("from .x import TABLE\n"
           "import os\n"
           "STORE = []\n"
           "CACHE = {}\n"
           "COUNT = 0\n"
           "def f(key):\n"
           "    STORE.append(key)\n"
           "    CACHE[key] = 1\n"
           "    del STORE[:-1]\n"
           "    STORE[1:] = []\n"
           "    TABLE.update(a=1)\n"
           "def g():\n"
           "    global COUNT\n"
           "    COUNT += 1\n"
           "h = lambda: CACHE.clear()\n"
           "def fine(STORE):\n"
           "    STORE.append(1)\n"
           "    local = {}\n"
           "    local['a'] = len(CACHE)\n"
           "    os.remove('path')\n"
           "    return [CACHE.get(k) for k in STORE]\n"
           "CACHE['top'] = 0\n")
    assert _module_mutations(src) == [(7, "STORE"), (8, "CACHE"), (9, "STORE"),
                                      (10, "STORE"), (11, "TABLE"), (13, "COUNT"),
                                      (15, "CACHE")]


def test_only_the_pair_table_store_is_module_state():
    found = {(path.stem, name) for path in sorted(PACKAGE.rglob("*.py"))
             for _, name in _module_mutations(path.read_text())}
    # every allowed store is still in use, so the list cannot go stale
    assert found == set(ALLOWED)
