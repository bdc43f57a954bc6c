"""Only spaces.py asks which model a space is: every other module reaches the
geometry through the ``Space`` protocol. The allowed ``isinstance`` calls are
input guards that refuse a wrong kind of input, not geometry."""

import ast
import inspect
from pathlib import Path

import metriclab
from metriclab import spaces

PACKAGE = Path(metriclab.__file__).parent
MODELS = {name for name, obj in vars(spaces).items()
          if inspect.isclass(obj) and issubclass(obj, spaces.Space) and obj is not spaces.Space}
# (module, enclosing scope, model class)
ALLOWED = {
    ("cli.py", "ScenarioConfig.__post_init__", "MetricTree"),
    ("horofn.py", "spherical_shadow_sample", "Euclidean"),
}


def _aliases(tree):
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}


def _model_isinstance_calls(source):
    """(enclosing scope, model class) for each ``isinstance`` call whose
    class argument names a model, directly, through an ``import ... as``
    alias, as an attribute such as ``spaces.Euclidean``, or in a tuple."""
    tree = ast.parse(source)
    alias = _aliases(tree)
    found = []

    def names(arg):
        if isinstance(arg, ast.Tuple):
            return [n for elt in arg.elts for n in names(elt)]
        if isinstance(arg, ast.Name):
            return [alias.get(arg.id, arg.id)]
        if isinstance(arg, ast.Attribute):
            return [arg.attr]
        return []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                found.extend((scope, n) for n in names(child.args[1]) if n in MODELS)
            visit(child, inner)
    visit(tree, "")
    return found


def test_the_scan_sees_a_model_ladder():
    src = ("from .spaces import RealLine as RL\n"
           "from . import spaces\n"
           "def f(s):\n"
           "    if isinstance(s, RL):\n"
           "        return 1\n"
           "    if isinstance(s, (int, spaces.MetricTree)):\n"
           "        return 2\n"
           "    return isinstance(s, tuple)\n")
    assert _model_isinstance_calls(src) == [("f", "RealLine"), ("f", "MetricTree")]


def test_only_spaces_asks_which_model_it_holds():
    hits = {(path.name, scope, model)
            for path in sorted(PACKAGE.rglob("*.py")) if path.name != "spaces.py"
            for scope, model in _model_isinstance_calls(path.read_text())}
    assert sorted(hits - ALLOWED) == []
    # the allowed guards are still there, so the scan still sees them
    assert hits == ALLOWED


# calls that build a catalog model: the model classes and the named trees
MODEL_BUILDERS = MODELS | {"ended_tree", "swap_tree"}


def _model_lists(source):
    """Line of each list or tuple literal that holds two or more model
    constructor calls, or rows that start with one. The right side of a
    tuple-unpacking assignment is not a list."""
    tree = ast.parse(source)
    alias = _aliases(tree)
    unpacked = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)}

    def builds_model(elt):
        if isinstance(elt, (ast.Tuple, ast.List)):
            return bool(elt.elts) and builds_model(elt.elts[0])
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Attribute):
            return elt.func.attr in MODEL_BUILDERS
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name):
            return alias.get(elt.func.id, elt.func.id) in MODEL_BUILDERS
        return False

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Tuple, ast.List)) and id(node) not in unpacked
            and sum(map(builds_model, node.elts)) >= 2]


def test_the_scan_sees_a_model_list():
    src = ("from .spaces import RealLine as RL\n"
           "from . import spaces\n"
           "PAIR = [RL(), spaces.Euclidean(2)]\n"
           "ROWS = ((ended_tree(), True), (swap_tree(), False))\n"
           "a, b = RL(), ended_tree()\n"
           "ONE = (RL(), 'real-line', 1.0)\n"
           "MP = MaxProduct(RL(), RL())\n"
           "NAMES = [RL, 'tree', ended_tree]\n")
    assert sorted(_model_lists(src)) == [3, 4]


def test_only_catalog_lists_models():
    source = (PACKAGE / "suites.py").read_text()
    catalog_line = next(node.value.lineno for node in ast.parse(source).body
                        if isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets] == ["CATALOG"])
    hits = {(path.name, line) for path in sorted(PACKAGE.rglob("*.py"))
            for line in _model_lists(path.read_text())}
    assert hits == {("suites.py", catalog_line)}
