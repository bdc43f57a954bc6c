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


def _model_isinstance_calls(source):
    """(enclosing scope, model class) for each ``isinstance`` call whose
    class argument names a model, directly, through an ``import ... as``
    alias, as an attribute such as ``spaces.Euclidean``, or in a tuple."""
    tree = ast.parse(source)
    alias = {a.asname: a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
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
