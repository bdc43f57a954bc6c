"""Every public top-level function of the package has a caller in the
package, and every optional parameter of one is set by some caller outside
the tests. A function that no code in the package names is reachable only
from outside: no suite, CLI path or library check runs it. Such a function
goes into a report or out of the package, so a new one fails this test. An
optional parameter that only tests set is a knob nothing turns: it takes one
value in every run, so it goes too, or onto the allowlist with its reason."""

import ast
from pathlib import Path

import metriclab

SRC = Path(metriclab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

UNCALLED = {
    # the tests' search oracle; perfbench's tracer LAYERS looks it up by
    # this name, so it stays in numeric, and no module of the package names it
    ("numeric", "golden_min"),
}

# (module, function, parameter) set only by tests, each with its reason
TEST_ONLY_PARAMETERS = {
    # keeps the hypothesis tape oracle small
    ("tapes", "build_p_tape", "window"),
    # drives the probe-invariance test of the scissors shift
    ("transfers", "scissors_shift", "probe_param"),
    # a stated tolerance, kept in the signature like every other ``tol``
    ("tapes", "validate_p_tape", "tol"),
    ("transfers", "validate_scissors", "tol"),
    # the entry point: the console script calls it without arguments
    ("cli", "main", "argv"),
    # golden_min stays for perfbench's tracer LAYERS, and only tests call it
    ("numeric", "golden_min", "tol"),
}


def _public_functions():
    """(module, FunctionDef) for each public top-level function of the package."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path.stem, node


def _optional_parameters(fn):
    """(position or None, name) of each parameter of fn with a default; the
    position is None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from ((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def _calls(root):
    """Every call in the modules under root, tests left out, by the called
    name (``f(...)`` or ``x.f(...)``)."""
    for path in sorted(root.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    yield name, node


def _sets(call, position, name) -> bool:
    """Does the call pass the parameter, by keyword or by position? A
    ``*args`` or ``**kwargs`` in the call counts as passing everything."""
    if any(kw.arg == name or kw.arg is None for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_no_new_public_function_goes_uncalled():
    defined = {(mod, fn.name) for mod, fn in _public_functions()}
    named = set()
    for path in sorted(SRC.glob("*.py")):
        # a re-export in __init__ is an import alias, not a name, so it
        # does not count as a use
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert {(mod, fn) for mod, fn in defined if fn not in named} == UNCALLED


def test_no_optional_parameter_is_set_only_by_tests():
    # calls are matched by name alone, so a method of the same name can
    # only hide an unset parameter, never flag a set one
    calls = {}
    for root in (SRC, PERFBENCH):
        for name, call in _calls(root):
            calls.setdefault(name, []).append(call)
    unset = {(mod, fn.name, param)
             for mod, fn in _public_functions()
             for position, param in _optional_parameters(fn)
             if not any(_sets(c, position, param) for c in calls.get(fn.name, ()))}
    assert unset == TEST_ONLY_PARAMETERS
