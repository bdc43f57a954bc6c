"""Every public top-level function of the package has a caller in the
package. A function that no code in the package names is reachable only
from outside: no suite, CLI path or library check runs it. Such a function
goes into a report or out of the package, so a new one fails this test."""

import ast
from pathlib import Path

import metriclab

SRC = Path(metriclab.__file__).resolve().parent

UNCALLED = set()


def test_no_new_public_function_goes_uncalled():
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        # a re-export in __init__ is an import alias, not a name, so it
        # does not count as a use
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert {(mod, fn) for mod, fn in defined if fn not in named} == UNCALLED
