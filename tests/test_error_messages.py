"""No ``raise`` in the package spells a value with ``repr``: an error
message echoes a caller's value through ``spaces._shown``, because ``repr``
(and ``!r`` or ``%r``) itself raises ValueError on an int past Python's
limit on digits in a str, which would replace the intended error."""

import ast
from pathlib import Path

import metriclab

PACKAGE = Path(metriclab.__file__).parent


def _repr_in_raises(source):
    """Line of each ``raise`` whose exception expression formats a value
    with ``!r`` or ``%r``, or calls ``repr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        for sub in ast.walk(node.exc):
            if ((isinstance(sub, ast.FormattedValue) and sub.conversion == ord("r"))
                    or (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                        and sub.func.id == "repr")
                    or (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                        and ("%r" in sub.value or "!r}" in sub.value))):
                found.append(node.lineno)
                break
    return found


def test_the_scan_sees_repr_in_a_message():
    src = ("def f(x):\n"
           "    if x == 1:\n"
           "        raise ValueError(f'bad {x!r}')\n"
           "    if x == 2:\n"
           "        raise ValueError('bad ' + repr(x))\n"
           "    if x == 3:\n"
           "        raise ValueError('bad %r' % (x,))\n"
           "    if x == 4:\n"
           "        raise ValueError('bad {!r}'.format(x))\n"
           "    if x == 5:\n"
           "        raise\n"
           "    raise ValueError(f'bad {_shown(x)}: {x}')\n")
    assert _repr_in_raises(src) == [3, 5, 7, 9]


def test_no_raise_spells_a_value_with_repr():
    hits = [(path.name, line) for path in sorted(PACKAGE.rglob("*.py"))
            for line in _repr_in_raises(path.read_text())]
    assert hits == []
