"""No ``raise`` in the package spells a value with ``repr``: an error
message echoes a caller's value through ``spaces._shown``, because ``repr``
(and ``!r`` or ``%r``) itself raises ValueError on an int past Python's
limit on digits in a str, which would replace the intended error."""

import ast
import math
from pathlib import Path

import pytest

import metriclab
from metriclab.horofn import check_busemann_sum_bound
from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    SpaceError,
    direction_ideal,
    line_through,
    on_geodesic,
    point,
    ray_from,
)
from metriclab.tapes import build_p_tape, validate_p_tape, validate_r_sequence
from metriclab.transfers import hyperbolic_scissors, validate_scissors

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


def _tol_checks():
    """One verdict per float check that takes a ``tol`` and had no guard
    on it, each on inputs that pass at the default tol."""
    e2, h = Euclidean(2), HyperbolicPlane()
    xi = direction_ideal(e2, (1.0, 0.0))
    line = line_through(e2, direction_ideal(e2, (-1.0, 0.0)), xi, point(e2, (0.0, 0.0)))
    c = ray_from(e2, point(e2, (0.0, 0.0)), xi)
    d = ray_from(e2, point(e2, (0.0, 1.0)), xi)
    row = {z: point(e2, (float(z), 0.0)) for z in range(-3, 4)}
    tape = build_p_tape(e2, line, 3, 0.8)
    return {
        "r-sequence": lambda tol: validate_r_sequence(e2, row, tol=tol).passed,
        "p-tape": lambda tol: validate_p_tape(tape, tol=tol).passed,
        "scissors": lambda tol: validate_scissors(h, hyperbolic_scissors(), tol=tol).passed,
        "sum-bound": lambda tol: check_busemann_sum_bound(e2, c, d, tol=tol).passed,
        "on-geodesic": lambda tol: on_geodesic(e2, line, row[3], tol=tol)[0],
    }


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_every_float_check_refuses_a_tol_that_is_not_finite_and_nonnegative(tol):
    # a nan or negative tol fails every comparison and an infinite one
    # passes every comparison, a wrong verdict with no error
    for name, check in _tol_checks().items():
        assert check(1e-9), name
        with pytest.raises(SpaceError, match="tol must be a finite number >= 0"):
            check(tol)
