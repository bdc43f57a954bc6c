"""A ray's direction is its ideal point. The Busemann closed forms and the
tape builder read a flat ray's direction from ``ray.plus.rep`` and its base
from ``ray.at(0)``; none rebuilds the direction as ``at(1) - at(0)``, which
loses up to |o| * 2^-53 of it at a base o far from the origin. The H^2
closest point and the shadow window read ideal ends the same way. The AST
scan pins the reads, and the far-ray values pin what they give on every
flat model."""

import ast
import inspect
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from metriclab import horofn, spaces, tapes
from metriclab.horofn import busemann_value
from metriclab.spaces import (
    Euclidean,
    MinkowskiLinf,
    MinkowskiLp,
    RealLine,
    closest_param,
    direction_ideal,
    point,
    ray_from,
)


def _evaluations(source, names):
    """(function, parameter) for each ``.at(parameter)`` call, closures
    included, inside a function or method called one of ``names``; the
    parameter is its literal value, or None for an expression. In source
    order."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "at"):
                arg = node.args[0] if node.args else None
                found.append((node.lineno, node.col_offset, fn.name,
                              arg.value if isinstance(arg, ast.Constant) else None))
    return [hit[2:] for hit in sorted(found)]


def test_the_scan_sees_a_differenced_evaluator():
    src = ("class Flat:\n"
           "    def busemann_closed(self, ray, y):\n"
           "        o = ray.at(0)\n"
           "        return vsub(ray.at(1), o)\n"
           "def build_p_tape(space, a, p):\n"
           "    u = vsub(a.at(1.0), a.at(0.0))\n"
           "    return [a.at(z) for z in range(p)]\n")
    assert _evaluations(src, {"busemann_closed", "build_p_tape"}) == [
        ("busemann_closed", 0), ("busemann_closed", 1),
        ("build_p_tape", 1.0), ("build_p_tape", 0.0), ("build_p_tape", None)]


def test_closed_forms_evaluate_a_geodesic_only_at_zero():
    # every busemann_closed evaluates its ray at the literal 0 alone
    hits = _evaluations(Path(spaces.__file__).read_text(), {"busemann_closed"})
    assert hits and all(t == 0 for _, t in hits)
    # the tape builder evaluates its base line at the tape's parameters,
    # never at a literal one but 0
    hits = _evaluations(inspect.getsource(tapes), {"build_p_tape"})
    assert hits and all(t is None or t == 0 for _, t in hits)


def test_h2_feet_and_shadow_windows_read_ideal_ends():
    # H^2 closest points take the frame of the geodesic's end, and the
    # shadow window reads an ideal y's direction from its rep: neither
    # evaluates a geodesic at a literal but 0. Euclidean.closest_param is
    # left out: a segment has no ideal end, and a reversed flat line's
    # plus is only within 1e-9 of its direction.
    hits = _evaluations(textwrap.dedent(inspect.getsource(spaces.HyperbolicPlane.closest_param)),
                        {"closest_param"})
    hits += _evaluations(inspect.getsource(horofn.spherical_shadow_sample),
                         {"spherical_shadow_sample"})
    assert hits and all(t is None or t == 0 for _, t in hits)


FLAT_MODELS = [Euclidean(2), Euclidean(3), MinkowskiLp(1.5), MinkowskiLp(2.0),
               MinkowskiLp(3.0), MinkowskiLinf(), RealLine()]


def _e1(space, s):
    """s times the first unit vector of space."""
    if isinstance(space, RealLine):
        return s
    return (s,) + (0.0,) * (space.dim - 1)


@pytest.mark.parametrize("space", FLAT_MODELS, ids=[m.tag() for m in FLAT_MODELS])
def test_a_far_ray_toward_its_base_direction(space):
    # o = 1e17 e_1, where o + e_1 rounds back to o: the differenced
    # evaluator gave -0.0 on the normed planes and -1e17 on the line
    ray = ray_from(space, point(space, _e1(space, 1e17)),
                   direction_ideal(space, _e1(space, 1.0)))
    assert busemann_value(space, ray, point(space, _e1(space, 0.0))) == 1e17


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_far_euclidean_rays_match_the_exact_value(scale):
    # beta(y) = -<y - o, xi>, in exact arithmetic on the doubles given
    e2 = Euclidean(2)
    o, y = point(e2, (scale, scale / 3.0)), point(e2, (0.0, 0.0))
    xi = direction_ideal(e2, (3.0, 4.0))
    want = -sum((Fraction(a) - Fraction(b)) * Fraction(u)
                for a, b, u in zip(y.coords, o.coords, xi.rep))
    got = busemann_value(e2, ray_from(e2, o, xi), y)
    assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 15) * abs(want)


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_far_euclidean_ray_projects_along_its_ideal_end(scale):
    # the point 50 along the ray from (s, s/3) toward (3, 4)/5, projected
    # back: at(1) - at(0) put its parameter 1.1e-12 off at s = 1e3 and
    # 1.2e-6 off at 1e9; the exact projection of the same doubles onto the
    # direction xi is the reference
    e2 = Euclidean(2)
    o = point(e2, (scale, scale / 3.0))
    xi = direction_ideal(e2, (3.0, 4.0))
    ray = ray_from(e2, o, xi)
    x = ray.point_at(50.0)
    u = [Fraction(c) for c in xi.rep]
    want = (sum((Fraction(a) - Fraction(b)) * c for a, b, c in zip(x.coords, o.coords, u))
            / sum(c * c for c in u))
    t, _ = closest_param(e2, ray, x)
    assert abs(Fraction(t) - want) <= Fraction(1, 10 ** 14)
