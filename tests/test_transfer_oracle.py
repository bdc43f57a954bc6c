"""The closed-form transfer parameter against its defining property:
beta_xi(to(t*)) - beta_xi(m) equals the target offset, on seeded pairs of
lines toward a common ideal point xi in every model that has lines."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.horofn import busemann_value, ray_toward
from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    MinkowskiLinf,
    MinkowskiLp,
    RealLine,
    boundary_ideal,
    direction_ideal,
    line_through,
    tree_end,
)
from metriclab.suites import ended_tree
from metriclab.transfers import transfer_param

INF = math.inf
TREE = ended_tree()
CASES = {
    "euclidean-2": Euclidean(2),
    "euclidean-3": Euclidean(3),
    "minkowski-l1.5": MinkowskiLp(1.5),
    "minkowski-l3": MinkowskiLp(3.0),
    "minkowski-linf": MinkowskiLinf(),
    "real-line": RealLine(),
    "hyperbolic-inf": HyperbolicPlane(),
    "hyperbolic-finite": HyperbolicPlane(),
    "tree": TREE,
}


def _two_lines(name, rng):
    """(frm, to, xi): two seeded lines of CASES[name] asymptotic to xi, each
    with xi at its +oo or -oo end as rng picks."""
    space = CASES[name]
    anchor = None
    if name == "tree":
        end = rng.choice(TREE.desc.ends)
        xi = tree_end(space, end)

        def other():
            return tree_end(space, rng.choice([e for e in TREE.desc.ends if e != end]))
    elif name.startswith("hyperbolic"):
        x = INF if name == "hyperbolic-inf" else rng.uniform(-2, 2)
        xi = boundary_ideal(space, x)

        def other():
            if x == INF:
                return boundary_ideal(space, rng.uniform(-3, 3))
            return boundary_ideal(space, x + rng.choice((-1, 1)) * rng.uniform(0.5, 3))
    else:
        v = rng.choice((-1.0, 1.0)) if name == "real-line" else \
            [rng.gauss(0, 1) for _ in range(space.dim)]
        xi = direction_ideal(space, v)
        eta = direction_ideal(space, -v if name == "real-line" else [-x for x in v])

        def other():
            return eta

        def anchor():
            return space.random_point(rng, 3.0)

    def line():
        through = anchor() if anchor else None
        if rng.random() < 0.5:
            return line_through(space, other(), xi, through)
        return line_through(space, xi, other(), through)
    return line(), line(), xi


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shifted=st.booleans())
def test_transfer_param_lands_on_the_target_horosphere(name, seed, shifted):
    rng = random.Random(seed)
    space = CASES[name]
    frm, to, xi = _two_lines(name, rng)
    if space.exact:
        m = frm.point_at(Fraction(rng.randint(-8, 8), 4))
        offset = Fraction(rng.randint(-8, 8), 8) if shifted else 0
    else:
        m = frm.point_at(rng.uniform(-2, 2))
        offset = rng.uniform(-2, 2) if shifted else 0
    t = transfer_param(space, frm, to, xi, m, target_offset=offset)
    ray = ray_toward(space, frm, xi)
    resid = busemann_value(space, ray, to.point_at(t)) - busemann_value(space, ray, m) - offset
    if space.exact:
        assert isinstance(t, Fraction) and resid == 0
    else:
        assert abs(resid) <= 1e-12
