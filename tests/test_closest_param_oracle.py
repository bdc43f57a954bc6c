"""The closed-form ``closest_param`` of ``Euclidean`` (E^2, E^3) and
``HyperbolicPlane`` against the golden-section search oracle
``oracles._closest_search`` on seeded segments, rays, lines and reversed
lines; on H^2 both carriers, vertical lines and semicircles, are covered."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    boundary_ideal,
    direction_ideal,
    geodesic_between,
    line_through,
    point,
    ray_from,
)
from oracles import _closest_search

INF = math.inf
KINDS = ("segment", "ray", "line", "reversed")


def _flat_geodesic(space, kind, rng):
    base = space.random_point(rng, 3.0)
    if kind == "segment":
        # lengths from 0.1 to about 10, so some segments are shorter than 1
        step = [rng.gauss(0, 1) for _ in range(space.dim)]
        scale = rng.uniform(0.1, 5.0) / math.sqrt(sum(x * x for x in step))
        end = point(space, [b + scale * s for b, s in zip(base.coords, step)])
        return geodesic_between(space, base, end)
    xi = direction_ideal(space, [rng.gauss(0, 1) for _ in range(space.dim)])
    if kind == "ray":
        return ray_from(space, base, xi)
    eta = direction_ideal(space, [-x for x in xi.rep])
    line = line_through(space, eta, xi, base)
    return line if kind == "line" else line.reversed()


def _h2_geodesic(space, kind, vertical, rng):
    base = space.random_point(rng, 3.0)
    bx, by = base.coords
    if kind == "segment":
        if vertical:
            end = point(space, (bx, by * math.exp(rng.choice((-1, 1)) * rng.uniform(0.1, 3.0))))
        else:
            end = space.random_point(rng, 3.0)
        return geodesic_between(space, base, end)
    if kind == "ray":
        if vertical:   # up toward oo or down toward the foot bx
            xi = INF if rng.random() < 0.5 else bx
        else:
            xi = rng.uniform(-4.0, 4.0)
        return ray_from(space, base, boundary_ideal(space, xi))
    a = rng.uniform(-3.0, 3.0)
    if vertical:
        ends = (a, INF) if rng.random() < 0.5 else (INF, a)
    else:
        ends = (a, a + rng.choice((-1, 1)) * rng.uniform(0.2, 4.0))
    line = line_through(space, *(boundary_ideal(space, e) for e in ends))
    return line if kind == "line" else line.reversed()


def _point_on(geo, rng):
    """A point of geo, at most 3 from geo(0): the residual there is 0."""
    lo, hi = geo.domain()
    return geo.point_at(rng.uniform(max(lo, -3.0), min(hi, 3.0)))


def _agrees_with_search(space, geo, x):
    t, resid = space.closest_param(geo, x)
    t_search, resid_search = _closest_search(space, geo, x)
    assert abs(resid - resid_search) <= 1e-9
    assert abs(t - t_search) <= 1e-6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space", (Euclidean(2), Euclidean(3)), ids=lambda s: s.tag())
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_euclidean_closest_param_agrees_with_search(space, kind, seed):
    rng = random.Random(seed)
    geo = _flat_geodesic(space, kind, rng)
    _agrees_with_search(space, geo, space.random_point(rng, 5.0))
    _agrees_with_search(space, geo, _point_on(geo, rng))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("vertical", (True, False), ids=("vertical", "semicircle"))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hyperbolic_closest_param_agrees_with_search(kind, vertical, seed):
    h2 = HyperbolicPlane()
    rng = random.Random(seed)
    geo = _h2_geodesic(h2, kind, vertical, rng)
    _agrees_with_search(h2, geo, h2.random_point(rng, 3.0))
    _agrees_with_search(h2, geo, _point_on(geo, rng))
