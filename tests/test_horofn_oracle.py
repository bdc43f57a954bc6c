"""The closed-form asymptotic-ray pseudometric (``Space.rho_closed``)
against the grid oracle ``oracles._ray_grid`` on seeded asymptotic rays and,
on E^2, E^3, E^4 and the normed planes, against the golden-section search
``oracles._parallel_gap``; and the closed-form shadow window of
``spherical_shadow_sample`` against the full sweep ``oracles._shadow_sweep``."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab.horofn import ray_pseudodistance, spherical_shadow_sample
from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    MinkowskiLinf,
    MinkowskiLp,
    RealLine,
    SpaceError,
    boundary_ideal,
    closest_param,
    direction_ideal,
    point,
    ray_from,
)
from oracles import _parallel_gap, _ray_grid, _shadow_sweep

INF = math.inf


ORACLE_MODELS = (Euclidean(2), Euclidean(3), MinkowskiLp(1.5), MinkowskiLp(3.0),
                 MinkowskiLinf(), RealLine(), HyperbolicPlane())


def _asymptotic_rays(space, seed):
    """Two seeded rays toward one ideal point of `space`."""
    rng = random.Random(seed)
    if isinstance(space, HyperbolicPlane):
        xi = boundary_ideal(space, INF if rng.random() < 0.5 else rng.uniform(-2, 2))
    elif isinstance(space, RealLine):
        xi = direction_ideal(space, rng.choice((-1.0, 1.0)))
    else:
        xi = direction_ideal(space, [rng.gauss(0, 1) for _ in range(space.dim)])
    base = [space.random_point(rng, 3.0) for _ in range(2)]
    return ray_from(space, base[0], xi), ray_from(space, base[1], xi)


@pytest.mark.parametrize("space", ORACLE_MODELS, ids=lambda s: s.tag())
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rho_closed_agrees_with_grid_oracle(space, seed):
    c, d = _asymptotic_rays(space, seed)
    closed = space.rho_closed(c, d)
    assert closed is not None
    grid = _ray_grid(space, c, d)
    # the grid takes the inf over a subset of the same set
    assert closed <= grid + 1e-12
    if isinstance(space, HyperbolicPlane):
        # on H^2 the infimum is approached only at infinity and the grid
        # settles up to 8.5e-3 above it; certify rho = 0 instead by the
        # distance from a far point of c to the ray d, an upper bound on rho
        assert closed == 0.0
        assert closest_param(space, d, c.point_at(30.0))[1] <= 1e-9
    else:
        assert abs(closed - grid) <= 1e-3


def test_far_points_of_asymptotic_h2_rays_lie_on_each_other():
    # c(30) is within 1e-9 of ray d on every seeded pair toward a finite
    # boundary point; both rays and the foot run in the frame of xi
    h2, finite = HyperbolicPlane(), 0
    for seed in range(2000):
        c, d = _asymptotic_rays(h2, seed)
        if c.plus.rep != INF:
            finite += 1
            assert closest_param(h2, d, c.point_at(30.0))[1] <= 1e-9, seed
    assert finite == 960


NORMED = (Euclidean(2), Euclidean(3), Euclidean(4), MinkowskiLp(1.5), MinkowskiLp(2.0),
          MinkowskiLp(3.0), MinkowskiLinf())


@pytest.mark.parametrize("space", NORMED, ids=lambda s: s.tag())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_planar_rho_closed_agrees_with_search(space, seed):
    # the orthogonal gap on E^n and the dual-norm form on the planes against
    # the golden-section search they replaced
    c, d = _asymptotic_rays(space, seed)
    assert abs(ray_pseudodistance(space, c, d) - _parallel_gap(space, c, d)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
       b=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
       ang=st.floats(0, 2 * math.pi))
def test_rho_closed_euclid_is_perpendicular_offset(a, b, ang):
    e2 = Euclidean(2)
    u = (math.cos(ang), math.sin(ang))
    xi = direction_ideal(e2, u)
    c, d = ray_from(e2, point(e2, a), xi), ray_from(e2, point(e2, b), xi)
    offset = abs(u[0] * (b[1] - a[1]) - u[1] * (b[0] - a[0]))
    assert abs(ray_pseudodistance(e2, c, d) - offset) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ideal=st.booleans(),
       x0=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
       ang=st.floats(-2 * math.pi, 2 * math.pi),
       dist=st.floats(1e-3, 30),
       rho=st.floats(1e-3, 30),
       tol=st.floats(1e-9, 3),
       resolution=st.sampled_from((1, 7, 360, 720, 1000)))
# the suite's case: the window wraps through the direction k = 0
@example(ideal=False, x0=(0.0, 0.0), ang=0.0, dist=2.0, rho=1.0, tol=1e-4, resolution=720)
@example(ideal=True, x0=(0.0, 0.0), ang=0.0, dist=1.0, rho=1.0, tol=1e-4, resolution=720)
# the whole circle: D + rho <= tol, and tol / rho >= 2 for ideal y
@example(ideal=False, x0=(1.0, -2.0), ang=1.0, dist=0.5, rho=0.5, tol=2.0, resolution=360)
@example(ideal=True, x0=(1.0, -2.0), ang=1.0, dist=1.0, rho=0.5, tol=1.5, resolution=360)
def test_shadow_window_agrees_with_sweep(ideal, x0, ang, dist, rho, tol, resolution):
    e2 = Euclidean(2)
    # u is the direction from y through x0, so the shadow sits around x0 + rho u
    u = (math.cos(ang), math.sin(ang))
    if ideal:
        y = direction_ideal(e2, (-u[0], -u[1]))
    else:
        y = point(e2, (x0[0] - dist * u[0], x0[1] - dist * u[1]))
    x0 = point(e2, x0)
    try:
        want = _shadow_sweep(e2, y, x0, rho, resolution, tol)
    except SpaceError:
        with pytest.raises(SpaceError):
            spherical_shadow_sample(e2, y, x0, rho, resolution=resolution, tol=tol)
        return
    got = spherical_shadow_sample(e2, y, x0, rho, resolution=resolution, tol=tol)
    assert got.points == want.points


def test_shadow_window_and_sweep_raise_on_empty_shadow():
    # no direction 2 pi k / 7 lies within 1e-4 rad of the arc's centre pi / 2
    e2 = Euclidean(2)
    y, x0 = point(e2, (0.0, -1.0)), point(e2, (0.0, 0.0))
    with pytest.raises(SpaceError, match="no shadow points"):
        _shadow_sweep(e2, y, x0, 1.0, 7, 1e-9)
    with pytest.raises(SpaceError, match="no shadow points"):
        spherical_shadow_sample(e2, y, x0, 1.0, resolution=7, tol=1e-9)
