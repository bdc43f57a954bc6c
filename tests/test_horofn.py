import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metriclab import horofn, suites
from metriclab.horofn import (
    busemann_value,
    check_busemann_sum_bound,
    ray_pseudodistance,
    ray_toward,
    shadow_contains,
    spherical_shadow_sample,
    tits_delta,
)
from metriclab.spaces import (
    ConvergenceError,
    Euclidean,
    GeodesicRef,
    HyperbolicPlane,
    MinkowskiLinf,
    MinkowskiLp,
    SpaceError,
    SphereIntrinsic,
    boundary_ideal,
    direction_ideal,
    distance,
    geodesic_between,
    line_through,
    point,
    ray_from,
    sphere_point,
    tree_edge_point,
    tree_end,
    tree_ray_point,
    tree_vertex,
)
from oracles import _busemann_limit_per_point, _ray_grid, _tits_delta_per_point

INF = math.inf


def test_busemann_euclid_closed_form():
    e2 = Euclidean(2)
    r = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (1, 0)))
    assert busemann_value(e2, r, point(e2, (3, 4))) == -3.0
    assert busemann_value(e2, r, r.point_at(0)) == 0.0
    with pytest.raises(SpaceError, match="unknown method 'auto'"):
        busemann_value(e2, r, r.point_at(0), method="auto")


def test_busemann_limit_matches_closed_form_euclid():
    e2 = Euclidean(2)
    rng = random.Random(20)
    for _ in range(10):
        base = point(e2, (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        ang = rng.uniform(0, 2 * math.pi)
        r = ray_from(e2, base, direction_ideal(e2, (math.cos(ang), math.sin(ang))))
        y = point(e2, (rng.uniform(-5, 5), rng.uniform(-5, 5)))
        closed = busemann_value(e2, r, y, method="closed")
        lim = busemann_value(e2, r, y, method="limit")
        assert abs(closed - lim) <= 1e-6


def test_busemann_limit_refuses_ray_points_past_double_range():
    # d(y, c(0)) = 1e200 on E^2 puts the first truncation T past T_CAP, and
    # the limit says so in one line (the closed form gives 1e200); the H^2
    # ray's heights leave double range. A ray point past double range
    # still refuses itself with SpaceError, as its Point did.
    e2, h = Euclidean(2), HyperbolicPlane()
    r = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (1, 0)))
    y = point(e2, (-1e200, 0))
    with pytest.raises(ConvergenceError,
                       match=r"^Busemann limit: d\(y, c\(0\)\) puts T = 2e\+200 past T_CAP = 1e\+08$"):
        busemann_value(e2, r, y, method="limit")
    assert busemann_value(e2, r, y) == 1e200
    rh = ray_from(h, point(h, (0.0, 1e300)), boundary_ideal(h, INF))
    with pytest.raises(SpaceError, match="leaves double range"):
        busemann_value(h, rh, point(h, (0.0, 1.0)), method="limit")


def test_busemann_minkowski_closed_form_vs_limit():
    l3 = MinkowskiLp(3.0)
    r = ray_from(l3, point(l3, (0, 0)), direction_ideal(l3, (1, 1)))
    y = point(l3, (2, -1))
    closed = busemann_value(l3, r, y, method="closed")
    lim = busemann_value(l3, r, y, method="limit")
    assert abs(closed - lim) <= 1e-6


def test_busemann_limit_survives_extrapolant_plateau():
    # this geometry once produced a coincidental plateau of the accelerated
    # sequence at T ~ 90 while the tail error was still 8e-6; acceptance now
    # demands two consecutive small steps
    e2 = Euclidean(2)
    base = point(e2, (2.937140103819571, 0.8399985591245569))
    ang = 3.4994184469222924
    r = ray_from(e2, base, direction_ideal(e2, (math.cos(ang), math.sin(ang))))
    y = point(e2, (1.8461425098987458, 3.428519201898096))
    closed = busemann_value(e2, r, y, method="closed")
    lim = busemann_value(e2, r, y, method="limit")
    assert abs(closed - lim) <= 1e-6


def test_busemann_minkowski_subquadratic_axis_direction():
    # along a coordinate axis of the l_1.5 plane the limit tail decays like
    # T^(1 - p): the extrapolated oracle must still land within 1e-6
    l15 = MinkowskiLp(1.5)
    r = ray_from(l15, point(l15, (0, 0)), direction_ideal(l15, (1, 0)))
    y = point(l15, (0.5, 3.0))
    closed = busemann_value(l15, r, y, method="closed")
    assert closed == -0.5
    assert abs(busemann_value(l15, r, y, method="limit") - closed) <= 1e-6
    r2 = ray_from(l15, point(l15, (0.3, -0.2)), direction_ideal(l15, (2, 1)))
    y2 = point(l15, (1.5, 2.5))
    assert abs(busemann_value(l15, r2, y2, method="closed")
               - busemann_value(l15, r2, y2, method="limit")) <= 1e-6


def test_busemann_supnorm_closed_form():
    # d(y, c(t)) - t stays at 2.0 up to the kink at t ~ 300 and is -1.0
    # beyond it; the limit oracle accepts the early stretch's intercept
    linf = MinkowskiLinf()
    r = ray_from(linf, point(linf, (0, 0)), direction_ideal(linf, (1, 0.99)))
    y = point(linf, (1, -2))
    assert busemann_value(linf, r, y) == -1.0
    assert distance(linf, y, r.point_at(1e6)) - 1e6 == -1.0
    # a tie between the coordinates keeps both in the maximum
    r2 = ray_from(linf, point(linf, (0, 0)), direction_ideal(linf, (1, -1)))
    y2 = point(linf, (1, 2))
    assert busemann_value(linf, r2, y2) == 2.0
    assert distance(linf, y2, r2.point_at(1e6)) - 1e6 == 2.0


def test_busemann_tree_base_ray_invariance(ended_tree):
    # Busemann functions from different rays to the same end differ by a
    # constant, so value differences are base independent (exactly)
    t = ended_tree
    c1 = ray_from(t, tree_vertex(t, "e2"), tree_end(t, "e1"))
    c2 = ray_from(t, tree_vertex(t, "x0"), tree_end(t, "e1"))
    y, z = tree_vertex(t, "e3"), tree_edge_point(t, 4, Fraction(1, 8))
    d1 = busemann_value(t, c1, y) - busemann_value(t, c1, z)
    d2 = busemann_value(t, c2, y) - busemann_value(t, c2, z)
    assert d1 == d2


def test_busemann_hyperbolic_log_im():
    h = HyperbolicPlane()
    r = ray_from(h, point(h, (0, 1)), boundary_ideal(h, INF))
    y = point(h, (7, 0.5))
    assert abs(busemann_value(h, r, y) - (-math.log(0.5))) < 1e-12
    assert abs(busemann_value(h, r, y, method="limit") + math.log(0.5)) <= 1e-6
    # finite boundary point normalization
    r2 = ray_from(h, point(h, (0.5, 2.0)), boundary_ideal(h, 0.0))
    assert abs(busemann_value(h, r2, r2.point_at(1.3)) + 1.3) < 1e-9


def test_busemann_tree_merge_formula(ended_tree):
    t = ended_tree
    # ray from e2's leaf toward end e1 merges with the path from any y at x0
    c = ray_from(t, tree_vertex(t, "e2"), tree_end(t, "e1"))
    y = tree_vertex(t, "e3")
    # s0 = d(ray start, merge) = 1/2, t0 = d(y, merge) = 1/2
    assert busemann_value(t, c, y) == Fraction(0)
    spur_pt = tree_edge_point(t, 4, Fraction(1, 4))  # on the spur edge
    assert busemann_value(t, c, spur_pt) == Fraction(1, 4) - Fraction(1, 2)
    assert busemann_value(t, c, spur_pt, method="limit") == Fraction(-1, 4)


def test_busemann_one_lipschitz_and_convex():
    e2 = Euclidean(2)
    h = HyperbolicPlane()
    rng = random.Random(9)
    cases = [
        (e2, ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (0.6, 0.8)))),
        (h, ray_from(h, point(h, (0, 1)), boundary_ideal(h, INF))),
    ]
    for space, r in cases:
        pts = []
        for _ in range(12):
            if isinstance(space, Euclidean):
                pts.append(point(space, (rng.uniform(-4, 4), rng.uniform(-4, 4))))
            else:
                pts.append(point(space, (rng.uniform(-3, 3), math.exp(rng.uniform(-1, 1)))))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                bi = busemann_value(space, r, pts[i])
                bj = busemann_value(space, r, pts[j])
                assert abs(bi - bj) <= float(distance(space, pts[i], pts[j])) + 1e-6
        for i in range(0, len(pts) - 1, 2):
            x, y = pts[i], pts[i + 1]
            g = geodesic_between(space, x, y)
            m = g.point_at(float(g.length) / 2)
            mid_val = busemann_value(space, r, m)
            avg = 0.5 * (busemann_value(space, r, x) + busemann_value(space, r, y))
            assert mid_val <= avg + 1e-6


def test_ray_pseudodistance_euclid_parallel():
    e2 = Euclidean(2)
    xi = direction_ideal(e2, (1, 0))
    c = ray_from(e2, point(e2, (0, 0)), xi)
    d = ray_from(e2, point(e2, (0, 1)), xi)
    assert abs(ray_pseudodistance(e2, c, d) - 1.0) <= 1e-9


def test_ray_pseudodistance_tree_exact(ended_tree):
    t = ended_tree
    c = ray_from(t, tree_vertex(t, "e2"), tree_end(t, "e1"))
    d = ray_from(t, tree_vertex(t, "x0"), tree_end(t, "e1"))
    assert ray_pseudodistance(t, c, d) == Fraction(0)
    # rays toward different ends: bridge length between the images
    c2 = ray_from(t, tree_vertex(t, "e1"), tree_end(t, "e1"))
    d2 = ray_from(t, tree_vertex(t, "e2"), tree_end(t, "e2"))
    assert ray_pseudodistance(t, c2, d2) == Fraction(1)


@pytest.mark.parametrize("a, end_a, b, end_b, expected", [
    (("e", 4, Fraction(1, 4)), "e1", ("r", "e2", Fraction(3, 2)), "e2", Fraction(2)),
    (("v", "spur"), "e3", ("v", "spur"), "e4", Fraction(0)),
    (("r", "e1", Fraction(5, 4)), "e1", ("e", 1, Fraction(1, 8)), "e3", Fraction(7, 4)),
    (("v", "e2"), "e1", ("r", "e4", Fraction(1, 2)), "e1", Fraction(0)),
])
def test_ray_pseudodistance_tree_closed_form(ended_tree, a, end_a, b, end_b, expected):
    # the values the tree bridge construction gave before it moved onto
    # MetricTree; rays toward different ends still get the bridge length
    t = ended_tree
    c = ray_from(t, point(t, a), tree_end(t, end_a))
    d = ray_from(t, point(t, b), tree_end(t, end_b))
    for got in (ray_pseudodistance(t, c, d), t.rho_closed(c, d)):
        assert isinstance(got, Fraction) and got == expected


def test_rho_closed_none_without_common_ideal_point():
    e2 = Euclidean(2)
    c = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (1, 0)))
    d = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (0, 1)))
    with pytest.raises(SpaceError, match="rays are not asymptotic"):
        e2.rho_closed(c, d)
    # the sphere has no rays and keeps the base class's refusal
    s2 = SphereIntrinsic(1.0, 3)
    g = geodesic_between(s2, sphere_point(s2, (1, 0, 0)), sphere_point(s2, (0, 1, 0)))
    with pytest.raises(SpaceError, match="rays are not asymptotic"):
        s2.rho_closed(g, g)


def test_ray_pseudodistance_h2_vanishes():
    h = HyperbolicPlane()
    c = ray_from(h, point(h, (0, 1)), boundary_ideal(h, INF))
    d = ray_from(h, point(h, (3, 1)), boundary_ideal(h, INF))
    assert ray_pseudodistance(h, c, d) == 0.0
    assert _ray_grid(h, c, d) <= 1e-3
    # rays toward a finite boundary point converge the same way
    u = boundary_ideal(h, 0.0)
    c2 = ray_from(h, point(h, (-1.0, 1.0)), u)
    d2 = ray_from(h, point(h, (1.5, 0.8)), u)
    assert ray_pseudodistance(h, c2, d2) == 0.0
    assert _ray_grid(h, c2, d2) <= 1e-3


def test_ray_pseudodistance_rejects_diverging():
    e2 = Euclidean(2)
    c = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (1, 0)))
    d = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (0, 1)))
    with pytest.raises(SpaceError):
        ray_pseudodistance(e2, c, d)


def test_ray_pseudodistance_rejects_non_asymptotic():
    # opposite rays that first approach each other: the same-parameter
    # distance shrinks up to t = 100, yet the rays have no common end
    e2 = Euclidean(2)
    c = ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (1, 0)))
    d = ray_from(e2, point(e2, (200, 1)), direction_ideal(e2, (-1, 0)))
    with pytest.raises(SpaceError, match="not asymptotic"):
        ray_pseudodistance(e2, c, d)


def test_sum_bound_examples(ended_tree):
    e2 = Euclidean(2)
    xi = direction_ideal(e2, (1, 0))
    c = ray_from(e2, point(e2, (0, 0)), xi)
    d = ray_from(e2, point(e2, (0, 1)), xi)
    rep = check_busemann_sum_bound(e2, c, d)
    assert rep.passed and abs(rep.counts["sum"]) <= 1e-9

    t = ended_tree
    ct = ray_from(t, tree_vertex(t, "e2"), tree_end(t, "e1"))
    dt = ray_from(t, tree_vertex(t, "e3"), tree_end(t, "e1"))
    rep = check_busemann_sum_bound(t, ct, dt)
    assert rep.passed and rep.counts["sum"] == 0.0

    h = HyperbolicPlane()
    ch = ray_from(h, point(h, (0, 1)), boundary_ideal(h, INF))
    dh = ray_from(h, point(h, (2, 1)), boundary_ideal(h, INF))
    assert check_busemann_sum_bound(h, ch, dh).passed


def test_sum_bound_fails_a_nan_sum():
    # bases 2e308 apart overflow the gap: the Busemann values are inf and
    # -inf, so the sum is nan, and so is rho; both bounds passed a nan
    e2 = Euclidean(2)
    xi = direction_ideal(e2, (1, 0))
    c = ray_from(e2, point(e2, (1e308, 0.0)), xi)
    d = ray_from(e2, point(e2, (-1e308, 0.0)), xi)
    rep = check_busemann_sum_bound(e2, c, d)
    assert not rep.passed and rep.to_json()["counts"] == {"sum": "nan", "rho": "nan"}
    assert [w["reason"] for w in rep.witnesses] == ["negative sum", "exceeds 2 rho"]


def test_sum_bound_refuses_a_foreign_ray_and_a_ray_without_an_ideal_end(ended_tree):
    e2, e3, h, t = Euclidean(2), Euclidean(3), HyperbolicPlane(), ended_tree
    cases = [
        (e2, ray_from(e2, point(e2, (0, 0)), direction_ideal(e2, (1, 0))),
         ray_from(e3, point(e3, (0, 1, 0)), direction_ideal(e3, (1, 0, 0)))),
        (h, ray_from(h, point(h, (0, 1)), boundary_ideal(h, INF)),
         ray_from(e2, point(e2, (2, 1)), direction_ideal(e2, (0, 1)))),
        (t, ray_from(t, tree_vertex(t, "e2"), tree_end(t, "e1")),
         ray_from(h, point(h, (2, 1)), boundary_ideal(h, INF))),
    ]
    for space, c, foreign in cases:
        endless = GeodesicRef(space, "ray", c.at)
        for pair in ((c, foreign), (foreign, c), (c, endless), (endless, c)):
            with pytest.raises(SpaceError):
                check_busemann_sum_bound(space, *pair)
        # busemann_value refuses the foreign ray too, by either method
        for method in ("closed", "limit"):
            with pytest.raises(SpaceError, match="different space"):
                busemann_value(space, foreign, c.point_at(1), method=method)


_LIMIT_MODELS = (Euclidean(2), HyperbolicPlane(), suites.ended_tree())


def _seeded_rays(space, rng):
    """A seeded base point, two distinct ideal points xi, eta and a point y."""
    base, y = space.random_point(rng, 3.0), space.random_point(rng, 3.0)
    if isinstance(space, HyperbolicPlane):
        a = rng.uniform(-3.0, 3.0)
        far = rng.choice((INF, a + rng.choice((-1, 1)) * rng.uniform(0.2, 4.0)))
        return base, boundary_ideal(space, a), boundary_ideal(space, far), y
    if isinstance(space, Euclidean):
        a, turn = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.1, math.pi)
        return (base, direction_ideal(space, (math.cos(a), math.sin(a))),
                direction_ideal(space, (math.cos(a + turn), math.sin(a + turn))), y)
    xi, eta = rng.sample(space.desc.ends, 2)
    return base, tree_end(space, xi), tree_end(space, eta), y


def _outcome(fn, *args, **kwargs):
    """fn's value with its type, or the type and message of what it raised."""
    try:
        v = fn(*args, **kwargs)
    except Exception as err:        # the refusals must agree too
        return type(err), str(err)
    return type(v), v


@pytest.mark.parametrize("space", _LIMIT_MODELS, ids=[m.tag() for m in _LIMIT_MODELS])
@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**6))
@example(seed=12345)
def test_busemann_limit_and_tits_delta_build_no_point(builds, space, seed):
    # the limit loops read the rays' coordinates and the model's distances
    # and give the per-Point loops' values, bit for bit
    base, xi, eta, y = _seeded_rays(space, random.Random(seed))
    ray = ray_from(space, base, xi)
    want = [_outcome(_busemann_limit_per_point, space, ray, y),
            _outcome(_tits_delta_per_point, space, base, xi, eta)]
    builds.update(Point=0)
    got = [_outcome(busemann_value, space, ray, y, method="limit"),
           _outcome(tits_delta, space, base, xi, eta)]
    assert builds["Point"] == 0
    assert got == want
    assert want[0][0] in (float, Fraction)


def test_tits_delta_euclid_angles():
    e2 = Euclidean(2)
    o = point(e2, (0, 0))
    for theta in (0.01, math.pi / 2, math.pi):
        xi = direction_ideal(e2, (1, 0))
        eta = direction_ideal(e2, (math.cos(theta), math.sin(theta)))
        got = tits_delta(e2, o, xi, eta)
        assert abs(got - math.sin(theta / 2)) <= 1e-4


def test_tits_delta_tree_opposite_ends(ended_tree):
    t = ended_tree
    got = tits_delta(t, tree_vertex(t, "x0"), tree_end(t, "e1"), tree_end(t, "e2"))
    assert got == 1.0


def test_tits_delta_waits_until_the_rays_part(ended_tree):
    # both rays run 23/8 down e2's ray and 1/2 along its edge to x0 before
    # they part, so f(1) = f(2) = 0 agree long before the tail; this is the
    # input of seed 12345 in the test above
    t = ended_tree
    o = tree_ray_point(t, "e2", Fraction(23, 8))
    assert tits_delta(t, o, tree_end(t, "e3"), tree_end(t, "e1")) == 1.0
    base, xi, eta, _ = _seeded_rays(t, random.Random(12345))
    assert (base.coords, xi.rep, eta.rep) == (o.coords, "e3", "e1")


def test_tits_delta_rejects_equal_ideals():
    e2 = Euclidean(2)
    xi = direction_ideal(e2, (1, 0))
    with pytest.raises(SpaceError):
        tits_delta(e2, point(e2, (0, 0)), xi, xi)


def test_shadow_membership_euclid_and_tree(star_tree):
    e2 = Euclidean(2)
    y, x0 = point(e2, (-1, 0)), point(e2, (0, 0))
    assert shadow_contains(e2, y, x0, point(e2, (2, 0)))
    assert not shadow_contains(e2, y, x0, point(e2, (0, 2)))
    with pytest.raises(SpaceError):
        shadow_contains(e2, x0, x0, point(e2, (1, 0)))
    # ideal base point: the shadow is read off the Busemann function
    xi = direction_ideal(e2, (-1, 0))
    assert shadow_contains(e2, xi, x0, point(e2, (2, 0)))
    assert not shadow_contains(e2, xi, x0, point(e2, (0, 2)))
    t = star_tree
    assert shadow_contains(t, tree_vertex(t, "l1"), tree_vertex(t, "c"),
                           tree_vertex(t, "l2"), tol=0)
    assert not shadow_contains(t, tree_vertex(t, "l1"), tree_vertex(t, "l2"),
                               tree_vertex(t, "l3"), tol=0)


def test_spherical_shadow_sample():
    e2 = Euclidean(2)
    sample = spherical_shadow_sample(e2, point(e2, (-1, 0)), point(e2, (0, 0)),
                                     1.0, resolution=720, tol=1e-4)
    for z in sample.points:
        assert z.coords[0] > 0.99


def test_spherical_shadow_sample_tests_only_the_window(monkeypatch):
    # the suite's input: the full sweep made 720 shadow_contains calls
    calls = []
    inner = horofn.shadow_contains

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(horofn, "shadow_contains", counting)
    e2 = Euclidean(2)
    sample = spherical_shadow_sample(e2, point(e2, (-2.0, 0.0)), point(e2, (0.0, 0.0)),
                                     1.0, resolution=720, tol=1e-4)
    assert sample.points
    assert len(calls) < 20


def test_spherical_shadow_sample_ideal_base():
    e2 = Euclidean(2)
    sample = spherical_shadow_sample(e2, direction_ideal(e2, (1, 0)), point(e2, (0, 0)),
                                     1.0, resolution=720, tol=1e-4)
    assert sample.points
    for z in sample.points:
        assert z.coords[0] <= -0.99


@pytest.mark.parametrize("rho, resolution", [
    (math.inf, 720), (math.nan, 720), (0.0, 720), (-1.0, 720), ("1", 720), (True, 720),
    (1.0, 0), (1.0, -3), (1.0, 7.0), (1.0, True), (1.0, None)])
def test_spherical_shadow_sample_rejects_degenerate_spheres(rho, resolution):
    e2 = Euclidean(2)
    with pytest.raises(SpaceError):
        spherical_shadow_sample(e2, point(e2, (-1, 0)), point(e2, (0, 0)), rho,
                                resolution=resolution, tol=1e-4)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, "1e-4", None, True])
def test_shadows_reject_bad_tol(tol):
    # inf made every direction a shadow point; nan and -1 asked to widen tol
    e2 = Euclidean(2)
    y, x0 = point(e2, (-2, 0)), point(e2, (0, 0))
    with pytest.raises(SpaceError, match="shadow tolerance"):
        shadow_contains(e2, y, x0, point(e2, (0, 5)), tol=tol)
    with pytest.raises(SpaceError, match="shadow tolerance"):
        spherical_shadow_sample(e2, y, x0, 1.0, resolution=720, tol=tol)


_E2, _H2 = Euclidean(2), HyperbolicPlane()
_Y, _X0 = point(_E2, (-2, 0)), point(_E2, (0, 0))
_UP = ray_from(_E2, _X0, direction_ideal(_E2, (0.0, 1.0)))
_H2_LINE = line_through(_H2, boundary_ideal(_H2, -1.0), boundary_ideal(_H2, 1.0))


@pytest.mark.parametrize("make", [
    lambda: spherical_shadow_sample(_E2, _Y, _X0, rho=10 ** 400),
    lambda: spherical_shadow_sample(_E2, _Y, _X0, 1.0, tol=10 ** 400),
    lambda: shadow_contains(_E2, _Y, _X0, point(_E2, (0, 5)), tol=10 ** 400),
    lambda: busemann_value(_E2, _UP, _Y, method=10 ** 5000),
    # an H^2 line restricted to a ray of E^2 gave beta = 1.718...
    lambda: ray_toward(_E2, _H2_LINE, _H2_LINE.plus),
    lambda: ray_toward(_H2, _UP, _UP.plus),
], ids=["shadow-rho-400-digits", "shadow-tol-400-digits", "contains-tol-400-digits",
        "busemann-method-5001-digits", "ray-toward-h2-line-in-e2", "ray-toward-e2-ray-in-h2"])
def test_bad_input_raises_space_error(make):
    with pytest.raises(SpaceError) as err:
        make()
    assert "\n" not in str(err.value)


def test_shadows_accept_zero_tol():
    e2 = Euclidean(2)
    y, x0 = point(e2, (-1, 0)), point(e2, (0, 0))
    assert shadow_contains(e2, y, x0, point(e2, (2, 0)), tol=0)
    assert shadow_contains(e2, y, x0, point(e2, (2, 0)), tol=0.0)
    sample = spherical_shadow_sample(e2, y, x0, 1.0, resolution=720, tol=0)
    assert [z.coords for z in sample.points] == [(1.0, 0.0)]


def test_spherical_shadow_sample_rejects_bad_bases():
    e2, e3 = Euclidean(2), Euclidean(3)
    x0 = point(e2, (0, 0))
    for y in (x0, point(e3, (1, 0, 0)), direction_ideal(e3, (1, 0, 0)),
              boundary_ideal(_H2, 1.0)):
        with pytest.raises(SpaceError):
            spherical_shadow_sample(e2, y, x0, 1.0, resolution=720, tol=1e-4)
    # an ideal y reads no ray from x0, so x0 is checked on its own
    with pytest.raises(SpaceError, match="does not belong"):
        spherical_shadow_sample(e2, direction_ideal(e2, (1, 0)), point(_H2, (0, 1)), 1.0)


def test_shadow_semicontinuity_spot_check():
    # perturbing the shadow base by 0.01 along the sphere about y moves
    # every sampled shadow point by less than 0.1
    e2 = Euclidean(2)
    y, x0 = point(e2, (-2.0, 0.0)), point(e2, (0.0, 0.0))
    rho, eps, delta = 1.0, 0.1, 0.01
    base = spherical_shadow_sample(e2, y, x0, rho, resolution=720, tol=1e-4)
    dist_yx0 = float(distance(e2, y, x0))
    checked = 0
    k = 0
    while checked < 100:
        phi = (k / 99.0 - 0.5) * (delta / dist_yx0)
        k += 1
        x1 = point(e2, (y.coords[0] + dist_yx0 * math.cos(phi),
                        y.coords[1] + dist_yx0 * math.sin(phi)))
        assert float(distance(e2, x0, x1)) <= delta
        for z in spherical_shadow_sample(e2, y, x1, rho, resolution=720, tol=1e-4).points:
            if checked >= 100:
                break
            checked += 1
            assert min(float(distance(e2, z, w)) for w in base.points) <= eps


def test_ray_toward_reverses_lines():
    h = HyperbolicPlane()
    g = line_through(h, boundary_ideal(h, -1.0), boundary_ideal(h, 1.0))
    r_plus = ray_toward(h, g, boundary_ideal(h, 1.0))
    r_minus = ray_toward(h, g, boundary_ideal(h, -1.0))
    assert r_plus.point_at(0).coords == g.point_at(0).coords
    assert abs(r_minus.point_at(2.0).coords[0] - g.point_at(-2.0).coords[0]) < 1e-12
    with pytest.raises(SpaceError):
        ray_toward(h, g, boundary_ideal(h, 5.0))
