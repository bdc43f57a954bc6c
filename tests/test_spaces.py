import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import suites
from metriclab.grasshopper import UnitJumpGraph
from metriclab.horofn import busemann_value
from metriclab.spaces import (
    AmbiguousError,
    DegenerateError,
    Euclidean,
    HyperbolicPlane,
    IdealPoint,
    MaxProduct,
    MetricTree,
    MinkowskiLinf,
    MinkowskiLp,
    Point,
    RealLine,
    Space,
    SpaceError,
    SphereIntrinsic,
    TreeDesc,
    boundary_ideal,
    closest_param,
    direction_ideal,
    distance,
    distance_rows,
    geodesic_between,
    line_through,
    midpoint,
    on_geodesic,
    pnorm,
    point,
    ray_from,
    sphere_point,
    tree_edge_point,
    tree_end,
    tree_ray_point,
    tree_vertex,
)
from metriclab.verify import (
    BijectionSpec,
    SampleSet,
    check_metric_axioms,
    is_isometry,
    preserves_unit_distance,
    random_sample,
)
from oracles import _normed_distance, _sphere_distance


def test_euclid_pythagoras():
    e2 = Euclidean(2)
    assert distance(e2, point(e2, (0, 0)), point(e2, (3, 4))) == 5.0


def test_star_tree_leaf_distance_exact(star_tree):
    d = distance(star_tree, tree_vertex(star_tree, "l1"), tree_vertex(star_tree, "l2"))
    assert d == Fraction(1)
    assert isinstance(d, Fraction)


def test_hyperbolic_log_e_distance():
    h = HyperbolicPlane()
    d = distance(h, point(h, (0, 1)), point(h, (0, math.e)))
    assert abs(d - 1.0) < 1e-12
    # agrees with the arccosh form
    assert abs(d - math.acosh(1 + (math.e - 1) ** 2 / (2 * math.e))) < 1e-12


@pytest.mark.parametrize("height", [1e-170, 1e-160])
def test_hyperbolic_distance_between_tiny_heights(height):
    # the product of the two heights underflowed: to 0 at 1e-170, which
    # divided by zero, and to a subnormal at 1e-160, which gave 0.96242863
    h = HyperbolicPlane()
    a, b = point(h, (0.0, height)), point(h, (height, height))
    assert abs(distance(h, a, b) - 2.0 * math.asinh(0.5)) <= 1e-15
    assert distance(h, b, a) == distance(h, a, b)


# at heights near 1e308 the plain denominator 2 sqrt(Im z) sqrt(Im w)
# overflows to inf, where a width past double range read inf / inf = nan
# and a finite one read 0; the row recomputes those pairs with halved gaps.
# The true values (mpmath, 200 bits) are 2 asinh(1) and 2 asinh(1e307 / 2e308).
# At tiny heights a wide gap overflows the halved quotient too, which read
# inf; that pair takes asinh(q) as log(2q) on logs (true value by mpmath's
# acosh at 60 digits)
@pytest.mark.parametrize("a, b, want", [
    ((1e308, 1e308), (-1e308, 1e308), 1.762747174039086),
    ((0.0, 1e308), (1e307, 1e308), 0.09995838013869733),
    ((0.0, 1e-300), (1e10, 1e-300), 1427.6027576563083),
], ids=["width-past-double-range", "finite-width", "tiny-heights-wide-gap"])
def test_hyperbolic_row_at_heights_near_double_range(a, b, want):
    assert math.isclose(HyperbolicPlane().row(a, [b])[0], want, rel_tol=1e-15)


# squaring each gap before the root would read a gap past about 1.3e154 as
# inf and one below about 1.5e-154 as 0.0; math.dist scales its inputs
@pytest.mark.parametrize("gap", [1e200, 1e-200], ids=["overflows", "underflows"])
def test_euclidean_row_at_gaps_near_double_range(gap):
    assert Euclidean(2).row((0.0, 0.0), [(gap, 0.0)])[0] == gap


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_distances_do_not_depend_on_their_row_companions(p):
    # a plain value that underflowed below the smallest normal double to
    # the power 1/p is rescaled pair by pair, whatever else the row holds
    lp = MinkowskiLp(p)
    o, bs = (0.0, 0.0), [(1e200, 0.0), (1e-200, 0.0), (1e-120, 1e-120)]
    alone = [lp.distance(o, b) for b in bs]
    assert [d.hex() for d in lp.row(o, bs)] == [d.hex() for d in alone]
    for got, want in zip(alone, (1e200, 1e-200, 2 ** (1 / p) * 1e-120)):
        assert math.isclose(got, want, rel_tol=1e-12)
    assert lp.row(o, [o, o]) == [0.0, 0.0]
    # at tol 0 the identity tells the two points apart: d = 1e-200 > 0
    sample = SampleSet(lp, (point(lp, o), point(lp, bs[1])))
    rep = check_metric_axioms(lp, sample, triples=20, tol=0.0)
    assert rep.passed, rep.witnesses


def test_minkowski_p_norm_distance():
    l3 = MinkowskiLp(3.0)
    d = distance(l3, point(l3, (0, 0)), point(l3, (1, 1)))
    assert abs(d - 2 ** (1 / 3)) < 1e-12


def test_sphere_distance_and_antipode():
    s = SphereIntrinsic(1 / math.pi, 3)
    a = sphere_point(s, (1, 0, 0))
    b = sphere_point(s, (-1, 0, 0))
    assert abs(distance(s, a, b) - 1.0) < 1e-12
    c = sphere_point(s, (0, 1, 0))
    assert abs(distance(s, a, c) - 0.5) < 1e-12


def test_max_product_distance_is_max():
    mp = MaxProduct(Euclidean(2), RealLine())
    x = Point(mp, ((0.0, 0.0), 0.0))
    y = Point(mp, ((3.0, 4.0), 2.0))
    assert distance(mp, x, y) == 5.0


def test_point_space_mismatch_raises():
    e2, e3 = Euclidean(2), Euclidean(3)
    with pytest.raises(SpaceError):
        distance(e2, point(e2, (0, 0)), point(e3, (0, 0, 0)))


def test_geodesic_straight_segment():
    e2 = Euclidean(2)
    g = geodesic_between(e2, point(e2, (0, 0)), point(e2, (2, 0)))
    assert g.point_at(1.0).coords == (1.0, 0.0)
    assert g.length == 2.0


def test_tree_midpoint_at_center(star_tree):
    m = midpoint(star_tree, tree_vertex(star_tree, "l1"), tree_vertex(star_tree, "l2"))
    assert m.coords == ("v", "c")


def test_tree_midpoint_across_edges_exact(star_tree):
    from metriclab.spaces import tree_edge_point
    x = tree_edge_point(star_tree, 0, Fraction(1, 8))    # on edge c-l1
    y = tree_edge_point(star_tree, 1, Fraction(3, 8))    # on edge c-l2
    d = distance(star_tree, x, y)
    assert d == Fraction(1, 2)
    m = midpoint(star_tree, x, y)
    # both halves are exact rationals
    assert distance(star_tree, x, m) == d / 2
    assert distance(star_tree, m, y) == d / 2


def test_hyperbolic_semicircle_apex():
    h = HyperbolicPlane()
    a, b = point(h, (-1, 0.1)), point(h, (1, 0.1))
    g = geodesic_between(h, a, b)
    apex = g.point_at(distance(h, a, b) / 2)
    assert abs(apex.coords[0]) < 1e-9
    assert abs(apex.coords[1] - math.sqrt(1.01)) < 1e-9


@pytest.mark.parametrize("build", [
    lambda: (Euclidean(2), geodesic_between(Euclidean(2), point(Euclidean(2), (0, 0)),
                                            point(Euclidean(2), (3, 4)))),
    lambda: (MinkowskiLp(1.5), geodesic_between(MinkowskiLp(1.5),
                                                point(MinkowskiLp(1.5), (0, 1)),
                                                point(MinkowskiLp(1.5), (2, -1)))),
    lambda: (HyperbolicPlane(), geodesic_between(HyperbolicPlane(),
                                                 point(HyperbolicPlane(), (-2, 0.5)),
                                                 point(HyperbolicPlane(), (1, 2.0)))),
    lambda: (SphereIntrinsic(1.0, 3),
             geodesic_between(SphereIntrinsic(1.0, 3),
                              sphere_point(SphereIntrinsic(1.0, 3), (1, 0, 0)),
                              sphere_point(SphereIntrinsic(1.0, 3), (0, 1, 1)))),
])
def test_unit_speed_sampled(build):
    space, g = build()
    length = float(g.length)
    rng = random.Random(5)
    for _ in range(40):
        s, t = sorted(rng.uniform(0, length) for _ in range(2))
        d = float(distance(space, g.point_at(s), g.point_at(t)))
        assert abs(d - (t - s)) <= 1e-9


def test_unit_speed_tree_line_exact(ended_tree):
    line = line_through(ended_tree, tree_end(ended_tree, "e1"), tree_end(ended_tree, "e2"))
    for s, t in ((Fraction(-3), Fraction(2)), (Fraction(1, 4), Fraction(7, 2))):
        d = distance(ended_tree, line.point_at(s), line.point_at(t))
        assert d == t - s


def test_hyperbolic_line_through_unit_circle():
    h = HyperbolicPlane()
    g = line_through(h, boundary_ideal(h, -1.0), boundary_ideal(h, 1.0))
    x, y = g.point_at(0.0).coords
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12
    far = g.point_at(20.0).coords
    assert abs(far[0] - 1.0) < 1e-6


def test_euclid_ray_from_point():
    e2 = Euclidean(2)
    r = ray_from(e2, point(e2, (1, 1)), direction_ideal(e2, (0, 1)))
    assert r.point_at(2.0).coords == (1.0, 3.0)


def test_flat_line_requires_opposite_directions_and_anchor():
    e2 = Euclidean(2)
    xi = direction_ideal(e2, (1, 0))
    up = direction_ideal(e2, (0, 1))
    with pytest.raises(SpaceError):
        line_through(e2, up, xi, point(e2, (0, 0)))
    with pytest.raises(SpaceError):
        line_through(e2, direction_ideal(e2, (-1, 0)), xi)


def test_hyperbolic_vertical_ray_down():
    h = HyperbolicPlane()
    r = ray_from(h, point(h, (0.0, 2.0)), boundary_ideal(h, 0.0))
    x, y = r.point_at(1.5).coords
    assert x == 0.0 and abs(y - 2.0 * math.exp(-1.5)) < 1e-12
    assert abs(distance(h, r.point_at(0.3), r.point_at(2.1)) - 1.8) <= 1e-9


def test_hyperbolic_far_points_raise_instead_of_pinning():
    h = HyperbolicPlane()
    o = point(h, (0.0, 1.0))
    for xi in (math.inf, 2.0, 0.0):   # up, along an arc, straight down
        r = ray_from(h, o, boundary_ideal(h, xi))
        assert r.point_at(700).coords[1] > 0
        with pytest.raises(SpaceError):
            r.point_at(720 if xi != 0.0 else 800)
    # behind the base of the ray down to 0 the frame point u + i v e^t
    # underflows to 0, which has no image
    with pytest.raises(SpaceError, match="leaves double range"):
        r.point_at(-800)


def test_hyperbolic_segments_end_at_their_endpoint():
    # a segment runs in the frame of the end that rounds its far point
    # least: the end beyond b, or for a near-vertical climb, whose end
    # beyond b is far out, the end behind a
    h = HyperbolicPlane()
    rng = random.Random(0)
    pairs = [(h.random_point(rng, 3.0), h.random_point(rng, 3.0)) for _ in range(5000)]
    for dx in (1e-6, 1e-9, 1e-12, 1e-15):
        for a, b in (((0.3, 0.5), (0.3 + dx, 3.0)), ((0.3, 3.0), (0.3 + dx, 0.5))):
            pairs.append((point(h, a), point(h, b)))
    for a, b in pairs:
        g = geodesic_between(h, a, b)
        assert distance(h, g.point_at(g.length), b) <= 1e-12, (a, b)


@pytest.mark.parametrize("t", [-30.0, -25.0, 25.0, 30.0])
def test_hyperbolic_line_halves_keep_to_their_semicircle(t):
    # each half of a line runs in the frame of the end it heads for; the
    # gap from c(t) to the carrier |z - m| = r, exact in Fractions on the
    # double coordinates, is asinh(| |z - m|^2 - r^2 | / (2 r Im z)). The
    # frame of xi alone would put c(-30) 1.6e-3 off it.
    h = HyperbolicPlane()
    rng = random.Random(1)
    for _ in range(200):
        eta, xi = rng.uniform(-2, 2), rng.uniform(-2, 2)
        x, y = map(Fraction, line_through(h, boundary_ideal(h, eta), boundary_ideal(h, xi)).at(t))
        m, r = (Fraction(eta) + Fraction(xi)) / 2, abs(Fraction(xi) - Fraction(eta)) / 2
        assert math.asinh(abs((x - m) ** 2 + y * y - r * r) / (2 * r * y)) <= 1e-10


def test_hyperbolic_busemann_level_past_double_range_is_refused():
    # toward xi = 1 the offset of c(380) from xi is near 1e-165, and its
    # square underflows to 0, whose log is a math error
    h = HyperbolicPlane()
    r = ray_from(h, point(h, (0.0, 1.0)), boundary_ideal(h, 1.0))
    assert abs(busemann_value(h, r, r.point_at(360.0)) + 360.0) <= 1e-11
    with pytest.raises(SpaceError, match="Busemann level of .* leaves double range") as err:
        busemann_value(h, r, r.point_at(380.0))
    assert "\n" not in str(err.value)


def test_midpoint_defining_equalities():
    cases = []
    e2 = Euclidean(2)
    cases.append((e2, point(e2, (0, 0)), point(e2, (2, 2))))
    h = HyperbolicPlane()
    cases.append((h, point(h, (-1, 0.4)), point(h, (2, 1.7))))
    l15 = MinkowskiLp(1.5)
    cases.append((l15, point(l15, (0, 0)), point(l15, (1, 3))))
    for space, x, y in cases:
        m = midpoint(space, x, y)
        d = float(distance(space, x, y))
        assert abs(float(distance(space, x, m)) - d / 2) <= 1e-12
        assert abs(float(distance(space, m, y)) - d / 2) <= 1e-12


def test_linf_extreme_midpoints():
    linf = MinkowskiLinf()
    x, y = point(linf, (0, 0)), point(linf, (2, 0))
    assert midpoint(linf, x, y, selector="upper extreme").coords == (1.0, 1.0)
    assert midpoint(linf, x, y, selector="lower extreme").coords == (1.0, -1.0)
    z = point(linf, (2, 2))
    assert midpoint(linf, x, z, selector="upper extreme").coords == (1.0, 1.0)
    with pytest.raises(SpaceError):
        midpoint(linf, x, y, selector="sideways")


@pytest.mark.parametrize("selector", ["upper extreme", "lower extreme", "sideways"])
def test_midpoint_selectors_refused_off_the_sup_norm_plane(selector, star_tree):
    e2, h, l15 = Euclidean(2), HyperbolicPlane(), MinkowskiLp(1.5)
    for space, x, y in ((e2, point(e2, (0, 0)), point(e2, (2, 0))),
                        (h, point(h, (0, 1)), point(h, (2, 1))),
                        (l15, point(l15, (0, 0)), point(l15, (2, 0))),
                        (star_tree, tree_vertex(star_tree, "l1"), tree_vertex(star_tree, "l2"))):
        with pytest.raises(SpaceError):
            midpoint(space, x, y, selector=selector)


def test_tree_end_refuses_a_non_tree(ended_tree):
    for space in (Euclidean(2), RealLine(), HyperbolicPlane()):
        with pytest.raises(SpaceError):
            tree_end(space, "e1")
    assert tree_end(ended_tree, "e1").rep == "e1"


def test_tree_edge_point_refuses_a_non_tree(ended_tree):
    for space in (Euclidean(2), RealLine(), SphereIntrinsic(1.0, 3)):
        with pytest.raises(SpaceError):
            tree_edge_point(space, 0, Fraction(1, 4))
    assert tree_edge_point(ended_tree, 0, Fraction(1, 4)).coords == ("e", 0, Fraction(1, 4))


@pytest.mark.parametrize("offset", [0, 1])
def test_tree_ray_point_refuses_a_non_end_at_every_offset(ended_tree, offset):
    for vid in ("x0", "spur"):
        with pytest.raises(SpaceError, match="not a declared end"):
            tree_ray_point(ended_tree, vid, offset)
    with pytest.raises(SpaceError, match="expected a MetricTree"):
        tree_ray_point(Euclidean(2), "e1", offset)
    assert tree_ray_point(ended_tree, "e1", 0).coords == ("v", "e1")
    assert tree_ray_point(ended_tree, "e1", 1).coords == ("r", "e1", 1)


@pytest.mark.parametrize("make", [Euclidean], ids=["euclidean"])
@pytest.mark.parametrize("dim", [0, -1])
def test_normed_spaces_refuse_a_dimension_below_one(make, dim):
    with pytest.raises(SpaceError, match="dimension must be positive"):
        make(dim)
    assert make(1).distance((0.0,), (-2.0,)) == 2.0


@pytest.mark.parametrize("make", [
    lambda: Euclidean(2.0),                  # was accepted, tagged euclidean-2.0
    lambda: Euclidean(True),                 # was E^1, tagged euclidean-True
    lambda: Euclidean("2"),                  # was a bare TypeError
    lambda: MinkowskiLp("2"),
    lambda: SphereIntrinsic("1", 3),
    lambda: SphereIntrinsic(1.0, 2.5),       # was a TypeError from random_point
    lambda: SphereIntrinsic(math.nan, 3),    # was accepted as sphere-rnan-d3
    lambda: TreeDesc(("a", "b"), (("a", "b", Fraction(1, 2)),), denominator_bound=2.0),
    # a Fraction was accepted, and tag() then raised TypeError before Python 3.12
    lambda: MinkowskiLp(Fraction(3, 2)),
    lambda: SphereIntrinsic(Fraction(1, 2), 3),
], ids=["euclidean-float-dim", "euclidean-bool-dim", "euclidean-str-dim", "lp-str-p",
        "sphere-str-radius", "sphere-float-dim", "sphere-nan-radius", "tree-float-bound",
        "lp-fraction-p", "sphere-fraction-radius"])
def test_constructors_refuse_wrong_input_types(make):
    # a dimension or denominator bound is an int that is not a bool; a
    # radius or p is a finite int or float
    with pytest.raises(SpaceError) as err:
        make()
    assert "\n" not in str(err.value)


def test_sphere_point_refuses_a_non_sphere():
    for space in (Euclidean(3), MinkowskiLp(1.5), RealLine()):
        with pytest.raises(SpaceError):
            sphere_point(space, (3, 4, 0))
    assert sphere_point(SphereIntrinsic(1.0, 3), (3, 4, 0)).coords == (0.6, 0.8, 0.0)


def test_closest_param_refuses_a_geodesic_of_another_space():
    # the closed forms read the geodesic's coordinates directly, so a
    # geodesic of another model must be refused before they run
    e2, h2 = Euclidean(2), HyperbolicPlane()
    e2_line = line_through(e2, direction_ideal(e2, (-1.0, 0.0)),
                           direction_ideal(e2, (1.0, 0.0)), point(e2, (0.0, 1.0)))
    h2_line = line_through(h2, boundary_ideal(h2, -1.0), boundary_ideal(h2, 1.0))
    for space, geo in ((e2, h2_line), (h2, e2_line)):
        x = point(space, (0.5, 2.0))
        for check in (closest_param, on_geodesic):
            with pytest.raises(SpaceError, match="geodesic belongs to a different space"):
                check(space, geo, x)
    assert closest_param(e2, e2_line, point(e2, (0.5, 2.0))) == (0.5, 1.0)
    assert on_geodesic(h2, h2_line, point(h2, (0.0, 1.0)))[0]


def test_degenerate_and_antipodal_errors():
    e2 = Euclidean(2)
    with pytest.raises(DegenerateError):
        geodesic_between(e2, point(e2, (1, 1)), point(e2, (1, 1)))
    s = SphereIntrinsic(1.0, 3)
    with pytest.raises(AmbiguousError):
        geodesic_between(s, sphere_point(s, (1, 0, 0)), sphere_point(s, (-1, 0, 0)))
    h = HyperbolicPlane()
    with pytest.raises(DegenerateError):
        line_through(h, boundary_ideal(h, 1.0), boundary_ideal(h, 1.0))


def test_point_coords_must_be_real_numbers():
    # a flat, hyperbolic, sphere or line point holds numbers, not strings or dicts
    e2, h, s, rl = Euclidean(2), HyperbolicPlane(), SphereIntrinsic(1.0, 2), RealLine()
    for space, c in ((rl, "abc"), (rl, {1: 2}), (rl, (1.0,)), (rl, None),
                     (e2, ({1: 2}, 3.0)), (e2, ("0", 0.0)), (h, ("0", 1.0)),
                     (h, ({}, 1.0)), (s, ("1", "0")), (s, ({1: 2}, 0.0)),
                     (MaxProduct(e2, rl), ((0.0, 0.0), "1"))):
        with pytest.raises(SpaceError):
            Point(space, c)
    for space, c in ((rl, 1), (rl, Fraction(1, 3)), (e2, (0, Fraction(1, 2))),
                     (h, (0, 1)), (s, (1, 0))):
        Point(space, c)


@pytest.mark.parametrize("space, good", [
    (Euclidean(2), (0.0, 1.0)), (Euclidean(3), (0.0, 1.0, 2.0)), (MinkowskiLp(3.0), (0.0, 1.0)),
    (MinkowskiLinf(), (0.0, 1.0)), (HyperbolicPlane(), (0.0, 1.0)),
    (SphereIntrinsic(1.0, 3), (0.0, 1.0, 0.0)), (RealLine(), 1.0),
], ids=["euclidean-2", "euclidean-3", "minkowski-l3", "minkowski-linf", "hyperbolic",
        "sphere", "real-line"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400, Fraction(-10 ** 400, 3)],
                         ids=["nan", "inf", "-inf", "int-beyond-double", "fraction-beyond-double"])
def test_points_refuse_non_finite_coordinates(space, good, bad):
    # each coordinate in turn is NaN, an infinity, or an exact number that
    # no double holds: a SpaceError, never an OverflowError or a point
    Point(space, good)
    cases = ([good[:i] + (bad,) + good[i + 1:] for i in range(len(good))]
             if isinstance(good, tuple) else [bad])
    for c in cases:
        with pytest.raises(SpaceError, match="finite"):
            Point(space, c)
        with pytest.raises(SpaceError):
            point(space, c)


HUGE = 10 ** 5000      # repr refuses an int of more than 4300 digits
THIRD = Fraction(HUGE, 3)
_TREE = suites.ended_tree()
_FLOAT_POINTS = ((Euclidean(2), (0.0, 1.0)), (Euclidean(3), (0.0, 1.0, 2.0)),
                 (MinkowskiLp(3.0), (0.0, 1.0)), (MinkowskiLinf(), (0.0, 1.0)),
                 (HyperbolicPlane(), (0.0, 1.0)), (SphereIntrinsic(1.0, 3), (0.0, 1.0, 0.0)),
                 (RealLine(), 1.0))


@pytest.mark.parametrize("make, args", [
    *((Point, (space, (bad,) + good[1:] if isinstance(good, tuple) else bad))
      for space, good in _FLOAT_POINTS for bad in (HUGE, THIRD)),
    (direction_ideal, (Euclidean(2), (HUGE, 0))),
    (direction_ideal, (MinkowskiLp(3.0), (THIRD, 0.0))),
    (direction_ideal, (RealLine(), HUGE)),
    (direction_ideal, (RealLine(), THIRD)),
    (Point, (_TREE, ("x", HUGE))),
    (Point, (_TREE, ("v", HUGE))),
    (Point, (_TREE, ("e", HUGE, Fraction(1, 4)))),
    (Point, (_TREE, ("e", 0, HUGE))),
    (Point, (_TREE, ("e", 0, THIRD))),
    (Point, (_TREE, ("r", HUGE, Fraction(1)))),
    (Point, (_TREE, ("r", "e1", HUGE))),
    (Point, (MetricTree(TreeDesc(("a", "b"), (("a", "b", Fraction(HUGE)),), 1)),
             ("e", 0, Fraction(-1)))),
    (TreeDesc, (("a", "b"), (("a", "b", THIRD),), 1)),
    (TreeDesc, (("a", "b"), (("a", "b", HUGE),), 1)),
])
def test_a_number_too_long_to_repr_gets_a_short_description(make, args):
    # the message describes the number, rather than raising ValueError from
    # the repr that would format it
    with pytest.raises(SpaceError, match="int of 5001 digits"):
        make(*args)


_H2_UP = ray_from(HyperbolicPlane(), Point(HyperbolicPlane(), (0.0, 1.0)),
                 boundary_ideal(HyperbolicPlane(), math.inf))
_TREE_SEGMENT = geodesic_between(_TREE, tree_vertex(_TREE, "x0"), tree_vertex(_TREE, "spur"))
_LINF = MinkowskiLinf()
_H2 = HyperbolicPlane()
_E2 = Euclidean(2)
# 1e17 + 1.0 rounds to 1e17, so the unit step read off the line is zero (a
# ray reads its step from its ideal end instead)
_E2_FAR = line_through(_E2, direction_ideal(_E2, (-1, 0)), direction_ideal(_E2, (1, 0)),
                       point(_E2, (1e17, 0.0)))


@pytest.mark.parametrize("make, args", [
    (tree_end, (_TREE, HUGE)),
    (tree_ray_point, (_TREE, HUGE, 1)),
    (MinkowskiLp, (10 ** 400,)),
    (MinkowskiLp, (HUGE,)),
    (SphereIntrinsic, (10 ** 400, 3)),
    (distance, (Euclidean(2), Point(Euclidean(2), (0.0, 0.0)), (HUGE, 0))),
    (TreeDesc, (("a", "b"), (("a", "b", Fraction(1)),), -HUGE)),
    (TreeDesc, (("a", "b"), (("a", "b", Fraction(1)),), 1, (HUGE,))),
    (boundary_ideal, (HyperbolicPlane(), 10 ** 400)),
    (boundary_ideal, (HyperbolicPlane(), "x")),
    (boundary_ideal, (HyperbolicPlane(), None)),
    (_H2_UP.point_at, (HUGE,)),
    (_TREE_SEGMENT.point_at, (THIRD,)),
    (midpoint, (_LINF, Point(_LINF, (0.0, 0.0)), Point(_LINF, (1.0, 0.0)), HUGE)),
    (closest_param, (_E2, _E2_FAR, point(_E2, (0.0, 0.0)))),
    # the height ratio 1e-300 / 1e300 underflows to 0, whose log is a math error
    (closest_param, (_H2, ray_from(_H2, point(_H2, (0.0, 1e300)), boundary_ideal(_H2, math.inf)),
                     point(_H2, (0.0, 1e-300)))),
], ids=["tree-end-5001-digits", "tree-ray-end-5001-digits", "lp-p-400-digits",
        "lp-p-5001-digits", "sphere-radius-400-digits", "distance-to-raw-coords",
        "tree-bound-5001-digits", "tree-end-anchor-5001-digits", "boundary-400-digits",
        "boundary-str", "boundary-none",
        "h2-parameter-5001-digits", "tree-parameter-5001-digits", "selector-5001-digits",
        "e2-unit-step-rounds-to-zero", "h2-closest-height-ratio-underflows"])
def test_bad_input_raises_space_error(make, args):
    # a number past double range is refused where it enters, and a message
    # spells a value too long to print by its length; input at the edge of
    # double precision is refused with SpaceError, not a bare math error
    with pytest.raises(SpaceError) as err:
        make(*args)
    assert "\n" not in str(err.value)


# y = 1e-300: |x - m| rounds to the radius r of the carrier, so no arc
# parameter atanh((x - m) / r) exists; the frame of the end needs none
_H2_LOW = point(_H2, (0.5, 1e-300))


def test_hyperbolic_ray_from_a_base_on_its_carrier_boundary():
    r = ray_from(_H2, _H2_LOW, boundary_ideal(_H2, 1.0))
    for t in (1.0, 100.0, 690.0):
        assert distance(_H2, _H2_LOW, r.point_at(t)) - t == 0.0


def test_hyperbolic_segment_to_an_end_on_its_carrier_boundary():
    b = point(_H2, (1.0, 0.25))
    g = geodesic_between(_H2, _H2_LOW, b)
    assert distance(_H2, g.point_at(g.length), b) <= 1e-13


def test_hyperbolic_ray_point_beyond_double_range_is_refused():
    # y = 1e300 e^t overflows to inf without an OverflowError; the point
    # (0.0, inf), whose distance to (1, 1) is nan, is refused instead
    h = HyperbolicPlane()
    r = ray_from(h, point(h, (0.0, 1e300)), boundary_ideal(h, math.inf))
    assert r.point_at(5).coords[1] > 1e300
    with pytest.raises(SpaceError, match="finite"):
        r.point_at(30)


def test_direction_ideal_refuses_wrong_lengths_and_non_finite_components():
    e2, e3, lp, rl = Euclidean(2), Euclidean(3), MinkowskiLp(3.0), RealLine()
    for space, v in ((e2, (3, 0, 4)), (e2, (1.0,)), (e3, (1.0, 0.0)), (lp, (1.0, 0.0, 0.0)),
                     (e2, (math.nan, 1.0)), (e2, [math.inf, 0.0]), (lp, (0.0, -math.inf)),
                     (MinkowskiLinf(), (math.nan, 0.0)), (e2, (10 ** 400, 0)),
                     (rl, math.nan), (rl, math.inf), (rl, -math.inf), (rl, 10 ** 400),
                     (rl, (1.0,)), (rl, "1"),
                     # zero, or a norm past double range; either would
                     # give (0, 0)
                     (e2, (0, 0)), (e2, (1.5e308, 1.5e308)), (lp, (1.7e308, 1.7e308))):
        with pytest.raises(SpaceError):
            direction_ideal(space, v)
    # a list is still a direction; its length is the space's dimension
    assert direction_ideal(e2, [3, 4]).rep == (0.6, 0.8)
    assert direction_ideal(e3, (0, 0, 2)).rep == (0.0, 0.0, 1.0)
    assert direction_ideal(rl, -2).rep == -1.0


def test_finite_nonzero_directions_whose_plain_sum_leaves_double_range():
    # the sum of squares (cubes on l_3, p-th powers on l_p) overflows or
    # underflows, though the norm is a double; the direction is taken over
    # its largest component
    e2, lp, sph = Euclidean(2), MinkowskiLp(3.0), SphereIntrinsic(1.0, 3)
    half = math.sqrt(0.5)
    # (1e-160, 1e-160): the sum of squares, 2e-320, is subnormal, not 0
    for v in ((1e154, 1e154), (1e-160, 1e-160), (1e-200, 1e-200), (1e308, 1e308),
              (-1e-300, 1e-300)):
        rep = direction_ideal(e2, v).rep
        assert rep == pytest.approx((math.copysign(half, v[0]), half), rel=1e-15)
    assert direction_ideal(lp, (1e-200, 0.0)).rep == (1.0, 0.0)
    assert direction_ideal(lp, (1e308, -1e308)).rep == pytest.approx(
        (2 ** (-1 / 3), -2 ** (-1 / 3)), rel=1e-15)
    for v in ((1e200, 1e200, 0), (1e-160, 1e-160, 0)):
        assert sphere_point(sph, v).coords == pytest.approx((half, half, 0.0), rel=1e-15)
    # on l_10 the 10th powers of components near 1e-32 are subnormal, though
    # the norm is far above 1e-100; on l_1000 those of 0.4 underflow to 0
    for p, v in ((10.0, (1e-32, 1e-32)), (10.0, (3e-32, -3e-32)), (10.0, (1e-32, 2e-33)),
                 (1000.0, (0.4, 0.3))):
        rep = direction_ideal(MinkowskiLp(p), v).rep
        assert pnorm(rep, p) == pytest.approx(1.0, abs=4 * math.ulp(1.0))
    # a direction whose plain norm is a nonzero double, with a normal sum
    # of powers, keeps its bits
    for v in ((3.0, 4.0), (1e100, 3e99), (1e-100, 2e-101), (0.1, -0.7)):
        assert direction_ideal(e2, v).rep == tuple(x / math.hypot(*v) for x in v)
        assert direction_ideal(lp, v).rep == tuple(x / pnorm(v, 3.0) for x in v)
    v = (1e-20, -3e-21)
    assert direction_ideal(MinkowskiLp(10.0), v).rep == tuple(x / pnorm(v, 10.0) for x in v)


@pytest.mark.parametrize("p, gap", [(400.0, 10.0), (3.0, 1e103), (1.5, 1e206), (2.0, 1e154)])
def test_lp_distances_whose_powers_leave_double_range(p, gap):
    # gap ** p (on l_2, the sum of two squares) is past double range while
    # the distance is a double: a row with such a pair rescales each pair
    # by its larger gap, and a row without one keeps its bits
    lp = MinkowskiLp(p)
    o = (0.0, 0.0)
    far = [(gap, 0.0), (0.0, -gap), (gap, gap), (1.0, 2.0)]
    want = [gap, gap, gap * 2 ** (1 / p), (1 + 2 ** p) ** (1 / p)]
    assert lp.row(o, far) == pytest.approx(want, rel=1e-15)
    assert distance(lp, point(lp, o), point(lp, (gap, gap))) == pytest.approx(want[2], rel=1e-15)
    near = [(1.0, 2.0), (-0.5, 3.0)]
    assert lp.row(o, near) == [(abs(x) ** p + abs(y) ** p) ** (1 / p) for x, y in near]


def test_max_product_nesting_capped():
    mp1 = MaxProduct(Euclidean(2), RealLine())
    mp2 = MaxProduct(mp1, RealLine())
    with pytest.raises(SpaceError):
        MaxProduct(mp2, RealLine())


def test_max_product_geodesics_unsupported():
    mp = MaxProduct(Euclidean(2), RealLine())
    x = Point(mp, ((0.0, 0.0), 0.0))
    y = Point(mp, ((1.0, 0.0), 2.0))
    with pytest.raises(SpaceError):
        geodesic_between(mp, x, y)
    with pytest.raises(SpaceError):
        midpoint(mp, x, y)


def test_unsupported_operations_raise_space_error():
    s = SphereIntrinsic(1.0, 3)
    with pytest.raises(SpaceError):
        ray_from(s, sphere_point(s, (1, 0, 0)), IdealPoint(s, (0.0, 1.0, 0.0)))
    with pytest.raises(SpaceError):
        direction_ideal(s, (1, 0, 0))
    # closest points have closed forms on E^n, H^2 and trees only
    rl = RealLine()
    for space, a, b, x in ((MinkowskiLp(3.0), (0.0, 0.0), (2.0, 0.0), (1.0, 2.0)),
                           (MinkowskiLinf(), (0.0, 0.0), (2.0, 0.0), (1.0, 2.0)),
                           (s, (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                           (rl, 0.0, 2.0, 1.0)):
        seg = geodesic_between(space, point(space, a), point(space, b))
        with pytest.raises(SpaceError):
            closest_param(space, seg, point(space, x))
    for call in (lambda: point(object(), (0.0, 0.0)),
                 lambda: direction_ideal(object(), (1.0, 0.0)),
                 lambda: random_sample(object(), 3, 0)):
        with pytest.raises(SpaceError):
            call()


def test_tree_distances_have_bounded_denominator(ended_tree):
    n = ended_tree.desc.denominator_bound
    names = ended_tree.desc.vertices
    for u in names:
        for v in names:
            d = distance(ended_tree, tree_vertex(ended_tree, u), tree_vertex(ended_tree, v))
            assert n % d.denominator == 0


def test_tree_ray_and_line_evaluation(ended_tree):
    r = ray_from(ended_tree, tree_vertex(ended_tree, "e2"), tree_end(ended_tree, "e1"))
    # passes the center after 1/2, reaches the anchor at 1, then climbs the ray
    assert r.point_at(Fraction(1, 2)).coords == ("v", "x0")
    assert r.point_at(Fraction(1)).coords == ("v", "e1")
    assert r.point_at(Fraction(5, 2)).coords == ("r", "e1", Fraction(3, 2))


@pytest.mark.parametrize("t", [Fraction(-1, 4), Fraction(-1), -0.5])
def test_tree_ray_refuses_negative_parameters(t, ended_tree):
    # a base on the end's own ray climbs by t; any other base walks the
    # geodesic to the end first; both start at t = 0
    on_e1 = tree_ray_point(ended_tree, "e1", Fraction(1, 2))
    spur = tree_vertex(ended_tree, "spur")
    for base in (on_e1, spur):
        r = ray_from(ended_tree, base, tree_end(ended_tree, "e1"))
        assert r.point_at(0) == base
        with pytest.raises(SpaceError, match="below domain"):
            r.point_at(t)
    r = ray_from(ended_tree, on_e1, tree_end(ended_tree, "e1"))
    assert r.point_at(Fraction(1, 4)).coords == ("r", "e1", Fraction(3, 4))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, None, object(), "1/0"])
def test_tree_parameters_refuse_non_finite_numbers(t, ended_tree):
    # Fraction() raises ValueError, OverflowError, TypeError or
    # ZeroDivisionError on these
    e1, e2 = tree_end(ended_tree, "e1"), tree_end(ended_tree, "e2")
    x0, spur = tree_vertex(ended_tree, "x0"), tree_vertex(ended_tree, "spur")
    on_e1 = tree_ray_point(ended_tree, "e1", Fraction(1, 3))
    for geo in (geodesic_between(ended_tree, x0, spur), ray_from(ended_tree, spur, e1),
                ray_from(ended_tree, on_e1, e1), line_through(ended_tree, e1, e2)):
        with pytest.raises(SpaceError, match="finite number"):
            geo.point_at(t)
    with pytest.raises(SpaceError, match="finite number"):
        tree_edge_point(ended_tree, 0, t)
    # a finite float is still its exact binary value
    assert tree_edge_point(ended_tree, 0, 0.375).coords == ("e", 0, Fraction(3, 8))


def test_tree_json_roundtrip(tmp_path, ended_tree):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({
        "vertices": ["x0", "e1", "e2", "e3", "e4", "spur"],
        "edges": [["x0", v, "1/2"] for v in ("e1", "e2", "e3", "e4", "spur")],
        "denominator_bound": 2,
        "ends": ["e1", "e2", "e3", "e4"],
    }))
    desc = TreeDesc.from_json(str(path))
    assert desc == ended_tree.desc
    # the documented schema loads too
    raw = {"vertices": ["a", "b"], "edges": [["a", "b", "1/2"]], "denominator_bound": 2}
    desc2 = TreeDesc.from_json(raw)
    assert desc2.edges[0][2] == Fraction(1, 2)


def test_tree_desc_validation():
    half = Fraction(1, 2)
    # one case per raise of TreeDesc; the rooting traversal is the
    # connectivity check, so the disconnected case guards it
    cases = [
        (("a", "a"), (("a", "a", half),), 2, (), "duplicate vertex ids"),
        (("a", "b", "c"), (("a", "b", half),), 2, (), "edge count"),
        (("a", "b"), (("a", "b", half),), 0, (), "denominator bound must be positive"),
        (("a", "b"), (("a", "z", half),), 2, (), "edge endpoint not a vertex"),
        (("a", "b"), (("a", "b", Fraction(0)),), 2, (), "positive Fraction"),
        (("a", "b"), (("a", "b", Fraction(1, 3)),), 2, (), "not dividing 2"),
        (("a", "b", "c", "d"), (("a", "b", half), ("a", "b", half), ("c", "d", half)), 2, (),
         "not connected"),
        (("a", "b"), (("a", "b", half),), 2, ("z",), "end anchor 'z' is not a vertex"),
        (("a", "b"), (("a", "b", half),), 2, ("a", "b", "a"), "duplicate end ids"),
    ]
    for vertices, edges, n, ends, message in cases:
        with pytest.raises(SpaceError, match=message):
            TreeDesc(vertices, edges, n, ends)
    desc = TreeDesc(("a", "b", "c"), (("b", "a", half), ("c", "b", Fraction(3, 2))), 2)
    # depths are integers over the denominator bound: 1/2 and 2 times 2;
    # a path is one heavy path, headed at position 0 and with no lift
    assert desc.up == {"a": (None, None, 0, 0, 0, None), "b": ("a", 0, 1, 0, 1, None),
                       "c": ("b", 1, 4, 0, 2, None)}
    assert (desc.order, desc.depths) == (("a", "b", "c"), (0, 1, 4))
    # r's heavy child is a, whose subtree is larger; b heads a path of its
    # own, at position 3, whose lift is r
    one = Fraction(1)
    desc = TreeDesc(("r", "b", "a", "c"), (("r", "b", one), ("r", "a", one), ("c", "a", one)), 1)
    assert desc.up == {"r": (None, None, 0, 0, 0, None), "a": ("r", 1, 1, 0, 1, None),
                       "c": ("a", 2, 2, 0, 2, None), "b": ("r", 0, 1, 3, 3, "r")}
    assert (desc.order, desc.depths) == (("r", "a", "c", "b"), (0, 1, 2, 1))


def test_tree_tables_take_no_part_in_equality_hash_or_repr():
    half = Fraction(1, 2)

    def desc():
        return TreeDesc(("a", "b", "c", "d"),
                        (("a", "b", half), ("b", "c", half), ("b", "d", half)), 2, ("c",))
    plain, emptied = desc(), desc()
    for name in ("up", "order", "depths"):
        object.__setattr__(emptied, name, None)
    assert plain == emptied and hash(plain) == hash(emptied)
    assert repr(plain) == repr(emptied)
    assert not any(f"{name}=" in repr(plain) for name in ("up", "order", "depths"))
    # a different root is a different vertex tuple, so a different description
    other = TreeDesc(("b", "a", "c", "d"), plain.edges, 2, ("c",))
    assert other != plain and other.order != plain.order


def test_tree_coordinate_validation(ended_tree):
    for coords in (("v", "nowhere"),
                   ("v", ["x0"]),                     # unhashable, as from JSON
                   ("e", 5, Fraction(1, 4)),
                   ("e", -1, Fraction(1, 4)),
                   ("e", 0, Fraction(0)),
                   ("e", 0, Fraction(1, 2)),
                   ("e", 0, 0.25),
                   ("r", "spur", Fraction(1)),
                   ("r", "e1", Fraction(0)),
                   ("v",), ("v", "x0", "extra"), ("e", 0), ("e", "0", Fraction(1, 4)),
                   ("r", "e1")):
        with pytest.raises(SpaceError):
            Point(ended_tree, coords)
    with pytest.raises(SpaceError):
        Point(ended_tree, ("v", ["x0"]))
    assert tree_edge_point(ended_tree, 0, Fraction(1, 4)).coords == ("e", 0, Fraction(1, 4))


def test_sphere_point_validation():
    s = SphereIntrinsic(1.0, 3)
    with pytest.raises(SpaceError):
        Point(s, (1.0, 1.0, 0.0))
    for direction in ((10 ** 400, 0, 0), (math.nan, 1.0, 0.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(SpaceError):
            sphere_point(s, direction)
    assert sphere_point(s, (2, 0, 0)).coords == (1.0, 0.0, 0.0)


def test_on_geodesic_parameters(ended_tree):
    line = line_through(ended_tree, tree_end(ended_tree, "e1"), tree_end(ended_tree, "e2"))
    ok, t, resid = on_geodesic(ended_tree, line, tree_vertex(ended_tree, "x0"), tol=0)
    assert ok and resid == 0 and t == Fraction(1, 2)
    off = tree_vertex(ended_tree, "e3")
    ok, _, resid = on_geodesic(ended_tree, line, off, tol=0)
    assert not ok and resid == Fraction(1, 2)


# ---------------------------------------------------------------------------
# pair-distance rows and the fused distance kernels

def _row_cases():
    # the catalog's models, a tree x tree product, and the dimensions
    # whose ``row`` takes its general comprehension, not its fast form
    from metriclab.suites import catalog, ended_tree, swap_tree
    return catalog() + [MaxProduct(ended_tree(), swap_tree()),
                        Euclidean(1), Euclidean(3), SphereIntrinsic(2.5, 2)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 9))
def test_distance_rows_equal_pair_distances(seed, n):
    # every catalog model, a tree x tree product and the dimensions without
    # a kernel: rows carry the very values of per-pair `distance` (the same
    # float bits, the same exact Fractions)
    for space in _row_cases():
        pts = random_sample(space, n, seed).points if n else ()
        rows = list(distance_rows(space, pts))
        assert [len(row) for row in rows] == list(range(n - 1, -1, -1))
        for i, row in enumerate(rows):
            for j, d in enumerate(row, i + 1):
                want = distance(space, pts[i], pts[j])
                assert type(d) is type(want), (space, i, j)
                if isinstance(d, float):
                    assert d.hex() == want.hex(), (space, i, j)
                else:
                    assert d == want, (space, i, j)
                if space.exact:
                    assert isinstance(d, Fraction)


def _coords(dim):
    return st.tuples(*[st.floats(-1e6, 1e6) for _ in range(dim)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=_coords(3), b=_coords(3), scale=st.sampled_from((1e-9, 1e-3, 1.0, 1e3)))
def test_fused_kernels_match_tuple_formulas_bitwise(a, b, scale):
    scaled = tuple(x * scale for x in a)
    for space in (Euclidean(2), Euclidean(3), MinkowskiLp(1.5), MinkowskiLp(3.0),
                  MinkowskiLinf()):
        u, v = scaled[:space.dim], b[:space.dim]
        assert space.distance(u, v).hex() == _normed_distance(space, u, v).hex()
    for space in (SphereIntrinsic(1.0 / math.pi, 3), SphereIntrinsic(2.5, 2)):
        if min(math.hypot(*a[:space.dim]), math.hypot(*b[:space.dim])) < 1e-3:
            continue    # too short to normalize onto the sphere within 1e-12
        u = sphere_point(space, a[:space.dim]).coords
        v = sphere_point(space, b[:space.dim]).coords
        assert space.distance(u, v).hex() == _sphere_distance(space, u, v).hex()
        assert space.distance(u, u).hex() == _sphere_distance(space, u, u).hex()


def test_float_pair_checks_use_the_row_kernels(monkeypatch):
    # with `distance` stubbed to raise on every float model that has a row
    # kernel, is_isometry and preserves_unit_distance give the reports they
    # gave before: the pair checks reach no per-pair `distance`
    spaces = [Euclidean(2), MinkowskiLp(3.0), MinkowskiLinf(), HyperbolicPlane(),
              SphereIntrinsic(1.0 / math.pi, 3), RealLine()]

    def reports(space, seed):
        sample = random_sample(space, 30, seed)
        pts = sample.points
        perm = dict(zip(pts, random.Random(seed).sample(pts, len(pts))))
        back = {q: p for p, q in perm.items()}
        maps = (BijectionSpec("identity", space, space, lambda p: p, lambda p: p),
                BijectionSpec("shuffle", space, space, perm.__getitem__, back.__getitem__))
        out = []
        for f in maps:
            out.append(is_isometry((space, space), f, sample).to_json())
            for mode in ("eq", "le"):
                out.append(preserves_unit_distance((space, space), f, sample, mode=mode).to_json())
        return out
    want = [reports(space, k) for k, space in enumerate(spaces)]
    assert any(r["status"] == "fail" for rs in want for r in rs)

    def raising(self, a, b):
        raise AssertionError(f"{type(self).__name__}.distance called")
    for space in spaces:
        monkeypatch.setattr(type(space), "distance", raising)
    assert [reports(space, k) for k, space in enumerate(spaces)] == want


def test_every_model_writes_its_metric_once_as_row():
    # `row` is the one metric hook of every model, and `distance` always
    # comes from the base class; only the tree and the product, whose
    # tables share work across pairs, give their own `rows`
    for cls in (Euclidean, MinkowskiLp, MinkowskiLinf, HyperbolicPlane, SphereIntrinsic,
                RealLine, MetricTree, MaxProduct):
        assert "row" in vars(cls), cls
        assert "distance" not in vars(cls) and cls.distance is Space.distance, cls
        assert ("rows" in vars(cls)) == (cls in (MetricTree, MaxProduct)), cls


class _TaxicabPlane(Space):
    """The l1 plane from the four hooks every model gives, and nothing else."""

    def validate(self, c):
        if not (isinstance(c, tuple) and len(c) == 2):
            raise SpaceError(f"expected a pair, got {c!r}")

    def row(self, a, bs):
        return [abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in bs]

    def random_point(self, rng, scale):
        return point(self, (rng.uniform(-scale, scale), rng.uniform(-scale, scale)))

    def tag(self):
        return "taxicab-plane"


def test_a_model_with_only_row_gets_distance_and_rows():
    space = _TaxicabPlane()
    sample = random_sample(space, 12, seed=3)
    pts = sample.points
    coords = [p.coords for p in pts]
    rows = list(distance_rows(space, pts))
    assert rows == [space.row(a, coords[i + 1:]) for i, a in enumerate(coords)]
    for i, row in enumerate(rows):
        for j, d in enumerate(row, i + 1):
            assert d == distance(space, pts[i], pts[j]) == space.row(coords[i], (coords[j],))[0]
    assert distance(space, point(space, (0, 0)), point(space, (1, -2))) == 3.0
    assert check_metric_axioms(space, sample).passed
    # swapping the axes is an isometry of l1; doubling is not
    swap = BijectionSpec("swap", space, space, lambda p: point(space, p.coords[::-1]),
                         lambda p: point(space, p.coords[::-1]))
    double = BijectionSpec("double", space, space,
                           lambda p: point(space, (2 * p.coords[0], 2 * p.coords[1])),
                           lambda p: point(space, (p.coords[0] / 2, p.coords[1] / 2)))
    assert is_isometry((space, space), swap, sample).passed
    assert not is_isometry((space, space), double, sample).passed


def test_distance_rows_reject_foreign_point_before_any_row():
    e2, e3 = Euclidean(2), Euclidean(3)
    calls = []

    class Counting(Euclidean):
        def row(self, a, bs):
            calls.append((a, bs))
            return super().row(a, bs)

    space = Counting(2)
    pts = [point(space, (float(i), 0.0)) for i in range(5)] + [point(e3, (0, 0, 0))]
    with pytest.raises(SpaceError):
        distance_rows(space, pts)
    assert calls == []
    with pytest.raises(SpaceError):
        distance_rows(e2, [point(e2, (0, 0)), (0.0, 1.0)])
    assert list(distance_rows(e2, [point(e2, (0, 0))])) == [[]]


def test_tree_rows_anchor_each_point_once(monkeypatch):
    # a timing-free guard: n points cost n anchors, not one per pair end,
    # and a tree x tree product anchors each factor's points once
    from metriclab.suites import ended_tree, swap_tree
    calls = []
    anchor = MetricTree._anchor

    def counting(self, c):
        calls.append(c)
        return anchor(self, c)
    monkeypatch.setattr(MetricTree, "_anchor", counting)
    tree = swap_tree()
    pts = random_sample(tree, 12, 5).points
    calls.clear()
    list(distance_rows(tree, pts))
    assert len(calls) == len(pts)

    prod = MaxProduct(ended_tree(), swap_tree())
    pts = random_sample(prod, 12, 6).points
    calls.clear()
    rows = list(distance_rows(prod, pts))
    assert len(calls) == 2 * len(pts)
    for i, row in enumerate(rows):
        for j, d in enumerate(row, i + 1):
            want = distance(prod, pts[i], pts[j])
            assert type(d) is type(want) is Fraction and d == want


def test_tree_rows_memo_is_bounded(monkeypatch):
    # rows builds one Fraction per distinct length while the memo has room,
    # and one per pair once it is full; the lengths are the same either way
    import metriclab.spaces as sp
    from metriclab.suites import swap_tree
    tree = swap_tree()
    pts = random_sample(tree, 20, 7).points
    coords = [p.coords for p in pts]
    want = [[distance(tree, a, b) for b in pts[i + 1:]] for i, a in enumerate(pts)]
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)
    monkeypatch.setattr(sp, "Fraction", counting)
    pairs = len(pts) * (len(pts) - 1) // 2
    lengths = len({d for row in want for d in row})
    for bound, lo, hi in ((sp._ROW_MEMO, lengths, lengths), (0, pairs, pairs),
                          (2, lengths + 1, pairs - 1)):
        monkeypatch.setattr(sp, "_ROW_MEMO", bound)
        built.clear()
        assert list(tree.rows(coords)) == want
        assert lo <= len(built) <= hi


def test_tree_product_is_exact():
    # edges of length 1 and 1 + 2^-60: the two differ as Fractions but not
    # as floats, so only an exact comparison tells the unit pair apart
    eps = Fraction(1, 2 ** 60)
    t = MetricTree(TreeDesc(("a", "b", "c"), (("a", "b", Fraction(1)), ("b", "c", 1 + eps)),
                            2 ** 60))
    prod = MaxProduct(t, t)
    assert prod.exact
    assert not MaxProduct(t, RealLine()).exact

    def pt(u, w="a"):
        return Point(prod, (("v", u), ("v", w)))
    pts = (pt("a"), pt("b"), pt("c"))
    assert distance(prod, pts[1], pts[2]) == 1 + eps
    assert UnitJumpGraph.build(prod, pts).adjacency == {0: [1], 1: [0], 2: []}

    # the reflection a <-> c of the first factor moves the unit pair (a, b)
    # to the pair (c, b) at distance 1 + 2^-60
    swap = {"a": "c", "b": "b", "c": "a"}

    def reflect(p):
        return pt(swap[p.coords[0][1]], p.coords[1][1])
    f = BijectionSpec("reflect", prod, prod, reflect, reflect)
    sample = SampleSet(prod, pts)
    exact = preserves_unit_distance((prod, prod), f, sample, tol=0)
    assert not exact.passed
    assert preserves_unit_distance((prod, prod), f, sample, tol=1e-9).passed
    iso = is_isometry((prod, prod), f, sample, tol=0)
    # in sample order: the pair (a, b), then (b, c)
    assert iso.witnesses == [{"x": [["v", "a"], ["v", "a"]], "y": [["v", "b"], ["v", "a"]],
                              "d_before": "1", "d_after": str(1 + eps)},
                             {"x": [["v", "b"], ["v", "a"]], "y": [["v", "c"], ["v", "a"]],
                              "d_before": str(1 + eps), "d_after": "1"}]


def test_tree_edge_point_refuses_bad_edge_indices():
    # a negative index once wrapped to the last edge, an index past the end
    # raised IndexError and a bool passed for an int
    from metriclab.suites import swap_tree
    t = swap_tree()
    for idx, off in ((-1, 0), (-1, Fraction(1, 4)), (3, 0), (5, Fraction(1, 4)),
                     (True, Fraction(1, 4)), (False, 0), (0.0, Fraction(1, 4))):
        with pytest.raises(SpaceError, match="edge index"):
            tree_edge_point(t, idx, off)
    with pytest.raises(SpaceError, match="edge index"):
        Point(t, ("e", True, Fraction(1, 4)))
    assert tree_edge_point(t, 2, 0).coords == ("v", "v2")
    assert tree_edge_point(t, 2, Fraction(1, 2)).coords == ("v", "v3")
    assert tree_edge_point(t, 1, Fraction(1, 4)).coords == ("e", 1, Fraction(1, 4))


def test_boundary_ideal_refuses_minus_inf_and_nan():
    # H^2 has one point at infinity, +inf
    h = HyperbolicPlane()
    for x in (-math.inf, math.nan, "-inf", "nan"):
        with pytest.raises(SpaceError):
            boundary_ideal(h, x)
    assert boundary_ideal(h, math.inf).rep == math.inf
    assert boundary_ideal(h, 2).rep == 2.0


def test_max_product_keeps_exact_factor_distances_beyond_float_range():
    # edges of 10^400 cannot become floats: the product's max keeps the
    # exact factor's Fraction, and a float factor that wins keeps its bits
    big = Fraction(10 ** 400)
    t = MetricTree(TreeDesc(("a", "b", "c"), (("a", "b", big), ("b", "c", big)), 1))
    prod = MaxProduct(t, RealLine())
    pts = [Point(prod, (("v", u), x)) for u, x in (("a", 0.0), ("b", 1.5), ("c", -2.0))]
    d = distance(prod, pts[0], pts[2])
    assert type(d) is Fraction and d == 2 * big
    rows = list(distance_rows(prod, pts))
    assert rows == [[big, 2 * big], [big], []]
    assert all(type(d) is Fraction for row in rows for d in row)
    short = MetricTree(TreeDesc(("a", "b"), (("a", "b", Fraction(1, 2)),), 2))
    prod = MaxProduct(short, RealLine())
    x, y = Point(prod, (("v", "a"), 0.1)), Point(prod, (("v", "b"), 0.8))
    d = distance(prod, x, y)
    assert type(d) is float and d.hex() == (0.8 - 0.1).hex()
    assert list(distance_rows(prod, [x, y])) == [[d], []]


def _reversible_lines():
    from metriclab.suites import ended_tree
    e2, h2, tree = Euclidean(2), HyperbolicPlane(), ended_tree()
    return [
        (line_through(e2, direction_ideal(e2, (-0.6, -0.8)), direction_ideal(e2, (0.6, 0.8)),
                      point(e2, (1.0, -2.0))), (-2.5, -1.0, 0.0, 0.75, 3.0)),
        (line_through(h2, boundary_ideal(h2, -1.0), boundary_ideal(h2, 2.0)),
         (-2.5, -1.0, 0.0, 0.75, 3.0)),
        (line_through(h2, boundary_ideal(h2, 0.5), boundary_ideal(h2, math.inf)),
         (-2.5, 0.0, 3.0)),
        (line_through(tree, tree_end(tree, "e1"), tree_end(tree, "e3")),
         tuple(Fraction(k, 4) for k in (-9, -2, 0, 1, 3, 11))),
    ]


@pytest.mark.parametrize("line, ts", _reversible_lines(),
                         ids=["euclidean-2", "hyperbolic", "hyperbolic-inf", "tree"])
def test_reversed_line_runs_backwards_with_ends_swapped(line, ts):
    rev = line.reversed()
    assert rev.kind == "line" and rev.space is line.space
    assert rev.minus is line.plus and rev.plus is line.minus
    twice = rev.reversed()
    assert twice.minus is line.minus and twice.plus is line.plus
    for t in ts:
        assert rev.point_at(t).coords == line.point_at(-t).coords
        assert twice.point_at(t).coords == line.point_at(t).coords


def test_reversed_refuses_rays_and_segments():
    e2 = Euclidean(2)
    o = point(e2, (0.0, 0.0))
    for geo in (ray_from(e2, o, direction_ideal(e2, (1.0, 0.0))),
                geodesic_between(e2, o, point(e2, (1.0, 1.0)))):
        with pytest.raises(SpaceError, match="only a line"):
            geo.reversed()
