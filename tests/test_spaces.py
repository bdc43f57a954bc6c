import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.grasshopper import UnitJumpGraph
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
        (("a", "b"), (("a", "b", half),), 2, ("z",), "end anchor z is not a vertex"),
    ]
    for vertices, edges, n, ends, message in cases:
        with pytest.raises(SpaceError, match=message):
            TreeDesc(vertices, edges, n, ends)
    desc = TreeDesc(("a", "b", "c"), (("b", "a", half), ("c", "b", Fraction(3, 2))), 2)
    # depths are integers over the denominator bound: 1/2 and 2 times 2
    assert desc.up == {"a": (None, None, 0, 0), "b": ("a", 0, 1, 1), "c": ("b", 1, 4, 2)}
    assert desc.total_length == 2


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
    # the catalog's float models run their row kernels; the dimensions
    # without a kernel run the per-pair ``Space.rows`` default
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


def test_distance_rows_reject_foreign_point_before_any_row():
    e2, e3 = Euclidean(2), Euclidean(3)
    calls = []

    class Counting(Euclidean):
        def distance(self, a, b):
            calls.append((a, b))
            return super().distance(a, b)

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
    assert iso.witnesses == [{"x": [["v", "b"], ["v", "a"]], "y": [["v", "c"], ["v", "a"]],
                              "d_before": str(1 + eps), "d_after": "1"},
                             {"x": [["v", "a"], ["v", "a"]], "y": [["v", "b"], ["v", "a"]],
                              "d_before": "1", "d_after": str(1 + eps)}]


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
