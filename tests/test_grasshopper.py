import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from metriclab import grasshopper as gh
from metriclab import spaces
from metriclab.grasshopper import (
    TreePointSet,
    UnitJumpGraph,
    band_membership,
    euclid_jump_chain,
    graph_bfs_distance,
    grasshopper_components,
    grasshopper_distance,
    line_counterexample,
    max_product_lift,
    smooth_tree_bijection,
    sphere_flip_bijection,
    tree_offset_class_nodes,
    tree_swap_bijection,
)
from metriclab.numeric import bisect_root
from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    MetricTree,
    MinkowskiLinf,
    Point,
    RealLine,
    SpaceError,
    SphereIntrinsic,
    TreeDesc,
    distance,
    point,
    sphere_point,
    tree_edge_point,
    tree_ray_point,
    tree_vertex,
)
from metriclab.verify import (
    BijectionSpec,
    SampleSet,
    is_isometry,
    preserves_unit_distance,
)

INF = math.inf


def test_grasshopper_real_line_values():
    rl = RealLine()
    assert grasshopper_distance(rl, point(rl, 0.0), point(rl, 3.0)) == 3
    assert grasshopper_distance(rl, point(rl, 0.0), point(rl, 2.5)) == INF
    assert grasshopper_distance(rl, point(rl, 0.0), point(rl, 1.0)) == 1
    assert grasshopper_distance(rl, point(rl, 0.7), point(rl, 0.7)) == 0


@pytest.mark.parametrize("model", ["line", "plane", "tree"])
def test_grasshopper_refuses_foreign_points(model, path_tree, ended_tree):
    pts = {"line": point(RealLine(), 0.5), "plane": point(Euclidean(2), (0.0, 0.5)),
           "tree": tree_vertex(path_tree, "v0"), "other tree": tree_vertex(ended_tree, "x0")}
    own = pts.pop(model)
    for p in (*pts.values(), "not a point"):
        with pytest.raises(SpaceError):
            grasshopper_distance(own.space, own, p)
        with pytest.raises(SpaceError):
            grasshopper_distance(own.space, p, own)
    # the witness builders refuse another model, and another space's points
    for builder, home in ((euclid_jump_chain, "plane"), (tree_offset_class_nodes, "tree")):
        if model != home:
            with pytest.raises(SpaceError, match="expected a"):
                builder(own.space, own, own)
        for p in (*pts.values(), "not a point"):
            for x, y in ((own, p), (p, own)):
                with pytest.raises(SpaceError) as err:
                    builder(own.space, x, y)
                assert "\n" not in str(err.value)


def test_grasshopper_without_a_formula_still_refused():
    h = HyperbolicPlane()
    sph = SphereIntrinsic(1.0, 3)
    linf = MinkowskiLinf()
    for space, x, y in [(h, point(h, (0.0, 1.0)), point(h, (1.0, 1.0))),
                        (sph, sphere_point(sph, (1, 0, 0)), sphere_point(sph, (0, 1, 0))),
                        (linf, point(linf, (0.0, 0.0)), point(linf, (1.0, 0.0)))]:
        with pytest.raises(SpaceError, match="no analytic grasshopper formula"):
            grasshopper_distance(space, x, y)


def test_grasshopper_line_unreachable_by_brute_force():
    # the reachable set from 0 under <= 5 jumps is exactly {-5..5}
    reachable = {0.0}
    for _ in range(5):
        reachable |= {v + 1.0 for v in reachable} | {v - 1.0 for v in reachable}
    assert reachable == {float(k) for k in range(-5, 6)}
    assert 2.5 not in reachable


def test_grasshopper_euclid_formula_cases():
    e2 = Euclidean(2)
    o = point(e2, (0.0, 0.0))
    assert grasshopper_distance(e2, o, o) == 0
    assert grasshopper_distance(e2, o, point(e2, (1.0, 0.0))) == 1
    assert grasshopper_distance(e2, o, point(e2, (0.0, 0.5))) == 2
    assert grasshopper_distance(e2, o, point(e2, (2.0, 0.0))) == 2
    assert grasshopper_distance(e2, o, point(e2, (3.7, 0.0))) == 4


def test_grasshopper_euclid_agrees_with_graph_bfs():
    e2 = Euclidean(2)
    rng = random.Random(17)
    for _ in range(50):
        x = point(e2, (rng.uniform(-4, 4), rng.uniform(-4, 4)))
        y = point(e2, (rng.uniform(-4, 4), rng.uniform(-4, 4)))
        analytic = grasshopper_distance(e2, x, y)
        chain = euclid_jump_chain(e2, x, y)
        assert len(chain) == analytic + 1
        graph = UnitJumpGraph.build(e2, chain)
        assert graph_bfs_distance(graph, x, y) == analytic


def test_grasshopper_components_partition():
    rl = RealLine()
    pts = [point(rl, v) for v in (0.0, 1.0, 2.0, 0.5, 1.5)]
    graph = UnitJumpGraph.build(rl, pts)
    comps = grasshopper_components(graph)
    got = sorted(sorted(p.coords for p in c) for c in comps)
    assert got == [[0.0, 1.0, 2.0], [0.5, 1.5]]
    singleton = UnitJumpGraph.build(rl, [point(rl, 0.0)])
    assert len(grasshopper_components(singleton)) == 1


def test_unit_jump_graph_is_symmetric_without_loops():
    e2 = Euclidean(2)
    pts = [point(e2, (0.0, 0.0)), point(e2, (1.0, 0.0)), point(e2, (2.0, 0.0))]
    g = UnitJumpGraph.build(e2, pts)
    for i, nbrs in g.adjacency.items():
        assert i not in nbrs
        for j in nbrs:
            assert i in g.adjacency[j]


def test_tree_point_set_enumeration(path_tree):
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    assert len(tps.a_alpha) == 6 and len(tps.a_beta) == 6
    assert not set(p.coords for p in tps.a_alpha) & set(p.coords for p in tps.a_beta)
    with pytest.raises(SpaceError):
        TreePointSet(path_tree, Fraction(1, 5), Fraction(1, 10))
    with pytest.raises(SpaceError):
        TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 3))


def test_tree_swap_is_involution_and_swaps_offsets(path_tree):
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    phi = tree_swap_bijection(tps)
    p = tree_edge_point(path_tree, 0, Fraction(1, 10))
    q = phi.forward(p)
    assert q.coords == ("e", 0, Fraction(1, 5))
    assert phi.forward(q).coords == p.coords
    for pt in tps.union_sample().points:
        assert phi.forward(phi.forward(pt)).coords == pt.coords


def test_tree_swap_grasshopper_isometry_exhaustive(path_tree):
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    phi = tree_swap_bijection(tps)
    A = tps.union_sample().points
    finite = 0
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            before = grasshopper_distance(path_tree, A[i], A[j])
            after = grasshopper_distance(path_tree, phi.forward(A[i]),
                                         phi.forward(A[j]))
            assert before == after
            if before != INF:
                finite += 1
    assert finite > 0


def test_a_alpha_is_grasshopper_invariant(path_tree):
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    nodes = tree_offset_class_nodes(path_tree, tps.a_alpha[0], tps.a_beta[0])
    alpha_coords = {p.coords for p in tps.a_alpha}
    jumps = 0
    for p in tps.a_alpha:
        for q in nodes:
            if distance(path_tree, p, q) == 1:
                jumps += 1
                assert q.coords in alpha_coords
    assert jumps > 0


def test_swap_tree_offset_class_nodes_pinned(path_tree):
    # the counterexample[tree-swap] sample is built from this list, in order
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    nodes = tree_offset_class_nodes(path_tree, tps.a_alpha[0], tps.a_beta[0])
    assert [p.coords for p in nodes] == [("e", i, Fraction(k, 10))
                                         for i in range(3) for k in (1, 2, 3, 4)]


def test_tree_grasshopper_builds_no_point_graph(monkeypatch, path_tree):
    # the tree formula is an integer BFS on anchors: with the Point graph,
    # the Point node list, and Point and Fraction in both modules replaced
    # by stubs that raise, the tree-swap sweep of suite_grasshopper gives
    # the same values
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    phi = tree_swap_bijection(tps)
    A = tps.union_sample().points
    pairs = [(A[i], A[j]) for i in range(len(A)) for j in range(i + 1, len(A))]
    pairs += [(phi.forward(p), phi.forward(q)) for p, q in pairs]
    want = [grasshopper_distance(path_tree, p, q) for p, q in pairs]

    def stub(*args, **kwargs):
        raise AssertionError("the tree grasshopper built a Point graph")

    class NoPointMeta(type):
        # the membership check still recognizes the existing Points
        def __instancecheck__(cls, obj):
            return isinstance(obj, Point)

    class NoPoint(metaclass=NoPointMeta):
        def __new__(cls, *args, **kwargs):
            stub()
    monkeypatch.setattr(gh.UnitJumpGraph, "build", stub)
    monkeypatch.setattr(gh, "tree_offset_class_nodes", stub)
    for mod in (gh, spaces):
        monkeypatch.setattr(mod, "Point", NoPoint)
        monkeypatch.setattr(mod, "Fraction", stub)
    assert [grasshopper_distance(path_tree, p, q) for p, q in pairs] == want
    assert any(g not in (0, INF) for g in want)


@pytest.mark.parametrize("a, b, jumps", [(10, 11, 1), (10, 12, 2), (30, 10, 20)])
def test_tree_grasshopper_far_out_on_a_ray(ended_tree, a, b, jumps):
    # the ray cap is measured from the farther point, not the ray's vertex
    x = tree_ray_point(ended_tree, "e1", Fraction(a))
    y = tree_ray_point(ended_tree, "e1", Fraction(b))
    assert grasshopper_distance(ended_tree, x, y) == jumps
    assert grasshopper_distance(ended_tree, y, x) == jumps


def test_tree_swap_unit_preservation_and_witness(path_tree):
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    phi = tree_swap_bijection(tps)
    nodes = tree_offset_class_nodes(path_tree, tps.a_alpha[0], tps.a_beta[0])
    vertices = tuple(tree_vertex(path_tree, v) for v in path_tree.desc.vertices)
    sample = SampleSet(path_tree, tuple(nodes) + vertices)
    assert preserves_unit_distance((path_tree, path_tree), phi, sample,
                                   mode="eq", tol=0).passed
    iso = is_isometry((path_tree, path_tree), phi, sample, tol=0)
    assert not iso.passed and iso.witnesses
    y = tree_vertex(path_tree, "v0")
    z = tree_edge_point(path_tree, 0, Fraction(1, 10))
    assert distance(path_tree, y, z) == Fraction(1, 10)
    assert distance(path_tree, y, phi.forward(z)) == Fraction(1, 5)


def test_smooth_tree_bijection(path_tree):
    phi = smooth_tree_bijection(path_tree, 2)
    # endpoints fixed
    v = tree_vertex(path_tree, "v1")
    assert phi.forward(v).coords == v.coords
    p = tree_edge_point(path_tree, 0, Fraction(1, 8))
    img = phi.forward(p)
    assert abs(float(img.coords[2]) - (0.125 + 1.0 / (4.0 * math.pi))) < 1e-12
    back = phi.inverse(img)
    assert abs(float(back.coords[2]) - 0.125) < 1e-12


@pytest.mark.parametrize("who, make", [
    ("tree swap", lambda t: TreePointSet(t, Fraction(1, 40), Fraction(1, 20))),
    ("smooth tree bijection", lambda t: smooth_tree_bijection(t, 2)),
])
def test_unit_step_maps_refuse_mixed_lengths_and_ends(who, make, path_tree, ended_tree):
    uneven = MetricTree(TreeDesc(
        vertices=("a", "b", "c"),
        edges=(("a", "b", Fraction(1, 2)), ("b", "c", Fraction(1, 4))),
        denominator_bound=4))
    with pytest.raises(SpaceError, match=f"{who} needs all edge lengths equal to 1/n"):
        make(uneven)
    with pytest.raises(SpaceError, match=f"{who} is defined on trees without ends"):
        make(ended_tree)
    make(path_tree)


@pytest.mark.parametrize("make", [
    lambda s: TreePointSet(s, Fraction(1, 40), Fraction(1, 20)),
    lambda s: smooth_tree_bijection(s, 2),
])
def test_unit_step_maps_refuse_a_non_tree(make):
    # the tree check comes before anything reads the tree description
    for space in (Euclidean(2), RealLine()):
        with pytest.raises(SpaceError, match="expected a MetricTree space"):
            make(space)


def test_smooth_tree_preserves_unit_distance(path_tree):
    phi = smooth_tree_bijection(path_tree, 2)
    pts = [tree_vertex(path_tree, v) for v in path_tree.desc.vertices]
    for i in range(3):
        for num in (1, 3, 5, 7):
            pts.append(tree_edge_point(path_tree, i, Fraction(num, 16)))
    sample = SampleSet(path_tree, tuple(pts))
    assert preserves_unit_distance((path_tree, path_tree), phi, sample,
                                   mode="eq", tol=1e-9).passed
    iso = is_isometry((path_tree, path_tree), phi, sample, tol=1e-9)
    assert not iso.passed


def test_line_counterexample_values():
    f = line_counterexample()
    rl = RealLine()
    assert f.forward(point(rl, 0.0)).coords == 0.0
    got = f.forward(point(rl, 0.25)).coords
    assert abs(got - (0.25 + 1.0 / (2.0 * math.pi))) < 1e-12
    rng = random.Random(3)
    for _ in range(20):
        x = rng.uniform(-5, 5)
        d = abs(f.forward(point(rl, x + 1.0)).coords - f.forward(point(rl, x)).coords)
        assert abs(d - 1.0) < 1e-12
        back = f.inverse(f.forward(point(rl, x)))
        assert abs(back.coords - x) < 1e-12


def _sine_sweep(seed):
    """(n, s, lo, hi): images of the sine warp of n = 1, 2, 3 on the brackets
    of the line and of a tree edge of length 1/n, half of them from points
    within 1e-5 of a flat point (2m + 1) / (2n), where the inverse is
    steepest."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3):
        warp, _ = gh._sine_warp(n)
        for k in range(40):
            if n == 1:
                x = rng.randrange(-3, 3) + 0.5 if k % 2 else rng.uniform(-3, 3)
            else:
                x = 0.5 / n if k % 2 else rng.uniform(0, 1 / n)
            if k % 2:
                x += rng.uniform(-1e-5, 1e-5)
            s = warp(x)
            out.append((n, s, s - 0.5, s + 0.5) if n == 1 else (n, s, 0.0, 1 / n))
    return out


def test_unwarp_matches_the_two_call_form():
    # one closure per evaluation; the float operations of warp(t) - s
    for n, s, lo, hi in _sine_sweep(5):
        warp, unwarp = gh._sine_warp(n)
        assert unwarp(s, lo, hi) == bisect_root(lambda t: warp(t) - s, lo, hi, tol=1e-15)


def _decimal_pi():
    """pi to the context precision (the series of the decimal module's recipes)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _decimal_sin(x, pi):
    """sin(x) by its Taylor series after reducing x to within pi of 0."""
    x -= 2 * pi * (x / (2 * pi)).to_integral_value()
    i, lasts, s, num, fact, sign = 1, 0, x, x, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        num *= x * x
        fact *= i * (i - 1)
        sign = -sign
        s += sign * num / fact
    return +s


def _exact_unwarp(n, s, lo, hi):
    """The t in [lo, hi] with t + sin(2 pi n t) / (2 pi n) = s for the exact
    value of the double s, to 1e-30, by bisection at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        pi = _decimal_pi()
        k, target = 2 * pi * n, Decimal(s)
        a, b = Decimal(lo), Decimal(hi)
        while b - a > Decimal("1e-30"):
            m = (a + b) / 2
            if m + _decimal_sin(k * m, pi) / k > target:
                b = m
            else:
                a = m
        return (a + b) / 2


def test_unwarp_error_against_the_exact_inverse():
    # delta bounds |warp(t) - s| at the returned t: a few ulps of rounding
    # in the float warp and the bisection's last bracket of 1e-15 at slope
    # <= 2. The inverse's slope 1 / (1 + cos(k t)) is unbounded at the flat
    # points, where warp grows as (k^2 / 6) (t - t0)^3, so everywhere the
    # error is at most cbrt(24 delta / k^2), and where the slope of warp is
    # at least 1/2 at most delta over that slope
    steep = 0
    for n, s, lo, hi in _sine_sweep(5):
        k = 2 * math.pi * n
        got = gh._sine_warp(n)[1](s, lo, hi)
        exact = _exact_unwarp(n, s, lo, hi)
        err = float(abs(Decimal(got) - exact))
        delta = 4 * math.ulp(1 + abs(s)) + 2e-15
        assert err <= (24 * delta / k ** 2) ** (1 / 3), (n, s)
        slope = 1 + math.cos(k * float(exact))
        if slope >= 0.5:
            assert err <= delta / slope, (n, s)
        steep += err > 1e-9
    assert steep > 0        # the sweep reaches the steep inverse


def test_sphere_flip_preserves_units_and_breaks_isometry():
    radius = 1.0 / math.pi
    sph = SphereIntrinsic(radius, 3)
    flip = sphere_flip_bijection(radius, 3, band_membership(0.5))
    rng = random.Random(23)
    pts = []
    for _ in range(8):
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        pts.append(sphere_point(sph, v))
        pts.append(sphere_point(sph, tuple(-c for c in v)))
    pts += [sphere_point(sph, (0, 0, 1)), sphere_point(sph, (0, 0, -1)),
            sphere_point(sph, (1, 0, 0.3))]
    sample = SampleSet(sph, tuple(pts))
    assert preserves_unit_distance((sph, sph), flip, sample, mode="eq").passed
    iso = is_isometry((sph, sph), flip, sample)
    assert not iso.passed and iso.witnesses


def test_sphere_flip_small_radius_vacuous():
    radius = 1.0 / (2.0 * math.pi)
    sph = SphereIntrinsic(radius, 3)
    # intrinsic diameter pi * r = 1/2 < 1: no unit pairs at all
    a, b = sphere_point(sph, (1, 0, 0)), sphere_point(sph, (-1, 0, 0))
    assert float(distance(sph, a, b)) == pytest.approx(0.5)
    flip = sphere_flip_bijection(radius, 3, band_membership(0.5))
    rng = random.Random(29)
    pts = []
    for _ in range(8):
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        pts.append(sphere_point(sph, v))
        pts.append(sphere_point(sph, tuple(-c for c in v)))
    sample = SampleSet(sph, tuple(pts))
    assert preserves_unit_distance((sph, sph), flip, sample, mode="eq").passed
    assert not is_isometry((sph, sph), flip, sample).passed


def test_sphere_flip_rejects_asymmetric_membership():
    sph = SphereIntrinsic(1.0 / math.pi, 3)
    flip = sphere_flip_bijection(1.0 / math.pi, 3, lambda c: c[2] >= 0.5)
    with pytest.raises(SpaceError):
        flip.forward(sphere_point(sph, (0, 0, 1)))


def test_diameter_below_one_everything_vacuous():
    # any permutation of a sample in a space of diameter < 1 preserves the
    # unit-distance relation vacuously
    radius = 1.0 / (2.0 * math.pi)
    sph = SphereIntrinsic(radius, 3)
    rng = random.Random(31)
    pts = [sphere_point(sph, (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)))
           for _ in range(8)]
    perm = list(range(len(pts)))
    rng.shuffle(perm)
    fwd_map = {pts[i].coords: pts[perm[i]] for i in range(len(pts))}
    inv_map = {pts[perm[i]].coords: pts[i] for i in range(len(pts))}
    spec = BijectionSpec("permutation", sph, sph,
                         lambda p: fwd_map[p.coords], lambda p: inv_map[p.coords])
    sample = SampleSet(sph, tuple(pts))
    for mode in ("eq", "le", "lt"):
        assert preserves_unit_distance((sph, sph), spec, sample, mode=mode).passed


def test_max_product_lift_preserves_units_inherits_violation():
    f = line_counterexample()
    e1 = Euclidean(1)
    lift = max_product_lift(f, e1)
    mp = lift.domain
    # 20 x 20 grid; spacings realize both slot-wise unit distances exactly
    grid = []
    for i in range(20):
        for j in range(20):
            grid.append(Point(mp, ((i * 0.25,), j * 0.2)))
    sample = SampleSet(mp, tuple(grid))
    assert preserves_unit_distance((mp, mp), lift, sample, mode="eq").passed
    iso = is_isometry((mp, mp), lift, sample)
    assert not iso.passed
    # identity lift is the identity
    ident = BijectionSpec("id", RealLine(), RealLine(), lambda p: p, lambda p: p)
    lift_id = max_product_lift(ident, e1)
    p = Point(lift_id.domain, ((0.5,), 0.25))
    assert lift_id.forward(p).coords == p.coords


def test_class_union_components_stay_separated(path_tree):
    # the unit-jump graph on A_alpha u A_beta has no cross-class edges, so
    # every component sits inside a single class
    tps = TreePointSet(path_tree, Fraction(1, 10), Fraction(1, 5))
    alpha = {p.coords for p in tps.a_alpha}
    beta = {p.coords for p in tps.a_beta}
    graph = UnitJumpGraph.build(path_tree, tps.a_alpha + tps.a_beta)
    for comp in grasshopper_components(graph):
        coords = {p.coords for p in comp}
        assert coords <= alpha or coords <= beta


def test_tree_grasshopper_cross_class_unreachable(path_tree):
    a = tree_edge_point(path_tree, 0, Fraction(1, 10))
    b = tree_edge_point(path_tree, 0, Fraction(1, 5))
    assert grasshopper_distance(path_tree, a, b) == INF
    v0 = tree_vertex(path_tree, "v0")
    v2 = tree_vertex(path_tree, "v2")
    assert grasshopper_distance(path_tree, v0, v2) == 1
