"""The conformance matrix over ``suites.CATALOG``: each model's derived
quantities against their definitions. Its first cell is the metric: every
model's ``row(a, bs)``, the one-pair ``distance`` and the table ``rows``
give the same values, exactly (type and value, and floats bit for bit).
Its last cell is the geodesics: ``point_at`` wraps the coordinates of the
evaluator ``at`` as they are."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.spaces import (
    DegenerateError,
    Euclidean,
    HyperbolicPlane,
    MaxProduct,
    MetricTree,
    MinkowskiLinf,
    NormedSpace,
    Point,
    RealLine,
    Space,
    SpaceError,
    SphereIntrinsic,
    boundary_ideal,
    closest_param,
    direction_ideal,
    distance,
    geodesic_between,
    line_through,
    midpoint,
    point,
    ray_from,
    sphere_point,
    tree_end,
)
from metriclab.suites import CATALOG, ended_tree, swap_tree
from metriclab.verify import random_sample

from oracles import _e1_row, _euclidean_root, _linf_row, _max_row

# the catalog, plus products with a tree factor: one exact throughout, one
# whose distances are Fractions or floats pair by pair; E^1 and the
# max-lift domain E^1 x R
MODELS = [model for model, _ in CATALOG] + [MaxProduct(ended_tree(), swap_tree()),
                                             MaxProduct(swap_tree(), RealLine()),
                                             Euclidean(1), MaxProduct(Euclidean(1), RealLine())]


def _key(d):
    """d's type and value; a float by its hex, so that only equal bits match."""
    return type(d), d.hex() if isinstance(d, float) else d


def _extreme_gaps(space):
    """Points of a flat model at gaps 1e-200, 1e-120 (on the diagonal in
    the plane) and 1e200 from the origin, side by side in one sample."""
    gaps = ((0.0, 0.0), (1e-200, 0.0), (1e-120, 1e-120), (1e200, 0.0))
    return [point(space, (c + (0.0,) * space.dim)[:space.dim]) for c in gaps]


def _check_rows_agree(space, pts):
    n = len(pts)
    coords = [p.coords for p in pts]
    table = list(space.rows(coords))
    assert len(table) == n
    for i, (p, a) in enumerate(zip(pts, coords)):
        row = [_key(d) for d in space.row(a, coords)]
        assert row == [_key(distance(space, p, q)) for q in pts]
        assert [_key(d) for d in table[i]] == row[i + 1:]
    if space.exact:
        assert all(type(d) is Fraction for r in table for d in r)


@pytest.mark.parametrize("space", MODELS, ids=[f"{k}-{m.tag()}" for k, m in enumerate(MODELS)])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_row_distance_and_rows_agree(space, seed, n):
    _check_rows_agree(space, random_sample(space, n, seed).points)
    # each pair decides its own value: a row holding gaps at both ends of
    # double range gives each the value it has alone
    if isinstance(space, NormedSpace):
        _check_rows_agree(space, _extreme_gaps(space))


# ---------------------------------------------------------------------------
# every norm is range-safe by itself: at components 1e-200 and 1e200 the
# norms, the unit directions and the sphere's points keep their values

_NORMED = [m for m in MODELS if isinstance(m, NormedSpace)]


@pytest.mark.parametrize("space", _NORMED, ids=[m.tag() for m in _NORMED])
@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_norms_and_directions_keep_extreme_components(space, c):
    n = space.dim
    # |(c, ..., c)| = c n^(1/p), and |(-c, 0, ...)| = c. An l_p norm that
    # keeps its plain value raises a sum near 1e+-300 to the double 1 / p,
    # whose rounding the log of the sum, about 690, scales to 3e-14
    root = 1.0 if space.p == math.inf else n ** (1.0 / space.p)
    for v in ((c,) * n, (-c,) + (0.0,) * (n - 1)):
        want = c * root if 0.0 not in v else c
        assert math.isclose(space.norm(v), want, rel_tol=1e-13)
        rep = direction_ideal(space, v).rep
        assert rep == pytest.approx(tuple(x / want for x in v), rel=1e-13, abs=0.0)


_SPHERES = [m for m, _ in CATALOG if isinstance(m, SphereIntrinsic)] + [SphereIntrinsic(2.5, 2)]


@pytest.mark.parametrize("space", _SPHERES, ids=[m.tag() for m in _SPHERES])
@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_sphere_points_keep_extreme_components(space, c):
    n = space.dim
    assert sphere_point(space, (c,) * n).coords == pytest.approx((n ** -0.5,) * n, rel=1e-15)
    axis = (0.0,) * (n - 1) + (-c,)
    assert sphere_point(space, axis).coords == (0.0,) * (n - 1) + (-1.0,)


# ---------------------------------------------------------------------------
# the row kernels against the calls they replace: max per pair; and E^n
# against the exact distance of its doubles

def _check_kernels(space, coords):
    """space's row and rows against the reference rows, in type and bits."""
    if isinstance(space, MaxProduct):
        def reference(a, bs):
            return _max_row(space.left.row(a[0], [b[0] for b in bs]),
                            space.right.row(a[1], [b[1] for b in bs]))
    else:
        reference = _linf_row if isinstance(space, MinkowskiLinf) else _e1_row
    for i, a in enumerate(coords):
        want = [_key(d) for d in reference(a, coords)]
        assert [_key(d) for d in space.row(a, coords)] == want
        if isinstance(space, MaxProduct):
            assert [_key(d) for d in list(space.rows(coords))[i]] == want[i + 1:]


_KERNEL_MODELS = [MinkowskiLinf(), Euclidean(1), MaxProduct(Euclidean(1), RealLine()),
                  MaxProduct(MinkowskiLinf(), RealLine()), MaxProduct(swap_tree(), RealLine()),
                  MaxProduct(RealLine(), swap_tree())]


@pytest.mark.parametrize("space", _KERNEL_MODELS, ids=[m.tag() for m in _KERNEL_MODELS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_row_kernels_match_the_calls_they_replace(space, seed, n):
    _check_kernels(space, [p.coords for p in random_sample(space, n, seed).points])


_HALF = Fraction(1, 2)
_KERNEL_EDGES = {
    # gaps of 2e308 overflow to inf, in one coordinate or both
    "linf-overflow": (MinkowskiLinf(), [(1e308, -1e308), (-1e308, 1e308), (1e308, 0.0),
                                       (0.0, -1e308), (1e308, 1e308), (-0.0, 5e-324)]),
    # a Fraction equal to a float: the left factor's value and type win
    "product-tie-fraction-left": (MaxProduct(RealLine(), RealLine()),
                                  [(Fraction(0), 0.0), (_HALF, 0.5), (Fraction(1), 1.5),
                                   (Fraction(3, 2), -0.0)]),
    "product-tie-float-left": (MaxProduct(RealLine(), RealLine()),
                               [(0.0, Fraction(0)), (0.5, _HALF), (1.5, Fraction(1)),
                                (-0.0, Fraction(3, 2))]),
    # exact coordinates, which E^1 reads as their doubles before it
    # subtracts, and gaps whose squares overflow or underflow
    "e1-fractions": (Euclidean(1), [(Fraction(1, 3),), (Fraction(-2, 7),), (0,), (1.5,),
                                    (_HALF,)]),
    "e1-extremes": (Euclidean(1), [(1e200,), (-1e200,), (5e-324,), (0.0,), (-0.0,), (1e-160,)]),
}


@pytest.mark.parametrize("case", list(_KERNEL_EDGES))
def test_row_kernels_match_the_calls_they_replace_at_the_edges(case):
    space, coords = _KERNEL_EDGES[case]
    coords = [Point(space, c).coords for c in coords]      # valid points only
    _check_kernels(space, coords)


_EUCLIDEAN = [Euclidean(1), Euclidean(2), Euclidean(3)]


@pytest.mark.parametrize("space", _EUCLIDEAN, ids=[m.tag() for m in _EUCLIDEAN])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8),
       scale=st.sampled_from((1e-200, 1e-9, 1.0, 1e200)))
def test_euclidean_rows_lie_within_one_ulp_of_the_exact_root(space, seed, n, scale):
    # the exact root of the sum of squares of the rounded gaps, bracketed
    # by math.isqrt, lies within 1 ulp of the row's value
    pts = random_sample(space, n, seed).points
    coords = [tuple(x * scale for x in p.coords) for p in pts]
    coords += [p.coords for p in _extreme_gaps(space)]
    coords += [(Fraction(1, 3),) * space.dim, (Fraction(-2, 7),) + (_HALF,) * (space.dim - 1)]
    coords = [Point(space, c).coords for c in coords]
    for a in coords:
        for b, d in zip(coords, space.row(a, coords)):
            lo, hi = _euclidean_root(a, b)
            u = Fraction(math.ulp(d))
            assert Fraction(d) - u <= lo and hi <= Fraction(d) + u, (a, b, d)


# ---------------------------------------------------------------------------
# geodesics: point_at(t) is Point(space, at(t)), and a closed form that reads
# at(t) still refuses what a validated point refused

GEODESIC_MODELS = [model for model, _ in CATALOG if type(model).segment is not Space.segment]


def _bits(c):
    """c's type and value, part by part; floats by their hex."""
    return tuple(map(_bits, c)) if isinstance(c, tuple) else _key(c)


def _ideal_pair(space, rng):
    """Two distinct seeded ideal points (eta, xi) of space, opposite on the
    flat models; None where it has no two ends."""
    if isinstance(space, HyperbolicPlane):
        a = rng.uniform(-3.0, 3.0)
        b = math.inf if rng.random() < 0.5 else a + rng.choice((-1, 1)) * rng.uniform(0.2, 4.0)
        return boundary_ideal(space, a), boundary_ideal(space, b)
    if isinstance(space, MetricTree):
        ends = space.desc.ends
        return tuple(tree_end(space, e) for e in rng.sample(ends, 2)) if len(ends) > 1 else None
    if isinstance(space, RealLine):
        s = rng.choice((-1.0, 1.0))
        return direction_ideal(space, -s), direction_ideal(space, s)
    if hasattr(space, "norm"):
        v = [rng.gauss(0.0, 1.0) for _ in range(space.dim)]
        return direction_ideal(space, [-x for x in v]), direction_ideal(space, v)
    return None


@pytest.mark.parametrize("space", GEODESIC_MODELS,
                         ids=[f"{k}-{m.tag()}" for k, m in enumerate(GEODESIC_MODELS)])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6))
def test_point_at_wraps_the_evaluator_coordinates(space, seed):
    rng = random.Random(seed)
    a, b = space.random_point(rng, 3.0), space.random_point(rng, 3.0)
    geos = [geodesic_between(space, a, b)] if a.coords != b.coords else []
    ends = _ideal_pair(space, rng)
    if ends is not None:
        line = line_through(space, *ends, b)
        geos += [ray_from(space, a, ends[1]), line, line.reversed()]
    for geo in geos:
        lo, hi = geo.domain()
        lo, hi = max(lo, -4), min(hi, 4)
        for k in (0, 64, *(rng.randint(1, 63) for _ in range(6))):
            t = lo + (hi - lo) * Fraction(k, 64)
            t = t if space.exact else float(t)
            p = geo.point_at(t)
            assert p.space is space
            assert _bits(p.coords) == _bits(geo.at(t))


@pytest.mark.parametrize("space", GEODESIC_MODELS,
                         ids=[f"{k}-{m.tag()}" for k, m in enumerate(GEODESIC_MODELS)])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6))
def test_midpoint_is_the_segment_point_at_half_its_length(space, seed):
    # a point and itself too: the sphere's d(a, a) can round to 5e-17, and
    # then both take the midpoint of that segment
    rng = random.Random(seed)
    a, b = space.random_point(rng, 3.0), space.random_point(rng, 3.0)
    for x, y in ((a, a), (a, b)):
        try:
            geo = geodesic_between(space, x, y)
        except DegenerateError:
            with pytest.raises(DegenerateError, match="geodesic between identical points"):
                midpoint(space, x, y)
            continue
        m = midpoint(space, x, y)
        assert m.space is space
        assert _bits(m.coords) == _bits(geo.point_at(geo.length / 2).coords)


_H2, _E2 = HyperbolicPlane(), Euclidean(2)
_REFUSED = {
    # the projection's numerator overflows: the foot is (nan, nan)
    "e2-closest-param-past-double-range": (
        _E2, ray_from(_E2, point(_E2, (1e308, 0.0)), direction_ideal(_E2, (-1.0, 0.5))),
        point(_E2, (-1e308, 0.0))),
    # the ends' gap overflows: the unit step is (nan, 0.0)
    "e2-closest-param-on-an-overflowing-segment": (
        _E2, geodesic_between(_E2, point(_E2, (-1e308, 0.0)), point(_E2, (1e308, 0.0))),
        point(_E2, (1.0, 0.0))),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_closed_forms_on_evaluator_coordinates_refuse_what_points_refused(case):
    space, geo, x = _REFUSED[case]
    with pytest.raises(SpaceError):
        closest_param(space, geo, x)


def test_h2_closest_param_on_a_ray_up_from_1e308():
    # the frame of the ray's end reads no point past its base, so the foot
    # clips to t = 0 and the distance is d(o, x)
    o, x = point(_H2, (0.0, 1e308)), point(_H2, (0.0, 1.0))
    ray = ray_from(_H2, o, boundary_ideal(_H2, math.inf))
    assert closest_param(_H2, ray, x) == (0.0, 709.1962086421661) == (0.0, distance(_H2, o, x))
