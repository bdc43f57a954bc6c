import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab import grasshopper as gh
from metriclab import spaces, verify
from metriclab.grasshopper import line_counterexample
from metriclab.spaces import (
    Euclidean,
    GeodesicRef,
    HyperbolicPlane,
    MaxProduct,
    MetricTree,
    MinkowskiLinf,
    MinkowskiLp,
    Point,
    RealLine,
    Space,
    SpaceError,
    TreeDesc,
    distance,
    geodesic_between,
    point,
    tree_edge_point,
    tree_vertex,
)
from metriclab.suites import catalog, swap_tree
from metriclab.verify import (
    MAX_WITNESSES,
    BijectionSpec,
    SampleSet,
    VerificationReport,
    _jsonable,
    _unit_class,
    check_busemann_midpoints,
    check_distance_convexity,
    check_metric_axioms,
    is_isometry,
    preserves_unit_distance,
    random_sample,
)

from oracles import (
    _is_isometry_pairwise,
    _preserves_unit_distance_pairwise,
    _unit_jump_adjacency,
)


def _identity(space):
    return BijectionSpec("identity", space, space, lambda p: p, lambda p: p)


def test_metric_axioms_catalog_samples(star_tree):
    for space in (Euclidean(2), MinkowskiLp(3.0), HyperbolicPlane(), star_tree):
        sample = random_sample(space, 30, seed=11)
        rep = check_metric_axioms(space, sample, triples=200, seed=3)
        assert rep.passed, rep.witnesses


@pytest.mark.parametrize("space", [MinkowskiLp(1.5), MinkowskiLp(3.0), MinkowskiLinf(),
                                   RealLine()], ids=["l1.5", "l3", "linf", "line"])
def test_metric_axioms_keep_points_closer_than_tol_distinct(space):
    # two points 1e-200 apart are still two points: identity asks d > 0 of
    # distinct points and d <= tol only of equal ones (E^2 reads 0.0 here,
    # because its row squares the gap first)
    a, b = (0.0, 1e-200) if isinstance(space, RealLine) else ((0.0, 0.0), (1e-200, 0.0))
    sample = SampleSet(space, (point(space, a), point(space, b)))
    rep = check_metric_axioms(space, sample, triples=50, seed=1)
    assert rep.passed, rep.witnesses


def test_metric_axioms_fail_equal_points_apart():
    class Offset(RealLine):             # d(x, x) = 1
        def row(self, a, bs):
            return [abs(a - b) + 1.0 for b in bs]
    space = Offset()
    sample = SampleSet(space, tuple(point(space, v) for v in (0.0, 2.0)))
    rep = check_metric_axioms(space, sample, triples=50, seed=1)
    assert rep.witnesses and {w["axiom"] for w in rep.witnesses} == {"identity"}
    assert all(w["x"] == w["y"] for w in rep.witnesses)


def test_metric_axioms_stay_exact_beyond_float_range():
    # edges of 10^400 are exact tree lengths that no float holds: the
    # triangle test compares them exactly, and a failing triangle's slack is
    # the exact dxy + dyz - dxz
    big = Fraction(10) ** 400
    desc = TreeDesc(("a", "b", "c"), (("a", "b", big), ("b", "c", big)), 1)
    tree = MetricTree(desc)
    assert check_metric_axioms(tree, random_sample(tree, 20, seed=1), seed=2).passed

    class Stretched(MetricTree):
        def row(self, a, bs):           # d(a, c) tripled: 6 * 10^400
            return [3 * d if {a[1], b[1]} == {"a", "c"} else d
                    for b, d in zip(bs, super().row(a, bs))]
    bad = Stretched(desc)
    sample = SampleSet(bad, tuple(tree_vertex(bad, v) for v in desc.vertices))
    rep = check_metric_axioms(bad, sample, seed=2)
    assert not rep.passed
    assert {(w["axiom"], w["slack"]) for w in rep.witnesses} == {("triangle", str(-4 * big))}


def test_metric_axioms_fail_on_an_infinite_distance():
    # d((1e308, 0), (-1e308, 0)) overflows to inf; inf - inf is nan, which
    # no float comparison with the tolerance passes
    e2 = Euclidean(2)
    sample = SampleSet(e2, (point(e2, (1e308, 0.0)), point(e2, (-1e308, 0.0))))
    rep = check_metric_axioms(e2, sample, triples=50)
    assert not rep.passed and rep.witnesses
    assert {w["axiom"] for w in rep.witnesses} == {"symmetry", "triangle"}
    assert all(w.get("dxy", w.get("slack")) in ("inf", "nan") for w in rep.witnesses)


def test_busemann_midpoints_euclid_equality():
    e2 = Euclidean(2)
    rep = check_busemann_midpoints(e2, point(e2, (0, 0)), point(e2, (4, 0)),
                                   point(e2, (1, 3)))
    assert rep.passed
    assert abs(rep.counts["lhs"] - rep.counts["rhs"]) < 1e-9


def test_busemann_midpoints_linf_witness():
    linf = MinkowskiLinf()
    rep = check_busemann_midpoints(
        linf, point(linf, (0, 0)), point(linf, (2, 0)), point(linf, (2, 2)),
        selector_xy="lower extreme", selector_xz="upper extreme")
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["d_mn"] == 2.0 and w["half_d_yz"] == 1.0


def test_busemann_midpoints_tree_exhaustive(star_tree):
    # all triples of a 7-point sample: the four vertices plus one interior
    # point per edge
    from fractions import Fraction
    from metriclab.spaces import tree_edge_point
    pts = [tree_vertex(star_tree, v) for v in star_tree.desc.vertices]
    pts += [tree_edge_point(star_tree, i, Fraction(1, 4)) for i in range(3)]
    assert len(pts) == 7
    import itertools
    for x, y, z in itertools.permutations(pts, 3):
        rep = check_busemann_midpoints(star_tree, x, y, z)
        assert rep.passed


def _half_way(space, a, b):
    """The midpoint of a and b read off the whole segment between them."""
    geo = geodesic_between(space, a, b)
    return geo.point_at(geo.length / 2)


@pytest.mark.parametrize("case", ["e2", "h2", "tree", "linf-extremes"])
def test_busemann_midpoints_build_two_points_and_no_geodesic(builds, star_tree, case):
    e2, h2, linf = Euclidean(2), HyperbolicPlane(), MinkowskiLinf()
    space, pts, selectors = {
        "e2": (e2, [point(e2, c) for c in ((0.5, -1.0), (4.0, 0.3), (1.0, 3.0))], {}),
        "h2": (h2, [point(h2, c) for c in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0))], {}),
        "tree": (star_tree, [tree_vertex(star_tree, "l1"), tree_vertex(star_tree, "l2"),
                             tree_edge_point(star_tree, 2, Fraction(1, 4))], {}),
        "linf-extremes": (linf, [point(linf, c) for c in ((0, 0), (2, 0), (2, 2))],
                          {"selector_xy": "lower extreme", "selector_xz": "upper extreme"}),
    }[case]
    x, y, z = pts
    expected = check_busemann_midpoints(space, x, y, z, **selectors).to_json()
    if not selectors:
        # the per-Point reading: midpoints off whole segments, distances
        # through the module
        m, n = _half_way(space, x, y), _half_way(space, x, z)
        assert expected["counts"] == {"lhs": float(distance(space, m, n)),
                                      "rhs": float(distance(space, y, z) / 2)}
    builds.update(Point=0, GeodesicRef=0)
    rep = check_busemann_midpoints(space, x, y, z, **selectors)
    assert builds == {"Point": 2, "GeodesicRef": 0}
    assert rep.to_json() == expected
    assert rep.passed == (case != "linf-extremes")


def test_distance_convexity_euclid_and_hyperbolic():
    e2 = Euclidean(2)
    g1 = geodesic_between(e2, point(e2, (0, 0)), point(e2, (4, 1)))
    g2 = geodesic_between(e2, point(e2, (0, 2)), point(e2, (3, 5)))
    assert check_distance_convexity(e2, g1, g2).passed
    h = HyperbolicPlane()
    gh1 = geodesic_between(h, point(h, (-2, 1)), point(h, (-1, 3)))
    gh2 = geodesic_between(h, point(h, (1, 0.5)), point(h, (2, 2)))
    assert check_distance_convexity(h, gh1, gh2).passed


def _spy_on_row(monkeypatch, cls):
    """The list of (len(bs), result) of every cls.row call from now on."""
    calls, row = [], cls.row

    def spy(self, a, bs):
        out = row(self, a, bs)
        calls.append((len(bs), out))
        return out
    monkeypatch.setattr(cls, "row", spy)
    return calls


def _forbid_distance(monkeypatch):
    """Make every one-pair distance call, through the model or the module,
    fail the test; verify holds no name of its own for the module's."""
    def refuse(*args):
        raise AssertionError("one-pair distance call")
    assert "distance" not in vars(verify)
    monkeypatch.setattr(Space, "distance", refuse)
    monkeypatch.setattr(spaces, "distance", refuse)


@pytest.mark.parametrize("model", ["e2", "tree", "product"])
def test_metric_axioms_read_two_rows_per_triple(monkeypatch, ended_tree, model):
    space = {"e2": Euclidean(2), "tree": ended_tree,
             "product": MaxProduct(Euclidean(2), RealLine())}[model]
    sample = random_sample(space, 40, seed=5)
    expected = check_metric_axioms(space, sample, triples=200, seed=9).to_json()
    rows = _spy_on_row(monkeypatch, type(space))
    _forbid_distance(monkeypatch)
    rep = check_metric_axioms(space, sample, triples=200, seed=9)
    assert [n for n, _ in rows] == [2] * 400
    assert rep.to_json() == expected


def _busemann_suite_e2_grids():
    e2 = Euclidean(2)
    g1 = geodesic_between(e2, point(e2, (0.0, 0.0)), point(e2, (4.0, 1.0)))
    g2 = geodesic_between(e2, point(e2, (0.0, 2.0)), point(e2, (3.0, 5.0)))
    return e2, g1, g2


def _counted(geo, calls):
    """geo with every evaluation of its coordinates appended to calls."""
    def at(t):
        calls.append(t)
        return geo.at(t)
    return GeodesicRef(geo.space, geo.kind, at, length=geo.length)


def test_distance_convexity_evaluates_each_lattice_point_once(monkeypatch):
    e2, g1, g2 = _busemann_suite_e2_grids()
    # the per-pair table: one distance of two fresh points per lattice pair
    t1 = [float(g1.length) * i / 8 for i in range(9)]
    t2 = [float(g2.length) * j / 8 for j in range(9)]
    per_pair = [[float(distance(e2, g1.point_at(a), g2.point_at(b))) for b in t2] for a in t1]
    evals = []
    rows = _spy_on_row(monkeypatch, Euclidean)
    _forbid_distance(monkeypatch)
    rep = check_distance_convexity(e2, _counted(g1, evals), _counted(g2, evals))
    assert rep.passed and rep.counts["pairs"] > 0
    assert len(evals) == 18
    assert [n for n, _ in rows] == [9] * 9
    assert [[float(d) for d in out] for _, out in rows] == per_pair


def test_distance_convexity_rejects_a_foreign_lattice_point():
    e2, g1, g2 = _busemann_suite_e2_grids()

    def leaves_the_plane(t):
        return (0.0, 0.0, 0.0) if t == g2.length else g2.at(t)
    foreign_end = GeodesicRef(e2, "segment", leaves_the_plane, length=g2.length)
    with pytest.raises(SpaceError, match="expected 2-tuple"):
        check_distance_convexity(e2, g1, foreign_end)


def _bent_linf_pair():
    """The sup-norm plane and its bent unit-speed geodesics from (0,0) to
    (2,0) through the extreme midpoints."""
    linf = MinkowskiLinf()

    def bent(sign):
        def at(t):
            t = float(t)
            if t <= 1.0:
                return (t, sign * t)
            return (t, sign * (2.0 - t))
        return at
    return (linf, GeodesicRef(linf, "segment", bent(-1.0), length=2.0),
            GeodesicRef(linf, "segment", bent(+1.0), length=2.0))


def test_distance_convexity_linf_violation():
    # between the bent geodesics, midpoint convexity of the cross-distance
    # fails at the center of the lattice
    linf, g1, g2 = _bent_linf_pair()
    rep = check_distance_convexity(linf, g1, g2)
    assert not rep.passed
    assert rep.witnesses


def test_distance_convexity_fails_a_table_past_double_range():
    # segments 2e308 apart: every lattice distance overflows to inf, and
    # inf > inf + 1e-9 is False, so the lattice alone passed its 1,025 pairs
    e2 = Euclidean(2)
    g1 = geodesic_between(e2, point(e2, (-1e308, 0.0)), point(e2, (-1e308, 1.0)))
    g2 = geodesic_between(e2, point(e2, (1e308, 0.0)), point(e2, (1e308, 1.0)))
    rep = check_distance_convexity(e2, g1, g2)
    assert not rep.passed and rep.counts == {"pairs": 1025, "violations": 81}
    assert rep.witnesses[0] == {"at": [0.0, 0.0], "d": "inf"}


def test_fail_stores_only_the_witnesses_it_keeps(monkeypatch):
    # the bent pair fails 425 times: the report's list never holds more
    # than the MAX_WITNESSES it keeps, and "violations" counts every one
    linf, g1, g2 = _bent_linf_pair()
    stored = []
    fail = VerificationReport.fail

    def spied(self, witness):
        fail(self, witness)
        stored.append(list(self.witnesses))
    monkeypatch.setattr(VerificationReport, "fail", spied)
    rep = check_distance_convexity(linf, g1, g2)
    assert len(stored) == rep.counts["violations"] == 425
    assert max(map(len, stored)) == MAX_WITNESSES
    assert stored[-1] == stored[MAX_WITNESSES - 1]
    assert rep.witnesses == [_jsonable(w) for w in stored[-1]]


def test_sample_checks_reject_foreign_samples():
    e2, e3 = Euclidean(2), Euclidean(3)
    s2, s3 = random_sample(e2, 4, seed=1), random_sample(e3, 4, seed=1)
    with pytest.raises(SpaceError):
        check_metric_axioms(e2, s3)
    with pytest.raises(SpaceError, match="does not belong to"):
        SampleSet(e2, s2.points + s3.points[:1])
    with pytest.raises(SpaceError, match="empty sample"):
        SampleSet(e2, ())


def test_is_isometry_identity_and_rotation():
    e2 = Euclidean(2)
    sample = random_sample(e2, 20, seed=2)
    assert is_isometry((e2, e2), _identity(e2), sample).passed
    ang = math.pi / 6
    rot = BijectionSpec(
        "rot30", e2, e2,
        lambda p: point(e2, (p.coords[0] * math.cos(ang) - p.coords[1] * math.sin(ang),
                             p.coords[0] * math.sin(ang) + p.coords[1] * math.cos(ang))),
        lambda p: point(e2, (p.coords[0] * math.cos(ang) + p.coords[1] * math.sin(ang),
                             -p.coords[0] * math.sin(ang) + p.coords[1] * math.cos(ang))))
    assert is_isometry((e2, e2), rot, sample).passed


def test_is_isometry_sine_shift_fails():
    rl = RealLine()
    two_pi = 2 * math.pi

    def f(p):
        return point(rl, p.coords + math.sin(two_pi * p.coords) / two_pi)
    spec = BijectionSpec("sine", rl, rl, f, lambda p: p)
    sample = SampleSet(rl, (point(rl, 0.0), point(rl, 0.25)))
    rep = is_isometry((rl, rl), spec, sample)
    assert not rep.passed
    w = rep.witnesses[0]
    assert abs(w["d_after"] - (0.25 + 1 / two_pi)) < 1e-12


def test_preserves_unit_distance_modes():
    rl = RealLine()
    two_pi = 2 * math.pi

    def fwd(p):
        return point(rl, p.coords + math.sin(two_pi * p.coords) / two_pi)

    def inv(p):
        y = p.coords
        lo, hi = y - 0.5, y + 0.5
        for _ in range(100):
            mid = (lo + hi) / 2
            if mid + math.sin(two_pi * mid) / two_pi < y:
                lo = mid
            else:
                hi = mid
        return point(rl, (lo + hi) / 2)
    spec = BijectionSpec("sine", rl, rl, fwd, inv)
    vals = [0.0, 0.25, 1.0, 1.25, -1.0, 2.37, 3.37, 0.8]
    sample = SampleSet(rl, tuple(point(rl, v) for v in vals))
    for mode in ("eq", "le", "lt"):
        rep = preserves_unit_distance((rl, rl), spec, sample, mode=mode)
        assert rep.passed, (mode, rep.witnesses)


def test_unit_class_modes_snap_and_exactness():
    floats = [0.5, 1.0, 1.0 + 1e-12, 1.5]
    exact = [Fraction(1, 2), Fraction(1), 1 + Fraction(1, 2 ** 60), Fraction(3, 2)]
    want = {  # (mode, exact row?, tol) -> classes
        ("eq", False, 1e-9): [False, True, True, False],
        ("le", False, 1e-9): [True, True, True, False],
        ("lt", False, 1e-9): [True, False, False, False],
        ("eq", False, 0.0): [False, True, False, False],
        ("eq", True, 0): [False, True, False, False],
        ("le", True, 0): [True, True, False, False],
        ("lt", True, 0): [True, False, False, False],
        ("eq", True, 1e-9): [False, True, True, False],     # tol > 0: floats
    }
    for (mode, is_exact, tol), classes in want.items():
        row = exact if is_exact else floats
        assert _unit_class(mode, tol, is_exact)(row) == classes, (mode, is_exact, tol)
    with pytest.raises(SpaceError, match="unknown mode"):
        _unit_class("ge", 1e-9, False)


def test_unit_class_eq_matches_the_snap_then_compare_form():
    # "eq" on float rows is one comparison per distance; the form it
    # replaced snapped |d - 1| <= tol to 1 and then compared with 1
    for tol in (1e-9, 0.25, 0.0):
        row = [1.0, 1 + tol, 1 - tol, 1 + 2 * tol, 1 - 2 * tol, math.nan, math.inf,
               -math.inf, 0.0, Fraction(1), 1]
        snapped = [(1.0 if abs(v - 1.0) <= tol else v) == 1 for v in map(float, row)]
        assert _unit_class("eq", tol, False)(row) == snapped, tol
        if tol:
            assert _unit_class("eq", tol, True)(row) == snapped, tol


_BAD_TOLS = (True, False, None, "1e-9", Fraction(1, 10 ** 9), -1.0, -1e-12, math.nan,
             math.inf, -math.inf)


def _tol_checks():
    e2 = Euclidean(2)
    sample = random_sample(e2, 6, seed=3)
    x, y, z = (point(e2, c) for c in ((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)))
    return {
        "is_isometry": lambda tol: is_isometry(
            (e2, e2), _identity(e2), sample, tol=tol),
        "preserves_unit_distance": lambda tol: preserves_unit_distance(
            (e2, e2), _identity(e2), sample, tol=tol),
        "check_metric_axioms": lambda tol: check_metric_axioms(e2, sample, tol=tol),
        "check_busemann_midpoints": lambda tol: check_busemann_midpoints(
            e2, x, y, z, tol=tol),
    }


@pytest.mark.parametrize("name", sorted(_tol_checks()))
def test_checks_reject_a_tol_that_is_not_a_finite_number_at_least_0(name):
    # a nan or negative tol used to fail the identity on every pair
    check = _tol_checks()[name]
    for tol in (0, 0.0, 1e-9):
        assert check(tol).passed, (name, tol)
    for tol in _BAD_TOLS:
        with pytest.raises(SpaceError, match="tol must be a finite number >= 0"):
            check(tol)


_E2 = Euclidean(2)
_E2_SAMPLE = random_sample(_E2, 4, seed=1)


@pytest.mark.parametrize("make", [
    lambda: check_metric_axioms(_E2, _E2_SAMPLE, tol=10 ** 400),
    lambda: is_isometry((_E2, _E2), _identity(_E2), _E2_SAMPLE, tol=10 ** 400),
    lambda: preserves_unit_distance((_E2, _E2), _identity(_E2), _E2_SAMPLE, mode=10 ** 5000),
    lambda: SampleSet(_E2, ((0.0, 0.0),)),
], ids=["axioms-tol-400-digits", "isometry-tol-400-digits", "unit-mode-5001-digits",
        "sample-of-raw-coords"])
def test_bad_input_raises_space_error(make):
    with pytest.raises(SpaceError) as err:
        make()
    assert "\n" not in str(err.value)


def test_isometry_implies_unit_preservation():
    # one direction of the characterization, testable exactly on samples
    e2 = Euclidean(2)
    sample = random_sample(e2, 15, seed=4)
    shift = BijectionSpec(
        "shift", e2, e2,
        lambda p: point(e2, (p.coords[0] + 1.5, p.coords[1] - 0.5)),
        lambda p: point(e2, (p.coords[0] - 1.5, p.coords[1] + 0.5)))
    assert is_isometry((e2, e2), shift, sample).passed
    for mode in ("eq", "le", "lt"):
        assert preserves_unit_distance((e2, e2), shift, sample, mode=mode).passed


def test_report_json_stable_order_and_witness_cap():
    rep = VerificationReport("demo", tolerance=1e-9)
    for k in range(50):
        rep.fail({"k": k})
    rep.finalize()
    assert len(rep.witnesses) == 32
    out = rep.to_json()
    assert list(out.keys()) == ["check", "status", "counts", "witnesses", "tolerance"]
    json.dumps(out)  # serializable


def test_finalize_counts_violations_before_the_cap():
    rep = VerificationReport("demo")
    for k in range(40):
        rep.fail({"k": k})
    rep.finalize(pairs=50, rows=3)
    assert len(rep.witnesses) == 32
    assert list(rep.counts.items()) == [("pairs", 50), ("rows", 3), ("violations", 40)]
    # a given "violations" keeps its place and takes the witness count
    rep = VerificationReport("demo")
    rep.fail({"k": 0})
    rep.finalize(cases=3, violations=None, delta=0.5)
    assert list(rep.counts.items()) == [("cases", 3), ("violations", 1), ("delta", 0.5)]
    # without counts, the report's own counts stand, with no violations
    rep = VerificationReport("demo")
    rep.counts = {"lhs": 1.0}
    rep.finalize()
    assert rep.counts == {"lhs": 1.0}


def _witness_leaves():
    from metriclab.suites import ended_tree
    e2, rl, tree = Euclidean(2), RealLine(), ended_tree()
    floats = st.floats(allow_nan=True, allow_infinity=True)
    # points refuse NaN and +-inf coordinates, which stay bare float leaves
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), floats,
        st.text(max_size=4),
        st.fractions(max_denominator=10 ** 6),
        st.tuples(finite, finite).map(lambda c: Point(e2, c)),
        finite.map(lambda x: Point(rl, x)),
        st.sampled_from(tree.desc.vertices).map(lambda v: tree_vertex(tree, v)),
        st.integers(1, 15).map(lambda k: tree_edge_point(tree, k % 5, Fraction(k, 32))))


_witnesses = st.recursive(
    _witness_leaves(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-20, 20), st.booleans(),
                                  st.none(), st.floats(-2, 2)), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ws=st.lists(_witnesses, min_size=1, max_size=MAX_WITNESSES))
def test_finalize_keeps_the_jsonable_order_and_cap(ws):
    # up to the cap, finalize keeps every witness in the order recorded,
    # each converted by _jsonable, and counts every one
    rep = VerificationReport("demo")
    for w in ws:
        rep.fail(w)
    rep.finalize(pairs=100)
    assert json.dumps(rep.witnesses) == json.dumps([_jsonable(w) for w in ws])
    assert rep.counts == {"pairs": 100, "violations": len(ws)}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ws=st.lists(st.dictionaries(st.sampled_from("xyz"), _witness_leaves(), min_size=1),
                   min_size=MAX_WITNESSES + 1, max_size=100))
# recorded against their key order: the first recorded are kept, not the
# smallest
@example(ws=[{"k": k} for k in range(50, 0, -1)])
def test_finalize_keeps_the_jsonable_order_and_cap_beyond_the_cap(ws):
    # past the cap, finalize keeps the first MAX_WITNESSES in the order
    # recorded and still counts every one
    rep = VerificationReport("demo")
    for w in ws:
        rep.fail(w)
    rep.finalize(pairs=200)
    assert json.dumps(rep.witnesses) == json.dumps([_jsonable(w) for w in ws[:MAX_WITNESSES]])
    assert rep.counts == {"pairs": 200, "violations": len(ws)}


def _line_sine_sample_104():
    """52 points and their shifts by 1: the line-sine map preserves only
    the 52 shift pairs, so its isometry report has 5,304 violations."""
    rl = RealLine()
    rng = random.Random(1)
    base = [rng.uniform(-4.0, 4.0) for _ in range(52)]
    return SampleSet(rl, tuple(point(rl, v) for v in base + [b + 1.0 for b in base]))


def test_finalize_encodes_little_more_than_the_witnesses_it_keeps(monkeypatch):
    # finalize converts the witnesses it keeps and never reads one past the
    # cap
    ws = [{"k": k, "x": Point(RealLine(), k / 3)} for k in range(100)]
    rep = VerificationReport("demo")
    for w in ws:
        rep.fail(w)
    seen = []
    jsonable = verify._jsonable
    monkeypatch.setattr(verify, "_jsonable", lambda v: seen.append(v) or jsonable(v))
    rep.finalize()
    assert [v for v in seen if any(v is w for w in ws)] == ws[:MAX_WITNESSES]
    assert rep.counts == {}


def test_isometry_builds_witnesses_only_for_pairs_it_can_keep(monkeypatch):
    # a count, not a timing: is_isometry builds a witness for the first
    # MAX_WITNESSES failing pairs alone, and still counts every one of them
    rl = RealLine()
    sample = _line_sine_sample_104()
    calls = []
    fail = VerificationReport.fail

    def counted(self, witness):
        calls.append(witness)
        return fail(self, witness)
    monkeypatch.setattr(VerificationReport, "fail", counted)
    rep = is_isometry((rl, rl), line_counterexample(), sample)
    assert rep.counts == {"pairs": 5356, "violations": 5304}
    assert len(calls) == MAX_WITNESSES
    # the map keeps only the 52 shift pairs (i, i + 52), so the first
    # failing pairs in sample order are (0, 1), ..., (0, 32)
    pts = sample.points
    assert [(w["x"], w["y"]) for w in calls] == [(pts[0], pts[j]) for j in range(1, 33)]
    assert rep.witnesses == [_jsonable(w) for w in calls]


def test_failed_report_requires_witness():
    rep = VerificationReport("demo")
    rep.status = "fail"
    with pytest.raises(AssertionError):
        rep.finalize()


# ---------------------------------------------------------------------------
# the pair tables the two bijection checks share

def test_unknown_mode_raises_before_the_bijection_is_evaluated():
    rl = RealLine()
    calls = []

    def counted(p):
        calls.append(p)
        return p
    spec = BijectionSpec("counted", rl, rl, counted, counted)
    sample = SampleSet(rl, tuple(point(rl, v) for v in (0.0, 1.0, 2.5)))
    with pytest.raises(SpaceError, match="unknown mode"):
        preserves_unit_distance((rl, rl), spec, sample, mode="bogus")
    assert calls == []


def _count_builds(monkeypatch, model, asked=None):
    """Empties the stored tables and records the size of every table that
    model's rows builds from then on; given a list ``asked``, also every
    pair (a, b) that model's row is asked for outside of rows."""
    monkeypatch.setattr(verify, "_pair_tables", [])
    builds, rows, row, inside = [], model.rows, model.row, []

    def counted(self, coords):
        builds.append(len(coords))
        inside.append(True)
        try:
            return list(rows(self, coords))
        finally:
            inside.pop()
    monkeypatch.setattr(model, "rows", counted)
    if asked is not None:
        def counted_row(self, a, bs):
            if not inside:
                asked.extend((a, b) for b in bs)
            return row(self, a, bs)
        monkeypatch.setattr(model, "row", counted_row)
    return builds


def _unit_then_isometry(spaces, spec, sample, tol=1e-9):
    unit = preserves_unit_distance(spaces, spec, sample, tol=tol)
    iso = is_isometry(spaces, spec, sample, tol=tol)
    return unit, iso


def _line_sine_sample():
    rl = RealLine()
    rng = random.Random(7)
    vals = [0.0, 0.25] + [rng.uniform(-3, 3) for _ in range(10)]
    vals += [v + 1.0 for v in vals[:6]]
    return SampleSet(rl, tuple(point(rl, v) for v in vals))


def test_line_sine_inverse_rows_read_only_moved_pairs(monkeypatch):
    # X over the sample and Y over the images, which the isometry check
    # reuses; the inverse direction asks row only for the pairs that touch
    # a preimage not bit-identical to its sample point
    asked = []
    builds = _count_builds(monkeypatch, RealLine, asked)
    rl = RealLine()
    spec, sample = line_counterexample(), _line_sine_sample()
    unit, iso = _unit_then_isometry((rl, rl), spec, sample)
    assert unit.passed and not iso.passed
    assert builds == [18, 18]
    back = [spec.inverse(spec.forward(p)).coords for p in sample.points]
    moved = [repr(b) != repr(p.coords) for b, p in zip(back, sample.points)]  # -0.0 too
    assert 0 < sum(moved) < len(back)
    assert asked == [(back[i], back[j]) for i, j in itertools.combinations(range(len(back)), 2)
                     if moved[i] or moved[j]]


def test_tree_swap_checks_build_two_tables(monkeypatch):
    # the swap is an exact involution: the preimages are the sample, so
    # the inverse direction computes no distance
    asked = []
    builds = _count_builds(monkeypatch, MetricTree, asked)
    tree = swap_tree()
    tps = gh.TreePointSet(tree, Fraction(1, 10), Fraction(1, 5))
    nodes = gh.tree_offset_class_nodes(tree, tps.a_alpha[0], tps.a_beta[0])
    sample = SampleSet(tree, tuple(nodes) + tuple(tree_vertex(tree, v)
                                                  for v in tree.desc.vertices))
    unit, iso = _unit_then_isometry((tree, tree), gh.tree_swap_bijection(tps), sample, 0.0)
    assert unit.passed and not iso.passed
    assert builds == [len(sample.points)] * 2
    assert asked == []


def test_identity_checks_build_one_table(monkeypatch):
    asked = []
    builds = _count_builds(monkeypatch, HyperbolicPlane, asked)
    h2 = HyperbolicPlane()
    unit, iso = _unit_then_isometry((h2, h2), _identity(h2), random_sample(h2, 30, seed=5))
    assert unit.passed and iso.passed
    assert builds == [30]
    assert asked == []


def _doubling(space):
    return BijectionSpec("double", space, space, lambda p: Point(space, 2 * p.coords),
                         lambda p: Point(space, p.coords / 2))


def test_stored_tables_keep_the_coordinate_types(monkeypatch):
    # 1, 1.0, True and Fraction(1) give distances of their own types, so
    # equal-valued samples of different types never share a table
    builds = _count_builds(monkeypatch, RealLine)
    rl = RealLine()
    # (values, witness distance type, tables built); the bool sample's
    # images are the int sample's, and a Fraction sample is never stored
    variants = (([0.0, 1.0, 3.0], float, 2), ([0, 1, 3], int, 2), ([0, 1, 3], int, 0),
                ([False, True, 3], int, 1), ([Fraction(0), Fraction(1), 3], str, 2),
                ([Fraction(0), Fraction(1), 3], str, 2), ([-0.0, 1.0, 3.0], float, 2),
                ([0.0, 1.0, 3.0], float, 2), ([0.0, 1.0, 3.0], float, 0))
    for values, kind, built in variants:
        before = len(builds)
        sample = SampleSet(rl, tuple(Point(rl, v) for v in values))
        rep = is_isometry((rl, rl), _doubling(rl), sample)
        assert len(rep.witnesses) == 3, values
        for w in rep.witnesses:
            assert type(w["d_before"]) is kind and type(w["d_after"]) is kind, values
        assert len(builds) - before == built, values


def test_a_changed_point_gets_a_fresh_table(monkeypatch):
    builds = _count_builds(monkeypatch, Euclidean)
    e2 = Euclidean(2)
    base = random_sample(e2, 12, seed=6).points
    for i in (0, 5, 11):
        assert is_isometry((e2, e2), _identity(e2), SampleSet(e2, base)).passed
        pts = list(base)
        pts[i] = point(e2, (pts[i].coords[0], math.nextafter(pts[i].coords[1], math.inf)))
        moved, other = pts[i], pts[i - 1]
        collapse = BijectionSpec("collapse", e2, e2, lambda p: other if p is moved else p,
                                 lambda p: p)
        del builds[:]
        rep = is_isometry((e2, e2), collapse, SampleSet(e2, tuple(pts)), tol=0.0)
        assert builds == [12, 12], i
        assert rep.counts["violations"] == 11, i
        assert all(list(moved.coords) in (w["x"], w["y"]) for w in rep.witnesses), i


def test_equal_spaces_keep_tables_of_their_own(monkeypatch):
    builds = _count_builds(monkeypatch, Euclidean)
    first, second = Euclidean(2), Euclidean(2)
    sample = random_sample(first, 10, seed=11)
    again = SampleSet(second, tuple(Point(second, p.coords) for p in sample.points))
    assert is_isometry((first, first), _identity(first), sample).passed
    assert is_isometry((second, second), _identity(second), again).passed
    assert builds == [10, 10]


def test_a_foreign_point_raises_even_with_an_equal_table_stored(monkeypatch):
    monkeypatch.setattr(verify, "_pair_tables", [])
    e2, lp2 = Euclidean(2), MinkowskiLp(2.0)
    sample = random_sample(e2, 8, seed=8)
    assert is_isometry((e2, e2), _identity(e2), sample).passed
    foreign = BijectionSpec("foreign", e2, e2, lambda p: Point(lp2, p.coords), lambda p: p)
    with pytest.raises(SpaceError, match="does not belong"):
        is_isometry((e2, e2), foreign, sample)


def test_at_most_two_tables_are_stored(monkeypatch):
    builds = _count_builds(monkeypatch, RealLine)
    stored = []
    counted = RealLine.rows

    def noting(self, coords):
        stored.append(len(verify._pair_tables))
        return counted(self, coords)
    monkeypatch.setattr(RealLine, "rows", noting)
    rl = RealLine()
    for seed in range(6):
        sample = random_sample(rl, 10, seed=seed)
        _unit_then_isometry((rl, rl), line_counterexample(), sample)
        _unit_then_isometry((rl, rl), _doubling(rl), sample)
        assert len(verify._pair_tables) <= 2
    # the table being built is stored after at most one other
    assert builds and max(stored) <= 1


def test_a_failed_build_stores_nothing(monkeypatch):
    builds = _count_builds(monkeypatch, RealLine)
    rl = RealLine()
    sample = random_sample(rl, 5, seed=9)
    assert is_isometry((rl, rl), _identity(rl), sample).passed

    def failing(self, coords):
        raise SpaceError("no table")
    monkeypatch.setattr(RealLine, "rows", failing)
    other = random_sample(rl, 5, seed=10)
    with pytest.raises(SpaceError, match="no table"):
        is_isometry((rl, rl), _identity(rl), other)
    # only the first sample's table is stored
    assert [rows for _, _, rows in verify._pair_tables] == [
        [[abs(a.coords - b.coords) for b in sample.points[i + 1:]]
         for i, a in enumerate(sample.points)]]
    assert builds == [5]


def _swap_first_two(sample):
    """An involution of the whole space that swaps the first two sample
    points and fixes every other point."""
    a, b = sample.points[:2]

    def swap(p):
        return b if p.coords == a.coords else a if p.coords == b.coords else p
    return BijectionSpec("swap", sample.space, sample.space, swap, swap)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from([m for m in catalog() if not m.exact] + [MetricTree(TreeDesc(
           ("a", "b", "c", "d"), (("a", "b", Fraction(1, 2)), ("b", "c", Fraction(1, 3)),
                                  ("b", "d", Fraction(3, 4))), 12))]),
       kind=st.sampled_from(["identity", "swap", "line-sine"]),
       n=st.integers(2, 14), seed=st.integers(0, 1000), isometry_first=st.booleans())
def test_shared_tables_leave_both_reports_unchanged(model, kind, n, seed, isometry_first):
    if kind == "line-sine":
        model = RealLine()
    sample = random_sample(model, n, seed=seed)
    if kind == "line-sine":
        spec = line_counterexample()
    elif kind == "swap":
        spec = _swap_first_two(sample)
    else:
        spec = _identity(model)
    spaces = (model, model)
    tol = 0.0 if model.exact else 1e-9
    checks = [lambda: preserves_unit_distance(spaces, spec, sample, tol=tol).to_json(),
              lambda: is_isometry(spaces, spec, sample, tol=tol).to_json()]
    if isometry_first:
        checks.reverse()
    alone = []
    for check in checks:
        verify._pair_tables.clear()
        alone.append(check())
    verify._pair_tables.clear()
    shared = [check() for check in checks]
    again = [check() for check in checks]
    assert shared == alone and again == alone


# ---------------------------------------------------------------------------
# the bijection checks and the unit-jump graph against their per-pair loops

@dataclass(frozen=True, eq=False)
class _Tabled(RealLine):
    """A line whose points 0, 1, ..., n - 1 have their distances read from a
    table, table[i][j - i - 1] = d(i, j) for i < j: any values, nan, +-inf
    and Fractions among them. With eq=False no two instances are the same
    space, so no stored table of one serves another."""

    table: tuple = ()
    exact: bool = False

    def row(self, a, bs):
        a = int(a)
        return [self.table[min(a, b)][abs(b - a) - 1] for b in map(int, bs)]


# few values, so that many pairs fail; nan, +-inf, ints and Fractions among
# them, and 1.0 + 1e-12 is a unit distance only within a tolerance
_FLOAT_DISTANCES = (0.0, 0.5, 1.0, 1.0 + 1e-12, 1.25, 2.0, 12.0, math.nan, math.inf,
                    -math.inf, 1, 12, Fraction(1, 3), Fraction(1))
# exact models give numbers equal to themselves: no nan
_EXACT_DISTANCES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(2),
                    Fraction(12), 1, 3)


def _tabled_case(x_table, y_table, exact, back, coord=int):
    """Spaces X and Y over the tables, a bijection k -> k whose declared
    inverse sends k to back[k] (a permutation), and the sample 0..n-1, each
    point k with the coordinate coord(k): Fraction(k) is one that marshal
    refuses."""
    X, Y = _Tabled(x_table, exact), _Tabled(y_table, exact)
    spec = BijectionSpec("tabled", X, Y, lambda p: Point(Y, p.coords),
                         lambda q: Point(X, coord(back[int(q.coords)])))
    return (X, Y), spec, SampleSet(X, tuple(Point(X, coord(k)) for k in range(len(back))))


def _table_of(n, values):
    """The table of n points, filled row by row with values over and over."""
    fill = itertools.cycle(values)
    return tuple(tuple(itertools.islice(fill, n - 1 - i)) for i in range(n - 1))


# a float row passes the math.dist screen (at most tol / 2) whole, or is
# decided pair by pair; None marks an exact row, which is never screened
@pytest.mark.parametrize("xs, ys, exact, screened, want", [
    ([Fraction(1, 3), Fraction(2)], [Fraction(1, 3), 2], True, None, []),
    ([Fraction(1, 3), Fraction(2)], [Fraction(1, 3), 2 + Fraction(1, 2 ** 60)], True, None,
     [1]),
    ([1.0, 2.0 + 0.25e-9, 10.0], [1, 2, 10], False, True, []),
    ([1.0, 2.0, 10.0 + 0.75e-9], [1, 2, 10], False, False, []),
    ([1.0, 2.0 + 1.5e-9, 10.0], [1, 2, 10], False, False, [1]),
    ([1.0, math.nan, 10.0], [1, 2, 10], False, False, [1]),
    ([1.0, 2.0, math.inf], [1, 2, 10], False, False, [2]),
], ids=["exact-equal", "exact-off-by-2^-60", "within-half-tol", "at-0.75-tol", "at-1.5-tol",
        "nan", "inf"])
def test_mismatches_decide_a_row_within_tol(xs, ys, exact, screened, want):
    tol = 1e-9
    if not exact:
        assert (math.dist(xs, ys) <= 0.5 * tol) == screened
    assert verify._mismatches(xs, ys, tol, exact) == want


@st.composite
def _tabled_cases(draw):
    exact = draw(st.booleans())
    values = st.sampled_from(_EXACT_DISTANCES if exact else _FLOAT_DISTANCES)
    n = draw(st.integers(2, 14))

    def table():
        return tuple(tuple(draw(st.lists(values, min_size=n - 1 - i, max_size=n - 1 - i)))
                     for i in range(n - 1))
    if draw(st.booleans()):
        back = draw(st.permutations(range(n)))
    else:
        # only some points move: the others are their own preimages
        back = list(range(n))
        movers = draw(st.lists(st.integers(0, n - 1), unique=True))
        for k, b in zip(movers, draw(st.permutations(movers))):
            back[k] = b
    return _tabled_case(table(), table(), exact, back, draw(st.sampled_from([int, Fraction])))


# distances at, under and just over 1e-9 from 0.0, and at half of it, where
# is_isometry's row screen stops
_AT_TOL = (5e-10, 1e-9, 0.0, math.nextafter(1e-9, math.inf), math.nextafter(5e-10, math.inf))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_tabled_cases(), tol=st.sampled_from([0.0, 1e-9, 0.25]),
       mode=st.sampled_from(["eq", "le", "lt"]))
# 66 failing pairs, every d_after 2.0: the cap falls inside the fourth row
@example(case=_tabled_case(_table_of(12, [1.0]), _table_of(12, [2.0]), False,
                           list(range(12))), tol=0.0, mode="eq")
# 66 failing pairs of exact Fractions
@example(case=_tabled_case(_table_of(12, [Fraction(1)]), _table_of(12, [Fraction(2)]),
                           True, list(range(12))[::-1]), tol=1e-9, mode="le")
# nan, +-inf, ints and Fractions among 66 failing d_after
@example(case=_tabled_case(_table_of(12, [0.25]), _table_of(12, _FLOAT_DISTANCES), False,
                           list(range(12))), tol=1e-9, mode="eq")
# rows at the tolerance, with some points moved, at tol 1e-9 and 0
@example(case=_tabled_case(_table_of(12, [0.0]), _table_of(12, _AT_TOL), False,
                           [0, 2, 1] + list(range(3, 11)) + [11]), tol=1e-9, mode="eq")
@example(case=_tabled_case(_table_of(12, [0.0]), _table_of(12, _AT_TOL), False,
                           list(range(10)) + [11, 10]), tol=0.0, mode="le")
@example(case=_tabled_case(_table_of(12, [1.0, 2.0]), _table_of(12, [1.0, 2.0]), False,
                           [5] + list(range(1, 5)) + [0] + list(range(6, 12))), tol=0.0,
         mode="eq")
def test_bijection_checks_match_the_per_pair_loops(case, tol, mode):
    spaces, spec, sample = case
    got = is_isometry(spaces, spec, sample, tol=tol).to_json()
    assert json.dumps(got) == json.dumps(_is_isometry_pairwise(spaces, spec, sample, tol=tol)
                                         .to_json())
    got = preserves_unit_distance(spaces, spec, sample, mode=mode, tol=tol).to_json()
    want = _preserves_unit_distance_pairwise(spaces, spec, sample, mode=mode, tol=tol)
    assert json.dumps(got) == json.dumps(want.to_json())


def _tree_swap_sample():
    tree = swap_tree()
    tps = gh.TreePointSet(tree, Fraction(1, 10), Fraction(1, 5))
    nodes = gh.tree_offset_class_nodes(tree, tps.a_alpha[0], tps.a_beta[0])
    sample = SampleSet(tree, tuple(nodes) + tuple(tree_vertex(tree, v)
                                                  for v in tree.desc.vertices))
    return (tree, tree), gh.tree_swap_bijection(tps), sample


def _tree_line_sine_sample():
    """The line-sine map on the line factor of MaxProduct(tree, R), on tree
    vertices (coordinates marshal takes) and edge points (whose Fraction
    offsets it refuses) beside values of which some round-trip exactly."""
    tree = swap_tree()
    spec = gh.max_product_lift(line_counterexample(), tree)
    mp = spec.domain
    rng = random.Random(8)
    left = [tree_vertex(tree, v).coords for v in tree.desc.vertices]
    left += [tree.random_point(rng, 4.0).coords for _ in range(8)]
    values = [0.0, 0.25, 0.5, 1.0] + [rng.uniform(-3, 3) for _ in range(8)]
    pts = [Point(mp, (c, v)) for c, v in itertools.product(left, values)][::3]
    return (mp, mp), spec, SampleSet(mp, tuple(pts))


@pytest.mark.parametrize("case", ["line-sine", "line-double", "tree-swap", "e2-identity",
                                  "tree-line-sine"])
def test_bijection_checks_on_models_match_the_per_pair_loops(case):
    # a float space and an exact one, failing and passing
    rl, e2 = RealLine(), Euclidean(2)
    spaces, spec, sample = {
        "line-sine": lambda: ((rl, rl), line_counterexample(), _line_sine_sample_104()),
        "line-double": lambda: ((rl, rl), _doubling(rl), random_sample(rl, 40, seed=3)),
        "tree-swap": _tree_swap_sample,
        "e2-identity": lambda: ((e2, e2), _identity(e2), random_sample(e2, 40, seed=4)),
        "tree-line-sine": _tree_line_sine_sample,
    }[case]()
    for tol in (0.0, 1e-9):
        assert (is_isometry(spaces, spec, sample, tol=tol).to_json()
                == _is_isometry_pairwise(spaces, spec, sample, tol=tol).to_json())
        for mode in ("eq", "le", "lt"):
            assert (preserves_unit_distance(spaces, spec, sample, mode=mode, tol=tol).to_json()
                    == _preserves_unit_distance_pairwise(spaces, spec, sample, mode=mode,
                                                         tol=tol).to_json())


def _outcome(check, *args, **kw):
    """check's report as JSON, or the type and message of what it raised."""
    try:
        return check(*args, **kw).to_json()
    except OverflowError as e:
        return type(e), str(e)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("back", [list(range(8)), [0, 3, 2, 1, 4, 5, 7, 6]],
                         ids=["fixed", "swaps"])
def test_bijection_checks_raise_as_the_per_pair_loops_beyond_double_range(exact, back):
    # an int past double range converts to float nowhere: every check that
    # compares as floats raises the per-pair loop's OverflowError
    big = 10 ** 400
    unit = Fraction(1) if exact else 1.0
    x_table = _table_of(8, [unit, 2 * unit, big])
    y_table = _table_of(8, [unit, big, 2 * unit, unit])
    spaces, spec, sample = _tabled_case(x_table, y_table, exact, back)
    raised = 0
    for tol in (0.0, 1e-9):
        got = _outcome(is_isometry, spaces, spec, sample, tol=tol)
        assert got == _outcome(_is_isometry_pairwise, spaces, spec, sample, tol=tol)
        raised += type(got) is tuple
        for mode in ("eq", "le", "lt"):
            got = _outcome(preserves_unit_distance, spaces, spec, sample, mode=mode, tol=tol)
            assert got == _outcome(_preserves_unit_distance_pairwise, spaces, spec, sample,
                                   mode=mode, tol=tol)
            raised += type(got) is tuple
    # an exact check at tol 0 compares integer ratios and never raises
    assert raised == (8 if not exact else 4)


_UNIT_NEAR = (1.0, 1.0 + 1e-10, 1.0 - 1e-8, 0.5, 2.0, math.nan, math.inf, 1, Fraction(1),
              Fraction(1, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(exact=st.booleans(), n=st.integers(1, 16), data=st.data())
def test_unit_jump_graph_matches_the_per_pair_adjacency(exact, n, data):
    values = st.sampled_from(_EXACT_DISTANCES if exact else _UNIT_NEAR)
    table = tuple(tuple(data.draw(st.lists(values, min_size=n - 1 - i, max_size=n - 1 - i)))
                  for i in range(n - 1))
    space = _Tabled(table, exact)
    points = [Point(space, k) for k in range(n)]
    assert gh.UnitJumpGraph.build(space, points).adjacency == _unit_jump_adjacency(space,
                                                                                   points)


def test_unit_jump_graph_on_lattices_matches_the_per_pair_adjacency(star_tree):
    rl = RealLine()
    line = [point(rl, k / 2) for k in range(-12, 13)] + [point(rl, 0.25 + 1e-12)]
    tree = [tree_vertex(star_tree, v) for v in star_tree.desc.vertices]
    tree += [tree_edge_point(star_tree, i, Fraction(k, 8)) for i in range(3) for k in (1, 2, 4)]
    for space, points in ((rl, line), (star_tree, tree)):
        adjacency = gh.UnitJumpGraph.build(space, points).adjacency
        assert adjacency == _unit_jump_adjacency(space, points)
        assert sum(map(len, adjacency.values())) > 0
