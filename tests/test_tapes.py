import dataclasses
import math
from fractions import Fraction

import pytest

from metriclab import numeric, spaces, tapes, verify
from metriclab.spaces import (
    Euclidean,
    GeodesicRef,
    HyperbolicPlane,
    MinkowskiLinf,
    MinkowskiLp,
    PreconditionError,
    SpaceError,
    boundary_ideal,
    direction_ideal,
    distance,
    line_through,
    point,
    tree_end,
)
from metriclab.tapes import (
    PTape,
    build_p_tape,
    check_third_division,
    tape_position,
    validate_p_tape,
    validate_r_sequence,
)


def _base_line(space, theta=0.0):
    v = (math.cos(theta), math.sin(theta))
    xi = direction_ideal(space, v)
    eta = direction_ideal(space, (-v[0], -v[1]))
    return line_through(space, eta, xi, point(space, (0.0, 0.0)))


def test_r_sequence_straight_and_perturbed():
    e2 = Euclidean(2)
    pts = {z: point(e2, (float(z), 0.0)) for z in range(-5, 6)}
    assert validate_r_sequence(e2, pts).passed
    pts = {z: point(e2, (float(z) + (0.1 if z == 3 else 0.0), 0.0))
           for z in range(-5, 6)}
    rep = validate_r_sequence(e2, pts)
    assert not rep.passed
    assert any(w["z1"] == 2 and w["z2"] == 3 for w in rep.witnesses)


def test_r_sequence_fails_a_nan_distance():
    # 2e308 apart at height 1e308, the H^2 row reads inf / inf = nan (see
    # test_hyperbolic_row_at_heights_near_double_range); a nan is no unit step
    h2 = HyperbolicPlane()
    pts = {0: point(h2, (1e308, 1e308)), 1: point(h2, (-1e308, 1e308))}
    rep = validate_r_sequence(h2, pts)
    assert not rep.passed
    assert [(w["z1"], w["z2"]) for w in rep.witnesses] == [(0, 1)]


def _nan_on_equal_points(monkeypatch):
    # the plane's metric, except that d(x, x) reads nan
    monkeypatch.setattr(Euclidean, "row", lambda self, a, bs: [
        math.nan if b == a else math.dist(a, b) for b in bs])


def test_p_tape_fails_nan_distances(monkeypatch):
    e2 = Euclidean(2)
    tape = build_p_tape(e2, _base_line(e2), 3, 0.8)
    monkeypatch.setattr(Euclidean, "row", lambda self, a, bs: [math.nan] * len(bs))
    rep = validate_p_tape(tape)
    assert not rep.passed
    # every row and every step of every quadruple
    assert rep.counts["violations"] == 4 * 3 + 4 * 2 * 3


def test_third_division_fails_nan_distances(monkeypatch):
    e2 = Euclidean(2)
    pts = {(i, j): point(e2, (float(i), 0.0)) for i in range(4) for j in range(1, 4)}
    # row 1's last two points coincide, row 2's all three: their spreads
    # read nan after a finite distance, and nan first
    pts[(1, 2)] = pts[(1, 3)] = point(e2, (1.0, 1e-12))
    _nan_on_equal_points(monkeypatch)
    rep = check_third_division(e2, pts)
    assert rep.data["relations_hold"]
    assert not rep.passed
    assert [w["row"] for w in rep.witnesses] == [1, 2]
    pts[(0, 1)] = pts[(1, 1)]
    rep = check_third_division(e2, pts)
    assert not rep.data["relations_hold"]
    assert any(w["relation"][:2] == [[0, 1], [1, 1]] for w in rep.witnesses)


def test_r_sequence_tree_line_exact(ended_tree):
    line = line_through(ended_tree, tree_end(ended_tree, "e1"),
                        tree_end(ended_tree, "e2"))
    pts = {z: line.point_at(Fraction(z)) for z in range(-5, 6)}
    assert validate_r_sequence(ended_tree, pts).passed


def test_tape_quadruples_match_printed_system():
    from metriclab.tapes import tape_quadruples
    assert tape_quadruples(3) == [
        [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)],
        [(0, 2, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0)],
        [(0, 3, 0), (1, 3, 0), (2, 3, 0), (3, 3, 0)],
        [(0, 2, 0), (1, 1, 0), (2, 3, -5), (3, 2, -5)],
        [(0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 3, -5)],
        [(0, 1, 5), (1, 3, 0), (2, 2, 0), (3, 1, 0)],
    ]
    # the wrapped index always names the same geometric point under the
    # position law: j -> j -+ p with z +- (2p - 1) shifts both by (2p-1)
    q4 = tape_quadruples(4)
    assert [(0, 4, 0), (1, 3, 0), (2, 2, 0), (3, 1, 0)] in q4
    assert q4[4] == [(0, 2, 0), (1, 1, 0), (2, 4, -7), (3, 3, -7)]


def test_build_small_p_tapes():
    e2 = Euclidean(2)
    a = _base_line(e2)
    for p, drift in ((3, 0.8), (4, 0.75)):
        tape = build_p_tape(e2, a, p, drift)
        assert validate_p_tape(tape).passed


def test_tape_position_values():
    assert tape_position(3, 1, 0) == 0
    assert tape_position(3, 2, 0) == Fraction(5, 3)
    assert tape_position(3, 3, -2) == Fraction(4, 3)
    with pytest.raises(SpaceError):
        tape_position(3, 4, 0)


def test_build_p_tape_euclid():
    e2 = Euclidean(2)
    a = _base_line(e2)
    tape = build_p_tape(e2, a, 6, 0.6)
    rep = validate_p_tape(tape)
    assert rep.passed, rep.witnesses
    for j in range(1, 7):
        for z in range(-12, 13):
            want = a.point_at(float(tape_position(6, j, z)))
            assert float(distance(e2, tape.points[(1, j, z)], want)) <= 1e-9


def test_build_p_tape_minkowski_l3():
    l3 = MinkowskiLp(3.0)
    a = _base_line(l3)
    tape = build_p_tape(l3, a, 6, 0.8)
    assert validate_p_tape(tape).passed
    for j in range(1, 7):
        want = a.point_at(float(tape_position(6, j, 0)))
        assert float(distance(l3, tape.points[(1, j, 0)], want)) <= 1e-9


def test_build_p_tape_minkowski_l15():
    # the l_1.5 ball has shorter chords, so the same drift passes the gate
    l15 = MinkowskiLp(1.5)
    tape = build_p_tape(l15, _base_line(l15), 6, 0.6)
    assert validate_p_tape(tape).passed


def test_build_p_tape_gate_rejections():
    e2 = Euclidean(2)
    a = _base_line(e2)
    # h = 0.2 gives t ~ 1.9596, so p must exceed 49
    with pytest.raises(PreconditionError):
        build_p_tape(e2, a, 6, 0.2)
    build_p_tape(e2, a, 50, 0.2, window=(-2, 2))  # accepted above the gate
    l3 = MinkowskiLp(3.0)
    with pytest.raises(PreconditionError):
        build_p_tape(l3, _base_line(l3), 6, 0.6)
    with pytest.raises(PreconditionError):
        build_p_tape(e2, a, 6, 1.5)


def test_validate_p_tape_perturbation_fails():
    e2 = Euclidean(2)
    tape = build_p_tape(e2, _base_line(e2), 6, 0.6)
    bad = PTape(e2, tape.p, dict(tape.points))
    c = bad.points[(2, 4, 0)].coords
    bad.points[(2, 4, 0)] = point(e2, (c[0] + 0.05, c[1]))
    rep = validate_p_tape(bad)
    assert not rep.passed
    assert rep.witnesses


def test_validate_p_tape_coincident_rows_fail():
    # degenerate p = 2 input with all rows equal violates the quadruples
    e2 = Euclidean(2)
    pts = {}
    for i in range(4):
        for j in (1, 2):
            for z in range(-4, 5):
                pts[(i, j, z)] = point(e2, (float(z), 0.0))
    rep = validate_p_tape(PTape(e2, 2, pts))
    assert not rep.passed


def test_window_shift_invariance():
    e2 = Euclidean(2)
    tape = build_p_tape(e2, _base_line(e2), 6, 0.6, window=(-15, 15))
    for s in (-3, 1, 3):
        moved = {(i, j, z + s): pt for (i, j, z), pt in tape.points.items()}
        assert validate_p_tape(PTape(e2, tape.p, moved)).passed


@pytest.mark.parametrize("space", [MinkowskiLinf(), Euclidean(3), HyperbolicPlane()],
                         ids=["linf", "euclidean-3", "hyperbolic"])
def test_build_p_tape_needs_strictly_convex_plane(space):
    with pytest.raises(SpaceError, match="strictly convex planes only"):
        build_p_tape(space, None, 6, 0.6)


def test_build_p_tape_refuses_a_line_of_another_space_or_without_ends():
    # an H^2 line once gave 600 E^2 points built from H^2 coordinates; the
    # base direction is the line's ideal end, so a line needs one
    e2, h = Euclidean(2), HyperbolicPlane()
    h2_line = line_through(h, boundary_ideal(h, -1.0), boundary_ideal(h, 1.0))
    endless = GeodesicRef(e2, "line", _base_line(e2).at)
    for space, a, message in ((e2, h2_line, "different space"),
                              (MinkowskiLp(3.0), _base_line(e2), "different space"),
                              (e2, endless, "with ideal ends")):
        with pytest.raises(SpaceError, match=message) as err:
            build_p_tape(space, a, 6, 0.6)
        assert "\n" not in str(err.value)


def test_build_p_tape_on_rotated_euclidean_line():
    e2 = Euclidean(2)
    a = _base_line(e2, 0.3)
    tape = build_p_tape(e2, a, 6, 0.6)
    assert validate_p_tape(tape).passed
    for j in range(1, 7):
        want = a.point_at(float(tape_position(6, j, 0)))
        assert float(distance(e2, tape.points[(1, j, 0)], want)) <= 1e-9


@pytest.mark.parametrize("q", [3.0, 1.5])
def test_build_p_tape_rotated_lq_line_has_no_closed_chord(q):
    space = MinkowskiLp(q)
    with pytest.raises(SpaceError, match="no closed unit chord"):
        build_p_tape(space, _base_line(space, 0.3), 6, 0.6)


def test_build_p_tape_runs_no_search(monkeypatch):
    # the chords are closed forms: with every bisection replaced by a stub
    # that raises, the tapes still build
    def stub(*args, **kwargs):
        raise AssertionError("build_p_tape ran a numerical search")
    search = numeric.bisect_root
    for mod in (numeric, spaces, tapes):
        for name, obj in list(vars(mod).items()):
            if obj is search:
                monkeypatch.setattr(mod, name, stub)
    for space, drift in ((Euclidean(2), 0.6), (MinkowskiLp(3.0), 0.8), (MinkowskiLp(1.5), 0.6)):
        assert validate_p_tape(build_p_tape(space, _base_line(space), 6, drift)).passed


def test_build_p_tape_evaluates_the_base_line_once_per_anchor():
    # the four rows share their anchors: 6 j x 25 z evaluations, not 600
    e2 = Euclidean(2)
    a = _base_line(e2)
    calls = []

    def at(t):
        calls.append(t)
        return a.at(t)
    tape = build_p_tape(e2, dataclasses.replace(a, at=at), 6, 0.6)
    assert len(calls) == len(set(calls)) == 150
    assert tape.points == build_p_tape(e2, a, 6, 0.6).points
    for (i, j, z), pt in tape.points.items():
        if i == 1:      # row 1 sits on the base line itself
            assert pt.coords == a.at(float(tape_position(6, j, 0)) + z)


def _off_pairs(monkeypatch, offsets):
    """The plane's metric, except that d(x, y) for a pair of x-coordinates
    (x[0], y[0]) in ``offsets`` reads that much longer."""
    monkeypatch.setattr(Euclidean, "row", lambda self, a, bs: [
        math.dist(a, b) + offsets.get((a[0], b[0]), 0.0) for b in bs])


def _per_pair_witnesses(space, pts, tol):
    """validate_r_sequence's witnesses, the float pairs tested one by one."""
    zs = sorted(pts)
    return [{"z1": z1, "z2": z2, "d": d, "expected": z2 - z1}
            for a, z1 in enumerate(zs) for z2 in zs[a + 1:]
            for d in [float(distance(space, pts[z1], pts[z2]))]
            if not abs(d - (z2 - z1)) <= tol]


def test_r_sequence_passes_a_row_off_by_less_than_tol(monkeypatch):
    # one pair 0.75 tol long fails the row screen (tol / 2) and then
    # passes pair by pair
    e2, tol = Euclidean(2), 1e-9
    pts = {z: point(e2, (float(z), 0.0)) for z in range(-5, 6)}
    _off_pairs(monkeypatch, {(-5.0, 5.0): 0.75 * tol})
    assert not verify._screened([10.0 + 0.75 * tol], [10], tol)
    rep = validate_r_sequence(e2, pts, tol=tol)
    assert rep.passed and rep.counts == {"pairs": 55, "violations": 0}


def test_r_sequence_off_by_more_than_tol_fails_as_the_per_pair_test(monkeypatch):
    # z = 0 moved 1.5 tol and z = 2 moved 0.75 tol: every pair through z = 0
    # but (0, 2) fails, rows through z = 2 fail the screen but hold passing
    # pairs, and the rows after z = 2 pass it
    e2, tol = Euclidean(2), 1e-9
    pts = {z: point(e2, (float(z), 0.0)) for z in range(-5, 6)}
    pts[0] = point(e2, (1.5 * tol, 0.0))
    pts[2] = point(e2, (2.0 + 0.75 * tol, 0.0))
    want = _per_pair_witnesses(e2, pts, tol)
    rep = validate_r_sequence(e2, pts, tol=tol)
    assert len(want) == 9 and rep.witnesses == want
    assert rep.counts["violations"] == len(want)
    # one pair off in an otherwise exact row
    _off_pairs(monkeypatch, {(-5.0, 5.0): 1.5 * tol})
    pts = {z: point(e2, (float(z), 0.0)) for z in range(-5, 6)}
    rep = validate_r_sequence(e2, pts, tol=tol)
    assert rep.witnesses == [{"z1": -5, "z2": 5, "d": 10.0 + 1.5 * tol, "expected": 10}]


def test_r_sequence_fails_an_infinite_distance():
    # 2e308 apart, the plane's distance reads inf
    e2 = Euclidean(2)
    pts = {0: point(e2, (-1e308, 0.0)), 1: point(e2, (1e308, 0.0)), 2: point(e2, (1e308, 1.0))}
    rep = validate_r_sequence(e2, pts)
    assert [(w["z1"], w["z2"], w["d"]) for w in rep.witnesses] == [(0, 1, "inf"), (0, 2, "inf")]


def test_validate_p_tape_does_not_depend_on_what_ran_before():
    e2 = Euclidean(2)
    tape = build_p_tape(e2, _base_line(e2), 6, 0.6)
    bad = PTape(e2, tape.p, dict(tape.points))
    c = bad.points[(1, 3, 0)].coords
    bad.points[(1, 3, 0)] = point(e2, (c[0] + 0.05, c[1]))
    alone = validate_p_tape(bad).to_json()
    assert validate_p_tape(tape).passed
    after = validate_p_tape(bad).to_json()
    assert after == alone
    # the changed row fails, beside the quadruples through (1, 3, 0)
    assert [w["row"] for w in after["witnesses"] if "row" in w] == [[1, 3]]


def test_tape_missing_point_is_domain_error():
    e2 = Euclidean(2)
    tape = build_p_tape(e2, _base_line(e2), 6, 0.6)
    broken = PTape(e2, tape.p, {k: v for k, v in tape.points.items()
                                if k != (0, 1, 11)})
    with pytest.raises(SpaceError):
        validate_p_tape(broken)


def test_third_division_forced_configuration():
    e2 = Euclidean(2)
    pts = {}
    for j in range(1, 4):
        pts[(0, j)] = point(e2, (0.0, 0.0))
        pts[(1, j)] = point(e2, (1.0, 0.0))
        pts[(2, j)] = point(e2, (2.0, 0.0))
        pts[(3, j)] = point(e2, (3.0, 0.0))
    rep = check_third_division(e2, pts)
    assert rep.passed
    assert rep.data["relations_hold"]
    assert rep.data["row1_spread"] <= 1e-9
    assert rep.data["row2_spread"] <= 1e-9


@pytest.mark.parametrize("p", [2, 3])
def test_third_division_perturbed_rejected(p):
    e2 = Euclidean(2)
    pts = {}
    for j in range(1, p + 1):
        for i in range(4):
            pts[(i, j)] = point(e2, (float(i), 0.0))
    pts[(1, 1)] = point(e2, (1.02, 0.0))
    rep = check_third_division(e2, pts)
    assert not rep.passed
    assert rep.witnesses


def test_third_division_cardinality_check():
    e2 = Euclidean(2)
    with pytest.raises(SpaceError):
        check_third_division(e2, {(0, 1): point(e2, (0.0, 0.0))})
