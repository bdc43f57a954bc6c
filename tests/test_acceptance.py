"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

from metriclab.grasshopper import (
    TreePointSet,
    UnitJumpGraph,
    euclid_jump_chain,
    graph_bfs_distance,
    grasshopper_distance,
    tree_offset_class_nodes,
    tree_swap_bijection,
)
from metriclab.horofn import (
    busemann_value,
    check_busemann_sum_bound,
    spherical_shadow_sample,
    tits_delta,
)
from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    MinkowskiLinf,
    MinkowskiLp,
    RealLine,
    boundary_ideal,
    direction_ideal,
    distance,
    line_through,
    point,
    ray_from,
    tree_edge_point,
    tree_end,
    tree_vertex,
)
from metriclab.suites import (
    busemann_catalog,
    catalog,
    ended_tree,
    suite_counterexamples,
    swap_tree,
)
from metriclab.tapes import (
    build_p_tape,
    check_third_division,
    tape_position,
    validate_p_tape,
)
from metriclab.transfers import (
    degenerate_flat_scissors,
    double_transfer,
    hyperbolic_scissors,
    scissors_shift,
    scissors_shift_formula,
    tree_scissors,
)
from metriclab.verify import (
    SampleSet,
    check_busemann_midpoints,
    check_metric_axioms,
    is_isometry,
    preserves_unit_distance,
    random_sample,
)

INF = math.inf
SEED = 7


def _ok(n, label):
    print(f"ACCEPTANCE {n:2d} [{label}]: PASS")


def test_criterion_01_metric_axioms():
    for k, space in enumerate(catalog()):
        sample = random_sample(space, 40, SEED + k)
        rep = check_metric_axioms(space, sample, triples=200, seed=SEED + 100 + k,
                                  tol=1e-9)
        assert rep.passed, (rep.check, rep.witnesses)
    _ok(1, "metric axioms, 200 triples per space, slack 1e-9, trees exact")


def test_criterion_02_busemann_inequality():
    rng = random.Random(SEED)
    for space in busemann_catalog():
        sample = random_sample(space, 40, SEED)
        pts = sample.points
        done = 0
        while done < 50:
            x, y, z = (pts[rng.randrange(len(pts))] for _ in range(3))
            if len({x.coords, y.coords, z.coords}) < 3:
                continue
            rep = check_busemann_midpoints(space, x, y, z, tol=1e-9)
            assert rep.passed, (space, rep.witnesses)
            done += 1
    linf = MinkowskiLinf()
    rep = check_busemann_midpoints(
        linf, point(linf, (0.0, 0.0)), point(linf, (2.0, 0.0)), point(linf, (2.0, 2.0)),
        selector_xy="lower extreme", selector_xz="upper extreme", tol=1e-9)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["d_mn"] == 2.0 and w["half_d_yz"] == 1.0
    assert w["m"] == [1.0, -1.0] and w["n"] == [1.0, 1.0]
    _ok(2, "midpoint inequality on Busemann catalog; sup-norm witness 2 > 1")


def test_criterion_03_busemann_oracle_agreement():
    rng = random.Random(SEED)
    e2 = Euclidean(2)
    for _ in range(50):
        base = point(e2, (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        ang = rng.uniform(0, 2 * math.pi)
        r = ray_from(e2, base, direction_ideal(e2, (math.cos(ang), math.sin(ang))))
        y = point(e2, (rng.uniform(-5, 5), rng.uniform(-5, 5)))
        assert abs(busemann_value(e2, r, y, method="closed")
                   - busemann_value(e2, r, y, method="limit")) <= 1e-6
    h2 = HyperbolicPlane()
    for _ in range(50):
        base = point(h2, (rng.uniform(-3, 3), math.exp(rng.uniform(-1, 1))))
        r = ray_from(h2, base, boundary_ideal(h2, INF))
        y = point(h2, (rng.uniform(-3, 3), math.exp(rng.uniform(-1, 1))))
        closed = busemann_value(h2, r, y, method="closed")
        assert abs(closed - (math.log(base.coords[1]) - math.log(y.coords[1]))) < 1e-12
        assert abs(closed - busemann_value(h2, r, y, method="limit")) <= 1e-6
    tree = ended_tree()
    pts = random_sample(tree, 16, SEED).points
    for p in pts[:4]:
        r = ray_from(tree, p, tree_end(tree, "e1"))
        for y in pts[4:10]:
            assert busemann_value(tree, r, y, method="closed") == \
                busemann_value(tree, r, y, method="limit")
    _ok(3, "truncated limit vs closed form, 50+ pairs each, 1e-6; trees exact")


def test_criterion_04_sum_bound():
    rng = random.Random(SEED)
    e2, h2, tree = Euclidean(2), HyperbolicPlane(), ended_tree()
    tree_pts = random_sample(tree, 20, SEED).points
    checked = 0
    for _ in range(34):
        ang = rng.uniform(0, 2 * math.pi)
        xi = direction_ideal(e2, (math.cos(ang), math.sin(ang)))
        c = ray_from(e2, point(e2, (rng.uniform(-3, 3), rng.uniform(-3, 3))), xi)
        d = ray_from(e2, point(e2, (rng.uniform(-3, 3), rng.uniform(-3, 3))), xi)
        assert check_busemann_sum_bound(e2, c, d, tol=1e-6).passed
        checked += 1
    for _ in range(34):
        c = ray_from(h2, point(h2, (rng.uniform(-3, 3), math.exp(rng.uniform(-1, 1)))),
                     boundary_ideal(h2, INF))
        d = ray_from(h2, point(h2, (rng.uniform(-3, 3), math.exp(rng.uniform(-1, 1)))),
                     boundary_ideal(h2, INF))
        assert check_busemann_sum_bound(h2, c, d, tol=1e-6).passed
        checked += 1
    for _ in range(34):
        endname = ("e1", "e2", "e3", "e4")[rng.randrange(4)]
        c = ray_from(tree, tree_pts[rng.randrange(len(tree_pts))],
                     tree_end(tree, endname))
        d = ray_from(tree, tree_pts[rng.randrange(len(tree_pts))],
                     tree_end(tree, endname))
        assert check_busemann_sum_bound(tree, c, d, tol=1e-6).passed
        checked += 1
    assert checked >= 100
    _ok(4, f"0 <= sum <= 2 rho on {checked} asymptotic ray pairs")


def test_criterion_05_scissors_shift():
    e2 = Euclidean(2)
    comp, form = scissors_shift(e2, degenerate_flat_scissors(e2))
    assert abs(comp) <= 1e-6 and abs(form) <= 1e-6

    tree = ended_tree()
    comp_t, form_t = scissors_shift(tree, tree_scissors(tree, ("e1", "e2", "e3", "e4")))
    assert comp_t == 0 and form_t == 0

    h2 = HyperbolicPlane()
    cfg = hyperbolic_scissors(a_ends=(-1.0, 1.0), d_ends=(-2.0, 2.0))
    comp_h, form_h = scissors_shift(h2, cfg)
    assert abs(comp_h - form_h) <= 1e-6
    assert comp_h > 0.01 and form_h > 0.01

    f0 = scissors_shift_formula(h2, cfg)
    f1 = scissors_shift_formula(h2, cfg, p_param=1.3, q_param=-0.7)
    assert abs(f0 - f1) <= 1e-8
    _ok(5, "scissors shift: composition = formula; degenerate 0, tree exact 0, "
           f"H2 delta = {form_h:.6f} > 0.01; normalization invariant")


def test_criterion_06_double_transfer():
    rng = random.Random(SEED)
    e2, h2, tree = Euclidean(2), HyperbolicPlane(), ended_tree()
    xi = direction_ideal(e2, (1, 0))
    eta = direction_ideal(e2, (-1, 0))
    for _ in range(10):
        a = line_through(e2, eta, xi, point(e2, (0.0, rng.uniform(-2, 2))))
        b = line_through(e2, eta, xi, point(e2, (rng.uniform(-2, 2), rng.uniform(-2, 2))))
        res = double_transfer(e2, a, b, a.point_at(rng.uniform(-2, 2)))
        assert res.shift >= -1e-8 and abs(res.shift) <= 1e-8
    for _ in range(10):
        a = line_through(h2, boundary_ideal(h2, rng.uniform(-3, 3)),
                         boundary_ideal(h2, INF))
        b = line_through(h2, boundary_ideal(h2, rng.uniform(-3, 3)),
                         boundary_ideal(h2, INF))
        res = double_transfer(h2, a, b, a.point_at(rng.uniform(-1, 1)))
        assert res.shift >= -1e-8 and abs(res.shift) <= 1e-8
    ends = ("e1", "e2", "e3", "e4")
    for _ in range(8):
        pick = rng.sample(ends, 3)
        a = line_through(tree, tree_end(tree, pick[0]), tree_end(tree, pick[2]))
        b = line_through(tree, tree_end(tree, pick[1]), tree_end(tree, pick[2]))
        res = double_transfer(tree, a, b, a.point_at(Fraction(1, 4)))
        assert res.shift == 0
    _ok(6, "double-transfer shift nonnegative; identity on regular endpoints")


def test_criterion_07_p_tape():
    for space, drift in ((Euclidean(2), 0.6), (MinkowskiLp(3.0), 0.8)):
        xi = direction_ideal(space, (1, 0))
        eta = direction_ideal(space, (-1, 0))
        a = line_through(space, eta, xi, point(space, (0.0, 0.0)))
        tape = build_p_tape(space, a, 6, drift)
        assert validate_p_tape(tape, tol=1e-9).passed
        for j in range(1, 7):
            for z in range(-12, 13):
                want = a.point_at(float(tape_position(6, j, z)))
                assert float(distance(space, tape.points[(1, j, z)], want)) <= 1e-9
    e2 = Euclidean(2)
    pts = {}
    for j in range(1, 4):
        for i in range(4):
            pts[(i, j)] = point(e2, (float(i), 0.0))
    rep = check_third_division(e2, pts)
    assert rep.passed and rep.data["row1_spread"] <= 1e-9
    bad = dict(pts)
    bad[(1, 2)] = point(e2, (1.05, 0.0))
    assert not check_third_division(e2, bad).passed
    _ok(7, "p=6 tapes built and validated; row-1 law 1e-9; third-division "
           "collapse confirmed / perturbation rejected")


def test_criterion_08_grasshopper():
    rl = RealLine()
    assert grasshopper_distance(rl, point(rl, 0.0), point(rl, 3.0)) == 3
    assert grasshopper_distance(rl, point(rl, 0.0), point(rl, 2.5)) == INF
    reachable = {0.0}
    for _ in range(5):
        reachable |= {v + 1.0 for v in reachable} | {v - 1.0 for v in reachable}
    assert 2.5 not in reachable

    e2 = Euclidean(2)
    rng = random.Random(SEED)
    for _ in range(50):
        x = point(e2, (rng.uniform(-4, 4), rng.uniform(-4, 4)))
        y = point(e2, (rng.uniform(-4, 4), rng.uniform(-4, 4)))
        analytic = grasshopper_distance(e2, x, y)
        graph = UnitJumpGraph.build(e2, euclid_jump_chain(e2, x, y))
        assert graph_bfs_distance(graph, x, y) == analytic

    tree = swap_tree()
    tps = TreePointSet(tree, Fraction(1, 10), Fraction(1, 5))
    phi = tree_swap_bijection(tps)
    A = tps.union_sample().points
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            assert grasshopper_distance(tree, A[i], A[j]) == \
                grasshopper_distance(tree, phi.forward(A[i]), phi.forward(A[j]))
    nodes = tree_offset_class_nodes(tree, tps.a_alpha[0], tps.a_beta[0])
    vertices = tuple(tree_vertex(tree, v) for v in tree.desc.vertices)
    sample = SampleSet(tree, tuple(nodes) + vertices)
    assert preserves_unit_distance((tree, tree), phi, sample, mode="eq", tol=0).passed
    iso = is_isometry((tree, tree), phi, sample, tol=0)
    assert not iso.passed and len(iso.witnesses) >= 1
    y0 = tree_vertex(tree, "v0")
    z0 = tree_edge_point(tree, 0, Fraction(1, 10))
    assert distance(tree, y0, z0) != distance(tree, y0, phi.forward(z0))
    _ok(8, "grasshopper: line values, brute-forced infinity, 50-pair Euclid "
           "agreement, exact tree-swap isometry and witnesses")


def test_criterion_09_counterexample_suite():
    reports = suite_counterexamples(SEED, {})
    assert [r.check for r in reports] == [
        "counterexample[line-sine]",
        "counterexample[sphere-flip]",
        "counterexample[tree-swap]",
        "counterexample[tree-smooth]",
        "counterexample[max-lift]",
    ]
    for rep in reports:
        assert rep.passed, (rep.check, rep.witnesses)
        assert rep.counts["unit_status"] == "pass"
        assert rep.counts["isometry_status"] == "fail"
        assert rep.counts["isometry_witnesses"] >= 1
    _ok(9, "five counterexamples preserve unit distance and break isometry")


def test_criterion_10_tits_delta():
    e2 = Euclidean(2)
    o = point(e2, (0.0, 0.0))
    for theta in (0.01, math.pi / 2, math.pi):
        xi = direction_ideal(e2, (1.0, 0.0))
        eta = direction_ideal(e2, (math.cos(theta), math.sin(theta)))
        assert abs(tits_delta(e2, o, xi, eta) - math.sin(theta / 2)) <= 1e-4
    tree = ended_tree()
    assert tits_delta(tree, tree_vertex(tree, "x0"),
                      tree_end(tree, "e1"), tree_end(tree, "e3")) == 1.0
    _ok(10, "Tits delta matches sin(theta/2) to 1e-4; tree opposite ends give 1")


def test_criterion_11_shadow_semicontinuity():
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
        for z in spherical_shadow_sample(e2, y, x1, rho, resolution=720,
                                         tol=1e-4).points:
            if checked >= 100:
                break
            checked += 1
            assert min(float(distance(e2, z, w)) for w in base.points) <= eps
    _ok(11, "shadow semicontinuity: 100 sampled points stay within eps = 0.1")


def test_criterion_12_cli_contract(tmp_path):
    def run(args):
        return subprocess.run([sys.executable, "-m", "metriclab.cli"] + args,
                              capture_output=True, text=True)
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["--suite", "counterexamples", "--seed", "7", "--out", str(o1)]).returncode == 0
    assert run(["--suite", "counterexamples", "--seed", "7", "--out", str(o2)]).returncode == 0
    assert o1.read_bytes() == o2.read_bytes()
    payload = json.loads(o1.read_text())
    assert payload["summary"] == {"total": 5, "failed": 0}
    assert run(["--suite", "no-such-suite"]).returncode == 2
    assert run(["--suite", "axioms"]).returncode == 2
    _ok(12, "CLI determinism byte-identical; exit codes 0/1/2 honored")
