"""Named check suites over the model-space catalog.

Every suite is a pure function (seed, parameters) -> list of reports, with
all randomness drawn from the seed, so identical configurations reproduce
byte-identical output.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from . import grasshopper as gh
from . import tapes as tp
from . import transfers as tr
from .horofn import (
    busemann_value,
    check_busemann_sum_bound,
    ray_pseudodistance,
    spherical_shadow_sample,
    tits_delta,
)
from .spaces import (
    ConvergenceError,
    Euclidean,
    GeodesicRef,
    HyperbolicPlane,
    MaxProduct,
    MetricTree,
    MinkowskiLinf,
    MinkowskiLp,
    Point,
    RealLine,
    SpaceError,
    SphereIntrinsic,
    TreeDesc,
    _shown,
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
    tree_vertex,
)
from .verify import (
    SampleSet,
    VerificationReport,
    check_busemann_midpoints,
    check_distance_convexity,
    check_metric_axioms,
    is_isometry,
    preserves_unit_distance,
    random_sample,
)


# ---------------------------------------------------------------------------
# standard spaces

def swap_tree() -> MetricTree:
    """Path of three edges of length 1/2 (n = 2); the grasshopper tree."""
    return MetricTree(TreeDesc(
        vertices=("v0", "v1", "v2", "v3"),
        edges=(("v0", "v1", Fraction(1, 2)), ("v1", "v2", Fraction(1, 2)),
               ("v2", "v3", Fraction(1, 2))),
        denominator_bound=2))


def ended_tree() -> MetricTree:
    """Star with four infinite ends and one finite spur; n = 2."""
    return MetricTree(TreeDesc(
        vertices=("x0", "e1", "e2", "e3", "e4", "spur"),
        edges=(("x0", "e1", Fraction(1, 2)), ("x0", "e2", Fraction(1, 2)),
               ("x0", "e3", Fraction(1, 2)), ("x0", "e4", Fraction(1, 2)),
               ("x0", "spur", Fraction(1, 2))),
        denominator_bound=2,
        ends=("e1", "e2", "e3", "e4")))


_ENDED_TREE = ended_tree()

# the model catalog: (model, busemann) rows in the axioms suite's report
# order; busemann marks the models the busemann suite checks
CATALOG = (
    (Euclidean(2), True),
    (Euclidean(3), False),
    (MinkowskiLp(1.5), True),
    (MinkowskiLp(2.0), True),
    (MinkowskiLp(3.0), True),
    (MinkowskiLinf(), False),
    (HyperbolicPlane(), True),
    (_ENDED_TREE, True),
    (swap_tree(), False),
    (SphereIntrinsic(1.0 / math.pi, 3), False),
    (RealLine(), True),
    (MaxProduct(Euclidean(2), RealLine()), False),
)


def catalog(tree: MetricTree = None):
    """``CATALOG``'s models in row order; a given ``tree`` takes the ended
    tree's row (``swap_tree`` keeps its own)."""
    return [tree if tree is not None and model is _ENDED_TREE else model
            for model, _ in CATALOG]


def busemann_catalog():
    """``catalog()``'s instances that ``CATALOG`` flags busemann, in row
    order. E^3 and ``swap_tree`` are Busemann too, but the suite skips them."""
    return [model for model, busemann in CATALOG if busemann]


class _Reports(list):
    """A suite's reports in order. A check opened with ``check`` is
    finalized with its counts and appended when its block exits; a report
    a check function returns whole is appended as it is."""

    @contextmanager
    def check(self, name: str, tolerance: float):
        rep = VerificationReport(name, tolerance=tolerance)
        yield rep
        self.append(rep.finalize(**rep.counts))


def _expect_failure(inner: VerificationReport, label: str) -> VerificationReport:
    """Wrap a check whose FAILURE is the desired outcome."""
    rep = VerificationReport(label, tolerance=inner.tolerance)
    rep.counts = {"inner_status": inner.status,
                  "inner_witnesses": len(inner.witnesses)}
    if inner.passed:
        rep.fail({"reason": "expected a violation but the inner check passed"})
    return rep.finalize()


def _distinct_triple(rng, pts):
    for _ in range(64):
        x, y, z = (pts[rng.randrange(len(pts))] for _ in range(3))
        if x.coords != y.coords and x.coords != z.coords and y.coords != z.coords:
            return x, y, z
    raise SpaceError("sample too degenerate for distinct triples")


# ---------------------------------------------------------------------------
# suite: axioms

def suite_axioms(seed: int, params: dict) -> list:
    triples = params.get("triples", 200)
    tol = float(params.get("tol", 1e-9))
    tree = params.get("tree")
    out = _Reports()
    for k, space in enumerate(catalog(tree)):
        sample = random_sample(space, 40, seed + k)
        out.append(check_metric_axioms(space, sample, triples=triples,
                                       seed=seed + 1000 + k, tol=tol))
    return out


# ---------------------------------------------------------------------------
# suite: busemann convexity

def suite_busemann(seed: int, params: dict) -> list:
    triples = params.get("triples", 50)
    tol = float(params.get("tol", 1e-9))
    out = _Reports()
    for k, space in enumerate(busemann_catalog()):
        rng = random.Random(seed + k)
        sample = random_sample(space, 40, seed + 500 + k)
        with out.check(f"busemann-inequality[{space.tag()}]", tol) as rep:
            for _ in range(triples):
                x, y, z = _distinct_triple(rng, sample.points)
                sub = check_busemann_midpoints(space, x, y, z, tol=tol)
                if not sub.passed:
                    rep.fail({"x": x, "y": y, "z": z})
            rep.counts = {"triples": triples}

    # the constructed sup-norm witness must violate the inequality
    linf = MinkowskiLinf()
    inner = check_busemann_midpoints(
        linf, point(linf, (0.0, 0.0)), point(linf, (2.0, 0.0)), point(linf, (2.0, 2.0)),
        selector_xy="lower extreme", selector_xz="upper extreme", tol=tol)
    out.append(_expect_failure(inner, f"busemann-violation[{linf.tag()}]"))

    # distance convexity grids
    e2 = Euclidean(2)
    g1 = geodesic_between(e2, point(e2, (0.0, 0.0)), point(e2, (4.0, 1.0)))
    g2 = geodesic_between(e2, point(e2, (0.0, 2.0)), point(e2, (3.0, 5.0)))
    out.append(check_distance_convexity(e2, g1, g2))
    h2 = HyperbolicPlane()
    gh1 = geodesic_between(h2, point(h2, (-2.0, 1.0)), point(h2, (-1.0, 3.0)))
    gh2 = geodesic_between(h2, point(h2, (1.0, 0.5)), point(h2, (2.0, 2.0)))
    out.append(check_distance_convexity(h2, gh1, gh2))
    # bent sup-norm geodesics through the extreme midpoints violate midpoint
    # convexity of the cross-distance; the check must flag them
    def bent(sign):
        def at(t):
            t = float(t)
            if t <= 1.0:
                return (t, sign * t)
            return (t, sign * (2.0 - t))
        return at
    gl1 = GeodesicRef(linf, "segment", bent(-1.0), length=2.0)
    gl2 = GeodesicRef(linf, "segment", bent(+1.0), length=2.0)
    inner = check_distance_convexity(linf, gl1, gl2)
    out.append(_expect_failure(inner, f"distance-convexity-violation[{linf.tag()}]"))
    return out


# ---------------------------------------------------------------------------
# suite: horofunctions

def suite_horofn(seed: int, params: dict) -> list:
    tol = float(params.get("tol", 1e-6))
    out = _Reports()
    rng = random.Random(seed)
    e2, h2, tree = Euclidean(2), HyperbolicPlane(), ended_tree()

    def e2_xi():
        ang = rng.uniform(0, 2 * math.pi)
        return direction_ideal(e2, (math.cos(ang), math.sin(ang)))

    def h2_point():     # heights exp(uniform(-1, 1)), not random_point's +-1.5
        return point(h2, (rng.uniform(-3, 3), math.exp(rng.uniform(-1, 1))))

    def h2_ray():
        return ray_from(h2, h2_point(), boundary_ideal(h2, math.inf))

    # oracle agreement: closed form against the truncated limit at y, for a
    # ray and a point y drawn left to right; a limit that fails to converge
    # or leaves double range is a witness, not an exception
    pairs = params.get("oracle_pairs", 50)
    for space, case in (
            (e2, lambda: (ray_from(e2, e2.random_point(rng, 3), e2_xi()),
                          e2.random_point(rng, 5))),
            (h2, lambda: (h2_ray(), h2_point()))):
        with out.check(f"busemann-oracle[{space.tag()}]", tol) as rep:
            for _ in range(pairs):
                r, y = case()
                closed = busemann_value(space, r, y, method="closed")
                try:
                    lim = busemann_value(space, r, y, method="limit", tol=tol)
                except (ConvergenceError, SpaceError) as exc:
                    rep.fail({"y": y, "closed": closed, "stage": "limit", "error": str(exc)})
                    continue
                if abs(closed - lim) > tol:
                    rep.fail({"y": y, "closed": closed, "limit": lim})
            rep.counts = {"pairs": pairs}

    tree_pts = random_sample(tree, 20, seed + 7).points
    with out.check("busemann-oracle[tree]", 0.0) as rep:
        count = 0
        for endname in ("e1", "e3"):
            for p in tree_pts[:10]:
                r = ray_from(tree, p, tree_end(tree, endname))
                for y in tree_pts[10:16]:
                    closed = busemann_value(tree, r, y, method="closed")
                    lim = busemann_value(tree, r, y, method="limit")
                    count += 1
                    if closed != lim:
                        rep.fail({"y": y, "closed": closed, "limit": lim})
        rep.counts = {"pairs": count}

    # sum bound over asymptotic ray pairs
    def e2_rays():
        xi = e2_xi()
        return [ray_from(e2, e2.random_point(rng, 3), xi) for _ in range(2)]

    def tree_rays():
        xi = tree_end(tree, ("e1", "e2", "e3", "e4")[rng.randrange(4)])
        return [ray_from(tree, tree_pts[rng.randrange(len(tree_pts))], xi) for _ in range(2)]

    with out.check("sum-bound", tol) as rep:
        n_pairs = params.get("ray_pairs", 40)
        models = (("euclidean-2", e2, e2_rays),
                  ("hyperbolic-plane", h2, lambda: (h2_ray(), h2_ray())),
                  ("tree", tree, tree_rays))
        for label, space, case in models:
            for _ in range(n_pairs):
                sub = check_busemann_sum_bound(space, *case(), tol=tol)
                if not sub.passed:
                    rep.fail({"space": label, "witness": sub.witnesses})
        rep.counts = {"pairs": len(models) * n_pairs}

    # pseudometric axioms of rho_xi on asymptotic triples
    with out.check("rho-pseudometric", tol) as rep:
        xi = direction_ideal(e2, (1.0, 0.0))
        rays = [ray_from(e2, point(e2, (rng.uniform(-2, 2), rng.uniform(-2, 2))), xi)
                for _ in range(5)]
        rho = {}
        for i in range(len(rays)):
            for j in range(len(rays)):
                if i != j:
                    rho[(i, j)] = ray_pseudodistance(e2, rays[i], rays[j])
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                if abs(rho[(i, j)] - rho[(j, i)]) > tol:
                    rep.fail({"axiom": "symmetry", "i": i, "j": j})
                for k in range(len(rays)):
                    if k in (i, j):
                        continue
                    if rho[(i, j)] > rho[(i, k)] + rho[(k, j)] + tol:
                        rep.fail({"axiom": "triangle", "i": i, "j": j, "k": k})
        rep.counts = {"rays": len(rays)}

    # Tits deltas
    with out.check("tits-delta", 1e-4) as rep:
        o = point(e2, (0.0, 0.0))
        for theta in (0.01, math.pi / 2, math.pi):
            xi = direction_ideal(e2, (1.0, 0.0))
            eta = direction_ideal(e2, (math.cos(theta), math.sin(theta)))
            got = tits_delta(e2, o, xi, eta)
            want = math.sin(theta / 2.0)
            if abs(got - want) > 1e-4:
                rep.fail({"theta": theta, "got": got, "want": want})
        got = tits_delta(tree, tree_vertex(tree, "x0"),
                         tree_end(tree, "e1"), tree_end(tree, "e2"))
        if got != 1.0:
            rep.fail({"space": "tree", "got": got, "want": 1.0})
        rep.counts = {"cases": 4}

    # shadows: membership plus the semicontinuity spot check
    with out.check("shadow-semicontinuity", 0.1) as rep:
        y = point(e2, (-2.0, 0.0))
        x0 = point(e2, (0.0, 0.0))
        rho, eps, delta = 1.0, 0.1, 0.01
        base_shadow = spherical_shadow_sample(e2, y, x0, rho, resolution=720, tol=1e-4)
        base_coords = [w.coords for w in base_shadow.points]
        dist_yx0 = float(distance(e2, y, x0))
        n_shadow_pts = params.get("shadow_points", 100)
        checked = 0
        k = 0
        while checked < n_shadow_pts:
            # perturb x0 along the sphere S(y, |y x0|) by at most delta
            phi = (k / max(1, n_shadow_pts - 1) - 0.5) * (delta / dist_yx0)
            k += 1
            x1 = point(e2, (y.coords[0] + dist_yx0 * math.cos(phi),
                            y.coords[1] + dist_yx0 * math.sin(phi)))
            shadow1 = spherical_shadow_sample(e2, y, x1, rho, resolution=720, tol=1e-4)
            for z in shadow1.points:
                if checked >= n_shadow_pts:
                    break
                checked += 1
                nearest = min(e2.row(z.coords, base_coords))
                if nearest > eps:
                    rep.fail({"z": z, "nearest": nearest})
        rep.counts = {"points": checked}
    return out


# ---------------------------------------------------------------------------
# suite: transfers

def suite_transfers(seed: int, params: dict) -> list:
    out = _Reports()
    rng = random.Random(seed)
    e2 = Euclidean(2)
    h2 = HyperbolicPlane()
    tree = ended_tree()

    # each case is two lines a, b and a point of a, drawn in that order
    xi = direction_ideal(e2, (1.0, 0.0))
    eta = direction_ideal(e2, (-1.0, 0.0))

    def e2_case():
        a = line_through(e2, eta, xi, point(e2, (0.0, rng.uniform(-2, 2))))
        b = line_through(e2, eta, xi, e2.random_point(rng, 2))
        return a, b, a.point_at(rng.uniform(-2, 2))

    def h2_case():
        a, b = (line_through(h2, boundary_ideal(h2, rng.uniform(-3, 3)),
                             boundary_ideal(h2, math.inf)) for _ in range(2))
        return a, b, a.point_at(rng.uniform(-1, 1))

    def tree_case():
        pick = [tree_end(tree, e) for e in rng.sample(("e1", "e2", "e3", "e4"), 3)]
        a = line_through(tree, pick[0], pick[2])
        return a, line_through(tree, pick[1], pick[2]), a.point_at(Fraction(1, 4))

    with out.check("double-transfer-identity", 1e-8) as rep:
        models = (("euclidean-2", e2, 10, e2_case), ("hyperbolic-plane", h2, 10, h2_case),
                  ("tree", tree, 8, tree_case))
        for label, space, n, case in models:
            for _ in range(n):
                res = tr.double_transfer(space, *case())
                if abs(res.shift) > (0 if space.exact else 1e-8):
                    rep.fail({"space": label, "shift": res.shift})
        rep.counts = {"cases": sum(n for _, _, n, _ in models)}

    # n-fold synthetic composition lands on a(t + 1)
    with out.check("n-fold-composition", 1e-6) as rep:
        a = line_through(h2, boundary_ideal(h2, 0.0), boundary_ideal(h2, math.inf))
        b = line_through(h2, boundary_ideal(h2, 3.0), boundary_ideal(h2, math.inf))
        for n in (4, 8):
            x = a.point_at(0.0)
            for _ in range(n):
                x = tr.double_transfer(h2, a, b, x, level_shift=1.0 / n).image
            err = float(distance(h2, x, a.point_at(1.0)))
            if err > 1e-6:
                rep.fail({"n": n, "err": err})
        rep.counts = {"cases": 2}
    return out


# ---------------------------------------------------------------------------
# suite: scissors

def suite_scissors(seed: int, params: dict) -> list:
    out = _Reports()
    e2 = Euclidean(2)
    tree = ended_tree()

    with out.check("scissors-shift-agreement", 1e-6) as rep:
        cfg_e = tr.degenerate_flat_scissors(e2)
        comp, form = tr.scissors_shift(e2, cfg_e)
        if abs(comp) > 1e-6 or abs(form) > 1e-6:
            rep.fail({"case": "euclidean-degenerate", "comp": comp, "form": form})
        cfg_t = tr.tree_scissors(tree, ("e1", "e2", "e3", "e4"))
        comp_t, form_t = tr.scissors_shift(tree, cfg_t)
        if comp_t != 0 or form_t != 0:
            rep.fail({"case": "tree", "comp": comp_t, "form": form_t})
        cfg_h = tr.hyperbolic_scissors()
        comp_h, form_h = tr.scissors_shift(HyperbolicPlane(), cfg_h)
        if abs(comp_h - form_h) > 1e-6 or comp_h <= 0.01:
            rep.fail({"case": "hyperbolic", "comp": comp_h, "form": form_h})
        rep.counts = {"cases": 3, "violations": None,
                      "hyperbolic_delta": float(form_h)}

    with out.check("scissors-validation", 1e-9) as rep:
        for name, space, cfg, want_degenerate in (
                ("euclidean-degenerate", e2, cfg_e, True),
                ("tree", tree, cfg_t, True),
                ("hyperbolic", HyperbolicPlane(), cfg_h, False)):
            sub = tr.validate_scissors(space, cfg)
            if not sub.passed or sub.data["degenerate"] != want_degenerate:
                rep.fail({"case": name, "status": sub.status,
                          "degenerate": sub.data["degenerate"]})
        rep.counts = {"cases": 3}

    with out.check("scissors-normalization-invariance", 1e-8) as rep:
        f0 = tr.scissors_shift_formula(HyperbolicPlane(), cfg_h)
        f1 = tr.scissors_shift_formula(HyperbolicPlane(), cfg_h, p_param=1.3, q_param=-0.7)
        if abs(f0 - f1) > 1e-8:
            rep.fail({"f0": f0, "f1": f1})
        rep.counts = {"cases": 1}

    with out.check("scissors-shift-continuity", 0.1) as rep:
        cfg_p = tr.hyperbolic_scissors(a_ends=(-1.0 + 1e-3, 1.0 - 1e-3),
                                       d_ends=(-2.0 - 1e-3, 2.0 + 1e-3))
        _, form_p = tr.scissors_shift(HyperbolicPlane(), cfg_p)
        if abs(form_p - form_h) > 0.1:
            rep.fail({"base": form_h, "perturbed": form_p})
        rep.counts = {"cases": 1, "violations": None,
                      "delta_change": abs(float(form_p) - float(form_h))}
    return out


# ---------------------------------------------------------------------------
# suite: tapes

def suite_tapes(seed: int, params: dict) -> list:
    out = _Reports()
    e2 = Euclidean(2)
    l3 = MinkowskiLp(3.0)

    axis = {}
    for space in (e2, l3):
        xi = direction_ideal(space, (1.0, 0.0))
        eta = direction_ideal(space, (-1.0, 0.0))
        axis[space] = line_through(space, eta, xi, point(space, (0.0, 0.0)))

    with out.check("tape-build", 1e-9) as rep:
        built = {}
        for space, drift in ((e2, 0.6), (l3, 0.8)):
            a = axis[space]
            tape = tp.build_p_tape(space, a, 6, drift)
            built[space] = tape
            sub = tp.validate_p_tape(tape)
            if not sub.passed:
                rep.fail({"case": space.tag(), "violations": sub.counts["violations"]})
            worst = 0.0
            for j in range(1, 7):
                for z in (-3, 0, 3):
                    want = a.point_at(float(tp.tape_position(6, j, z)))
                    worst = max(worst, float(distance(space, tape.points[(1, j, z)], want)))
            if worst > 1e-9:
                rep.fail({"case": space.tag(), "position_law_error": worst})
        rep.counts = {"cases": 2}

    with out.check("tape-gate", 0.0) as rep:
        gates = 0
        for space, drift in ((e2, 0.2), (l3, 0.6)):
            gates += 1
            try:
                tp.build_p_tape(space, axis[space], 6, drift)
                rep.fail({"case": space.tag(), "reason": "gate accepted an undersized p"})
            except tp.PreconditionError:
                pass
        rep.counts = {"cases": gates}

    tape = built[e2]
    bad = tp.PTape(e2, tape.p, dict(tape.points))
    c = bad.points[(1, 3, 0)].coords
    bad.points[(1, 3, 0)] = point(e2, (c[0] + 0.05, c[1]))
    out.append(_expect_failure(tp.validate_p_tape(bad), "tape-perturbation-rejected"))

    with out.check("third-division", 1e-9) as rep:
        pts = {}
        for j in range(1, 4):
            pts[(0, j)] = point(e2, (0.0, 0.0))
            pts[(1, j)] = point(e2, (1.0, 0.0))
            pts[(2, j)] = point(e2, (2.0, 0.0))
            pts[(3, j)] = point(e2, (3.0, 0.0))
        sub = tp.check_third_division(e2, pts)
        if not sub.passed or not sub.data.get("relations_hold"):
            rep.fail({"case": "forced", "status": sub.status})
        bad_pts = dict(pts)
        bad_pts[(1, 1)] = point(e2, (1.05, 0.0))
        sub_bad = tp.check_third_division(e2, bad_pts)
        if sub_bad.passed:
            rep.fail({"case": "perturbed", "reason": "accepted a broken configuration"})
        rep.counts = {"cases": 2}
    return out


# ---------------------------------------------------------------------------
# suite: grasshopper

def suite_grasshopper(seed: int, params: dict) -> list:
    out = _Reports()
    rng = random.Random(seed)
    rl = RealLine()
    e2 = Euclidean(2)
    tree = swap_tree()

    with out.check("grasshopper-line", 1e-9) as rep:
        if gh.grasshopper_distance(rl, point(rl, 0.0), point(rl, 3.0)) != 3:
            rep.fail({"case": "G(0,3)"})
        if gh.grasshopper_distance(rl, point(rl, 0.0), point(rl, 2.5)) != math.inf:
            rep.fail({"case": "G(0,2.5)"})
        # brute force: lattice reachable from 0 by <= 5 jumps misses 2.5
        reachable = {0.0}
        for _ in range(5):
            reachable |= {v + 1.0 for v in reachable} | {v - 1.0 for v in reachable}
        if 2.5 in reachable:
            rep.fail({"case": "brute-force lattice"})
        rep.counts = {"cases": 3}

    with out.check("grasshopper-euclid-agreement", 1e-9) as rep:
        pairs = params.get("pairs", 50)
        for _ in range(pairs):
            x = point(e2, (rng.uniform(-4, 4), rng.uniform(-4, 4)))
            y = point(e2, (rng.uniform(-4, 4), rng.uniform(-4, 4)))
            g_an = gh.grasshopper_distance(e2, x, y)
            chain = gh.euclid_jump_chain(e2, x, y)
            graph = gh.UnitJumpGraph.build(e2, chain)
            g_gr = gh.graph_bfs_distance(graph, x, y)
            if g_an != g_gr:
                rep.fail({"x": x, "y": y, "analytic": g_an, "graph": g_gr})
        rep.counts = {"pairs": pairs}

    tps = gh.TreePointSet(tree, Fraction(1, 10), Fraction(1, 5))
    phi = gh.tree_swap_bijection(tps)
    A = tps.union_sample()
    with out.check("tree-swap-grasshopper-isometry", 0.0) as rep:
        pairs_checked = 0
        images = [phi.forward(q) for q in A.points]
        for i in range(len(A.points)):
            for j in range(i + 1, len(A.points)):
                g1 = gh.grasshopper_distance(tree, A.points[i], A.points[j])
                g2 = gh.grasshopper_distance(tree, images[i], images[j])
                pairs_checked += 1
                if g1 != g2:
                    rep.fail({"p": A.points[i], "q": A.points[j], "before": g1, "after": g2})
        rep.counts = {"pairs": pairs_checked}

    with out.check("grasshopper-invariance-a-alpha", 0.0) as rep:
        nodes = gh.tree_offset_class_nodes(tree, tps.a_alpha[0], tps.a_beta[0])
        alpha_coords = {p.coords for p in tps.a_alpha}
        jumps = 0
        for p in tps.a_alpha:
            for q in nodes:
                if distance(tree, p, q) == 1:
                    jumps += 1
                    if q.coords not in alpha_coords:
                        rep.fail({"from": p, "to": q})
        rep.counts = {"jumps": jumps}

    with out.check("grasshopper-components", 0.0) as rep:
        pts = [point(rl, v) for v in (0.0, 1.0, 2.0, 0.5, 1.5)]
        graph = gh.UnitJumpGraph.build(rl, pts)
        comps = gh.grasshopper_components(graph)
        got = sorted(sorted(p.coords for p in comp) for comp in comps)
        if got != [[0.0, 1.0, 2.0], [0.5, 1.5]]:
            rep.fail({"got": got})
        rep.counts = {"components": len(comps)}
    return out


# ---------------------------------------------------------------------------
# suite: counterexamples

def _counterexample_report(name: str, spaces, bijection, sample: SampleSet,
                           tol_unit: float, tol_iso: float) -> VerificationReport:
    """One report per counterexample: unit-distance preservation must pass
    and the isometry check must fail with a witness."""
    rep = VerificationReport(f"counterexample[{name}]", tolerance=tol_unit)
    unit = preserves_unit_distance(spaces, bijection, sample, mode="eq", tol=tol_unit)
    iso = is_isometry(spaces, bijection, sample, tol=tol_iso)
    rep.counts = {
        "unit_status": unit.status,
        "unit_pairs": unit.counts["pairs"],
        "isometry_status": iso.status,
        "isometry_witnesses": len(iso.witnesses),
    }
    if not unit.passed:
        rep.fail({"reason": "unit distance not preserved", "witness": unit.witnesses[:2]})
    if iso.passed:
        rep.fail({"reason": "expected an isometry violation"})
    elif not iso.witnesses:
        rep.fail({"reason": "isometry violation without witness"})
    else:
        rep.data["isometry_witness"] = iso.witnesses[0]
    return rep.finalize()


def suite_counterexamples(seed: int, params: dict) -> list:
    rng = random.Random(seed)
    out = _Reports()

    # 1. line-sine
    rl = RealLine()
    ls = gh.line_counterexample()
    vals = [0.0, 0.25]
    vals += [rng.uniform(-3, 3) for _ in range(10)]
    vals += [v + 1.0 for v in vals[:6]]
    sample = SampleSet(rl, tuple(point(rl, v) for v in vals))
    out.append(_counterexample_report("line-sine", (rl, rl), ls, sample, 1e-9, 1e-9))

    # 2. sphere-flip at both radii (non-vacuous and vacuous unit classes)
    flip_reports = []
    for radius in (1.0 / math.pi, 1.0 / (2.0 * math.pi)):
        sph = SphereIntrinsic(radius, 3)
        member = gh.band_membership(0.5)
        flip = gh.sphere_flip_bijection(radius, 3, member)
        dirs = []
        for _ in range(10):
            v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            dirs.append(v)
        pts = []
        for v in dirs:
            pts.append(sphere_point(sph, v))
            pts.append(sphere_point(sph, tuple(-x for x in v)))
        pts.append(sphere_point(sph, (0.0, 0.0, 1.0)))
        pts.append(sphere_point(sph, (0.0, 0.0, -1.0)))
        pts.append(sphere_point(sph, (1.0, 0.0, 0.3)))
        sample = SampleSet(sph, tuple(pts))
        flip_reports.append(_counterexample_report(
            f"sphere-flip[r={radius:.6f}]", (sph, sph), flip, sample, 1e-9, 1e-9))
    combined = VerificationReport("counterexample[sphere-flip]", tolerance=1e-9)
    combined.counts = {
        "radii": 2,
        "unit_status": "pass" if all(s.counts["unit_status"] == "pass"
                                     for s in flip_reports) else "fail",
        "isometry_status": "fail" if all(s.counts["isometry_status"] == "fail"
                                         for s in flip_reports) else "pass",
        "isometry_witnesses": min(s.counts["isometry_witnesses"] for s in flip_reports),
    }
    for sub in flip_reports:
        combined.counts[sub.check] = sub.status
        if not sub.passed:
            combined.fail({"inner": sub.check, "witnesses": sub.witnesses[:2]})
    out.append(combined.finalize())

    # 3. tree-swap (exact)
    tree = swap_tree()
    tps = gh.TreePointSet(tree, Fraction(1, 10), Fraction(1, 5))
    phi = gh.tree_swap_bijection(tps)
    nodes = gh.tree_offset_class_nodes(tree, tps.a_alpha[0], tps.a_beta[0])
    vertices = [tree_vertex(tree, v) for v in tree.desc.vertices]
    sample = SampleSet(tree, tuple(nodes) + tuple(vertices))
    out.append(_counterexample_report("tree-swap", (tree, tree), phi, sample, 0.0, 0.0))

    # 4. tree-smooth
    smooth = gh.smooth_tree_bijection(tree, 2)
    pts = [tree_vertex(tree, v) for v in tree.desc.vertices]
    for i in range(len(tree.desc.edges)):
        for num in (1, 3, 5, 7):
            pts.append(tree_edge_point(tree, i, Fraction(num, 16)))
    sample = SampleSet(tree, tuple(pts))
    out.append(_counterexample_report("tree-smooth", (tree, tree), smooth,
                                      sample, 1e-9, 1e-9))

    # 5. max-lift of the line counterexample over Euclidean(1); the y grid
    # j * 0.25, j = -2..2, includes the sine map's fixed points -0.5, 0 and 0.5
    e1 = Euclidean(1)
    lift = gh.max_product_lift(ls, e1)
    mp = lift.domain
    grid = []
    for i in range(-2, 3):
        for j in range(-2, 3):
            grid.append(Point(mp, ((float(i) * 0.5,), float(j) * 0.25)))
    sample = SampleSet(mp, tuple(grid))
    out.append(_counterexample_report("max-lift", (mp, mp), lift, sample, 1e-9, 1e-9))
    return out


SUITES = {
    "axioms": suite_axioms,
    "busemann": suite_busemann,
    "horofn": suite_horofn,
    "transfers": suite_transfers,
    "scissors": suite_scissors,
    "tapes": suite_tapes,
    "grasshopper": suite_grasshopper,
    "counterexamples": suite_counterexamples,
}

# declared report counts, enforced when assembling suite results
SUITE_SIZES = {
    "axioms": 12,
    "busemann": 11,
    "horofn": 7,
    "transfers": 2,
    "scissors": 4,
    "tapes": 4,
    "grasshopper": 5,
    "counterexamples": 5,
}

RANDOMIZED_SUITES = ("axioms", "busemann", "horofn", "transfers", "grasshopper",
                     "counterexamples", "all")

# parameters that size a sample; the CLI config accepts only positive ints
COUNT_PARAMETERS = ("triples", "oracle_pairs", "ray_pairs", "shadow_points", "pairs")


def run_named_suite(name: str, seed: int, params: dict) -> list:
    if name == "all":
        return [rep for sub in SUITES for rep in run_named_suite(sub, seed, params)]
    if name not in SUITES:
        raise SpaceError(f"unknown suite {_shown(name)}")
    reports = SUITES[name](seed, params)
    expected = SUITE_SIZES[name]
    if len(reports) != expected:
        raise AssertionError(
            f"suite {name} produced {len(reports)} reports, declared {expected}")
    return reports
