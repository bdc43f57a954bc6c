"""Test-side oracles: independent numerical evaluations that the tests
compare the closed forms in ``metriclab`` against. Nothing in ``src/`` calls
them."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

from metriclab.grasshopper import UnitJumpGraph
from metriclab.horofn import T_CAP, shadow_contains
from metriclab.numeric import bisect_root, golden_min
from metriclab.spaces import (
    ConvergenceError,
    PreconditionError,
    SpaceError,
    distance,
    distance_rows,
    point,
    ray_from,
    tree_edge_point,
    tree_ray_point,
    tree_vertex,
    vadd,
    vscale,
    vsub,
)
from metriclab.verify import SampleSet, VerificationReport


def _normed_distance(space, a, b):
    """The flat models' distance as the norm of the difference tuple,
    ``norm(vsub(a, b))``: the formula the fused kernels must reproduce."""
    return space.norm(vsub(a, b))


def _linf_row(a, bs):
    """The sup-norm row with one ``max`` call per pair."""
    ax, ay = a
    return [max(abs(ax - bx), abs(ay - by)) for bx, by in bs]


def _max_row(left, right):
    """The max product of two factor rows with one ``max`` call per pair:
    the left value, as it is, unless the right one is larger."""
    return list(map(max, left, right))


def _e1_row(a, bs):
    """The E^1 row exactly: |fl(a) - fl(b)| on the doubles of the two
    coordinates, correctly rounded (a Fraction converts to the nearest
    double)."""
    (x,) = a
    return [float(abs(Fraction(float(x)) - Fraction(float(y)))) for (y,) in bs]


def _euclidean_root(a, b, k=1200):
    """The exact root of the sum of squares of the gaps fl(x - y) between
    the doubles of a and b, each gap rounded once as the row rounds it, as
    the bracket (r / 2^k, (r + 1) / 2^k) of Fractions that holds it: r is
    math.isqrt of the Fraction sum scaled by 4^k and floored. 2^-1200 is
    far below the smallest subnormal, 2^-1074."""
    s = sum(Fraction(float(x) - float(y)) ** 2 for x, y in zip(a, b))
    r = math.isqrt(s.numerator * 4 ** k // s.denominator)
    return Fraction(r, 2 ** k), Fraction(r + 1, 2 ** k)


def _sphere_distance(space, a, b):
    """The sphere's angular distance through the tuple helpers:
    r atan2(|a - (a.b) b|, a.b). Both sums add left to right, as the float
    ``sum`` of Python 3.11 does; from 3.12 on ``sum`` compensates, and the
    model's 3-d ``distance`` spells its sums out instead."""
    c = reduce(operator.add, (x * y for x, y in zip(a, b)))
    resid = vsub(a, vscale(b, c))
    return space.radius * math.atan2(math.sqrt(reduce(operator.add, (x * x for x in resid))), c)


def _ray_grid(space, c, d):
    """Grid oracle for rho(c, d) on continuous models, kept for cross-checks.

    Refines a coarse-to-fine grid of (s, t), 16 cells a side over 20 levels,
    on an expanding window. On the flat models the distance is jointly convex
    and the infimum is attained, so refinement converges; on H^2 the infimum
    is approached only at infinity and the grid stops above it.
    """
    dd0 = float(distance(space, c.point_at(0), d.point_at(0)))
    ddT = float(distance(space, c.point_at(64.0), d.point_at(64.0)))
    if ddT > dd0 + 1e-6:
        raise SpaceError("rays are not asymptotic: same-parameter distance grows")

    s_hi = t_hi = 8.0
    s_lo = t_lo = 0.0
    best = dd0
    grid = 16
    for _ in range(20):
        ss = [s_lo + (s_hi - s_lo) * i / grid for i in range(grid + 1)]
        ts = [t_lo + (t_hi - t_lo) * j / grid for j in range(grid + 1)]
        vals = {}
        for i, s in enumerate(ss):
            for j, t in enumerate(ts):
                vals[(i, j)] = float(distance(space, c.point_at(s), d.point_at(t)))
        (bi, bj) = min(vals, key=vals.get)
        best = min(best, vals[(bi, bj)])
        if best <= 1e-12:
            break
        if (bi == grid or bj == grid) and max(s_hi, t_hi) < 300.0:
            # infimum may sit farther out: grow the window (capped so
            # hyperbolic coordinates stay inside double range)
            if bi == grid:
                s_hi *= 2.0
            if bj == grid:
                t_hi *= 2.0
            continue
        cs = (s_hi - s_lo) / grid
        ct = (t_hi - t_lo) / grid
        s_lo = max(0.0, ss[bi] - 2.0 * cs)
        s_hi = ss[bi] + 2.0 * cs
        t_lo = max(0.0, ts[bj] - 2.0 * ct)
        t_hi = ts[bj] + 2.0 * ct
    return best


def _busemann_limit_per_point(space, ray, y, tol=1e-6):
    """``busemann_value(..., method="limit")`` one validated Point at a
    time: the doubling loop with Aitken acceptance (an exact pair of
    truncations on trees), each ray point built by ``point_at`` and each
    distance read by the module ``distance``. The coordinate loop gives
    the same values, bit for bit."""
    o = ray.point_at(0)
    d0 = distance(space, o, y)
    if space.exact:
        T = d0 + 1
        v1 = distance(space, y, ray.point_at(T)) - T
        v2 = distance(space, y, ray.point_at(2 * T)) - 2 * T
        if v1 != v2:
            raise ConvergenceError("tree Busemann value did not stabilize")
        return v2

    def f(t):
        return float(distance(space, y, ray.point_at(t))) - t

    def aitken(f1, f2, f3):
        den = (f3 - f2) - (f2 - f1)
        if abs(den) <= 1e-15 * max(1.0, abs(f3)):
            return f3
        return f3 - (f3 - f2) ** 2 / den
    T = max(1.0, 2.0 * float(d0))
    window = [f(T), f(2.0 * T), f(4.0 * T)]
    prev = prev_diff = None
    while T <= T_CAP:
        accel = aitken(*window)
        if prev is not None:
            diff = abs(accel - prev)
            if prev_diff is not None and diff <= 0.5 * tol and prev_diff <= 0.5 * tol:
                return accel
            prev_diff = diff
        prev = accel
        T *= 2.0
        window = [window[1], window[2], f(4.0 * T)]
    raise ConvergenceError(f"Busemann limit not stable below T = {T_CAP}")


def _tits_delta_per_point(space, o, xi, eta):
    """``tits_delta`` one validated Point at a time: d(c(t), d(t)) / (2t)
    through ``point_at`` and the module ``distance``, doubling t until two
    values agree within 1e-4, the first of them nonzero, then one
    Richardson step."""
    c, d = ray_from(space, o, xi), ray_from(space, o, eta)

    def f(t):
        return distance(space, c.point_at(t), d.point_at(t)) / (2 * t)
    T = 1
    while T <= T_CAP:
        v1, v2 = f(T), f(2 * T)
        if v1 != 0 and abs(float(v2) - float(v1)) <= 1e-4:
            return float(2 * v2 - v1)
        T *= 2
    raise ConvergenceError(f"Tits limit not stable below t = {T_CAP}")


def _closest_search(space, geo, x):
    """Search oracle for ``closest_param``: (argmin, min) of
    t -> d(geo(t), x) by golden-section search. The distance along a
    geodesic of a Busemann space is convex, and d(geo(t), x) >= |t| - d0
    keeps the minimizer in [-w, w] for w = 2 d0 + 2."""
    d0 = float(distance(space, geo.point_at(0), x))
    w = 2.0 * d0 + 2.0
    lo, hi = geo.domain()
    lo = max(float(lo), -w) if lo != -math.inf else -w
    hi = min(float(hi), w) if hi != math.inf else w

    def f(t):
        return float(distance(space, geo.point_at(t), x))
    return golden_min(f, lo, hi, tol=1e-13 * max(1.0, w))


def _parallel_gap(space, c, d):
    """Search oracle for rho(c, d) on the flat models: the distance between
    the parallel lines through c(0) and d(0) along the common direction u,
    min over tau of |off + tau u| by golden-section search (convex;
    |off + tau u| >= |tau| - |off| keeps the minimizer in [-w, w])."""
    off = vsub(c.point_at(0).coords, d.point_at(0).coords)
    u = c.plus.rep
    w = 2.0 * space.norm(off) + 1.0
    return golden_min(lambda tau: space.norm(vadd(off, vscale(u, tau))), -w, w)[1]


def _shadow_sweep(space, y, x0, rho, resolution, tol):
    """Sweep oracle for ``spherical_shadow_sample``: tests every one of the
    `resolution` directions of the sphere S(x0, rho) with ``shadow_contains``."""
    cx, cy = x0.coords
    hits = []
    for k in range(resolution):
        ang = 2.0 * math.pi * k / resolution
        z = point(space, (cx + rho * math.cos(ang), cy + rho * math.sin(ang)))
        if shadow_contains(space, y, x0, z, tol=tol):
            hits.append(z)
    if not hits:
        raise SpaceError("no shadow points at this resolution; widen tol")
    return SampleSet(space, tuple(hits))


def _chord_roots(norm, u, w, height: float):
    """The two roots alpha of ||alpha u + height w|| = 1 (requires a root),
    by bisection: the search oracle for ``half_chord``."""
    def phi(al):
        return norm(vadd(vscale(u, al), vscale(w, height))) - 1.0
    if phi(0.0) >= 0.0:
        raise PreconditionError("transverse height leaves no unit point")
    hi = bisect_root(phi, 0.0, 2.0, tol=1e-14)
    lo = bisect_root(phi, -2.0, 0.0, tol=1e-14)
    return lo, hi


def _tape_chords(space, u, drift: float, p: int):
    """Search oracle for the chords of ``build_p_tape`` on the base direction u.

    Finds the normed distance d_w from w = (-u2, u1) to the line of u by
    golden section, the gate chord t at height drift / d_w from
    ``_chord_roots``, and, when the gate 2/p < 2 - |t| admits p, the tape
    height where the chord is 2 - 1/p by a bisection whose every step runs
    ``_chord_roots``. Returns (d_w, t, admitted, beta_tape or None).
    """
    norm = space.norm
    w = (-u[1], u[0])
    _, d_w = golden_min(lambda t: norm(vsub(w, vscale(u, t))), -4.0, 4.0, tol=1e-14)
    beta_gate = drift / d_w
    lo, hi = _chord_roots(norm, u, w, beta_gate)
    t_chord = hi - lo
    if not 2.0 / p < 2.0 - abs(t_chord):
        return d_w, t_chord, False, None

    D = 2.0 - 1.0 / p

    def chord_gap(beta):
        lo_b, hi_b = _chord_roots(norm, u, w, beta)
        return (hi_b - lo_b) - D
    # chord shrinks from 2 at height 0; the gate guarantees a crossing below
    return d_w, t_chord, True, bisect_root(chord_gap, 1e-9, beta_gate, tol=1e-14)


def _lattice_jump_graph(space, pts):
    """Lattice oracle for the tree grasshopper distance between any two of
    ``pts``: the ``UnitJumpGraph`` of every point of the 1/L grid of the tree,
    L the lcm of the denominator bound and the points' own denominators, with
    each end ray running out to the farthest ray offset among ``pts`` plus
    their diameter, the total edge length and 3, past the production cap.
    A unit jump keeps every vertex distance on the 1/L grid, so every chain
    between grid points stays on it; no residue class is enumerated, and
    ``graph_bfs_distance`` on the graph is the oracle."""
    desc = space.desc
    coords = [p.coords for p in pts]
    L = math.lcm(desc.denominator_bound, *(c[2].denominator for c in coords if c[0] != "v"))
    reach = (max([c[2] for c in coords if c[0] == "r"], default=0)
             + max(distance(space, a, b) for a in pts for b in pts)
             + sum(ln for _, _, ln in desc.edges) + 3)
    grid = [tree_vertex(space, v) for v in desc.vertices]
    for i, (_, _, ln) in enumerate(desc.edges):
        grid += [tree_edge_point(space, i, Fraction(k, L)) for k in range(1, int(ln * L))]
    for e in desc.ends:
        grid += [tree_ray_point(space, e, Fraction(k, L)) for k in range(1, int(reach * L) + 1)]
    return UnitJumpGraph.build(space, grid)


# ---------------------------------------------------------------------------
# exact verdicts by Fraction operators: the library decides them on integer
# numerators and denominators, and these are the expressions it replaced

def _check_metric_axioms_fraction(space, sample, *, triples=200, seed=0):
    """``check_metric_axioms`` on an exact space, each verdict a Fraction
    operator: d(x, y) != d(y, x), d(x, y) == 0 and d(x, z) > d(x, y) +
    d(y, z), on the same random triples."""
    rep = VerificationReport(f"metric-axioms[{space.tag()}]", tolerance=1e-9)
    rng = random.Random(seed)
    pts = sample.points
    for _ in range(triples):
        x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        dxy, dxz = space.row(x.coords, (y.coords, z.coords))
        dyx, dyz = space.row(y.coords, (x.coords, z.coords))
        if dxy != dyx:
            rep.fail({"axiom": "symmetry", "x": x, "y": y, "dxy": dxy, "dyx": dyx})
        if (dxy == 0) != (x.coords == y.coords):
            rep.fail({"axiom": "identity", "x": x, "y": y, "d": dxy})
        if dxz > dxy + dyz:
            rep.fail({"axiom": "triangle", "x": x, "y": y, "z": z, "slack": dxy + dyz - dxz})
    return rep.finalize(triples=triples)


def _tree_busemann_fraction(space, ray, y):
    """``MetricTree.busemann_closed`` by Fraction operators: h(y) -
    h(ray(0)), h the distance to the end's vertex, and minus the offset on
    the end's own ray."""
    end = ray.plus.rep

    def h(c):
        if c[0] == "r" and c[1] == end:
            return -c[2]
        return space.distance(c, ("v", end))
    return h(y) - h(ray.at(0))


def _tree_offset_in_bounds(off, length=None):
    """``MetricTree.validate``'s offset bounds by Fraction operators:
    0 < off < length on an edge of that length, off > 0 on a ray (no
    length)."""
    return off > 0 if length is None else 0 < off < length


# ---------------------------------------------------------------------------
# per-pair loops of the bijection checks and the unit-jump graph

def _is_isometry_pairwise(spaces, f, sample, tol=1e-9):
    """``is_isometry`` one pair at a time: every failing pair becomes a
    witness, in (i, j) order, and ``finalize`` alone caps them."""
    X, Y = spaces
    rep = VerificationReport(f"is-isometry[{f.name}]", tolerance=tol)
    pts = sample.points
    images = [f.forward(p) for p in pts]
    exact = tol == 0 and X.exact and Y.exact
    pairs = 0
    for i, (row_x, row_y) in enumerate(zip(distance_rows(X, pts), distance_rows(Y, images))):
        pairs += len(row_x)
        for j, (dx, dy) in enumerate(zip(row_x, row_y), i + 1):
            if not ((dx == dy) if exact else abs(float(dx) - float(dy)) <= tol):
                rep.fail({"x": pts[i], "y": pts[j], "d_before": dx, "d_after": dy})
    return rep.finalize(pairs=pairs)


def _unit_class_of(d, mode, tol, exact):
    """The unit class of one distance d: d compared with 1 per mode, exactly
    when tol == 0 on an exact space, else as a float snapped to 1 within tol."""
    cmp = {"eq": operator.eq, "le": operator.le, "lt": operator.lt}[mode]
    if exact and tol == 0:
        return cmp(d, 1)
    v = float(d)
    if mode == "eq":
        return abs(v - 1.0) <= tol
    return cmp(1.0 if abs(v - 1.0) <= tol else v, 1)


def _preserves_unit_distance_pairwise(spaces, f, sample, mode="eq", tol=1e-9):
    """``preserves_unit_distance`` one pair at a time, each distance
    classified on its own."""
    X, Y = spaces
    rep = VerificationReport(f"unit-distance[{f.name}, mode={mode}]", tolerance=tol)
    pts = list(sample.points)
    images = [f.forward(p) for p in pts]
    preimages = [f.inverse(q) for q in images]
    rows = zip(distance_rows(X, pts), distance_rows(Y, images), distance_rows(X, preimages))
    pairs = 0
    for i, (row_x, row_y, row_back) in enumerate(rows):
        pairs += len(row_x)
        for j, (dx, dy, db) in enumerate(zip(row_x, row_y, row_back), i + 1):
            before = _unit_class_of(dx, mode, tol, X.exact)
            after = _unit_class_of(dy, mode, tol, Y.exact)
            back = _unit_class_of(db, mode, tol, X.exact)
            if before != after:
                rep.fail({"direction": "forward", "x": pts[i], "y": pts[j],
                          "before": before, "after": after})
            if after != back:
                rep.fail({"direction": "inverse", "x": images[i], "y": images[j],
                          "image_class": after, "preimage_class": back})
    return rep.finalize(pairs=pairs)


def _unit_jump_adjacency(space, points):
    """The adjacency of ``UnitJumpGraph.build(space, points)``, one pair at
    a time: the exact unit pairs of an exact space, else |d - 1| <= 1e-9."""
    adj = {i: [] for i in range(len(points))}
    for i, row in enumerate(distance_rows(space, points)):
        for j, d in enumerate(row, i + 1):
            if (d == 1) if space.exact else abs(float(d) - 1.0) <= 1e-9:
                adj[i].append(j)
                adj[j].append(i)
    return adj
