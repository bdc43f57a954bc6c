"""Test-side oracles: independent numerical evaluations that the tests
compare the closed forms in ``metriclab`` against. Nothing in ``src/`` calls
them."""

import math
import operator
from fractions import Fraction
from functools import reduce

from metriclab.grasshopper import UnitJumpGraph
from metriclab.horofn import shadow_contains
from metriclab.numeric import bisect_root, golden_min
from metriclab.spaces import (
    PreconditionError,
    SpaceError,
    distance,
    point,
    tree_edge_point,
    tree_ray_point,
    tree_vertex,
    vadd,
    vscale,
    vsub,
)
from metriclab.verify import SampleSet


def _normed_distance(space, a, b):
    """The flat models' distance as the norm of the difference tuple,
    ``norm(vsub(a, b))``: the formula the fused kernels must reproduce."""
    return space.norm(vsub(a, b))


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
             + desc.total_length + 3)
    grid = [tree_vertex(space, v) for v in desc.vertices]
    for i, (_, _, ln) in enumerate(desc.edges):
        grid += [tree_edge_point(space, i, Fraction(k, L)) for k in range(1, int(ln * L))]
    for e in desc.ends:
        grid += [tree_ray_point(space, e, Fraction(k, L)) for k in range(1, int(reach * L) + 1)]
    return UnitJumpGraph.build(space, grid)
