"""Test-side oracles: independent numerical evaluations that the tests
compare the closed forms in ``metriclab`` against. Nothing in ``src/`` calls
them."""

import math

from metriclab.horofn import shadow_contains
from metriclab.spaces import SpaceError, distance, enorm, point, vdot, vscale, vsub
from metriclab.verify import SampleSet


def _normed_distance(space, a, b):
    """The flat models' distance as the norm of the difference tuple,
    ``norm(vsub(a, b))``: the formula the fused kernels must reproduce."""
    return space.norm(vsub(a, b))


def _sphere_distance(space, a, b):
    """The sphere's angular distance through the tuple helpers:
    r atan2(|a - (a.b) b|, a.b)."""
    c = vdot(a, b)
    return space.radius * math.atan2(enorm(vsub(a, vscale(b, c))), c)


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
    return SampleSet(space, tuple(hits), spec=f"shadow(rho={rho}, res={resolution})")
