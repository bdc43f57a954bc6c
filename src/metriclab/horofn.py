"""Busemann functions, the asymptotic-ray pseudometric, Tits relation
numerics, and shadows.

Busemann values beta_c(y) = lim_{t->oo} (d(y, c(t)) - t) are computed from
closed forms where the model provides one (flat models, H^2, trees) and by a
truncated doubling limit with Richardson acceptance otherwise. Trees are
exact: the limit stabilizes at a finite rational truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .spaces import (
    ConvergenceError,
    Euclidean,
    GeodesicRef,
    IdealPoint,
    Point,
    SpaceError,
    _check_member,
    _check_tol,
    _finite,
    _same_space,
    _shown,
    distance,
    point,
    ray_from,
)
from .verify import SampleSet, VerificationReport

INF = math.inf
T_CAP = 1e8     # truncation cap of the Busemann and Tits limits


def _line_orientation(geo: GeodesicRef, xi: IdealPoint) -> int:
    """+1 if xi sits at the +oo end of geo, -1 at the -oo end."""
    if geo.plus is not None and geo.plus.matches(xi):
        return 1
    if geo.minus is not None and geo.minus.matches(xi):
        return -1
    raise SpaceError("geodesic has no end at the requested ideal point")


def ray_toward(space, geo: GeodesicRef, xi: IdealPoint) -> GeodesicRef:
    """Restrict/reverse a line so it becomes the unit ray toward xi."""
    if not _same_space(geo.space, space):
        raise SpaceError("geodesic belongs to a different space")
    if _line_orientation(geo, xi) == -1:
        geo = geo.reversed()
    elif geo.kind == "ray":
        return geo
    return GeodesicRef(space, "ray", geo.at, plus=geo.plus)


# ---------------------------------------------------------------------------
# Busemann values

def busemann_value(space, ray: GeodesicRef, y: Point, *, method: str = "closed",
                   tol: float = 1e-6):
    """beta_ray(y); exact Fraction on trees, float elsewhere.

    method: "closed" takes the model's closed form (SpaceError on models
    without rays), "limit" forces the truncated doubling limit, the oracle.
    """
    _check_member(space, y)
    if not _same_space(ray.space, space):
        raise SpaceError("ray belongs to a different space")
    if ray.plus is None:
        raise SpaceError("Busemann function needs a ray with an ideal endpoint")
    if method == "limit":
        return _busemann_limit(space, ray, y, tol=tol)
    if method != "closed":
        raise SpaceError(f"unknown method {_shown(method)}")
    return space.busemann_closed(ray, y.coords)


def _busemann_limit(space, ray, y, *, tol):
    """The oracle for ``busemann_closed``: it reads only the ray's ``at``
    and distances from the model's ``row``, never the closed form, so the
    two stay independent evaluations of beta."""
    yc, dist = y.coords, space.distance
    d0 = dist(ray.at(0), yc)
    if space.exact:
        # T = d0 + 1 = t/m; d(y, c(2T)) - 2T = d(y, c(T)) - T is decided
        # on the integer ratios n1/m1 and n2/m2 of the two distances
        n, m = d0.as_integer_ratio()
        t = n + m
        n1, m1 = dist(yc, ray.at(Fraction(t, m))).as_integer_ratio()
        n2, m2 = dist(yc, ray.at(Fraction(2 * t, m))).as_integer_ratio()
        if (n2 * m1 - n1 * m2) * m != t * m1 * m2:
            raise ConvergenceError("tree Busemann value did not stabilize")
        return Fraction(n2 * m - 2 * t * m2, m2 * m)

    def f(t):
        return float(dist(yc, ray.at(t))) - t

    def aitken(f1, f2, f3):
        den = (f3 - f2) - (f2 - f1)
        if abs(den) <= 1e-15 * max(1.0, abs(f3)):
            return f3
        return f3 - (f3 - f2) ** 2 / den
    # Aitken extrapolation along the doubling sequence is exact for any pure
    # power tail c * T^(-q), which covers the flat models (q = 1, and q = p-1
    # along singular directions of l_p planes) as well as exponential decay.
    # Acceptance needs two consecutive small steps: a single one can be a
    # coincidental plateau of the extrapolant while the tail is still large.
    T = max(1.0, 2.0 * float(d0))
    if T > T_CAP:   # no doubling step runs; a ray point past double range refuses itself
        ray.point_at(4.0 * T)
        raise ConvergenceError(f"Busemann limit: d(y, c(0)) puts T = {T:g} past T_CAP = {T_CAP:g}")
    window = [f(T), f(2.0 * T), f(4.0 * T)]
    prev = None
    prev_diff = None
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


# ---------------------------------------------------------------------------
# asymptotic-ray pseudometric rho_xi

def ray_pseudodistance(space, c: GeodesicRef, d: GeodesicRef):
    """rho(c, d) = inf over s, t >= 0 of d(c(s), d(t)); exact Fraction on trees.

    The model's closed form ``Space.rho_closed``: for rays with a common
    ideal point on the flat models (the distance between the two parallel
    lines: on Euclidean space the part of their offset orthogonal to the
    common direction, on the l_p and sup-norm planes |omega(off)| /
    |omega|* for the functional omega that vanishes on it), on H^2 and
    the real line (exactly 0), and on trees for every pair of rays (0 for
    merging rays, otherwise the bridge length between the ray images).
    The model raises SpaceError for rays that are not asymptotic (on every
    model but the tree) and where it has no rays at all.
    """
    if not (_same_space(c.space, space) and _same_space(d.space, space)):
        raise SpaceError("ray belongs to a different space")
    return space.rho_closed(c, d)


def check_busemann_sum_bound(space, c: GeodesicRef, d: GeodesicRef,
                             tol: float = 1e-6) -> VerificationReport:
    """0 <= beta_c(d(0)) + beta_d(c(0)) <= 2 rho_xi(c, d), within tol."""
    _check_tol(tol)
    rep = VerificationReport("busemann-sum-bound", tolerance=tol)
    # rho first: it refuses a foreign ray, and every model one without an ideal end
    rho = ray_pseudodistance(space, c, d)
    bc = space.busemann_closed(c, d.at(0))
    bd = space.busemann_closed(d, c.at(0))
    total = float(bc) + float(bd)
    rep.counts = {"sum": total, "rho": float(rho)}
    # written as failing forms, so that a nan sum or rho fails
    if not -tol <= total:
        rep.fail({"reason": "negative sum", "sum": total})
    if not total <= 2.0 * float(rho) + tol:
        rep.fail({"reason": "exceeds 2 rho", "sum": total, "rho": float(rho)})
    return rep.finalize()


# ---------------------------------------------------------------------------
# Tits relation numerics

def tits_delta(space, o: Point, xi: IdealPoint, eta: IdealPoint) -> float:
    """lim d(c(t), d(t)) / (2t) for the rays from o toward xi and eta.

    The raw limit lies in [0, 1]; the comparison against pi of the Tits
    relation is read as a comparison against 1.
    """
    if xi.matches(eta):
        raise SpaceError("tits_delta needs distinct ideal points")
    c = ray_from(space, o, xi)
    d = ray_from(space, o, eta)

    def f(t):
        # an int t keeps tree values exact Fractions
        return space.distance(c.at(t), d.at(t)) / (2 * t)
    T = 1
    while T <= T_CAP:
        v1, v2 = f(T), f(2 * T)
        # v1 = 0 while the rays still share their first stretch (on a tree)
        if v1 != 0 and abs(float(v2) - float(v1)) <= 1e-4:
            # the tail is O(1/t); Richardson removes it (exactly on trees)
            return float(2 * v2 - v1)
        T *= 2
    raise ConvergenceError(f"Tits limit not stable below t = {T_CAP}")


# ---------------------------------------------------------------------------
# shadows

def shadow_contains(space, y, x0: Point, z: Point, tol: float = 1e-9) -> bool:
    """Is z in the complete shadow of x0 relative to y?

    Finite y: x0 lies on [y, z], i.e. d(y, x0) + d(x0, z) = d(y, z) within
    tol. Ideal y: the Busemann sublevel reading, beta_y(z) - beta_y(x0)
    equals d(x0, z) within tol (beta normalized along the ray from x0).
    """
    _check_tol(tol, "shadow tolerance")
    if isinstance(y, IdealPoint):
        r = ray_from(space, x0, y)
        beta_z = busemann_value(space, r, z)
        dz = distance(space, x0, z)
        if space.exact and tol == 0:
            return beta_z == dz
        return abs(float(beta_z) - float(dz)) <= tol
    if y.coords == x0.coords:
        raise SpaceError("shadow base y must differ from x0")
    dyx = distance(space, y, x0)
    dxz = distance(space, x0, z)
    dyz = distance(space, y, z)
    if space.exact and tol == 0:
        return dyx + dxz == dyz
    return float(dyx) + float(dxz) <= float(dyz) + tol


def _arc_indices(resolution: int, w, sin2: float):
    """Ascending indices k of the directions 2 pi k / resolution within the
    arc of half-angle h around the direction w, sin^2(h/2) = sin2, widened
    by two directions on each side against rounding."""
    if not sin2 < 1.0:
        return range(resolution)
    step = 2.0 * math.pi / resolution
    half = 2.0 * math.asin(math.sqrt(max(0.0, sin2))) / step
    mid = math.atan2(w[1], w[0]) / step
    lo, hi = math.floor(mid - half) - 2, math.ceil(mid + half) + 2
    if hi - lo + 1 >= resolution:
        return range(resolution)
    return sorted(k % resolution for k in range(lo, hi + 1))


def spherical_shadow_sample(space, y, x0: Point, rho: float,
                            resolution: int = 360, tol: float = 1e-6) -> SampleSet:
    """Points of the sphere S(x0, rho) lying in the shadow of x0 relative
    to y, sampled at `resolution` directions. Euclidean plane only.

    On E^2 the shadow meets the circle in the arc around the direction w
    from y through x0 (for ideal y, against the ray from x0 toward y) with
    half-angle h. For finite y, with D = d(y, x0), the law of cosines turns
    d(y, z) >= D + rho - tol into 1 - cos h = tol (2 (D + rho) - tol) /
    (2 D rho) (free of the cancellation in (D + rho - tol)^2 - D^2 - rho^2),
    the whole circle once D + rho <= tol; for ideal y the Busemann level
    beta(z) = rho gives 1 - cos h = tol / rho. Only the directions in that
    window are built, and `shadow_contains` decides each of them.
    """
    if not (isinstance(space, Euclidean) and space.dim == 2):
        raise SpaceError("spherical shadow sampling is implemented for Euclidean(2)")
    if not (_finite(rho) and rho > 0):
        raise SpaceError(f"shadow sphere radius must be finite and > 0, got {_shown(rho)}")
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
        raise SpaceError(f"shadow resolution must be an integer >= 1, got {_shown(resolution)}")
    _check_tol(tol, "shadow tolerance")
    cx, cy = x0.coords
    if isinstance(y, IdealPoint):
        _check_member(space, x0)
        if not _same_space(y.space, space):
            raise SpaceError("ideal point belongs to a different space")
        w = (-y.rep[0], -y.rep[1])
        sin2 = tol / (2.0 * rho)
    else:
        if y.coords == x0.coords:
            raise SpaceError("shadow base y must differ from x0")
        d = distance(space, y, x0)
        w = (cx - y.coords[0], cy - y.coords[1])
        sin2 = INF if d + rho - tol <= 0 else tol * (2.0 * (d + rho) - tol) / (4.0 * d * rho)
    hits = []
    for k in _arc_indices(resolution, w, sin2):
        ang = 2.0 * math.pi * k / resolution
        z = point(space, (cx + rho * math.cos(ang), cy + rho * math.sin(ang)))
        if shadow_contains(space, y, x0, z, tol=tol):
            hits.append(z)
    if not hits:
        raise SpaceError("no shadow points at this resolution; widen tol")
    return SampleSet(space, tuple(hits))
