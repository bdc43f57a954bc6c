"""Horospherical transfers between asymptotic lines, the double transfer and
its shift, and scissors configurations with the shift computed two
independent ways (transfer composition vs. the four-term Busemann sum)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spaces import (
    GeodesicRef,
    HyperbolicPlane,
    IdealPoint,
    MetricTree,
    Point,
    SpaceError,
    boundary_ideal,
    closest_param,
    direction_ideal,
    line_through,
    on_geodesic,
    point,
    tree_end,
)
from .horofn import _line_orientation, busemann_value, ray_toward
from .verify import VerificationReport, _check_tol


@dataclass
class TransferResult:
    image: Point
    shift: object                 # measured t' - t (Fraction on trees)


def transfer_param(space, frm: GeodesicRef, to: GeodesicRef, xi: IdealPoint,
                   m: Point, *, target_offset=0) -> object:
    """Parameter t* on `to` with beta_xi(to(t*)) = beta_xi(m) + target_offset.

    Along a line toward xi, beta_xi(to(t)) = beta_xi(to(0)) - sigma t with
    sigma = +1 if xi is the +oo end of `to` and -1 otherwise, so t* is a
    closed form (an exact Fraction on trees).
    """
    sigma = _line_orientation(to, xi)
    beta = _busemann_for(space, frm, xi)   # refuses a line `frm` not asymptotic to xi
    return (beta(to.point_at(0)) - beta(m) - target_offset) * sigma


def _busemann_for(space, line: GeodesicRef, xi: IdealPoint):
    ray = ray_toward(space, line, xi)

    def beta(p: Point):
        return busemann_value(space, ray, p)
    return beta


def double_transfer(space, a: GeodesicRef, b: GeodesicRef, x: Point,
                    level_shift=0) -> TransferResult:
    """T_{a<->b}: across to b along the a-horospheres, back to a along the
    b-horospheres. Its shift is beta_a(b(0)) + beta_b(a(0)) + level_shift.

    ``level_shift`` displaces the return horosphere level; it synthesizes a
    nonzero translation on spaces whose boundary points are all regular.
    """
    xi = a.plus
    if xi is None or b.plus is None or not b.plus.matches(xi):
        raise SpaceError("lines must share their +oo ideal endpoint")
    ok, _, _ = on_geodesic(space, a, x)
    if not ok:
        raise SpaceError("probe point is not on the base line")
    y = b.point_at(transfer_param(space, a, b, xi, x))
    x2 = a.point_at(transfer_param(space, b, a, xi, y, target_offset=-level_shift))
    beta_a = _busemann_for(space, a, xi)
    # beta_a runs at unit rate along a, so the translation length reads off
    # the Busemann scale with closed-form precision
    return TransferResult(image=x2, shift=beta_a(x) - beta_a(x2))


# ---------------------------------------------------------------------------
# scissors

@dataclass
class ScissorsConfig:
    """Four lines a, b, c, d with paired ideal endpoints and center x on both
    b and c: a(-oo)=b(-oo), a(+oo)=c(+oo), c(-oo)=d(-oo), b(+oo)=d(+oo)."""

    a: GeodesicRef
    b: GeodesicRef
    c: GeodesicRef
    d: GeodesicRef
    x: Point


def validate_scissors(space, cfg: ScissorsConfig, tol: float = 1e-9) -> VerificationReport:
    """Check the five incidence conditions and set the degeneracy flag
    (x on a and on d). Failures are report entries, not errors."""
    _check_tol(tol)
    rep = VerificationReport("scissors-incidence", tolerance=tol)
    pairs = [
        ("a(-oo)=b(-oo)", cfg.a.minus, cfg.b.minus),
        ("a(+oo)=c(+oo)", cfg.a.plus, cfg.c.plus),
        ("c(-oo)=d(-oo)", cfg.c.minus, cfg.d.minus),
        ("b(+oo)=d(+oo)", cfg.b.plus, cfg.d.plus),
    ]
    for (name, u, v) in pairs:
        if u is None or v is None or not u.matches(v):
            rep.fail({"condition": name,
                      "left": None if u is None else u.rep,
                      "right": None if v is None else v.rep})
    for name, line in (("b", cfg.b), ("c", cfg.c)):
        ok, _, resid = on_geodesic(space, line, cfg.x, tol=tol)
        if not ok:
            rep.fail({"condition": f"x on {name}", "residual": float(resid)})
    on_a = on_geodesic(space, cfg.a, cfg.x, tol=tol)[0]
    on_d = on_geodesic(space, cfg.d, cfg.x, tol=tol)[0]
    rep.data["degenerate"] = bool(on_a and on_d)
    return rep.finalize(incidences=5)


def scissors_shift(space, cfg: ScissorsConfig, probe_param=0):
    """(shift by transfer composition, shift by the Busemann-sum formula).

    Composition: push a probe m in a through R_ac, R_cd, R_db, R_ba and
    measure the displacement on the beta_{a-} scale. Formula: the four-term
    sum beta_{a-}(x) + beta_{a+}(x) + beta_{d-}(x) + beta_{d+}(x), each pair
    normalized to vanish at a point of its own line.
    """
    m = cfg.a.point_at(probe_param)
    m1 = cfg.c.point_at(transfer_param(space, cfg.a, cfg.c, cfg.a.plus, m))
    m2 = cfg.d.point_at(transfer_param(space, cfg.c, cfg.d, cfg.c.minus, m1))
    m3 = cfg.b.point_at(transfer_param(space, cfg.d, cfg.b, cfg.d.plus, m2))
    t4 = transfer_param(space, cfg.b, cfg.a, cfg.b.minus, m3)
    m4 = cfg.a.point_at(t4)
    beta_minus = _busemann_for(space, cfg.a, cfg.a.minus)
    by_composition = beta_minus(m4) - beta_minus(m)

    return by_composition, scissors_shift_formula(space, cfg)


def scissors_shift_formula(space, cfg: ScissorsConfig, p_param=0, q_param=0):
    """Four-term Busemann sum at the center, normalized at a(p_param) and
    d(q_param); invariance under moving the normalization points is a test."""
    x = cfg.x

    def pair_sum(line, base_param):
        base = line.point_at(base_param)
        val = 0
        for xi in (line.minus, line.plus):
            # renormalize so beta vanishes at `base`
            beta = _busemann_for(space, line, xi)
            val += beta(x) - beta(base)
        return val
    return pair_sum(cfg.a, p_param) + pair_sum(cfg.d, q_param)


# ---------------------------------------------------------------------------
# ready-made configurations

def hyperbolic_scissors(a_ends=(-1.0, 1.0), d_ends=(-2.0, 2.0)) -> ScissorsConfig:
    """Scissors in H^2 from boundary endpoints: a = (a-, a+), d = (d-, d+),
    b = (a-, d+), c = (d-, a+), x = the intersection of b and c."""
    H = HyperbolicPlane()
    am, ap = a_ends
    dm, dp = d_ends
    a = line_through(H, boundary_ideal(H, am), boundary_ideal(H, ap))
    d = line_through(H, boundary_ideal(H, dm), boundary_ideal(H, dp))
    b = line_through(H, boundary_ideal(H, am), boundary_ideal(H, dp))
    c = line_through(H, boundary_ideal(H, dm), boundary_ideal(H, ap))
    x = _circle_intersection((am + dp) / 2.0, abs(dp - am) / 2.0,
                             (dm + ap) / 2.0, abs(ap - dm) / 2.0)
    return ScissorsConfig(a, b, c, d, point(H, x))


def _circle_intersection(m1, r1, m2, r2):
    if abs(m1 - m2) < 1e-14:
        raise SpaceError("concentric semicircles do not intersect")
    x = (r1 * r1 - r2 * r2 + m2 * m2 - m1 * m1) / (2.0 * (m2 - m1))
    y2 = r1 * r1 - (x - m1) ** 2
    if y2 <= 0:
        raise SpaceError("semicircles do not intersect in the upper half-plane")
    return (x, math.sqrt(y2))


def degenerate_flat_scissors(space) -> ScissorsConfig:
    """Fully degenerate flat scissors: all four lines coincide with the
    horizontal axis, x at the origin on them. In a flat plane the two
    opposite Busemann functions sum to zero everywhere, so any flat scissors
    has shift 0; this one is also degenerate in the strict sense (x on a and
    on d)."""
    xi = direction_ideal(space, (1.0, 0.0))
    eta = direction_ideal(space, (-1.0, 0.0))
    base = point(space, (0.0, 0.0))
    line = line_through(space, eta, xi, base)
    return ScissorsConfig(line, line, line, line, base)


def tree_scissors(space: MetricTree, ends4) -> ScissorsConfig:
    """Tree scissors through the junction of four distinct ends; degenerate
    because every geodesic between opposite ends passes the center."""
    e_am, e_ap, e_dm, e_dp = ends4
    a = line_through(space, tree_end(space, e_am), tree_end(space, e_ap))
    d = line_through(space, tree_end(space, e_dm), tree_end(space, e_dp))
    b = line_through(space, tree_end(space, e_am), tree_end(space, e_dp))
    c = line_through(space, tree_end(space, e_dm), tree_end(space, e_ap))
    # center: the meeting point of b and c (junction of the four branches)
    t_on_b, _ = closest_param(space, b, c.point_at(0))
    return ScissorsConfig(a, b, c, d, b.point_at(t_on_b))
