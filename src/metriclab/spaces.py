"""Closed-form model metric spaces.

Each space in the catalog carries exact or closed-form distance, geodesics
(segments, rays, straight lines), midpoints, and ideal boundary points:

* ``Euclidean(dim)``          - R^dim with the Euclidean norm
* ``MinkowskiLp(p)``          - the plane with the l_p norm, 1 < p < oo
* ``MinkowskiLinf()``         - the plane with the sup norm (negative tests only)
* ``HyperbolicPlane()``       - upper half-plane model of H^2
* ``MetricTree(desc)``        - finite metric tree, exact rational arithmetic,
                                optional infinite rays glued at designated vertices
* ``SphereIntrinsic(r, dim)`` - round sphere of radius r in R^dim, angular metric
* ``RealLine()``              - the real line
* ``MaxProduct(left, right)`` - product with the maximum metric (distance only)

Each model subclasses ``Space`` and owns its geometry behind that protocol;
the module-level functions (``distance``, ``geodesic_between``, ``ray_from``,
...) check membership and call the model. ``distance_rows`` checks a whole
point set once and then streams its pair distances on raw coordinates, for
the O(n^2) pair checks. Tree points and distances are exact ``Fraction``
values; every other model works in 64-bit floats.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

INF = math.inf

Number = Union[int, float, Fraction]


class SpaceError(ValueError):
    """Point/space mismatch or otherwise invalid geometric input."""


class DegenerateError(SpaceError):
    """A geodesic was requested between coincident points or equal ideal points."""


class AmbiguousError(SpaceError):
    """The requested geodesic is not unique (antipodal sphere points)."""


class PreconditionError(SpaceError):
    """A stated precondition of a construction does not hold."""


class ConvergenceError(RuntimeError):
    """An iterative limit did not stabilize within its truncation cap."""


# ---------------------------------------------------------------------------
# vector helpers (plain tuples, no external deps)

def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(a, s):
    return tuple(x * s for x in a)


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def enorm(a):
    return math.sqrt(sum(float(x) * float(x) for x in a))


def pnorm(a, p):
    return sum(abs(float(x)) ** p for x in a) ** (1.0 / p)


def supnorm(a):
    return max(abs(float(x)) for x in a)


def _as_fraction(t: Number) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so tree
    # arithmetic stays exact whatever the caller passes; NaN, an infinity
    # or a non-number is a SpaceError.
    if isinstance(t, Fraction):
        return t
    try:
        return Fraction(t)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise SpaceError(f"a tree parameter is a finite number, not {t!r}") from None


# ---------------------------------------------------------------------------
# tree description

@dataclass(frozen=True)
class TreeDesc:
    """Finite metric tree: vertex ids, weighted edges, a common denominator
    bound for edge lengths, and optional vertices carrying an infinite ray
    (the tree's ends, used for ideal points).

    The traversal that checks connectivity roots the tree at the first
    vertex and keeps what it visits: ``up`` maps each vertex to (parent,
    parent-edge index, depth, level), the root's parent and edge being
    None and the depth an integer over the denominator bound n (depth * n),
    and ``total_length`` is the sum of the edge lengths. Neither takes part
    in equality."""

    vertices: tuple
    edges: tuple            # (u, v, Fraction length)
    denominator_bound: int
    ends: tuple = ()
    up: dict = field(init=False, compare=False, repr=False)
    total_length: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise SpaceError("duplicate vertex ids")
        if len(self.edges) != len(self.vertices) - 1:
            raise SpaceError("edge count must be vertex count - 1 for a tree")
        n = self.denominator_bound
        if type(n) is not int or n < 1:
            raise SpaceError(f"denominator bound must be positive: an int >= 1, got {n!r}")
        adj = {v: [] for v in self.vertices}
        for i, (u, v, ln) in enumerate(self.edges):
            if u not in vs or v not in vs:
                raise SpaceError(f"edge endpoint not a vertex: {(u, v)}")
            if not isinstance(ln, Fraction) or ln <= 0:
                raise SpaceError(f"edge length must be a positive Fraction: {ln}")
            if n % ln.denominator != 0:
                raise SpaceError(f"edge length {ln} has denominator not dividing {n}")
            adj[u].append((v, i, ln))
            adj[v].append((u, i, ln))
        # connectivity: every vertex is reached (acyclicity follows from the
        # edge count), so the parent table is the tree's unique one
        root = self.vertices[0]
        up = {root: (None, None, 0, 0)}
        stack = [root]
        while stack:
            cur = stack.pop()
            _, _, depth, level = up[cur]
            for (w, i, ln) in adj[cur]:
                if w not in up:
                    up[w] = (cur, i, depth + ln.numerator * (n // ln.denominator), level + 1)
                    stack.append(w)
        if len(up) != len(vs):
            raise SpaceError("edge set is not connected")
        for e in self.ends:
            if e not in vs:
                raise SpaceError(f"end anchor {e} is not a vertex")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "total_length", sum(ln for (_, _, ln) in self.edges))

    @staticmethod
    def from_json(source) -> "TreeDesc":
        """Load from a JSON file path or an already-parsed dict.

        Schema: {"vertices": [...], "edges": [[u, v, "num/den"], ...],
        "denominator_bound": n} plus an optional "ends": [vertex, ...].
        """
        if isinstance(source, dict):
            data = source
        elif isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            raise SpaceError(f"not a tree description source: {source!r}")
        if not isinstance(data, dict):
            raise SpaceError("a tree description is a JSON object")
        edges = data.get("edges")
        if not (isinstance(edges, list)
                and all(isinstance(e, list) and len(e) == 3 for e in edges)):
            raise SpaceError("edges must be a list of [u, v, length] triples")
        _check_ids([x for e in edges for x in e[:2]], "edge endpoints")
        return TreeDesc(
            vertices=_check_ids(data.get("vertices"), "vertices"),
            edges=tuple((u, v, _edge_length(ln)) for (u, v, ln) in edges),
            denominator_bound=data.get("denominator_bound"),
            ends=_check_ids(data.get("ends", []), "ends"),
        )


def _edge_length(ln) -> Fraction:
    try:
        return Fraction(str(ln))
    except ZeroDivisionError:
        raise SpaceError(f"edge length {ln!r} has a zero denominator") from None


def _check_ids(ids, name) -> tuple:
    if not (isinstance(ids, list) and all(isinstance(v, (str, int)) for v in ids)):
        raise SpaceError(f"{name} must be a list of str or int vertex ids")
    return tuple(ids)


# ---------------------------------------------------------------------------
# the space protocol

class Space:
    """Base of every model space: the protocol behind the module functions.

    Every model implements, on raw coordinates:

    * ``validate(c)``             raise SpaceError unless c are point coordinates
    * ``distance(a, b)``          the metric (exact Fraction on trees)
    * ``random_point(rng, scale)`` a Point drawn from a seeded ``random.Random``
    * ``tag()``                   the label used in report names

    and overrides the defaults below where its geometry has them: ``coerce``
    (coordinates for ``point``), the unit-speed evaluators t -> Point
    ``segment(a, b, d)``, ``ray(base, xi)`` and ``line(eta, xi, through)``
    (ideal points passed by their reps), ``direction_ideal``,
    ``ideal_matches``, ``busemann_closed`` and ``rho_closed`` (the Busemann
    value and the asymptotic-ray pseudometric), ``closest_param`` (closed
    forms on ``Euclidean``, ``HyperbolicPlane`` and ``MetricTree``),
    ``rows(coords)`` (the pair distances of a list of coordinates, row i
    holding d(coords[i], coords[j]) for j > i, as ``distance`` gives them;
    the default calls ``distance`` per pair), ``grasshopper(a, b)`` (the
    fewest exact unit jumps, math.inf if none) and
    ``extreme_midpoint(a, b, selector)``. Every method is a closed form:
    what a model cannot do, by default or for its input (``rho_closed`` on
    rays that are not asymptotic), raises SpaceError; no method searches,
    and none returns None for it. ``exact`` is true where distances are
    exact Fractions.

    The float models override ``rows`` with a kernel for one dimension: the
    plane for ``Euclidean``, ``MinkowskiLp`` and ``MinkowskiLinf``, R^3 for
    ``SphereIntrinsic``, and ``HyperbolicPlane`` and ``RealLine``. A kernel
    computes each row in one comprehension over unpacked coordinates, with
    the float operations of ``distance`` in the same order, so its values
    are bit-identical to ``distance``'s; every other dimension keeps the
    default. Where a kernel spells out a sum of three terms, ``distance``
    spells it out too.

    A strictly convex plane that carries tapes also gives
    ``half_chord(u, beta)``: the alpha >= 0 with |alpha u + beta w| = 1 for
    a unit u, w = (-u[1], u[0]) and |beta| <= 1; it raises SpaceError where
    it has no closed form for u. Its unit circle in (alpha, beta) is symmetric under
    the swap, so ``half_chord(u, h)`` is also the height of half-chord h.
    Models without it build no tapes.
    """

    exact = False

    def coerce(self, coords):
        return tuple(float(x) for x in coords)

    def rows(self, coords):
        dist = self.distance
        return ([dist(a, b) for b in coords[i + 1:]] for i, a in enumerate(coords))

    def segment(self, a, b, d):
        raise SpaceError(f"geodesics are not supported for {self!r}")

    def ray(self, base, xi):
        raise SpaceError(f"rays are not supported for {self!r}")

    def line(self, eta, xi, through):
        raise SpaceError(f"lines are not supported for {self!r}")

    def direction_ideal(self, v):
        raise SpaceError(f"direction ideal points undefined for {self!r}")

    def ideal_matches(self, a, b):
        # a == b first: inf - inf is nan, and inf matches only itself
        return a == b or abs(a - b) <= 1e-9

    def busemann_closed(self, ray, y):
        raise SpaceError(f"no closed-form Busemann value for {self!r}")

    def rho_closed(self, c, d):
        raise SpaceError("rays are not asymptotic")

    def grasshopper(self, a, b):
        raise SpaceError(f"no analytic grasshopper formula for {self!r}")

    def extreme_midpoint(self, a, b, selector):
        raise SpaceError(f"midpoint selectors are not supported for {self!r}")

    def closest_param(self, geo, x):
        raise SpaceError(f"no closed-form closest point for {self!r}")


def _clip(geo, t) -> float:
    """t clipped to the domain of geo, as a float."""
    lo, hi = geo.domain()
    return float(min(max(t, lo), hi))


def _check_asymptotic(c, d):
    """SpaceError unless the rays c and d have a common ideal endpoint."""
    if c.plus is None or d.plus is None or not c.plus.matches(d.plus):
        raise SpaceError("rays are not asymptotic")


_REAL = (int, float, Fraction)
_REAL_TYPES = frozenset(_REAL)


def _int_or_float(x) -> bool:
    # a float model's parameter; a Fraction has no "g" format before Python 3.12
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _reals(c, dim) -> bool:
    """Is c a dim-tuple of real numbers? Exact types are one set test;
    subclasses such as bool take the isinstance pass."""
    return (isinstance(c, tuple) and len(c) == dim
            and (_REAL_TYPES.issuperset(map(type, c)) or all(isinstance(x, _REAL) for x in c)))


def _check_space(space) -> Space:
    if not isinstance(space, Space):
        raise SpaceError(f"unknown space {space!r}")
    return space


def _flat_line_anchor(space, through):
    if through is None:
        raise SpaceError("flat lines need an anchor point")
    _check_member(space, through)
    return through.coords


# ---------------------------------------------------------------------------
# normed spaces

class NormedSpace(Space):
    """R^dim with a norm: distance, geodesics and ideal points are affine.
    Subclasses give ``norm``, ``dim`` (a field on ``Euclidean``, the class
    constant 2 on the l_p and sup-norm planes) and ``distance``, which is
    ``norm(vsub(a, b))`` fused into one pass over the coordinates, with the
    same float operations in the same order. ``rho_closed`` is the planar
    form from the planes' ``dual_norm`` (the norm of a linear functional
    given by its coefficients); ``Euclidean`` overrides it with the
    orthogonal gap in every dimension."""

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise SpaceError(f"dimension must be positive: an int >= 1, got {self.dim!r}")

    def validate(self, c):
        if not _reals(c, self.dim):
            raise SpaceError(f"expected {self.dim}-tuple of reals, got {c!r}")

    def _along(self, x0, u):
        def at(t):
            return Point(self, vadd(x0, vscale(u, float(t))))
        return at

    def segment(self, a, b, d):
        return self._along(a, vscale(vsub(b, a), 1.0 / float(d)))

    def ray(self, base, u):
        return self._along(base, u)

    def line(self, eta, xi, through):
        if not all(abs(a + b) <= 1e-9 for a, b in zip(eta, xi)):
            raise SpaceError("flat lines require opposite ideal directions")
        return self._along(_flat_line_anchor(self, through), xi)

    def direction_ideal(self, v):
        n = self.norm(v)
        if n == 0:
            raise SpaceError("zero direction")
        return IdealPoint(self, tuple(float(x) / n for x in v))

    def ideal_matches(self, a, b):
        return all(abs(x - y) <= 1e-9 for x, y in zip(a, b))

    def rho_closed(self, c, d):
        # the rays are c(0) + s u and d(0) + t u, so rho is the distance
        # between the parallel lines, min over tau of |off + tau u|; in the
        # plane (Hahn-Banach) it is |omega(off)| / |omega|* for
        # omega = (-u2, u1), the functional that vanishes on u
        _check_asymptotic(c, d)
        off = vsub(c.point_at(0).coords, d.point_at(0).coords)
        u = c.plus.rep
        return abs(u[0] * off[1] - u[1] * off[0]) / self.dual_norm((-u[1], u[0]))

    def random_point(self, rng, scale):
        return point(self, tuple(rng.uniform(-scale, scale) for _ in range(self.dim)))


@dataclass(frozen=True)
class Euclidean(NormedSpace):
    dim: int

    def norm(self, v):
        return enorm(v)

    def distance(self, a, b):
        return math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))

    def rows(self, coords):
        if self.dim != 2:
            return super().rows(coords)
        sqrt = math.sqrt
        return ([sqrt(dx * dx + dy * dy)
                 for bx, by in coords[i + 1:] for dx, dy in ((ax - bx, ay - by),)]
                for i, (ax, ay) in enumerate(coords))

    def busemann_closed(self, ray, y):
        o = ray.point_at(0)
        u = vsub(ray.point_at(1).coords, o.coords)
        return -vdot(vsub(y.coords, o.coords), u)

    def rho_closed(self, c, d):
        # the gap between the parallel lines: the part of off orthogonal to u
        _check_asymptotic(c, d)
        off = vsub(c.point_at(0).coords, d.point_at(0).coords)
        u = c.plus.rep
        return enorm(vsub(off, vscale(u, vdot(off, u))))

    def closest_param(self, geo, x):
        # orthogonal projection onto the carrier, clipped to the domain
        o = geo.point_at(0).coords
        u = vsub(geo.point_at(1).coords, o)
        t = _clip(geo, vdot(vsub(x.coords, o), u) / vdot(u, u))
        return t, self.distance(geo.point_at(t).coords, x.coords)

    def grasshopper(self, a, b):
        # k >= 2 unit jumps reach the closed k-ball, one jump the unit sphere
        if self.dim < 2:
            raise SpaceError("analytic Euclidean formula needs dim >= 2; use the real line")
        d = self.distance(a, b)
        k = round(d)
        if abs(d - k) <= 1e-9:
            return int(k)
        return 2 if d < 1.0 else int(math.ceil(d))

    def half_chord(self, u, beta):
        # rotation invariance: every unit u sees the same circle
        return math.sqrt(1.0 - beta * beta)

    def tag(self):
        return f"euclidean-{self.dim}"


@dataclass(frozen=True)
class MinkowskiLp(NormedSpace):
    """The plane with the l_p norm; 1 < p < oo keeps the norm strictly convex."""

    p: float
    dim = 2

    def __post_init__(self):
        if not (_int_or_float(self.p) and 1 < self.p < INF):
            raise SpaceError(f"MinkowskiLp requires an int or float 1 < p < oo, got {self.p!r}")

    def norm(self, v):
        return pnorm(v, self.p)

    def dual_norm(self, v):
        return pnorm(v, self.p / (self.p - 1.0))

    def distance(self, a, b):
        return sum(abs(x - y) ** self.p for x, y in zip(a, b)) ** (1.0 / self.p)

    def rows(self, coords):
        p, q = self.p, 1.0 / self.p
        return ([(abs(ax - bx) ** p + abs(ay - by) ** p) ** q for bx, by in coords[i + 1:]]
                for i, (ax, ay) in enumerate(coords))

    def busemann_closed(self, ray, y):
        o = ray.point_at(0)
        u = vsub(ray.point_at(1).coords, o.coords)
        grad = tuple(math.copysign(abs(c) ** (self.p - 1.0), c) for c in u)
        return -vdot(vsub(y.coords, o.coords), grad)

    def half_chord(self, u, beta):
        # alpha u and beta w sit in separate coordinates only on an axis
        if 0.0 not in u:
            raise SpaceError(f"no closed unit chord in {self.tag()} along direction {u}")
        return (1.0 - abs(beta) ** self.p) ** (1.0 / self.p)

    def tag(self):
        return f"minkowski-l{self.p:g}"


@dataclass(frozen=True)
class MinkowskiLinf(NormedSpace):
    """Sup-norm plane. Not strictly convex; admitted only to produce
    convexity-violation witnesses and excluded from Busemann suites."""

    dim = 2

    def norm(self, v):
        return supnorm(v)

    def dual_norm(self, v):
        return sum(abs(float(x)) for x in v)

    def distance(self, a, b):
        return max(abs(x - y) for x, y in zip(a, b))

    def rows(self, coords):
        return ([max(abs(ax - bx), abs(ay - by)) for bx, by in coords[i + 1:]]
                for i, (ax, ay) in enumerate(coords))

    def busemann_closed(self, ray, y):
        # |y - o - t u|_oo - t: a coordinate with |u_i| < 1 falls behind by
        # (1 - |u_i|) t, so only those with |u_i| = 1 survive the limit
        o = ray.point_at(0).coords
        return max(-ui * (yi - oi) for ui, yi, oi in zip(ray.plus.rep, y.coords, o)
                   if abs(ui) == 1.0)

    def extreme_midpoint(self, a, b, selector):
        # a midpoint's coordinate j lies in [max(a_j, b_j) - d/2, min(a_j, b_j) + d/2]
        if selector not in ("upper extreme", "lower extreme"):
            raise SpaceError(f"unknown midpoint selector {selector!r}")
        dd = self.distance(a, b)
        if dd == 0:
            raise DegenerateError("midpoint of identical points")
        half = dd / 2.0
        if selector == "upper extreme":
            return Point(self, tuple(min(aj, bj) + half for aj, bj in zip(a, b)))
        return Point(self, tuple(max(aj, bj) - half for aj, bj in zip(a, b)))

    def tag(self):
        return "minkowski-linf"


# ---------------------------------------------------------------------------
# hyperbolic plane

def _hyp_circle_point(m, r, tau):
    # unit-speed parameterization of the semicircle |z - m| = r
    return (m + r * math.tanh(tau), r / math.cosh(tau))


def _hyp_carrier(a, b):
    """The geodesic of H^2 through a and b: None if it is vertical, else
    the centre m and radius r of its semicircle."""
    if abs(a[0] - b[0]) < 1e-14:
        return None
    m = (a[0] ** 2 + a[1] ** 2 - b[0] ** 2 - b[1] ** 2) / (2.0 * (a[0] - b[0]))
    return m, math.hypot(a[0] - m, a[1])


@dataclass(frozen=True)
class HyperbolicPlane(Space):
    """Upper half-plane model of H^2; ideal points are boundary reals or oo."""

    def validate(self, c):
        if not (_reals(c, 2) and c[1] > 0):
            raise SpaceError(f"upper half-plane point needs y > 0, got {c!r}")

    def distance(self, a, b):
        # stable form of arccosh(1 + |z-w|^2 / (2 Im z Im w))
        rho = math.hypot(a[0] - b[0], a[1] - b[1])
        return 2.0 * math.asinh(rho / (2.0 * math.sqrt(a[1] * b[1])))

    def rows(self, coords):
        hypot, asinh, sqrt = math.hypot, math.asinh, math.sqrt
        return ([2.0 * asinh(hypot(ax - bx, ay - by) / (2.0 * sqrt(ay * by)))
                 for bx, by in coords[i + 1:]]
                for i, (ax, ay) in enumerate(coords))

    def _evaluator(self, coords):
        def at(t):
            try:
                return Point(self, coords(float(t)))
            except OverflowError:   # exp or cosh far out: raise, never pin
                raise SpaceError(f"geodesic parameter {t} leaves double range") from None
        return at

    def _vertical(self, x0, y0, sgn):
        return self._evaluator(lambda t: (x0, y0 * math.exp(sgn * t)))

    def _arc(self, m, r, t0, sgn):
        return self._evaluator(lambda t: _hyp_circle_point(m, r, t0 + sgn * t))

    def segment(self, a, b, d):
        carrier = _hyp_carrier(a, b)
        if carrier is None:
            return self._vertical(a[0], a[1], 1.0 if b[1] > a[1] else -1.0)
        m, r = carrier
        t1 = math.atanh((a[0] - m) / r)
        t2 = math.atanh((b[0] - m) / r)
        return self._arc(m, r, t1, 1.0 if t2 > t1 else -1.0)

    def ray(self, base, u):
        bx, by = base
        if u == INF:
            return self._vertical(bx, by, 1.0)
        if abs(bx - u) < 1e-14:
            return self._vertical(u, by, -1.0)
        m = (bx * bx + by * by - u * u) / (2.0 * (bx - u))
        r = abs(u - m)
        return self._arc(m, r, math.atanh((bx - m) / r), 1.0 if u > m else -1.0)

    def line(self, eta, xi, through):
        if eta == INF:
            return self._vertical(xi, 1.0, -1.0)
        if xi == INF:
            return self._vertical(eta, 1.0, 1.0)
        return self._arc((eta + xi) / 2.0, abs(xi - eta) / 2.0, 0.0,
                         1.0 if xi > eta else -1.0)

    def busemann_closed(self, ray, y):
        o = ray.point_at(0)
        xi = ray.plus.rep
        if xi == INF:
            return math.log(o.coords[1]) - math.log(y.coords[1])

        def level(z):
            return math.log(((z[0] - xi) ** 2 + z[1] ** 2) / z[1])
        return level(y.coords) - level(o.coords)

    def rho_closed(self, c, d):
        # asymptotic rays come arbitrarily close (Bridson-Haefliger II.8)
        _check_asymptotic(c, d)
        return 0.0

    def closest_param(self, geo, x):
        # the foot of the perpendicular from z to a vertical line at a has
        # height |z - a|; a semicircle over [p, q] is first moved onto the
        # imaginary axis by the isometry T(z) = (z - p) / (q - z), which
        # keeps heights |T(z)| (Beardon 1983, ch. 7)
        o, one = geo.point_at(0).coords, geo.point_at(1).coords
        carrier = _hyp_carrier(o, one)
        if carrier is None:
            def height(z):
                return math.hypot(z[0] - o[0], z[1])
        else:
            m, r = carrier
            p, q = m - r, m + r

            def height(z):
                return math.hypot(z[0] - p, z[1]) / math.hypot(q - z[0], z[1])
        h0 = height(o)
        step = math.log(height(x.coords) / h0)
        t = _clip(geo, step if height(one) > h0 else -step)
        return t, self.distance(geo.point_at(t).coords, x.coords)

    def random_point(self, rng, scale):
        return point(self, (rng.uniform(-scale, scale), math.exp(rng.uniform(-1.5, 1.5))))

    def tag(self):
        return "hyperbolic-plane"


# ---------------------------------------------------------------------------
# sphere and real line

@dataclass(frozen=True)
class SphereIntrinsic(Space):
    radius: float
    dim: int  # ambient dimension; points are unit vectors in R^dim

    def __post_init__(self):
        if not (_int_or_float(self.radius) and 0 < self.radius < INF):
            raise SpaceError(f"radius must be a finite int or float > 0, got {self.radius!r}")
        if type(self.dim) is not int or self.dim < 2:
            raise SpaceError(f"ambient dimension must be an int >= 2, got {self.dim!r}")

    def validate(self, c):
        if not _reals(c, self.dim):
            raise SpaceError(f"expected direction in R^{self.dim}")
        if abs(enorm(c) - 1.0) > 1e-12:
            raise SpaceError(f"sphere direction must be unit within 1e-12: {c!r}")

    def distance(self, a, b):
        # r atan2(|a - (a.b) b|, a.b); in R^3 both sums are spelled out left
        # to right, as ``rows`` spells them (Python 3.12's float ``sum``
        # compensates, so it could round three terms differently)
        if self.dim == 3:
            (ax, ay, az), (bx, by, bz) = a, b
            c = ax * bx + ay * by + az * bz
            rx, ry, rz = ax - bx * c, ay - by * c, az - bz * c
            return self.radius * math.atan2(math.sqrt(rx * rx + ry * ry + rz * rz), c)
        c = vdot(a, b)
        s = math.sqrt(sum((x - y * c) * (x - y * c) for x, y in zip(a, b)))
        return self.radius * math.atan2(s, c)

    def rows(self, coords):
        if self.dim != 3:
            return super().rows(coords)
        r, sqrt, atan2 = self.radius, math.sqrt, math.atan2
        return ([r * atan2(sqrt(rx * rx + ry * ry + rz * rz), c)
                 for bx, by, bz in coords[i + 1:]
                 for c in (ax * bx + ay * by + az * bz,)
                 for rx, ry, rz in ((ax - bx * c, ay - by * c, az - bz * c),)]
                for i, (ax, ay, az) in enumerate(coords))

    def segment(self, a, b, d):
        r = self.radius
        if abs(float(d) / r - math.pi) <= 1e-12:
            raise AmbiguousError("antipodal sphere points: minimizer not unique")
        w = vsub(b, vscale(a, vdot(a, b)))
        w = vscale(w, 1.0 / enorm(w))

        def at(t):
            ang = float(t) / r
            return Point(self, vadd(vscale(a, math.cos(ang)), vscale(w, math.sin(ang))))
        return at

    def random_point(self, rng, scale):
        v = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        while all(abs(x) < 1e-9 for x in v):
            v = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        return sphere_point(self, v)

    def tag(self):
        return f"sphere-r{self.radius:g}-d{self.dim}"


@dataclass(frozen=True)
class RealLine(Space):
    """The real line; ideal points are +-1.0."""

    def validate(self, c):
        if not isinstance(c, _REAL):
            raise SpaceError(f"real-line point is a single real number, got {c!r}")

    def coerce(self, coords):
        return float(coords)

    def distance(self, a, b):
        return abs(a - b)

    def rows(self, coords):
        return ([abs(a - b) for b in coords[i + 1:]] for i, a in enumerate(coords))

    def _along(self, x0, sgn):
        def at(t):
            return Point(self, x0 + sgn * float(t))
        return at

    def segment(self, a, b, d):
        return self._along(a, 1.0 if b > a else -1.0)

    def ray(self, base, sgn):
        return self._along(base, sgn)

    def line(self, eta, xi, through):
        if eta != -xi:
            raise SpaceError("flat lines require opposite ideal directions")
        return self._along(_flat_line_anchor(self, through), xi)

    def direction_ideal(self, v):
        s = float(v)
        if s == 0:
            raise SpaceError("zero direction")
        return IdealPoint(self, 1.0 if s > 0 else -1.0)

    def busemann_closed(self, ray, y):
        o = ray.point_at(0)
        sgn = 1.0 if ray.point_at(1).coords > o.coords else -1.0
        return -sgn * (y.coords - o.coords)

    def rho_closed(self, c, d):
        # rays in the same direction eventually overlap
        _check_asymptotic(c, d)
        return 0.0

    def grasshopper(self, a, b):
        # the unit jumps from a reach exactly a + Z
        diff = abs(a - b)
        k = round(diff)
        return int(k) if abs(diff - k) <= 1e-9 else INF

    def random_point(self, rng, scale):
        return point(self, rng.uniform(-scale, scale))

    def tag(self):
        return "real-line"


# ---------------------------------------------------------------------------
# metric trees

# at most this many distinct lengths are kept per MetricTree.rows call
_ROW_MEMO = 1024


@dataclass(frozen=True)
class MetricTree(Space):
    """Finite metric tree in exact rational arithmetic. Coordinates are
    canonical tagged tuples: ('v', vertex), ('e', edge_index, offset) with
    0 < offset < length, or ('r', end, offset) with offset > 0 on the
    infinite ray at an end. Ideal points are the ends' anchor vertices.

    Queries run on the parent table ``desc.up`` of the ``TreeDesc``, whose
    depths are integers over the denominator bound n. A point is anchored
    at a vertex with an integer depth over lcm(n, its offset's denominator);
    a distance climbs two anchors, over their common denominator L, to their
    common ancestor, and a geodesic point climbs from an endpoint over
    lcm(L, the parameter's denominator). All of it is integer arithmetic,
    with one ``Fraction`` per returned distance or offset."""

    desc: TreeDesc

    exact = True

    def _anchor(self, c):
        """A point as (v, p, q): its depth p/q, q = lcm(n, the offset's
        denominator), and the vertex v it sits at, on v's parent edge above
        v, or on v's end ray below v."""
        up, n = self.desc.up, self.desc.denominator_bound
        if c[0] == "v":
            return c[1], up[c[1]][2], n
        kind, i, off = c
        q = math.lcm(n, off.denominator)
        o = off.numerator * (q // off.denominator)
        if kind == "r":
            return i, up[i][2] * (q // n) + o, q
        u, v, _ = self.desc.edges[i]
        du = up[u][2] * (q // n)
        if up[v][1] == i:
            return v, du + o, q
        return u, du - o, q

    def _pair(self, a, b):
        """The common denominator L of the anchors of a and b, and both
        anchors as (v, depth) with integer depths over L."""
        va, pa, qa = self._anchor(a)
        vb, pb, qb = self._anchor(b)
        L = math.lcm(qa, qb)
        return L, (va, pa * (L // qa)), (vb, pb * (L // qb))

    def _coords(self, v, d, M):
        """Canonical coordinates of the point at integer depth d over M (a
        multiple of n) on the way up from v, or on v's end ray below v."""
        up, k = self.desc.up, M // self.desc.denominator_bound
        parent, i, depth, _ = up[v]
        # climb while the parent is at least as high as d
        while depth * k > d and up[parent][2] * k >= d:
            v = parent
            parent, i, depth, _ = up[v]
        depth *= k
        if d == depth:
            return ("v", v)
        if d > depth:
            return ("r", v, Fraction(d - depth, M))
        u = self.desc.edges[i][0]
        return ("e", i, Fraction(depth - d if u == v else d - up[parent][2] * k, M))

    def _top(self, va, da, vb, db, L):
        """Depth over L of the highest point of [a, b], for the anchors
        (va, da) and (vb, db) with integer depths over L."""
        if va == vb:
            return min(da, db)
        up = self.desc.up
        # climb to the common ancestor by level
        u, v = va, vb
        lu, lv = up[u][3], up[v][3]
        while lu > lv:
            u, lu = up[u][0], lu - 1
        while lv > lu:
            v, lv = up[v][0], lv - 1
        while u != v:
            u, v = up[u][0], up[v][0]
        top = up[u][2] * (L // self.desc.denominator_bound)
        # the endpoint anchored at the common ancestor may sit above it
        if u == va:
            return min(top, da)
        if u == vb:
            return min(top, db)
        return top

    def _geodesic(self, a, b, *, minus_end=None, plus_end=None):
        """Evaluator over [a, b], extended along end rays if asked. The point
        at t lies t above a up to the highest point of [a, b], and D - t
        above b beyond it; D and that rise are integers over L."""
        L, (va, da), (vb, db) = self._pair(a, b)
        top = self._top(va, da, vb, db, L)
        D, rise = da + db - 2 * top, da - top

        def at(t):
            tf = _as_fraction(t)
            num, den = tf.numerator, tf.denominator
            tL = num * L            # t * den over L, like D and rise
            if num < 0:
                if minus_end is None:
                    raise SpaceError(f"parameter {t} below domain")
                return Point(self, ("r", minus_end, -tf))
            if tL > D * den:
                if plus_end is None:
                    raise SpaceError(f"parameter {t} beyond domain")
                return Point(self, ("r", plus_end, Fraction(tL - D * den, den * L)))
            M = math.lcm(L, den)
            s, m = num * (M // den), M // L
            if tL <= rise * den:
                return Point(self, self._coords(va, da * m - s, M))
            return Point(self, self._coords(vb, (db - D) * m + s, M))
        return at

    def validate(self, c):
        desc = self.desc
        if not (isinstance(c, tuple) and c and c[0] in ("v", "e", "r")
                and len(c) == (2 if c[0] == "v" else 3)):
            raise SpaceError(f"bad tree coords {c!r}")
        if c[0] == "v":
            try:
                known = c[1] in self.desc.up
            except TypeError:       # an unhashable id, such as a JSON list
                known = False
            if not known:
                raise SpaceError(f"unknown vertex {c[1]!r}")
        elif c[0] == "e":
            _, idx, off = c
            ln = self._edge(idx)[2]
            if not isinstance(off, Fraction) or not (0 < off < ln):
                raise SpaceError(f"edge offset must be a Fraction in (0, {ln}): {off!r}")
        else:
            _, end, off = c
            if end not in desc.ends:
                raise SpaceError(f"{end!r} is not a declared end")
            if not isinstance(off, Fraction) or off <= 0:
                raise SpaceError(f"ray offset must be a positive Fraction: {off!r}")

    def _edge(self, idx):
        """Edge (u, v, length) number idx; SpaceError unless idx is an in-range int."""
        edges = self.desc.edges
        if not (type(idx) is int and 0 <= idx < len(edges)):
            raise SpaceError(f"edge index {idx!r} out of range")
        return edges[idx]

    def coerce(self, coords):
        return coords

    def distance(self, a, b) -> Fraction:
        L, (va, da), (vb, db) = self._pair(a, b)
        return Fraction(da + db - 2 * self._top(va, da, vb, db, L), L)

    def rows(self, coords):
        # each point is anchored once over one common L; a pair is then one
        # integer climb, and equal lengths share one Fraction (a memo of at
        # most _ROW_MEMO lengths: on the benchmark pools 77-98% of the pairs
        # hit it)
        anchors = [self._anchor(c) for c in coords]
        L = math.lcm(*(q for _, _, q in anchors))
        anchors = [(v, p * (L // q)) for v, p, q in anchors]
        top = self._top
        memo = {}
        for i, (va, da) in enumerate(anchors):
            row = []
            for vb, db in anchors[i + 1:]:
                D = da + db - 2 * top(va, da, vb, db, L)
                d = memo.get(D)
                if d is None:
                    d = Fraction(D, L)
                    if len(memo) < _ROW_MEMO:
                        memo[D] = d
                row.append(d)
            yield row

    def _jump_setup(self, a, b):
        """L, the anchors of a and b with integer depths over L, the residue
        pair {o, -o} mod s = L/n of each (o its offset from its anchor
        vertex, so every vertex distance is +-o mod s), and the ray cap over
        L. A point more than 1 out on a ray has its only unit neighbours 1
        further in and 1 further out on the same ray, so a shortest chain
        moves monotonically there and never goes further out than a or b:
        max(their ray offsets, 1) bounds every useful ray node."""
        up = self.desc.up
        L, *anchors = self._pair(a, b)
        s = L // self.desc.denominator_bound
        res, cap = [], L
        for v, d in anchors:
            o = d - up[v][2] * s
            res.append({o % s, -o % s})
            cap = max(cap, o)
        return L, anchors, res, cap

    def _class_anchors(self, L, res, cap):
        """Anchors, depths over L, of the points whose vertex distances are
        congruent mod s = L/n to a residue in ``res``: the vertices (residue
        0), then each edge's offsets in increasing order, then each end
        ray's offsets up to ``cap``."""
        desc, up = self.desc, self.desc.up
        s = L // desc.denominator_bound

        def offsets(stop):
            return sorted({o for r in res for o in range(r or s, stop, s)})
        nodes = [(v, up[v][2] * s) for v in desc.vertices] if 0 in res else []
        for i, (u, v, ln) in enumerate(desc.edges):
            du, stop = up[u][2] * s, ln.numerator * (L // ln.denominator)
            # anchored at the lower endpoint, as in _anchor
            if up[v][1] == i:
                nodes += [(v, du + o) for o in offsets(stop)]
            else:
                nodes += [(u, du - o) for o in offsets(stop)]
        for e in desc.ends:
            de = up[e][2] * s
            nodes += [(e, de + o) for o in offsets(cap + 1)]
        return nodes

    def offset_class(self, a, b):
        """Coordinates of the finite closed node set of the unit-jump graph
        through a and b: both offset classes, end rays cut at the cap."""
        L, _, (ra, rb), cap = self._jump_setup(a, b)
        return [self._coords(v, d, L) for v, d in self._class_anchors(L, ra | rb, cap)]

    def grasshopper(self, a, b):
        """Minimal number of exact unit jumps from a to b, math.inf if none:
        a breadth-first search over the anchors of a's offset class, where
        two anchors are adjacent iff their integer distance over L is L."""
        if a == b:
            return 0
        L, (pa, pb), (ra, rb), cap = self._jump_setup(a, b)
        if ra != rb:            # a unit jump keeps the residue pair
            return INF
        top = self._top
        frontier = [pa]
        rest = [n for n in self._class_anchors(L, ra, cap) if n != pa]
        jumps = 0
        while frontier:
            jumps += 1
            reached, left = [], []
            for vb, db in rest:
                if any(da + db - 2 * top(va, da, vb, db, L) == L for va, da in frontier):
                    if (vb, db) == pb:
                        return jumps
                    reached.append((vb, db))
                else:
                    left.append((vb, db))
            frontier, rest = reached, left
        return INF

    def segment(self, a, b, d):
        return self._geodesic(a, b)

    def ray(self, c, end):
        if c[0] == "r" and c[1] == end:
            off = c[2]

            def at(t):
                tf = _as_fraction(t)
                if tf < 0:
                    raise SpaceError(f"parameter {t} below domain")
                return Point(self, ("r", end, off + tf))
            return at
        return self._geodesic(c, ("v", end), plus_end=end)

    def line(self, end_m, end_p, through):
        return self._geodesic(("v", end_m), ("v", end_p), minus_end=end_m, plus_end=end_p)

    def ideal_matches(self, a, b):
        return a == b

    def busemann_closed(self, ray, y):
        # h(y) - h(ray(0)), where h is the distance to the end's vertex, and
        # minus the offset on the end's own ray
        end = ray.plus.rep

        def h(c):
            if c[0] == "r" and c[1] == end:
                return -c[2]
            return self.distance(c, ("v", end))
        return h(y.coords) - h(ray.point_at(0).coords)

    def rho_closed(self, c, d):
        # exact: merging rays give 0; otherwise (rays toward different ends)
        # the bridge length between the ray images: project d(0) onto c,
        # then that projection onto d
        if c.plus is None or d.plus is None:
            raise SpaceError("tree rays need ideal endpoints")
        if c.plus.rep == d.plus.rep:
            return Fraction(0)
        t, _ = self.closest_param(c, d.point_at(0))
        return self.closest_param(d, c.point_at(t))[1]

    def closest_param(self, geo, x):
        # exact Gromov-product projection
        lo, hi = geo.domain()
        big = self.desc.total_length + self.distance(geo.point_at(0).coords, x.coords) + 1
        lo = _as_fraction(lo) if lo != -INF else -big
        hi = _as_fraction(hi) if hi != INF else big
        p, q = geo.point_at(lo), geo.point_at(hi)
        dxp = self.distance(x.coords, p.coords)
        dxq = self.distance(x.coords, q.coords)
        dpq = self.distance(p.coords, q.coords)
        resid = (dxp + dxq - dpq) / 2
        return lo + (dxp - resid), resid

    def random_point(self, rng, scale):
        desc = self.desc
        denom = 16
        choices = len(desc.edges) + len(desc.ends)
        k = rng.randrange(choices + 1)
        if k == choices:
            return tree_vertex(self, rng.choice(desc.vertices))
        if k < len(desc.edges):
            ln = desc.edges[k][2]
            num = rng.randrange(0, denom + 1)
            return tree_edge_point(self, k, ln * Fraction(num, denom))
        end = desc.ends[k - len(desc.edges)]
        return tree_ray_point(self, end, Fraction(rng.randrange(0, 3 * denom), denom))

    def tag(self):
        return f"tree-n{self.desc.denominator_bound}"


# ---------------------------------------------------------------------------
# maximum products

@dataclass(frozen=True)
class MaxProduct(Space):
    """Product with the maximum metric (distance only); points are pairs of
    component coordinates."""

    left: object
    right: object

    @property
    def exact(self):
        return self.left.exact and self.right.exact

    def __post_init__(self):
        def depth(s):
            if isinstance(s, MaxProduct):
                return 1 + max(depth(s.left), depth(s.right))
            return 0
        if depth(self) > 2:
            raise SpaceError("MaxProduct nesting depth exceeds 2")

    def validate(self, c):
        if not (isinstance(c, tuple) and len(c) == 2):
            raise SpaceError("max-product point is a pair of component coords")
        _check_space(self.left).validate(c[0])
        _check_space(self.right).validate(c[1])

    def coerce(self, coords):
        return coords

    # max compares a Fraction with a float exactly and returns the larger as is
    def distance(self, a, b):
        return max(self.left.distance(a[0], b[0]), self.right.distance(a[1], b[1]))

    def rows(self, coords):
        pairs = zip(self.left.rows([c[0] for c in coords]),
                    self.right.rows([c[1] for c in coords]))
        return (list(map(max, rl, rr)) for rl, rr in pairs)

    def random_point(self, rng, scale):
        l = self.left.random_point(rng, scale)
        r = self.right.random_point(rng, scale)
        return Point(self, (l.coords, r.coords))

    def tag(self):
        return f"maxprod({self.left.tag()},{self.right.tag()})"


# ---------------------------------------------------------------------------
# points

@dataclass(frozen=True)
class Point:
    """Space-tagged coordinates, validated by the space on construction."""

    space: object
    coords: object

    def __post_init__(self):
        _check_space(self.space).validate(self.coords)


def point(space, coords) -> Point:
    """Convenience constructor; flat/sphere coords given as any iterable."""
    return Point(space, _check_space(space).coerce(coords))


def _of_model(space, model):
    """space itself, if it is a `model`; SpaceError otherwise."""
    if not isinstance(space, model):
        raise SpaceError(f"expected a {model.__name__} space, got {space!r}")
    return space


def tree_vertex(space: MetricTree, vid) -> Point:
    return Point(space, ("v", vid))


def tree_edge_point(space: MetricTree, edge_index: int, offset: Number) -> Point:
    """Point on an edge at `offset` from the edge's first vertex; snaps the
    endpoints to vertices so coordinates stay canonical."""
    off = _as_fraction(offset)
    u, v, ln = _of_model(space, MetricTree)._edge(edge_index)
    if off == 0:
        return tree_vertex(space, u)
    if off == ln:
        return tree_vertex(space, v)
    return Point(space, ("e", edge_index, off))


def tree_ray_point(space: MetricTree, end, offset: Number) -> Point:
    if end not in _of_model(space, MetricTree).desc.ends:
        raise SpaceError(f"{end!r} is not a declared end")
    off = _as_fraction(offset)
    if off == 0:
        return tree_vertex(space, end)
    return Point(space, ("r", end, off))


def sphere_point(space: SphereIntrinsic, direction) -> Point:
    _of_model(space, SphereIntrinsic)
    n = enorm(direction)
    if n == 0:
        raise SpaceError("zero direction")
    return Point(space, tuple(float(x) / n for x in direction))


# ---------------------------------------------------------------------------
# ideal points

@dataclass(frozen=True)
class IdealPoint:
    """Canonical representation of a point of the geodesic ideal boundary.

    flat models: unit direction tuple (unit in the space's own norm);
    hyperbolic plane: boundary real or math.inf; real line: +-1.0;
    metric tree: the end's anchor-vertex id.
    """

    space: object
    rep: object

    def matches(self, other: "IdealPoint") -> bool:
        if not _same_space(self.space, other.space):
            return False
        return self.space.ideal_matches(self.rep, other.rep)


def direction_ideal(space, v) -> IdealPoint:
    """Ideal point of a flat model (or the real line) from a direction vector."""
    return _check_space(space).direction_ideal(v)


def boundary_ideal(space: HyperbolicPlane, x) -> IdealPoint:
    """Ideal point of H^2: a boundary real or math.inf."""
    x = float(x)
    if math.isnan(x) or x == -INF:
        raise SpaceError(f"an H^2 ideal point is a boundary real or +inf, not {x!r}")
    return IdealPoint(_of_model(space, HyperbolicPlane), x)


def tree_end(space: MetricTree, end) -> IdealPoint:
    if end not in _of_model(space, MetricTree).desc.ends:
        raise SpaceError(f"{end!r} is not a declared end")
    return IdealPoint(space, end)


# ---------------------------------------------------------------------------
# geodesics

@dataclass(frozen=True)
class GeodesicRef:
    """Unit-speed geodesic with a model-specific closed-form evaluator.

    ``kind`` is "segment", "ray", or "line"; the domain is [0, length],
    [0, oo), or all of R. ``minus``/``plus`` are the ideal endpoints of the
    unbounded ends, when defined. ``reversed()`` runs a line backwards.
    """

    space: object
    kind: str
    point_at: Callable[[Number], Point]
    length: Optional[Number] = None   # segments only
    minus: Optional[IdealPoint] = None
    plus: Optional[IdealPoint] = None

    def domain(self):
        if self.kind == "segment":
            return (0, self.length)
        if self.kind == "ray":
            return (0, INF)
        return (-INF, INF)

    def reversed(self) -> "GeodesicRef":
        """The same line run backwards: t -> c(-t), with the ends swapped."""
        if self.kind != "line":
            raise SpaceError(f"only a line can be reversed, not a {self.kind}")
        base = self.point_at

        def at(t):
            return base(-t)
        return GeodesicRef(self.space, "line", at, minus=self.plus, plus=self.minus)


def _same_space(a, b) -> bool:
    # identity first: dataclass equality compares every field
    return a is b or a == b


def _check_member(space, *pts):
    for p in pts:
        if not isinstance(p, Point) or not _same_space(p.space, space):
            raise SpaceError(f"point {p!r} does not belong to {space!r}")


def distance(space, x: Point, y: Point):
    """Distance in the model space; exact Fraction on trees, float elsewhere."""
    _check_member(space, x, y)
    return space.distance(x.coords, y.coords)


def distance_rows(space, points):
    """The pair distances of `points`, row by row: row i lists
    d(points[i], points[j]) for j > i, in order.

    Membership is checked once, here, for every point; the space's ``rows``
    then computes them on raw coordinates as they are consumed, so the
    n x n table never exists."""
    _check_member(space, *points)
    return space.rows([p.coords for p in points])


def geodesic_between(space, x: Point, y: Point) -> GeodesicRef:
    """Unit-speed minimizer with c(0) = x and c(d) = y."""
    _check_member(space, x, y)
    d = distance(space, x, y)
    if d == 0:
        raise DegenerateError("geodesic between identical points")
    return GeodesicRef(space, "segment", space.segment(x.coords, y.coords, d), length=d)


def ray_from(space, base: Point, xi: IdealPoint) -> GeodesicRef:
    """Unit-speed ray with c(0) = base and ideal endpoint xi."""
    _check_member(space, base)
    if not _same_space(xi.space, space):
        raise SpaceError("ideal point belongs to a different space")
    return GeodesicRef(space, "ray", space.ray(base.coords, xi.rep), plus=xi)


def line_through(space, eta: IdealPoint, xi: IdealPoint, through: Point = None) -> GeodesicRef:
    """Unit-speed straight line with c(-oo) = eta, c(+oo) = xi.

    Flat models and the real line need an anchor point `through` = c(0)
    because the ideal pair only determines a parallel family there.
    """
    if not (_same_space(eta.space, space) and _same_space(xi.space, space)):
        raise SpaceError("ideal point belongs to a different space")
    if eta.matches(xi):
        raise DegenerateError("line requires distinct ideal endpoints")
    return GeodesicRef(space, "line", space.line(eta.rep, xi.rep, through),
                       minus=eta, plus=xi)


# ---------------------------------------------------------------------------
# midpoints

def midpoint(space, x: Point, y: Point, selector: str = None) -> Point:
    """Point m with d(x,m) = d(m,y) = d(x,y)/2.

    Unique in every strictly convex catalog model, where the selector must
    be None; on MinkowskiLinf "upper extreme" and "lower extreme" pick a
    corner of the midpoint box (``MinkowskiLinf.extreme_midpoint``).
    """
    _check_member(space, x, y)
    if selector is not None:
        return space.extreme_midpoint(x.coords, y.coords, selector)
    geo = geodesic_between(space, x, y)
    return geo.point_at(geo.length / 2)


# ---------------------------------------------------------------------------
# parameters of points along geodesics

def closest_param(space, geo: GeodesicRef, x: Point):
    """Parameter minimizing t -> d(geo(t), x) plus the attained distance.

    Closed forms on Euclidean space (orthogonal projection), H^2 (the foot
    of the perpendicular, after a Moebius map onto the imaginary axis) and
    trees (exact Gromov-product projection); every other model raises
    SpaceError. The geodesic must belong to `space`.
    """
    _check_member(space, x)
    if not _same_space(geo.space, space):
        raise SpaceError("geodesic belongs to a different space")
    return space.closest_param(geo, x)


def on_geodesic(space, geo: GeodesicRef, x: Point, tol: float = 1e-9):
    """(bool, parameter, residual) for membership of x on geo."""
    t, resid = closest_param(space, geo, x)
    return (float(resid) <= tol, t, resid)
