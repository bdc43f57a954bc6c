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
import operator
import os
import sys
from bisect import bisect_left
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
    return tuple(map(operator.add, a, b))


def vsub(a, b):
    return tuple(map(operator.sub, a, b))


def vscale(a, s):
    return tuple([x * s for x in a])


def vdot(a, b):
    return sum(map(operator.mul, a, b))


def pnorm(a, p):
    return sum(abs(float(x)) ** p for x in a) ** (1.0 / p)


def supnorm(a):
    return max(abs(float(x)) for x in a)


def _shown(v) -> str:
    """repr(v) for an error message; where repr refuses (an int past
    Python's limit on digits in a str) a short description such as
    "int of 5001 digits", with tuples and Fractions shown part by part."""
    try:
        return repr(v)
    except ValueError:
        pass
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_shown, v)) + ")"
    if isinstance(v, Fraction):
        return f"Fraction({_shown(v.numerator)}, {_shown(v.denominator)})"
    if isinstance(v, int):
        digits = int(math.log10(abs(v)))    # log10 may round up or down by one
        while abs(v) >= 10 ** digits:
            digits += 1
        return f"int of {digits} digits"
    return f"a {type(v).__name__} value"


def _as_fraction(t: Number) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so tree
    # arithmetic stays exact whatever the caller passes; NaN, an infinity
    # or a non-number is a SpaceError.
    if isinstance(t, Fraction):
        return t
    try:
        return Fraction(t)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise SpaceError(f"a tree parameter is a finite number, not {_shown(t)}") from None


# ---------------------------------------------------------------------------
# tree description

@dataclass(frozen=True)
class TreeDesc:
    """Finite metric tree: vertex ids, weighted edges, a common denominator
    bound for edge lengths, and optional vertices carrying an infinite ray
    (the tree's ends, used for ideal points).

    The traversal that checks connectivity roots the tree at the first
    vertex, and a second O(V) pass cuts it into heavy paths (Sleator and
    Tarjan): a vertex's heavy child is its child with the largest subtree,
    and a heavy path runs from its head down through heavy children.
    ``order`` lists the vertices path by path, each path a contiguous slice
    from its head down, and ``depths`` their depths in that order. ``up``
    maps each vertex to (parent, parent-edge index, depth, head, position,
    lift): the root's parent and edge are None; the depth is an integer over
    the denominator bound n (depth * n); the position is the vertex's index
    in ``order``, the head its path head's index, and the lift the head's
    parent (None on the root's path). A root path crosses at most log2(V)
    light edges, so the way up from any vertex visits at most log2(V) + 1
    heavy paths. None of the three tables takes part in equality."""

    vertices: tuple
    edges: tuple            # (u, v, Fraction length)
    denominator_bound: int
    ends: tuple = ()
    up: dict = field(init=False, compare=False, repr=False)
    order: tuple = field(init=False, compare=False, repr=False)
    depths: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise SpaceError("duplicate vertex ids")
        if len(self.edges) != len(self.vertices) - 1:
            raise SpaceError("edge count must be vertex count - 1 for a tree")
        n = self.denominator_bound
        if type(n) is not int or n < 1:
            raise SpaceError(f"denominator bound must be positive: an int >= 1, got {_shown(n)}")
        adj = {v: [] for v in self.vertices}
        for i, (u, v, ln) in enumerate(self.edges):
            if u not in vs or v not in vs:
                raise SpaceError(f"edge endpoint not a vertex: {_shown((u, v))}")
            if not isinstance(ln, Fraction) or ln <= 0:
                raise SpaceError(f"edge length must be a positive Fraction: {_shown(ln)}")
            if n % ln.denominator != 0:
                raise SpaceError(f"edge length {_shown(ln)} has denominator not dividing {_shown(n)}")
            adj[u].append((v, i, ln))
            adj[v].append((u, i, ln))
        # connectivity: every vertex is reached (acyclicity follows from the
        # edge count), so the parent table is the tree's unique one
        root = self.vertices[0]
        parent, kids = {root: (None, None, 0)}, {}
        seen = []               # parents before their children
        stack = [root]
        while stack:
            cur = stack.pop()
            seen.append(cur)
            depth = parent[cur][2]
            kids[cur] = ks = []
            for (w, i, ln) in adj[cur]:
                if w not in parent:
                    parent[w] = (cur, i, depth + ln.numerator * (n // ln.denominator))
                    ks.append(w)
            stack += ks
        if len(seen) != len(vs):
            raise SpaceError("edge set is not connected")
        for e in self.ends:
            if e not in vs:
                raise SpaceError(f"end anchor {_shown(e)} is not a vertex")
        if len(set(self.ends)) != len(self.ends):
            raise SpaceError("duplicate end ids")
        # subtree sizes and heavy children, children first
        size, heavy = {}, {}
        for v in reversed(seen):
            total, most, h = 1, 0, None
            for w in kids[v]:
                sw = size[w]
                total += sw
                if sw > most:
                    most, h = sw, w
            size[v], heavy[v] = total, h
        # the heavy paths one after another, each from its head down
        up, order, heads = {}, [], [root]
        while heads:
            v, head = heads.pop(), len(order)
            lift = parent[v][0]
            while v is not None:
                up[v] = (*parent[v], head, len(order), lift)
                order.append(v)
                h = heavy[v]
                for w in kids[v]:
                    if w != h:
                        heads.append(w)
                v = h
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "depths", tuple(up[v][2] for v in order))

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
            raise SpaceError(f"not a tree description source: {_shown(source)}")
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
        raise SpaceError(f"edge length {_shown(ln)} has a zero denominator") from None


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
    * ``row(a, bs)``              the list of d(a, b) for each b in bs
    * ``random_point(rng, scale)`` a Point drawn from a seeded ``random.Random``
    * ``tag()``                   the label used in report names

    ``row`` is every model's one metric hook. The base class derives from
    it ``distance(a, b)``, which is ``row(a, (b,))[0]``, and
    ``rows(coords)``, the pair distances of a list of coordinates, row i
    holding d(coords[i], coords[j]) for j > i; both are ``row``'s values,
    and ``row`` decides each pair on its own (the l_p plane and H^2 recompute
    only the pairs whose plain value leaves its range), so they agree bit for
    bit. No model overrides ``distance``. Only
    ``MetricTree`` and ``MaxProduct`` override ``rows``, where a whole
    table shares work across its pairs and measures faster than one
    ``row`` per point (150 points, Python 3.11): the tree anchors every
    point once over one common denominator, 9 ms against 38 (its distances
    are exact Fractions), and the product zips its factors' rows, 7.1 ms
    against 7.6 on E^2 x R.

    A model overrides the defaults below where its geometry has them:
    ``coerce`` (coordinates for ``point``), the unit-speed evaluators
    ``segment(a, b, d)``, ``ray(base, xi)`` and ``line(eta, xi, through)``
    (ideal points passed by their reps), which return coordinates
    (``GeodesicRef.point_at`` builds the ``Point``), ``direction_ideal``,
    ``ideal_matches``, ``busemann_closed`` and ``rho_closed`` (the Busemann
    value, which reads a ray only at ``ray.at(0)`` and ``ray.plus.rep``,
    and the asymptotic-ray pseudometric), ``closest_param`` (closed
    forms on ``Euclidean``, ``HyperbolicPlane`` and ``MetricTree``),
    ``grasshopper(a, b)`` (the fewest exact unit jumps, math.inf if none)
    and ``extreme_midpoint(a, b, selector)``. Every method is a closed form:
    what a model cannot do, by default or for its input (``rho_closed`` on
    rays that are not asymptotic), raises SpaceError; no method searches,
    and none returns None for it. ``exact`` is true where distances are
    exact Fractions. Exact values are compared and converted on their
    integer numerator and denominator, since each Fraction operator runs
    Python code, and a Fraction is built only for a returned value or a
    kept witness.

    Each input rule has one home: ``_finite`` tests a number, ``_check_tol`` a
    tolerance, ``_check_member`` a point's space, ``MetricTree._end`` a tree
    end, and a message spells the caller's value with ``_shown``.

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

    def distance(self, a, b):
        return self.row(a, (b,))[0]

    def rows(self, coords):
        row = self.row
        return (row(a, coords[i + 1:]) for i, a in enumerate(coords))

    def segment(self, a, b, d):
        raise SpaceError(f"geodesics are not supported for {_shown(self)}")

    def ray(self, base, xi):
        raise SpaceError(f"rays are not supported for {_shown(self)}")

    def line(self, eta, xi, through):
        raise SpaceError(f"lines are not supported for {_shown(self)}")

    def direction_ideal(self, v):
        raise SpaceError(f"direction ideal points undefined for {_shown(self)}")

    def ideal_matches(self, a, b):
        # a == b first: inf - inf is nan, and inf matches only itself
        return a == b or abs(a - b) <= 1e-9

    def busemann_closed(self, ray, y):
        raise SpaceError(f"no closed-form Busemann value for {_shown(self)}")

    def rho_closed(self, c, d):
        raise SpaceError("rays are not asymptotic")

    def grasshopper(self, a, b):
        raise SpaceError(f"no analytic grasshopper formula for {_shown(self)}")

    def extreme_midpoint(self, a, b, selector):
        raise SpaceError(f"midpoint selectors are not supported for {_shown(self)}")

    def closest_param(self, geo, x):
        raise SpaceError(f"no closed-form closest point for {_shown(self)}")


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


def _finite(x) -> bool:
    """Is x a finite int or float, not a bool? An int beyond double range
    is not; nor is a Fraction, which has no "g" format before Python 3.12."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _check_tol(tol, what: str = "tol"):
    """SpaceError unless tol is _finite and >= 0: a nan or negative tol
    would fail every comparison, a wrong verdict with no error."""
    if not (_finite(tol) and tol >= 0):
        raise SpaceError(f"{what} must be a finite number >= 0, got {_shown(tol)}")


def _reals(c, dim) -> bool:
    """Is c a dim-tuple of finite real numbers? Exact types are one set
    test; subclasses such as bool take the isinstance pass. NaN, an
    infinity and an int or Fraction beyond double range are not finite."""
    try:
        return (isinstance(c, tuple) and len(c) == dim
                and (_REAL_TYPES.issuperset(map(type, c)) or all(isinstance(x, _REAL) for x in c))
                and all(map(math.isfinite, c)))
    except OverflowError:
        return False


def _check_space(space) -> Space:
    if not isinstance(space, Space):
        raise SpaceError(f"unknown space {_shown(space)}")
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
    Subclasses give ``norm``, its exponent ``p`` (a field on the l_p plane,
    the class constant 2 on ``Euclidean`` and inf on the sup-norm plane),
    ``dim`` (a field on ``Euclidean``, the class constant 2 on the l_p and
    sup-norm planes) and ``row``, which is ``norm(vsub(a, b))`` on float
    coordinates, bit for bit. Each ``norm`` is range-safe by itself, and
    E^n reads both from C. ``rho_closed`` is the planar
    form from the planes' ``dual_norm`` (the norm of a linear functional
    given by its coefficients); ``Euclidean`` overrides it with the
    orthogonal gap in every dimension. ``busemann_closed`` reads only the
    ray's base ``ray.at(0)`` and its unit direction xi = ``ray.plus.rep``,
    never ``at(1) - at(0)``, which loses up to |base| * 2^-53 of xi. A reversed
    line's ray runs along -xi, while its ``plus`` is the line's ``minus``,
    which ``line`` accepts within 1e-9 of -xi."""

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise SpaceError(f"dimension must be positive: an int >= 1, got {_shown(self.dim)}")

    def validate(self, c):
        if not _reals(c, self.dim):
            raise SpaceError(f"expected {self.dim}-tuple of finite reals, got {_shown(c)}")

    def _along(self, x0, u):
        def at(t):
            return vadd(x0, vscale(u, float(t)))
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
        v = tuple(v)
        if not _reals(v, self.dim):
            raise SpaceError(f"a direction is {self.dim} finite reals, got {_shown(v)}")
        n = self.norm(v)
        if n == 0 or n == INF:      # a norm past double range would give (0, 0)
            raise SpaceError(f"direction {_shown(v)} is zero or its norm overflows a double")
        return IdealPoint(self, tuple(float(x) / n for x in v))

    def ideal_matches(self, a, b):
        return all(abs(x - y) <= 1e-9 for x, y in zip(a, b))

    def rho_closed(self, c, d):
        # the rays are c(0) + s u and d(0) + t u, so rho is the distance
        # between the parallel lines, min over tau of |off + tau u|; in the
        # plane (Hahn-Banach) it is |omega(off)| / |omega|* for
        # omega = (-u2, u1), the functional that vanishes on u
        _check_asymptotic(c, d)
        off = vsub(c.at(0), d.at(0))
        u = c.plus.rep
        return abs(u[0] * off[1] - u[1] * off[0]) / self.dual_norm((-u[1], u[0]))

    def busemann_closed(self, ray, y):
        # the norm's gradient at the ray's unit direction xi: xi itself on E^n
        grad = tuple(math.copysign(abs(c) ** (self.p - 1.0), c) for c in ray.plus.rep)
        return -vdot(vsub(y, ray.at(0)), grad)

    def random_point(self, rng, scale):
        return point(self, tuple(rng.uniform(-scale, scale) for _ in range(self.dim)))


@dataclass(frozen=True)
class Euclidean(NormedSpace):
    dim: int
    p = 2

    def norm(self, v):
        return math.hypot(*v)

    def row(self, a, bs):
        # math.dist and math.hypot share one CPython routine, which scales its
        # inputs; its bits may differ between versions (the tests pin 3.11)
        dist = math.dist
        return [dist(a, b) for b in bs]

    def rho_closed(self, c, d):
        # the gap between the parallel lines: the part of off orthogonal to u
        _check_asymptotic(c, d)
        off = vsub(c.at(0), d.at(0))
        u = c.plus.rep
        return self.norm(vsub(off, vscale(u, vdot(off, u))))

    def closest_param(self, geo, x):
        # orthogonal projection onto the carrier, clipped to the domain. A
        # ray runs along its ideal end, where at(1) - at(0) would lose up
        # to |o| * 2^-53 of it; a segment has no end, and a reversed line's
        # plus is only within 1e-9 of its direction
        o = geo.at(0)
        u = geo.plus.rep if geo.kind == "ray" else vsub(geo.at(1), o)
        uu = vdot(u, u)
        if uu == 0:     # o + u rounds to o far from the origin
            raise SpaceError(f"the unit step of a geodesic through {_shown(o)} rounds to zero")
        t = _clip(geo, vdot(vsub(x, o), u) / uu)
        foot = geo.at(t)
        self.validate(foot)     # a projection past double range gives inf or nan
        return t, self.distance(foot, x)

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
        if not (_finite(self.p) and self.p > 1):
            raise SpaceError(f"MinkowskiLp requires an int or float 1 < p < oo, got {_shown(self.p)}")

    def norm(self, v):
        # the plain value where it is a double at or above the smallest normal
        # to the power 1 / p, else (inf, or a subnormal sum of powers)
        # m * |v / m|_p, m the largest |component|: that sum lies in [1, 2]
        p = self.p
        try:
            n = pnorm(v, p)
        except OverflowError:       # abs(x) ** p beyond double range
            n = INF
        if n < sys.float_info.min ** (1.0 / p) or n == INF:
            m = supnorm(v)
            if 0 < m < INF:
                n = m * pnorm(tuple(float(x) / m for x in v), p)
        return n

    def dual_norm(self, v):
        return pnorm(v, self.p / (self.p - 1.0))

    def row(self, a, bs):
        (ax, ay), p, q = a, self.p, 1.0 / self.p
        try:
            out = [(abs(ax - bx) ** p + abs(ay - by) ** p) ** q for bx, by in bs]
        except OverflowError:       # abs(gap) ** p beyond double range
            out = [INF] * len(bs)
        # each pair on its own: a plain value in [lo, inf) is kept, as norm
        # keeps it, and only the others are rescaled. The sum is inf where a
        # value is (and where a finite sum overflows, which only costs the
        # pass below)
        lo = sys.float_info.min ** q
        if not out or (sum(out) < INF and min(out) >= lo):
            return out
        norm = self.norm
        return [d if lo <= d < INF else norm((ax - bx, ay - by)) for d, (bx, by) in zip(out, bs)]

    def half_chord(self, u, beta):
        # alpha u and beta w sit in separate coordinates only on an axis
        if 0.0 not in u:
            raise SpaceError(f"no closed unit chord in {self.tag()} along direction {_shown(u)}")
        return (1.0 - abs(beta) ** self.p) ** (1.0 / self.p)

    def tag(self):
        return f"minkowski-l{self.p:g}"


@dataclass(frozen=True)
class MinkowskiLinf(NormedSpace):
    """Sup-norm plane. Not strictly convex; admitted only to produce
    convexity-violation witnesses and excluded from Busemann suites."""

    dim = 2
    p = INF

    def norm(self, v):
        return supnorm(v)

    def dual_norm(self, v):
        return sum(abs(float(x)) for x in v)

    def row(self, a, bs):
        ax, ay = a
        # max(dx, dy) without the call: dx unless dy > dx
        return [dy if dy > dx else dx
                for bx, by in bs for dx, dy in ((abs(ax - bx), abs(ay - by)),)]

    def busemann_closed(self, ray, y):
        # |y - o - t u|_oo - t: a coordinate with |u_i| < 1 falls behind by
        # (1 - |u_i|) t, so only those with |u_i| = 1 survive the limit
        o = ray.at(0)
        return max(-ui * (yi - oi) for ui, yi, oi in zip(ray.plus.rep, y, o)
                   if abs(ui) == 1.0)

    def extreme_midpoint(self, a, b, selector):
        # a midpoint's coordinate j lies in [max(a_j, b_j) - d/2, min(a_j, b_j) + d/2]
        if selector not in ("upper extreme", "lower extreme"):
            raise SpaceError(f"unknown midpoint selector {_shown(selector)}")
        dd = self.distance(a, b)
        if dd == 0:
            raise DegenerateError("midpoint of identical points")
        half = dd / 2.0
        if selector == "upper extreme":
            return tuple(min(aj, bj) + half for aj, bj in zip(a, b))
        return tuple(max(aj, bj) - half for aj, bj in zip(a, b))

    def tag(self):
        return "minkowski-linf"


# ---------------------------------------------------------------------------
# hyperbolic plane

def _hyp_frame(xi, z):
    """w = -1 / (z - xi), as a complex: the isometry of H^2 that sends the
    boundary point xi to oo (the identity when xi = oo) and so every
    geodesic ending at xi to a vertical line."""
    return complex(*z) if xi == INF else -1.0 / complex(z[0] - xi, z[1])


def _hyp_end(a, b):
    """The ideal end beyond b of the geodesic of H^2 through a and b: oo
    or a[0] on a vertical, else a[0] + m +- hypot(m, a[1]), m the centre
    less a[0], the root against m's sign as -a[1]^2 / (m -+ hypot(m, a[1]))."""
    dx = b[0] - a[0]
    if dx == 0:
        return INF if b[1] > a[1] else a[0]
    m = 0.5 * ((b[1] - a[1]) / dx * (b[1] + a[1]) + dx)
    r = math.copysign(math.hypot(m, a[1]), dx)
    end = a[0] + (m + r if (m >= 0) == (dx > 0) else -a[1] * (a[1] / (m - r)))
    return end if math.isfinite(end) else INF


def _hyp_lead(a, b, d):
    """(end, sgn) for the segment from a to b, of length d: the end xi
    beyond b with sgn 1, or eta behind a with -1, whichever frame rounds
    b less. Frame xi puts |b - xi| / Im b ulps on b; frame eta puts
    |a - eta| / Im a on a, and they grow by e^d toward b; oo puts none."""
    xi, eta = _hyp_end(a, b), _hyp_end(b, a)
    if xi == INF or (eta != INF and math.log(math.hypot(b[0] - xi, b[1]) / b[1])
                     <= d + math.log(math.hypot(a[0] - eta, a[1]) / a[1])):
        return xi, 1.0
    return eta, -1.0


@dataclass(frozen=True)
class HyperbolicPlane(Space):
    """Upper half-plane model of H^2; ideal points are boundary reals or oo.
    A geodesic runs in the frame of an end xi (``_hyp_frame``), where it is
    the vertical u + i v e^t, mapped back as xi - 1 / (u + i v e^t): points
    near xi keep their offsets from it (Beardon 1983, ch. 7)."""

    def validate(self, c):
        if not (_reals(c, 2) and c[1] > 0):
            raise SpaceError(f"upper half-plane point needs finite x and y > 0, got {_shown(c)}")

    def row(self, a, bs):
        # stable form of arccosh(1 + |z-w|^2 / (2 Im z Im w)); each height
        # takes its own root, as the product of two tiny ones underflows
        (ax, ay), hypot, asinh, sqrt = a, math.hypot, math.asinh, math.sqrt
        s = 2.0 * sqrt(ay)
        out = [2.0 * asinh(hypot(ax - bx, ay - by) / (s * sqrt(by))) for bx, by in bs]
        # each pair on its own: a value in (0, inf) is kept, and the others
        # (heights near 1e308 overflow the denominator) halve the gaps and the
        # 2; halving every pair would round a one-ulp subnormal gap to 0. A
        # halved quotient q still past double range (tiny heights, wide gap)
        # takes asinh(q) = log(2q) + O(q^-2) on its logs
        if not out or (sum(out) < INF and min(out) > 0):
            return out
        for k, (bx, by) in enumerate(bs):
            if not 0 < out[k] < INF:
                h, ra, rb = hypot(ax / 2 - bx / 2, ay / 2 - by / 2), sqrt(ay), sqrt(by)
                q = h / (ra * rb)
                out[k] = 2.0 * (asinh(q) if q < INF else
                                math.log(2.0) + math.log(h) - math.log(ra) - math.log(rb))
        return out

    def _toward(self, z0, xi, sgn=1.0):
        """The unit-speed geodesic from z0 toward the boundary point xi, or
        away from it for sgn = -1: u + i v e^(sgn t) in the frame of xi."""
        w0 = _hyp_frame(xi, z0)
        u, v = w0.real, w0.imag

        def at(t):
            try:
                w = complex(u, v * math.exp(sgn * float(t)))
                z = w if xi == INF else xi - 1.0 / w
            except (OverflowError, ZeroDivisionError):  # exp far out, or w = 0: never pin
                raise SpaceError(f"geodesic parameter {_shown(t)} leaves double range") from None
            c = (z.real, z.imag)
            self.validate(c)        # a height can also overflow or underflow silently
            return c
        return at

    def segment(self, a, b, d):
        return self._toward(a, *_hyp_lead(a, b, d))

    def ray(self, base, xi):
        return self._toward(base, xi)

    def line(self, eta, xi, through):
        # c(0) is the top of the semicircle, or height 1 on a vertical
        # line; each half runs in the frame of the end it heads for
        c0 = ((xi if eta == INF else eta, 1.0) if INF in (eta, xi)
              else ((eta + xi) / 2.0, abs(xi - eta) / 2.0))
        ahead, behind = self._toward(c0, xi), self._toward(c0, eta, -1.0)
        return lambda t: ahead(t) if t >= 0 else behind(t)

    def busemann_closed(self, ray, y):
        o = ray.at(0)
        xi = ray.plus.rep
        if xi == INF:
            return math.log(o[1]) - math.log(y[1])

        def level(z):
            try:        # the squares can underflow to 0 or overflow
                return math.log(((z[0] - xi) ** 2 + z[1] ** 2) / z[1])
            except (ValueError, OverflowError):
                raise SpaceError(f"the Busemann level of {_shown(z)} leaves double range") from None
        return level(y) - level(o)

    def rho_closed(self, c, d):
        # asymptotic rays come arbitrarily close (Bridson-Haefliger II.8)
        _check_asymptotic(c, d)
        return 0.0

    def closest_param(self, geo, x):
        # in the frame of the end xi the geodesic is the vertical
        # u0 + i v0 e^(sgn t), and the foot of the perpendicular from w(x)
        # sits at height |w(x) - u0| (Beardon 1983, ch. 7)
        o = geo.at(0)
        xi, sgn = (_hyp_lead(o, geo.at(geo.length), geo.length) if geo.kind == "segment"
                   else (geo.plus.rep, 1.0))
        w0 = _hyp_frame(xi, o)
        try:
            step = math.log(abs(_hyp_frame(xi, x) - w0.real) / w0.imag)
        except ValueError:      # the height ratio underflows to 0
            raise SpaceError(f"the closest parameter to {_shown(x)} leaves double range") from None
        t = _clip(geo, sgn * step)
        return t, self.distance(geo.at(t), x)

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
        if not (_finite(self.radius) and self.radius > 0):
            raise SpaceError(f"radius must be a finite int or float > 0, got {_shown(self.radius)}")
        if type(self.dim) is not int or self.dim < 2:
            raise SpaceError(f"ambient dimension must be an int >= 2, got {_shown(self.dim)}")

    def validate(self, c):
        if not _reals(c, self.dim):
            raise SpaceError(f"expected a finite direction in R^{self.dim}, got {_shown(c)}")
        if abs(math.hypot(*c) - 1.0) > 1e-12:
            raise SpaceError(f"sphere direction must be unit within 1e-12: {_shown(c)}")

    def row(self, a, bs):
        # r atan2(|a - (a.b) b|, a.b)
        r, sqrt, atan2 = self.radius, math.sqrt, math.atan2
        if self.dim != 3:
            return [r * atan2(sqrt(sum((x - y * c) * (x - y * c) for x, y in zip(a, b))), c)
                    for b in bs for c in (vdot(a, b),)]
        ax, ay, az = a
        return [r * atan2(sqrt(rx * rx + ry * ry + rz * rz), c)
                for bx, by, bz in bs
                for c in (ax * bx + ay * by + az * bz,)
                for rx, ry, rz in ((ax - bx * c, ay - by * c, az - bz * c),)]

    def segment(self, a, b, d):
        r = self.radius
        if abs(float(d) / r - math.pi) <= 1e-12:
            raise AmbiguousError("antipodal sphere points: minimizer not unique")
        w = vsub(b, vscale(a, vdot(a, b)))
        w = vscale(w, 1.0 / math.hypot(*w))

        def at(t):
            ang = float(t) / r
            return vadd(vscale(a, math.cos(ang)), vscale(w, math.sin(ang)))
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
        if not _reals((c,), 1):
            raise SpaceError(f"real-line point is a single finite real number, got {_shown(c)}")

    def coerce(self, coords):
        return float(coords)

    def row(self, a, bs):
        return [abs(a - b) for b in bs]

    def _along(self, x0, sgn):
        def at(t):
            return x0 + sgn * float(t)
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
        if not _reals((v,), 1):
            raise SpaceError(f"a direction is a finite real, got {_shown(v)}")
        s = float(v)
        if s == 0:
            raise SpaceError("zero direction")
        return IdealPoint(self, 1.0 if s > 0 else -1.0)

    def busemann_closed(self, ray, y):
        return -ray.plus.rep * (y - ray.at(0))

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

    Queries run on the tables of the ``TreeDesc``, whose depths are
    integers over the denominator bound n. A point is anchored at a vertex
    with an integer depth over lcm(n, its offset's denominator). A distance
    hops two anchors, over their common denominator L, from heavy path to
    heavy path until both are on the path of their common ancestor; a
    geodesic point hops up from an endpoint over lcm(L, the parameter's
    denominator) to the heavy path it lies on, then bisects that path's
    depths. Either takes O(log V) hops. All of it is integer arithmetic,
    with one ``Fraction`` per returned distance or offset; so are the closed
    Busemann value and the offset bounds of ``validate``. Exact values are
    compared and converted on their integer numerator and denominator, and
    a ``Fraction`` is built only for a returned value or a kept witness."""

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
        desc = self.desc
        up, k = desc.up, M // desc.denominator_bound
        parent, i, depth, head, pos, lift = up[v]
        if depth * k > d and up[parent][2] * k >= d:
            # the point is at the highest ancestor of v at depth >= t =
            # ceil(d / k), or on the edge above it: hop heads while the lift
            # is that deep, then bisect the heavy path's depths down to v
            t = -(-d // k)
            while lift is not None:
                entry = up[lift]
                if entry[2] < t:
                    break
                _, _, _, head, pos, lift = entry
            v = desc.order[bisect_left(desc.depths, t, head, pos)]
            parent, i, depth, _, _, _ = up[v]
        depth *= k
        if d == depth:
            return ("v", v)
        if d > depth:
            return ("r", v, Fraction(d - depth, M))
        u = desc.edges[i][0]
        return ("e", i, Fraction(depth - d if u == v else d - up[parent][2] * k, M))

    def _top(self, va, da, vb, db, L):
        """Depth over L of the highest point of [a, b], for the anchors
        (va, da) and (vb, db) with integer depths over L."""
        if va == vb:
            return min(da, db)
        up = self.desc.up
        a = ea = up[va]
        b = eb = up[vb]
        # the later path head is no ancestor of the other anchor: hop from
        # it to its lift until both are on one heavy path
        ha, hb = ea[3], eb[3]
        while ha != hb:
            if ha > hb:
                ea = up[ea[5]]
                ha = ea[3]
            else:
                eb = up[eb[5]]
                hb = eb[3]
        # the shallower of the two is the common ancestor
        if ea[4] > eb[4]:
            ea = eb
        top = ea[2] * (L // self.desc.denominator_bound)
        # the endpoint anchored at the common ancestor may sit above it
        if ea is a:
            return min(top, da)
        if ea is b:
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
                    raise SpaceError(f"parameter {_shown(t)} below domain")
                return ("r", minus_end, -tf)
            if tL > D * den:
                if plus_end is None:
                    raise SpaceError(f"parameter {_shown(t)} beyond domain")
                return ("r", plus_end, Fraction(tL - D * den, den * L))
            M = math.lcm(L, den)
            s, m = num * (M // den), M // L
            if tL <= rise * den:
                return self._coords(va, da * m - s, M)
            return self._coords(vb, (db - D) * m + s, M)
        return at

    def validate(self, c):
        if not (isinstance(c, tuple) and c and c[0] in ("v", "e", "r")
                and len(c) == (2 if c[0] == "v" else 3)):
            raise SpaceError(f"bad tree coords {_shown(c)}")
        if c[0] == "v":
            try:
                known = c[1] in self.desc.up
            except TypeError:       # an unhashable id, such as a JSON list
                known = False
            if not known:
                raise SpaceError(f"unknown vertex {_shown(c[1])}")
        elif c[0] == "e":
            _, idx, off = c
            ln = self._edge(idx)[2]
            # 0 < off < ln on the integer ratios, whose denominators are positive
            n, m = off.as_integer_ratio() if isinstance(off, Fraction) else (0, 1)
            a, b = ln.as_integer_ratio()
            if not (0 < n and n * b < a * m):
                raise SpaceError(f"edge offset must be a Fraction in (0, {_shown(ln)}): {_shown(off)}")
        else:
            _, end, off = c
            self._end(end)
            if not (isinstance(off, Fraction) and off.numerator > 0):
                raise SpaceError(f"ray offset must be a positive Fraction: {_shown(off)}")

    def _edge(self, idx):
        """Edge (u, v, length) number idx; SpaceError unless idx is an in-range int."""
        edges = self.desc.edges
        if not (type(idx) is int and 0 <= idx < len(edges)):
            raise SpaceError(f"edge index {_shown(idx)} out of range")
        return edges[idx]

    def _end(self, end):
        """end itself; SpaceError unless it is a declared end."""
        if end not in self.desc.ends:
            raise SpaceError(f"{_shown(end)} is not a declared end")
        return end

    def coerce(self, coords):
        return coords

    def row(self, a, bs):
        # a is anchored once; each b is one anchor and one common-ancestor
        # search over the pair's common denominator
        va, pa, qa = self._anchor(a)
        anchor, top, lcm = self._anchor, self._top, math.lcm
        out = []
        for b in bs:
            vb, pb, qb = anchor(b)
            L = lcm(qa, qb)
            da, db = pa * (L // qa), pb * (L // qb)
            out.append(Fraction(da + db - 2 * top(va, da, vb, db, L), L))
        return out

    def rows(self, coords):
        # each point is anchored once over one common L; a pair is then one
        # common-ancestor search, and equal lengths share one Fraction (a
        # memo of at most _ROW_MEMO lengths: on the benchmark pools 77-98%
        # of the pairs hit it)
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
                if tf.numerator < 0:
                    raise SpaceError(f"parameter {_shown(t)} below domain")
                return ("r", end, off + tf)
            return at
        return self._geodesic(c, ("v", end), plus_end=end)

    def line(self, end_m, end_p, through):
        return self._geodesic(("v", end_m), ("v", end_p), minus_end=end_m, plus_end=end_p)

    def ideal_matches(self, a, b):
        return a == b

    def busemann_closed(self, ray, y):
        # h(y) - h(ray(0)), where h is the distance to the end's vertex, and
        # minus the offset on the end's own ray: integer depths over the
        # common denominator L of the two anchors, one Fraction at the end
        end, o = ray.plus.rep, ray.at(0)
        (vy, py, qy), (vo, po, qo) = self._anchor(y), self._anchor(o)
        L = math.lcm(qy, qo)
        de = self.desc.up[end][2] * (L // self.desc.denominator_bound)

        def h(c, v, p):
            if c[0] == "r" and c[1] == end:
                return de - p
            return p + de - 2 * self._top(v, p, end, de, L)
        return Fraction(h(y, vy, py * (L // qy)) - h(o, vo, po * (L // qo)), L)

    def rho_closed(self, c, d):
        # exact: merging rays give 0; otherwise (rays toward different ends)
        # the bridge length between the ray images: project d(0) onto c,
        # then that projection onto d
        if c.plus is None or d.plus is None:
            raise SpaceError("tree rays need ideal endpoints")
        if c.plus.rep == d.plus.rep:
            return Fraction(0)
        t, _ = self.closest_param(c, d.at(0))
        return self.closest_param(d, c.at(t))[1]

    def closest_param(self, geo, x):
        # exact Gromov-product projection
        lo, hi = geo.domain()
        # the foot of x lies on [geo(0), x], so within d(geo(0), x) of geo(0)
        big = self.distance(geo.at(0), x) + 1
        lo = _as_fraction(lo) if lo != -INF else -big
        hi = _as_fraction(hi) if hi != INF else big
        p, q = geo.at(lo), geo.at(hi)
        dxp, dxq = self.row(x, (p, q))
        dpq = self.distance(p, q)
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

    # max(l, r) without the call: l unless r > l, which compares a Fraction
    # with a float exactly and keeps the larger as is, the left one on a tie
    def row(self, a, bs):
        pairs = zip(self.left.row(a[0], [b[0] for b in bs]),
                    self.right.row(a[1], [b[1] for b in bs]))
        return [r if r > l else l for l, r in pairs]

    def rows(self, coords):
        pairs = zip(self.left.rows([c[0] for c in coords]),
                    self.right.rows([c[1] for c in coords]))
        return ([r if r > l else l for l, r in zip(rl, rr)] for rl, rr in pairs)

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
    try:
        coords = _check_space(space).coerce(coords)
    except OverflowError:       # float() of an int or Fraction beyond double range
        raise SpaceError(f"a coordinate of {space.tag()} leaves double range") from None
    return Point(space, coords)


def _of_model(space, model):
    """space itself, if it is a `model`; SpaceError otherwise."""
    if not isinstance(space, model):
        raise SpaceError(f"expected a {model.__name__} space, got {_shown(space)}")
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
    _of_model(space, MetricTree)._end(end)
    off = _as_fraction(offset)
    if off == 0:
        return tree_vertex(space, end)
    return Point(space, ("r", end, off))


def sphere_point(space: SphereIntrinsic, direction) -> Point:
    _of_model(space, SphereIntrinsic)
    try:
        n = math.hypot(*direction)
    except OverflowError:           # float() of an int or Fraction beyond double range
        raise SpaceError("a direction component leaves double range") from None
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
    if not (_reals((x,), 1) or x == INF):
        raise SpaceError(f"an H^2 ideal point is a boundary real or +inf, not {_shown(x)}")
    return IdealPoint(_of_model(space, HyperbolicPlane), float(x))


def tree_end(space: MetricTree, end) -> IdealPoint:
    return IdealPoint(space, _of_model(space, MetricTree)._end(end))


# ---------------------------------------------------------------------------
# geodesics

@dataclass(frozen=True)
class GeodesicRef:
    """Unit-speed geodesic; its evaluator ``at`` gives coordinates, ``point_at`` the Point.

    ``kind`` is "segment", "ray", or "line"; the domain is [0, length],
    [0, oo), or all of R. ``minus``/``plus`` are the ideal endpoints of the
    unbounded ends, when defined. ``reversed()`` runs a line backwards.
    A ray's direction is its ideal end: the closed forms read ``plus.rep``
    and ``at(0)`` alone. The reversed line of a flat model runs along -xi
    while its ``plus`` is the line's ``minus``, which ``line_through``
    accepts within 1e-9 of -xi.
    """

    space: object
    kind: str
    at: Callable[[Number], object]
    length: Optional[Number] = None   # segments only
    minus: Optional[IdealPoint] = None
    plus: Optional[IdealPoint] = None

    def point_at(self, t) -> Point:
        return Point(self.space, self.at(t))

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
        def at(t):
            return self.at(-t)
        return GeodesicRef(self.space, "line", at, minus=self.plus, plus=self.minus)


def _same_space(a, b) -> bool:
    # identity first: dataclass equality compares every field
    return a is b or a == b


def _check_member(space, *pts):
    for p in pts:
        if not isinstance(p, Point) or not _same_space(p.space, space):
            raise SpaceError(f"point {_shown(p)} does not belong to {_shown(space)}")


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
        return Point(space, space.extreme_midpoint(x.coords, y.coords, selector))
    d = space.distance(x.coords, y.coords)
    if d == 0:
        raise DegenerateError("geodesic between identical points")
    return Point(space, space.segment(x.coords, y.coords, d)(d / 2))


# ---------------------------------------------------------------------------
# parameters of points along geodesics

def closest_param(space, geo: GeodesicRef, x: Point):
    """Parameter minimizing t -> d(geo(t), x) plus the attained distance.

    Closed forms on Euclidean space (orthogonal projection), H^2 (the foot
    of the perpendicular, in the frame where the geodesic is vertical) and
    trees (exact Gromov-product projection); every other model raises
    SpaceError. The geodesic must belong to `space`.
    """
    _check_member(space, x)
    if not _same_space(geo.space, space):
        raise SpaceError("geodesic belongs to a different space")
    return space.closest_param(geo, x.coords)


def on_geodesic(space, geo: GeodesicRef, x: Point, tol: float = 1e-9):
    """(bool, parameter, residual) for membership of x on geo."""
    _check_tol(tol)
    t, resid = closest_param(space, geo, x)
    return (float(resid) <= tol, t, resid)
