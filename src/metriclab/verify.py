"""Metric-level predicates and structured pass/fail reports.

Checks here operate on sampled point sets: metric axioms, midpoint convexity
of the distance, Hausdorff distance, normed-strip detection between parallel
lines, and the unit-distance / isometry predicates for bijections.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .numeric import bisect_root
from .spaces import (
    GeodesicRef,
    Point,
    SpaceError,
    _check_member,
    _check_space,
    _same_space,
    closest_param,
    distance,
    distance_rows,
    midpoint,
)

MAX_WITNESSES = 32


@dataclass
class VerificationReport:
    """Pass/fail record with witnesses; serializes with a stable field order."""

    check: str
    status: str = "pass"            # "pass" | "fail"
    counts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    tolerance: float = 0.0
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def fail(self, witness: dict):
        # kept as given; finalize converts only the witnesses it keeps
        self.status = "fail"
        self.witnesses.append(witness)

    def finalize(self, **counts):
        """Canonical witness order and cap; a failed report keeps >= 1 witness.

        Given counts become the report's counts, followed by "violations",
        the number of witnesses before the cap; a given "violations" keeps
        its place and takes that number."""
        if counts:
            self.counts = {**counts, "violations": len(self.witnesses)}
        kept = sorted(self.witnesses, key=_witness_key)[:MAX_WITNESSES]
        self.witnesses = [_jsonable(w) for w in kept]
        if self.status == "fail" and not self.witnesses:
            raise AssertionError("failed report without witnesses")
        return self

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "status": self.status,
            "counts": _jsonable(self.counts),
            "witnesses": self.witnesses,
            "tolerance": self.tolerance,
        }
        if self.data:
            out["data"] = _jsonable(self.data)
        return out


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Point):
        return _jsonable(v.coords)
    if isinstance(v, float) and not math.isfinite(v):
        # strict JSON has no Infinity or NaN
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


def _encode_default(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Point):
        return v.coords
    raise TypeError(f"not JSON serializable: {v!r}")


_encode_key = json.JSONEncoder(sort_keys=True, default=_encode_default,
                               allow_nan=False).encode


_STR = frozenset((str,))
# a Point validates its coordinates as numbers, tags and vertex ids, so
# it holds no dict
_LEAVES = frozenset((str, int, float, bool, type(None), Fraction, Point))


def _str_keyed(v) -> bool:
    """Is every dict key in v, at any depth, a str?"""
    if isinstance(v, dict):
        if not _STR.issuperset(map(type, v)):
            return False
        v = v.values()
    elif not isinstance(v, (list, tuple)):
        return True
    return _LEAVES.issuperset(map(type, v)) or all(map(_str_keyed, v))


def _witness_key(w) -> str:
    """json.dumps(_jsonable(w), sort_keys=True), from one pass of the C
    encoder where that gives the same string: it cannot when w holds a
    non-finite float (the encoder raises) or a non-str dict key (the
    encoder sorts ints as numbers and spells True and None its own way)."""
    if _str_keyed(w):
        try:
            return _encode_key(w)
        except ValueError:
            pass
    return json.dumps(_jsonable(w), sort_keys=True)


# ---------------------------------------------------------------------------
# samples

@dataclass
class SampleSet:
    space: object
    points: tuple
    spec: str = "user"

    def __post_init__(self):
        for p in self.points:
            if not _same_space(p.space, self.space):
                raise SpaceError("sample point from a different space")
        if not self.points:
            raise SpaceError("empty sample")


def random_sample(space, n: int, seed: int) -> SampleSet:
    """Reproducible random points; tree offsets stay exact rationals."""
    _check_space(space)
    rng = random.Random(seed)
    pts = tuple(space.random_point(rng, 4.0) for _ in range(n))
    return SampleSet(space, pts, spec=f"random(n={n}, scale=4.0)")


# ---------------------------------------------------------------------------
# bijections

@dataclass
class BijectionSpec:
    """A named bijection with its inverse, both Point -> Point evaluators."""

    name: str
    domain: object
    codomain: object
    forward: callable
    inverse: callable


# ---------------------------------------------------------------------------
# metric axioms

def check_metric_axioms(space, sample: SampleSet, *, triples: int = 200,
                        seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Symmetry, identity of indiscernibles, and the triangle inequality on
    random triples from the sample. Tree distances are compared exactly."""
    rep = VerificationReport(f"metric-axioms[{space.tag()}]", tolerance=tol)
    rng = random.Random(seed)
    pts = sample.points
    _check_member(space, *pts)
    dist = space.distance
    exact = space.exact
    checked = 0
    for _ in range(triples):
        x, y, z = (pts[rng.randrange(len(pts))] for _ in range(3))
        dxy, dyx = dist(x.coords, y.coords), dist(y.coords, x.coords)
        if (dxy != dyx) if exact else abs(float(dxy) - float(dyx)) > tol:
            rep.fail({"axiom": "symmetry", "x": x, "y": y, "dxy": dxy, "dyx": dyx})
        zero = (dxy == 0) if exact else float(dxy) <= tol
        if zero != (x.coords == y.coords):
            rep.fail({"axiom": "identity", "x": x, "y": y, "d": dxy})
        dxz = dist(x.coords, z.coords)
        dyz = dist(y.coords, z.coords)
        # exact distances may lie beyond float range, so their slack stays
        # exact and is built only for a witness
        if exact:
            if dxz > dxy + dyz:
                rep.fail({"axiom": "triangle", "x": x, "y": y, "z": z,
                          "slack": dxy + dyz - dxz})
        else:
            slack = float(dxy) + float(dyz) - float(dxz)
            if slack < -tol:
                rep.fail({"axiom": "triangle", "x": x, "y": y, "z": z, "slack": slack})
        checked += 1
    return rep.finalize(triples=checked)


# ---------------------------------------------------------------------------
# curvature non-positivity

def check_busemann_midpoints(space, x: Point, y: Point, z: Point, *,
                             selector_xy: str = None, selector_xz: str = None,
                             tol: float = 1e-9) -> VerificationReport:
    """Midpoint inequality d(m, n) <= d(y, z)/2 for m, n the midpoints of
    [x, y] and [x, z]. Selectors are for the sup-norm plane only."""
    if x.coords == y.coords or x.coords == z.coords or y.coords == z.coords:
        raise SpaceError("midpoint check needs pairwise distinct points")
    rep = VerificationReport(f"busemann-midpoints[{space.tag()}]", tolerance=tol)
    m = midpoint(space, x, y, selector=selector_xy)
    n = midpoint(space, x, z, selector=selector_xz)
    dmn = distance(space, m, n)
    dyz = distance(space, y, z)
    half = dyz / 2
    lhs, rhs = float(dmn), float(half)
    rep.counts = {"lhs": lhs, "rhs": rhs}
    if lhs > rhs + tol:
        rep.fail({"x": x, "y": y, "z": z, "m": m, "n": n, "d_mn": dmn, "half_d_yz": half})
    return rep.finalize()


def check_distance_convexity(space, g1: GeodesicRef, g2: GeodesicRef,
                             grid: int = 8) -> VerificationReport:
    """Midpoint convexity of D(t, t') = d(g1(t), g2(t')), within 1e-9, over a
    lattice on the two segment domains."""
    if g1.kind != "segment" or g2.kind != "segment":
        raise SpaceError("distance convexity check needs segments")
    rep = VerificationReport(f"distance-convexity[{space.tag()}]", tolerance=1e-9)
    t1 = [float(g1.length) * i / grid for i in range(grid + 1)]
    t2 = [float(g2.length) * j / grid for j in range(grid + 1)]
    D = [[float(distance(space, g1.point_at(a), g2.point_at(b))) for b in t2] for a in t1]
    checked = 0
    for i1 in range(grid + 1):
        for j1 in range(grid + 1):
            for i2 in range(i1, grid + 1):
                for j2 in range(grid + 1):
                    if (i1 + i2) % 2 or (j1 + j2) % 2:
                        continue
                    mid = D[(i1 + i2) // 2][(j1 + j2) // 2]
                    avg = 0.5 * (D[i1][j1] + D[i2][j2])
                    checked += 1
                    if mid > avg + 1e-9:
                        rep.fail({"a": (t1[i1], t2[j1]), "b": (t1[i2], t2[j2]),
                                  "mid": mid, "avg": avg})
    return rep.finalize(pairs=checked)


# ---------------------------------------------------------------------------
# Hausdorff distance

def hausdorff_distance(space, A: SampleSet, B: SampleSet) -> float:
    """Two-sided Hausdorff distance between finite samples."""
    if not (_same_space(A.space, space) and _same_space(B.space, space)):
        raise SpaceError("samples from a different space")
    # a SampleSet checks its points against its space when it is built
    dist = space.distance
    a_coords = [p.coords for p in A.points]
    b_coords = [q.coords for q in B.points]

    def directed(src, dst):
        worst = 0.0
        for a in src:
            best = min(float(dist(a, b)) for b in dst)
            worst = max(worst, best)
        return worst
    return max(directed(a_coords, b_coords), directed(b_coords, a_coords))


# ---------------------------------------------------------------------------
# normed strip detection

def detect_normed_strip(space, a: GeodesicRef, b: GeodesicRef) -> VerificationReport:
    """Decide whether two lines bound a normed strip and fit the strip's norm.

    For parallel lines the cross-distance d(a(s), b(t)) depends only on t - s
    after aligning b's parameterization; that profile is the fitted norm on
    the level beta = 1, and N(alpha, beta) = |beta| * profile(alpha / beta).
    The check verifies translation invariance, convexity of the profile, and
    midpoint homogeneity N(alpha/2, 1/2) = N(alpha, 1) / 2. Diverging lines
    yield a not-a-strip report, not an error.
    """
    if a.kind != "line" or b.kind != "line":
        raise SpaceError("strip detection needs straight lines")
    grid, tol, span = 8, 1e-6, 4.0     # lattice, tolerance, probe half-width
    rep = VerificationReport("normed-strip", tolerance=tol)

    def inf_dist_to_a(q):
        _, val = closest_param(space, a, q)
        return float(val)

    sup1 = max(inf_dist_to_a(b.point_at(t)) for t in _linspace(-span, span, 9))
    sup2 = max(inf_dist_to_a(b.point_at(t)) for t in _linspace(-2 * span, 2 * span, 17))
    rep.data["sup_inf_near"] = sup1
    rep.data["sup_inf_far"] = sup2
    if sup2 > sup1 + 1e-3:
        rep.fail({"reason": "not-a-strip", "sup_near": sup1, "sup_far": sup2})
        rep.counts = {"is_strip": 0}
        return rep.finalize()
    b, reversed_b = _orient_like(space, a, b, span)
    rep.data["orientation"] = "reversed" if reversed_b else "aligned"
    t0 = _align_parallel(space, a, b, span)

    step = 2.0 * span / grid
    taus = [i * step for i in range(-grid, grid + 1)]
    prof = {i: float(distance(space, a.point_at(0), b.point_at(t0 + i * step)))
            for i in range(-grid, grid + 1)}
    # translation invariance of cross-distances
    for s_i in range(-grid // 2, grid // 2 + 1):
        for i in range(-grid // 2, grid // 2 + 1):
            s = s_i * step
            got = float(distance(space, a.point_at(s), b.point_at(t0 + s + i * step)))
            if abs(got - prof[i]) > tol:
                rep.fail({"kind": "translation", "s": s, "tau": i * step,
                          "got": got, "expect": prof[i]})
    # norm axioms on the table: positivity and convexity (the triangle
    # inequality of the fitted norm); central symmetry N(v) = N(-v) is the
    # symmetry of the metric itself
    for i in range(-grid, grid + 1):
        if prof[i] <= 0.0:
            rep.fail({"kind": "positivity", "tau": i * step})
    for i in range(-grid + 1, grid):
        if 2.0 * prof[i] > prof[i - 1] + prof[i + 1] + tol:
            rep.fail({"kind": "convexity", "tau": i * step})
    # homogeneity via midpoints: d(a(0), mid(a(s), b(t0+t))) = profile(s+t)/2
    for s_i in (-2, 0, 2):
        for i in (-2, 0, 2):
            if not (-grid <= s_i + i <= grid):
                continue
            m = midpoint(space, a.point_at(s_i * step), b.point_at(t0 + i * step))
            got = float(distance(space, a.point_at(0), m))
            want = 0.5 * prof[s_i + i]
            if abs(got - want) > tol:
                rep.fail({"kind": "homogeneity", "s": s_i * step, "t": i * step,
                          "got": got, "expect": want})
    rep.data["norm_table"] = {"tau": taus, "value": [prof[i] for i in range(-grid, grid + 1)],
                              "width": prof[0], "alignment": t0}
    return rep.finalize(is_strip=1)


def _orient_like(space, a, b, span: float):
    """Reparameterize b to run in a's direction if it was handed reversed.

    For parallel lines d(a(s), b(t)) depends only on t - s once orientations
    agree; a co-moving probe staying at the baseline gap detects this.
    """
    t0, gap = closest_param(space, b, a.point_at(0))
    t0, gap = float(t0), float(gap)
    same = abs(float(distance(space, a.point_at(span), b.point_at(t0 + span)))
               - gap)
    opposite = abs(float(distance(space, a.point_at(span), b.point_at(t0 - span)))
                   - gap)
    if same <= opposite:
        return b, False
    return b.reversed(), True


def _align_parallel(space, a, b, span: float) -> float:
    """Alignment shift t0 making the cross-distance profile even in tau.

    Norms are even, so d(a(0), b(t0 + s)) = d(a(0), b(t0 - s)) exactly at the
    true alignment; the symmetry residual is monotone in t0 and its root is
    far better conditioned than the flat minimum of the profile itself.
    """
    t_rough, _ = closest_param(space, b, a.point_at(0))
    t_rough = float(t_rough)
    o = a.point_at(0)

    def residual(t0):
        plus = float(distance(space, o, b.point_at(t0 + span)))
        minus = float(distance(space, o, b.point_at(t0 - span)))
        return plus - minus
    return bisect_root(residual, t_rough - 2.0, t_rough + 2.0, tol=1e-13)


def strip_norm_value(report: VerificationReport, alpha: float, beta: float) -> float:
    """Evaluate the fitted strip norm N(alpha, beta) from a strip report's
    table by linear interpolation of the beta = 1 profile."""
    table = report.data["norm_table"]
    taus, vals = table["tau"], table["value"]
    if beta == 0.0:
        return abs(alpha)
    ratio = alpha / abs(beta)
    if ratio <= taus[0] or ratio >= taus[-1]:
        raise SpaceError("norm table does not cover the requested slope")
    for i in range(len(taus) - 1):
        if taus[i] <= ratio <= taus[i + 1]:
            w = (ratio - taus[i]) / (taus[i + 1] - taus[i])
            return abs(beta) * ((1 - w) * vals[i] + w * vals[i + 1])
    raise SpaceError("unreachable")


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# isometry and unit-distance preservation

def is_isometry(spaces, f: BijectionSpec, sample: SampleSet,
                tol: float = 1e-9) -> VerificationReport:
    """d_Y(f x, f y) = d_X(x, y) on all sample pairs; exact when tol == 0."""
    X, Y = spaces
    rep = VerificationReport(f"is-isometry[{f.name}]", tolerance=tol)
    pts = sample.points
    images = [f.forward(p) for p in pts]
    rows = zip(distance_rows(X, pts), distance_rows(Y, images))
    exact = tol == 0 and X.exact and Y.exact
    pairs = 0
    for i, (row_x, row_y) in enumerate(rows):
        pairs += len(row_x)
        for j, (dx, dy) in enumerate(zip(row_x, row_y), i + 1):
            if not ((dx == dy) if exact else abs(float(dx) - float(dy)) <= tol):
                rep.fail({"x": pts[i], "y": pts[j], "d_before": dx, "d_after": dy})
    return rep.finalize(pairs=pairs)


_UNIT_MODES = {"eq": operator.eq, "le": operator.le, "lt": operator.lt}


def _unit_class(mode: str, tol: float, exact: bool):
    """The classifier of a row of distances of one space: each d compared
    with 1 per mode. Exact distances compare as they are when tol == 0;
    otherwise |d - 1| <= tol snaps to exactly 1 first."""
    cmp = _UNIT_MODES.get(mode)
    if cmp is None:
        raise SpaceError(f"unknown mode {mode!r}")
    if exact and tol == 0:
        return lambda row: [cmp(d, 1) for d in row]
    return lambda row: [cmp(1.0 if abs(v - 1.0) <= tol else v, 1) for v in map(float, row)]


def preserves_unit_distance(spaces, f: BijectionSpec, sample: SampleSet,
                            mode: str = "eq", tol: float = 1e-9) -> VerificationReport:
    """Bidirectional check of the unit-distance relation in the given mode.

    Forward pairs test d = 1 iff d(f., f.) = 1 (or <=, <); the declared
    inverse is tested the same way on the image sample.
    """
    X, Y = spaces
    rep = VerificationReport(f"unit-distance[{f.name}, mode={mode}]", tolerance=tol)
    pts = list(sample.points)
    images = [f.forward(p) for p in pts]
    preimages = [f.inverse(q) for q in images]
    rows = zip(distance_rows(X, pts), distance_rows(Y, images), distance_rows(X, preimages))
    unit_x, unit_y = _unit_class(mode, tol, X.exact), _unit_class(mode, tol, Y.exact)
    pairs = 0
    for i, (row_x, row_y, row_back) in enumerate(rows):
        pairs += len(row_x)
        classes = zip(unit_x(row_x), unit_y(row_y), unit_x(row_back))
        for j, (before, after, back) in enumerate(classes, i + 1):
            if before != after:
                rep.fail({"direction": "forward", "x": pts[i], "y": pts[j],
                          "before": before, "after": after})
            if after != back:
                rep.fail({"direction": "inverse", "x": images[i], "y": images[j],
                          "image_class": after, "preimage_class": back})
    return rep.finalize(pairs=pairs)
