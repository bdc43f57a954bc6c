"""Metric-level predicates and structured pass/fail reports.

Checks here operate on sampled point sets: metric axioms, midpoint convexity
of the distance, and the unit-distance / isometry predicates for bijections.
A failed report keeps the first 32 witnesses (MAX_WITNESSES) in the order
its check found them, which is sample order, and counts every one in
"violations".
"""

from __future__ import annotations

import bisect
import marshal
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .spaces import (
    GeodesicRef,
    Point,
    SpaceError,
    _check_member,
    _check_space,
    _finite,
    _shown,
    midpoint,
)

MAX_WITNESSES = 32


def _float_row(row):
    """An exact row as floats: a Fraction d as d.numerator / d.denominator,
    the very division float(d) performs (numbers.Rational.__float__)
    without its Python calls; any other number by float()."""
    return [d.numerator / d.denominator if type(d) is Fraction else float(d) for d in row]


@dataclass
class VerificationReport:
    """Pass/fail record with witnesses; serializes with a stable field order."""

    check: str
    status: str = "pass"            # "pass" | "fail"
    counts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    tolerance: float = 0.0
    data: dict = field(default_factory=dict)
    found: int = 0                  # fail calls, those past the cap too

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def fail(self, witness: dict):
        # the first MAX_WITNESSES are kept as given, for finalize to
        # convert; the rest are only counted
        self.status = "fail"
        self.found += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)

    def finalize(self, **counts):
        """Convert the witnesses kept, the first MAX_WITNESSES in the order
        found; a failed report keeps >= 1 witness.

        Given counts become the report's counts, with "violations": a number
        given for it is kept, otherwise it is the number of ``fail`` calls,
        past the cap too, in the place of a given None or after the
        other counts. is_isometry builds witnesses only for the first
        MAX_WITNESSES failing pairs and gives every failing pair as
        ``violations``, so the count still covers those it never built."""
        if counts:
            if counts.get("violations") is None:
                counts["violations"] = self.found
            self.counts = counts
        self.witnesses = [_jsonable(w) for w in self.witnesses]
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
    if isinstance(v, float):    # first: most leaves are floats, such as coordinates
        # strict JSON has no Infinity or NaN
        return v if math.isfinite(v) else "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Point):
        return _jsonable(v.coords)
    return v


def _check_tol(tol, what: str = "tol"):
    """SpaceError unless tol is _finite and >= 0: a nan or negative tol
    would fail every comparison, a wrong verdict with no error."""
    if not (_finite(tol) and tol >= 0):
        raise SpaceError(f"{what} must be a finite number >= 0, got {_shown(tol)}")


# ---------------------------------------------------------------------------
# samples

@dataclass
class SampleSet:
    space: object
    points: tuple

    def __post_init__(self):
        _check_member(self.space, *self.points)
        if not self.points:
            raise SpaceError("empty sample")


def random_sample(space, n: int, seed: int) -> SampleSet:
    """Reproducible random points; tree offsets stay exact rationals."""
    _check_space(space)
    rng = random.Random(seed)
    pts = tuple(space.random_point(rng, 4.0) for _ in range(n))
    return SampleSet(space, pts)


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
    random triples from the sample. Tree distances are compared exactly.

    Each triple is two rows of the model, from x to (y, z) and from y to
    (x, z), so d(y, x) is computed apart from d(x, y)."""
    _check_tol(tol)
    rep = VerificationReport(f"metric-axioms[{space.tag()}]", tolerance=tol)
    rng = random.Random(seed)
    pts = sample.points
    _check_member(space, *pts)
    row, draw = space.row, rng.choice     # choice draws as randrange(len(pts)) does
    exact = space.exact
    checked = 0
    for _ in range(triples):
        x, y, z = draw(pts), draw(pts), draw(pts)
        xc, yc, zc = x.coords, y.coords, z.coords
        dxy, dxz = row(xc, (yc, zc))
        dyx, dyz = row(yc, (xc, zc))
        if exact:
            # on the integer ratios n/m (m > 0, in lowest terms): equal
            # values have equal ratios, and d(x, z) > d(x, y) + d(y, z) is
            # one cross-multiplication
            (nxy, mxy), (nyz, myz) = dxy.as_integer_ratio(), dyz.as_integer_ratio()
            nxz, mxz = dxz.as_integer_ratio()
            asym = (nxy, mxy) != dyx.as_integer_ratio()
            ident = (nxy == 0) != (xc == yc)
            torn = nxz * mxy * myz > (nxy * myz + nyz * mxy) * mxz
        else:
            # float tests are written `not ... <= tol`, as in is_isometry:
            # an infinite distance gives nan, which must fail. Equal points
            # need d <= tol, distinct ones only d > 0: two points closer
            # than tol are still two points
            fxy = float(dxy)
            asym = not abs(fxy - float(dyx)) <= tol
            ident = not fxy <= tol if xc == yc else not fxy > 0
            slack = fxy + float(dyz) - float(dxz)
            torn = not slack >= -tol
        if asym:
            rep.fail({"axiom": "symmetry", "x": x, "y": y, "dxy": dxy, "dyx": dyx})
        if ident:
            rep.fail({"axiom": "identity", "x": x, "y": y, "d": dxy})
        if torn:
            # exact distances may lie beyond float range, so their slack
            # stays exact and is built only for a witness
            rep.fail({"axiom": "triangle", "x": x, "y": y, "z": z,
                      "slack": dxy + dyz - dxz if exact else slack})
        checked += 1
    return rep.finalize(triples=checked)


# ---------------------------------------------------------------------------
# curvature non-positivity

def check_busemann_midpoints(space, x: Point, y: Point, z: Point, *,
                             selector_xy: str = None, selector_xz: str = None,
                             tol: float = 1e-9) -> VerificationReport:
    """Midpoint inequality d(m, n) <= d(y, z)/2 for m, n the midpoints of
    [x, y] and [x, z]. Selectors are for the sup-norm plane only."""
    _check_tol(tol)
    if x.coords == y.coords or x.coords == z.coords or y.coords == z.coords:
        raise SpaceError("midpoint check needs pairwise distinct points")
    rep = VerificationReport(f"busemann-midpoints[{space.tag()}]", tolerance=tol)
    m = midpoint(space, x, y, selector=selector_xy)
    n = midpoint(space, x, z, selector=selector_xz)
    dmn = space.row(m.coords, (n.coords,))[0]
    dyz = space.row(y.coords, (z.coords,))[0]
    half = dyz / 2
    lhs, rhs = float(dmn), float(half)
    rep.counts = {"lhs": lhs, "rhs": rhs}
    if lhs > rhs + tol:
        rep.fail({"x": x, "y": y, "z": z, "m": m, "n": n, "d_mn": dmn, "half_d_yz": half})
    return rep.finalize()


def check_distance_convexity(space, g1: GeodesicRef, g2: GeodesicRef) -> VerificationReport:
    """Midpoint convexity of D(t, t') = d(g1(t), g2(t')), within 1e-9, over a
    lattice on the two segment domains."""
    if g1.kind != "segment" or g2.kind != "segment":
        raise SpaceError("distance convexity check needs segments")
    rep = VerificationReport(f"distance-convexity[{space.tag()}]", tolerance=1e-9)
    grid = 8    # lattice steps per segment
    t1 = [float(g1.length) * i / grid for i in range(grid + 1)]
    t2 = [float(g2.length) * j / grid for j in range(grid + 1)]
    # each lattice point once; D[i] is the row from g1(t1[i]) to g2's points
    p1 = [g1.point_at(a) for a in t1]
    p2 = [g2.point_at(b) for b in t2]
    _check_member(space, *p1, *p2)
    c2 = [p.coords for p in p2]
    D = [[float(d) for d in space.row(p.coords, c2)] for p in p1]
    checked = 0
    for i1 in range(grid + 1):
        for j1 in range(grid + 1):
            # the later corners of the same parity: their midpoints are lattice points
            for i2 in range(i1, grid + 1, 2):
                for j2 in range(j1 % 2, grid + 1, 2):
                    mid = D[(i1 + i2) // 2][(j1 + j2) // 2]
                    avg = 0.5 * (D[i1][j1] + D[i2][j2])
                    checked += 1
                    if mid > avg + 1e-9:
                        rep.fail({"a": (t1[i1], t2[j1]), "b": (t1[i2], t2[j2]),
                                  "mid": mid, "avg": avg})
    return rep.finalize(pairs=checked)


# ---------------------------------------------------------------------------
# isometry and unit-distance preservation

# the newest pair tables of the bijection checks, oldest first, as
# (space, key, rows)
_pair_tables = []


def _key(space, c):
    """The strict-equality key of coordinates ``c``, so that 1, 1.0, True
    and -0.0 never match: ``c`` itself on an exact space (tree offsets are
    Fractions), else its marshal bytes (version 2 writes no back-references),
    or None, which equals nothing, where marshal refuses ``c``."""
    if space.exact:
        return c
    try:
        return marshal.dumps(c, 2)
    except ValueError:
        return None


def _pair_rows(space, points):
    """The rows of distance_rows(space, points) as one list, shared by the
    two bijection checks: on one sample both read the table of X over the
    sample and of Y over the images. A stored table serves only the very
    same space and an equal ``_key`` of the coordinate list; at most two
    tables are kept."""
    _check_member(space, *points)
    coords = [p.coords for p in points]
    key = _key(space, coords)
    if key is None:
        return list(space.rows(coords))
    for s, k, rows in _pair_tables:
        if s is space and k == key:
            return rows
    del _pair_tables[:-1]
    rows = list(space.rows(coords))
    _pair_tables.append((space, key, rows))
    return rows


def _moved(space, points, others):
    """For each pair of points, True unless their coordinates have an equal
    ``_key``."""
    keys = [_key(space, p.coords) for p in points]
    return [k is None or k != _key(space, q.coords) for k, q in zip(keys, others)]


def _screened(xs, ys, tol):
    """True only if every |x - y| of the two rows is at most tol, decided in
    C as math.dist(xs, ys) <= tol / 2: math.dist converts each entry as
    float() does and is at least every |fl(x - y)| but for its last ulp,
    which the half absorbs, and a nan or inf fails it. A row that fails
    is decided pair by pair."""
    return math.dist(xs, ys) <= 0.5 * tol


def is_isometry(spaces, f: BijectionSpec, sample: SampleSet,
                tol: float = 1e-9) -> VerificationReport:
    """d_Y(f x, f y) = d_X(x, y) on all sample pairs; exact when tol == 0.

    It builds its two tables, X over the sample and Y over the images,
    whole; after preserves_unit_distance on the same sample both are
    already stored. On an exact check a row equal in X and Y is skipped
    whole. Otherwise the rows are compared as floats (an exact row taken by
    ``_float_row``), a row that passes ``_screened`` is skipped, and any
    other row is decided by one comprehension, pair by pair. A failing pair
    is kept as (i, j) until there are MAX_WITNESSES of them, in sample
    order, and only those get a witness, with the distances of the tables:
    the first MAX_WITNESSES in the order found. The report's "violations"
    counts every failing pair."""
    _check_tol(tol)
    X, Y = spaces
    rep = VerificationReport(f"is-isometry[{f.name}]", tolerance=tol)
    pts = sample.points
    images = [f.forward(p) for p in pts]
    table_x, table_y = _pair_rows(X, pts), _pair_rows(Y, images)
    x_exact, y_exact = X.exact, Y.exact
    exact = tol == 0 and x_exact and y_exact
    n = len(pts)
    pairs = found = 0
    failing = []
    for i, (row_x, row_y) in enumerate(zip(table_x, table_y)):
        pairs += len(row_x)
        js = range(i + 1, n)
        if exact:
            if row_x == row_y:
                continue
            bad = [j for j, dx, dy in zip(js, row_x, row_y) if dx != dy]
        else:
            fx = _float_row(row_x) if x_exact else row_x
            fy = _float_row(row_y) if y_exact else row_y
            if _screened(fx, fy, tol):
                continue
            bad = [j for j, dx, dy in zip(js, fx, fy) if not abs(float(dx) - float(dy)) <= tol]
        found += len(bad)
        if len(failing) < MAX_WITNESSES:
            failing += [(i, j) for j in bad[:MAX_WITNESSES - len(failing)]]
    for i, j in failing:
        k = j - i - 1
        rep.fail({"x": pts[i], "y": pts[j], "d_before": table_x[i][k], "d_after": table_y[i][k]})
    return rep.finalize(pairs=pairs, violations=found)     # the pairs past the cap count too


_UNIT_MODES = {"eq": operator.eq, "le": operator.le, "lt": operator.lt}


def _unit_class(mode: str, tol: float, exact: bool):
    """The classifier of a row of distances of one space: each d compared
    with 1 per mode. Exact distances compare on their integer ratios when
    tol == 0; otherwise |d - 1| <= tol snaps to exactly 1 first, which for
    "eq" (with tol >= 0) is the whole test, an exact d taken as a float by
    ``_float_row``."""
    cmp = _UNIT_MODES.get(mode)
    if cmp is None:
        raise SpaceError(f"unknown mode {_shown(mode)}")
    if exact and tol == 0:
        # d = n/m with m > 0 compares with 1 as n does with m
        return lambda row: [cmp(d.numerator, d.denominator) for d in row]
    if mode == "eq":
        def classify(vs):
            # an int or Fraction minus a float is float(d) - 1.0 already
            return [abs(v - 1.0) <= tol for v in vs]
    else:
        def classify(vs):
            return [cmp(1.0 if abs(v - 1.0) <= tol else v, 1) for v in map(float, vs)]
    if exact:
        return lambda row: classify(_float_row(row))
    return classify


def preserves_unit_distance(spaces, f: BijectionSpec, sample: SampleSet,
                            mode: str = "eq", tol: float = 1e-9) -> VerificationReport:
    """Bidirectional check of the unit-distance relation in the given mode.

    Forward pairs test d = 1 iff d(f., f.) = 1 (or <=, <); the declared
    inverse is tested the same way on the image sample. An unknown mode
    raises before f is evaluated.

    It builds two tables, X over the sample and Y over the images, so the
    tables it leaves stored are the two is_isometry asks for on the same
    sample. The inverse direction builds none: a preimage strictly equal to
    its sample point (``_moved``) has the sample's distances, so a pair of
    two such preimages takes the forward class, and only a pair that
    touches a moved preimage is computed, one ``row`` per preimage row.
    """
    _check_tol(tol)
    X, Y = spaces
    unit_x, unit_y = _unit_class(mode, tol, X.exact), _unit_class(mode, tol, Y.exact)
    rep = VerificationReport(f"unit-distance[{f.name}, mode={mode}]", tolerance=tol)
    pts = list(sample.points)
    images = [f.forward(p) for p in pts]
    preimages = [f.inverse(q) for q in images]
    _check_member(X, *preimages)
    moved = _moved(X, pts, preimages)
    movers = [j for j, m in enumerate(moved) if m]
    pre = [q.coords for q in preimages]
    row, n = X.row, len(pts)
    shared = X.exact == Y.exact
    pairs = 0
    for i, (row_x, row_y) in enumerate(zip(_pair_rows(X, pts), _pair_rows(Y, images))):
        pairs += len(row_x)
        cx = unit_x(row_x)
        cy = cx if shared and row_y is row_x else unit_y(row_y)
        if moved[i]:
            cb = unit_x(row(pre[i], pre[i + 1:]))
        else:
            # the moved partners after i only; every other pair is forward
            js = movers[bisect.bisect_right(movers, i):]
            cb = cx
            if js:
                cb = list(cx)
                for j, c in zip(js, unit_x(row(pre[i], [pre[j] for j in js]))):
                    cb[j - i - 1] = c
        if cx == cy == cb:
            continue
        for j, before, after, back in zip(range(i + 1, n), cx, cy, cb):
            if before != after:
                rep.fail({"direction": "forward", "x": pts[i], "y": pts[j],
                          "before": before, "after": after})
            if after != back:
                rep.fail({"direction": "inverse", "x": images[i], "y": images[j],
                          "image_class": after, "preimage_class": back})
    return rep.finalize(pairs=pairs)
