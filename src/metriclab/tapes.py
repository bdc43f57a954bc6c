"""Integer-step sequences, tape validation and construction in normed strips,
and the third-division collapse check.

A tape is 4p rows of unit-step sequences on four parallel lines, tied
together by a prescribed system of unit quadruples (consecutive distances 1,
endpoints at distance 3). The rigidity consequence is the row-1 position law
pos(j, z) = (j-1)(2p-1)/p + z along the base line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    GeodesicRef,
    Point,
    PreconditionError,
    SpaceError,
    _check_tol,
    _same_space,
    distance,
    distance_rows,
    vadd,
    vscale,
)
from .verify import VerificationReport, _mismatches


@dataclass
class PTape:
    space: object
    p: int
    points: dict            # (i, j, z) -> Point


# ---------------------------------------------------------------------------
# validation

def validate_r_sequence(space, points: dict, tol: float = 1e-9) -> VerificationReport:
    """Is ``points`` (int z -> Point) a unit-step copy of a window of integers:
    d(x_z1, x_z2) = |z1 - z2| for all pairs (exact on trees)? Each row is
    decided against its integer steps by ``_mismatches``, as ``is_isometry``
    decides its rows: exactly on an exact space, otherwise within tol, where
    a nan distance fails."""
    _check_tol(tol)
    zs = sorted(points)
    if len(zs) < 2:
        raise SpaceError("r-sequence window needs at least two indices")
    rep = VerificationReport("r-sequence", tolerance=tol)
    rows = distance_rows(space, [points[z] for z in zs])
    for a, (z1, row) in enumerate(zip(zs, rows)):
        want = [z2 - z1 for z2 in zs[a + 1:]]
        for k in _mismatches(row, want, tol, space.exact):
            rep.fail({"z1": z1, "z2": zs[a + 1 + k], "d": row[k], "expected": want[k]})
    return rep.finalize(pairs=len(zs) * (len(zs) - 1) // 2)


def tape_quadruples(p: int):
    """Index quadruples of the tape's segment system: p straight ones at
    z = 0 plus p diagonals, wrapping out-of-range j by +-p with the
    compensating z shift +-(2p - 1)."""
    quads = []
    for j in range(1, p + 1):
        quads.append([(i, j, 0) for i in range(4)])
    for k in range(1, p + 1):
        quad = []
        for i in range(4):
            j = k + 1 - i
            z = 0
            if j > p:
                j -= p
                z = 2 * p - 1
            elif j < 1:
                j += p
                z = -(2 * p - 1)
            quad.append((i, j, z))
        quads.append(quad)
    return quads


def validate_p_tape(tape: PTape, tol: float = 1e-9) -> VerificationReport:
    """Row r-sequence property, each of the 4p rows by
    ``validate_r_sequence``, plus the unit-quadruple system."""
    _check_tol(tol)
    p = tape.p
    if p < 2:
        raise SpaceError("tape needs p >= 2")
    rep = VerificationReport(f"p-tape[p={p}]", tolerance=tol)
    rows = {}
    for (i, j, z), pt in tape.points.items():
        rows.setdefault((i, j), {})[z] = pt
    for i in range(4):
        for j in range(1, p + 1):
            if (i, j) not in rows:
                raise SpaceError(f"missing row ({i}, {j})")
            found = validate_r_sequence(tape.space, rows[(i, j)], tol=tol).counts["violations"]
            if found:
                rep.fail({"row": (i, j), "violations": found})
    quads = tape_quadruples(p)
    for quad in quads:
        try:
            pts = [tape.points[idx] for idx in quad]
        except KeyError as missing:
            raise SpaceError(f"tape is missing point {missing}") from None
        # the three unit steps, then the ends at distance 3
        ds = [distance(tape.space, pts[a], pts[b]) for a, b in ((0, 1), (1, 2), (2, 3), (0, 3))]
        want = [1, 1, 1, 3]
        for k in _mismatches(ds, want, tol, tape.space.exact):
            rep.fail({"quad": quad, "step": k if k < 3 else "ends", "d": ds[k],
                      "expected": want[k]})
    return rep.finalize(rows=4 * p, quadruples=len(quads))


# ---------------------------------------------------------------------------
# third-division configuration check

def check_third_division(space, pts: dict) -> VerificationReport:
    """Verify the 2p third-division relations on 4p labeled points and, when
    they all hold, the forced coincidence of the middle rows.

    ``pts`` maps (i, j) for i in 0..3, j in 1..p to Points. Passing means
    every relation p-m-n-q holds (three equal thirds, metric collinearity)
    and the {y_1j} and {y_2j} rows each collapse to a single point.
    """
    rows = {i for (i, _) in pts}
    js = {j for (_, j) in pts}
    p = max(js) if js else 0
    if rows != {0, 1, 2, 3} or js != set(range(1, p + 1)) or len(pts) != 4 * p or p < 2:
        raise SpaceError("third-division check needs points (i, j), i in 0..3, j in 1..p")
    tol = 1e-9
    rep = VerificationReport(f"third-division[p={p}]", tolerance=tol)

    quads = tape_quadruples(p)
    for quad in quads:
        rel = [(i, j) for i, j, _ in quad]
        ys = [pts[idx] for idx in rel]
        dtot = float(distance(space, ys[0], ys[3]))
        third = dtot / 3.0
        segs = [float(distance(space, ys[a], ys[a + 1])) for a in range(3)]
        # three equal thirds, then metric collinearity
        for k in _mismatches(segs + [sum(segs)], [third] * 3 + [dtot], tol, False):
            rep.fail({"relation": rel, "segment": k, "d": segs[k], "expected": third} if k < 3
                     else {"relation": rel, "segment": "collinearity", "sum": sum(segs),
                           "total": dtot})
    relations_hold = not rep.witnesses
    rep.data["relations_hold"] = relations_hold
    if relations_hold:
        for i in (1, 2):
            ds = [float(distance(space, pts[(i, j1)], pts[(i, j2)]))
                  for j1 in range(1, p + 1) for j2 in range(j1 + 1, p + 1)]
            # max keeps a nan only when it comes first
            spread = next(filter(math.isnan, ds), max(ds))
            rep.data[f"row{i}_spread"] = spread
            if not spread <= tol:
                rep.fail({"row": i, "spread": spread})
    return rep.finalize(relations=len(quads))


# ---------------------------------------------------------------------------
# position law and construction

def tape_position(p: int, j: int, z: int) -> Fraction:
    """Row-1 position along the base line: (j-1)(2p-1)/p + z."""
    if not 1 <= j <= p:
        raise SpaceError(f"j = {j} outside 1..{p}")
    return Fraction((j - 1) * (2 * p - 1), p) + z


def build_p_tape(space, a: GeodesicRef, p: int, drift: float, window=None) -> PTape:
    """Construct a p-tape inside the strip about the base line ``a``.

    ``drift`` is the distance from the base line of the probe unit point q:
    the chord t of the unit circle at that height gates the construction
    (requires 2/p < 2 - |t|). The tape's own transverse step is the height
    where that chord is exactly 2 - 1/p, making all quadruple constraints
    hold and row 1 follow the position law along ``a``. Chords are the
    model's closed ``half_chord``; w = (-u2, u1) is at normed distance 1
    from the base direction u wherever it has one.

    The four rows (i, j) share their anchors on ``a``: the base line is
    evaluated once per (j, z), 4p + 1 times per j on the default window,
    and each row adds its own transverse offset to the same floats.
    """
    if not (getattr(space, "half_chord", None) and space.dim == 2):
        raise SpaceError("tape construction runs in strictly convex planes only")
    if p < 2:
        raise PreconditionError("need p >= 2")
    if not 0.0 < drift < 1.0:
        raise PreconditionError("drift must lie in (0, 1.0)")
    if a.kind != "line" or a.plus is None:
        raise SpaceError("tape construction needs a base line with ideal ends")
    if not _same_space(a.space, space):
        raise SpaceError("base line belongs to a different space")
    u = a.plus.rep                      # unit direction
    w = (-u[1], u[0])                   # Euclidean perp

    half = space.half_chord(u, drift)
    room = 2.0 - 2.0 * half
    if not 2.0 / p < room:
        raise PreconditionError(f"p = {p} too small for drift {drift}: need 2/p < {room:.6f}")

    D = 2.0 - 1.0 / p
    beta_tape = space.half_chord(u, D / 2.0)
    step_up = vadd(vscale(u, D / 2.0), vscale(w, beta_tape))

    zmin, zmax = window or (-2 * p, 2 * p)
    anchors = {}
    for j in range(1, p + 1):
        base = float(tape_position(p, j, 0))
        for z in range(zmin, zmax + 1):
            anchors[(j, z)] = a.at(base + z)
    pts = {}
    for i in range(4):
        off = vscale(step_up, i - 1)
        for (j, z), anchor in anchors.items():
            pts[(i, j, z)] = Point(space, vadd(anchor, off))
    return PTape(space, p, pts)
