"""Grasshopper metric (minimal chains of exact unit-distance jumps) and the
catalog of unit-distance-preserving non-isometries: the sine shift of the
line, sphere flips, tree point swaps, smooth tree reparameterizations, and
maximum-product lifts."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .numeric import bisect_root
from .spaces import (
    Euclidean,
    MaxProduct,
    MetricTree,
    Point,
    RealLine,
    SpaceError,
    SphereIntrinsic,
    _check_member,
    _of_model,
    distance,
    distance_rows,
    point,
    tree_edge_point,
    vscale,
)
from .verify import BijectionSpec, SampleSet

INF = math.inf


# ---------------------------------------------------------------------------
# unit-jump graphs

@dataclass
class UnitJumpGraph:
    """Finite graph whose edges are the exact unit-distance pairs of nodes."""

    nodes: tuple
    adjacency: dict = field(default_factory=dict)

    @staticmethod
    def build(space, points) -> "UnitJumpGraph":
        nodes = tuple(points)
        rows = distance_rows(space, nodes)
        exact = space.exact
        adj = {i: [] for i in range(len(nodes))}
        for i, row in enumerate(rows):
            if exact:
                hits = [j for j, d in enumerate(row, i + 1) if d == 1]
            else:
                # d - 1.0 converts an int, bool or Fraction d as float(d) does
                hits = [j for j, d in enumerate(row, i + 1) if abs(d - 1.0) <= 1e-9]
            adj[i] += hits
            for j in hits:
                adj[j].append(i)
        return UnitJumpGraph(nodes, adj)

    def index_of(self, p: Point) -> int:
        for i, q in enumerate(self.nodes):
            if q.coords == p.coords:
                return i
        raise SpaceError("point is not a graph node")


def _bfs(graph: UnitJumpGraph, src: int) -> dict:
    """Jump counts from node src to every node it reaches."""
    seen = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nb in graph.adjacency[cur]:
            if nb not in seen:
                seen[nb] = seen[cur] + 1
                queue.append(nb)
    return seen


def graph_bfs_distance(graph: UnitJumpGraph, x: Point, y: Point):
    return _bfs(graph, graph.index_of(x)).get(graph.index_of(y), INF)


def grasshopper_components(graph: UnitJumpGraph):
    """Partition of the nodes into unit-jump connected components."""
    remaining = set(range(len(graph.nodes)))
    comps = []
    while remaining:
        comp = _bfs(graph, min(remaining))
        remaining -= comp.keys()
        comps.append(tuple(graph.nodes[i] for i in sorted(comp)))
    return comps


# ---------------------------------------------------------------------------
# grasshopper distance

def grasshopper_distance(space, x: Point, y: Point):
    """Minimal number of exact unit jumps from x to y; math.inf if none.

    The model's ``grasshopper`` closed form, on the real line (reachable
    set x + Z), Euclidean dim >= 2 (ceil of the distance, two jumps for
    short hops) and metric trees (an integer BFS over the anchors of the
    reachable offset classes); every other model raises SpaceError.
    ``graph_bfs_distance`` on a graph of Points is the oracle.
    """
    _check_member(space, x, y)
    return space.grasshopper(x.coords, y.coords)


def euclid_jump_chain(space, x: Point, y: Point):
    """Witness chain of unit jumps realizing the analytic Euclidean count."""
    d = float(distance(_of_model(space, Euclidean), x, y))
    g = space.grasshopper(x.coords, y.coords)
    if g == 0:
        return [x]
    if g == 1:
        return [x, y]
    perp = _unit_perp(x, y)
    chain = [x]
    u = vscale(tuple(b - a for a, b in zip(x.coords, y.coords)), 1.0 / d)
    straight = g - 2
    for k in range(1, straight + 1):
        chain.append(point(space, tuple(a + k * ui for a, ui in zip(x.coords, u))))
    # close the remaining gap r in (0, 2] with an isoceles pair
    w = chain[-1]
    r = float(distance(space, w, y))
    mid = vscale(tuple(a + b for a, b in zip(w.coords, y.coords)), 0.5)
    h = math.sqrt(max(0.0, 1.0 - (r / 2.0) ** 2))
    apex = tuple(m + h * p for m, p in zip(mid, perp))
    chain.append(point(space, apex))
    chain.append(y)
    return chain


def _unit_perp(x, y):
    dx = tuple(b - a for a, b in zip(x.coords, y.coords))
    nonzero = max(range(len(dx)), key=lambda i: abs(dx[i]))
    other = (nonzero + 1) % len(dx)
    perp = [0.0] * len(dx)
    perp[nonzero], perp[other] = -dx[other], dx[nonzero]
    n = math.sqrt(sum(v * v for v in perp))
    return tuple(v / n for v in perp)


def tree_offset_class_nodes(space: MetricTree, x: Point, y: Point):
    """The finite closed node set: every point whose vertex distances share
    x's or y's residues, with end rays truncated past any useful chain."""
    _check_member(_of_model(space, MetricTree), x, y)
    return [Point(space, c) for c in space.offset_class(x.coords, y.coords)]


# ---------------------------------------------------------------------------
# tree swap counterexample

@dataclass
class TreePointSet:
    """The two vertex-offset classes A_alpha, A_beta of a tree whose edges
    all have length 1/n, for rational 0 < alpha < beta < 1/(2n)."""

    space: MetricTree
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        step = _unit_step(self.space, "tree swap")
        if not (0 < self.alpha < self.beta < step / 2):
            raise SpaceError("offsets must satisfy 0 < alpha < beta < 1/(2n)")

    def class_points(self, offset: Fraction):
        step = Fraction(1, self.space.desc.denominator_bound)
        pts = []
        for i in range(len(self.space.desc.edges)):
            pts.append(tree_edge_point(self.space, i, offset))
            pts.append(tree_edge_point(self.space, i, step - offset))
        return tuple(pts)

    @property
    def a_alpha(self):
        return self.class_points(self.alpha)

    @property
    def a_beta(self):
        return self.class_points(self.beta)

    def union_sample(self) -> SampleSet:
        return SampleSet(self.space, self.a_alpha + self.a_beta)


def tree_swap_bijection(tps: TreePointSet) -> BijectionSpec:
    """Swap the alpha- and beta-points measured from the same edge endpoint;
    identity elsewhere. An involution, exact in rational arithmetic."""
    space = tps.space
    step = Fraction(1, space.desc.denominator_bound)
    swap = {
        tps.alpha: tps.beta, tps.beta: tps.alpha,
        step - tps.alpha: step - tps.beta, step - tps.beta: step - tps.alpha,
    }

    def fwd(p: Point) -> Point:
        c = p.coords
        if c[0] == "e" and c[2] in swap:
            return tree_edge_point(space, c[1], swap[c[2]])
        return p
    return BijectionSpec(
        name="tree-swap", domain=space, codomain=space, forward=fwd, inverse=fwd)


def _unit_step(space: MetricTree, who: str, n: int = None) -> Fraction:
    """1/n, after checking that space is a tree, that every edge has length
    1/n (n the tree's denominator bound unless given) and that the tree has
    no ends; SpaceError naming ``who`` otherwise."""
    desc = _of_model(space, MetricTree).desc
    step = Fraction(1, desc.denominator_bound if n is None else n)
    if any(ln != step for (_, _, ln) in desc.edges):
        raise SpaceError(f"{who} needs all edge lengths equal to 1/n")
    if desc.ends:
        raise SpaceError(f"{who} is defined on trees without ends")
    return step


def _sine_warp(n: int):
    """(warp, unwarp) for t -> t + sin(2 pi n t) / (2 pi n), the sine warp:
    strictly increasing, fixing every multiple of 1/(2n). ``unwarp(s, lo,
    hi)`` is the one inverse, a bisection for s on the bracket [lo, hi]."""
    two_pi_n = 2.0 * math.pi * n

    def warp(t: float) -> float:
        return t + math.sin(two_pi_n * t) / two_pi_n

    def unwarp(s: float, lo: float, hi: float) -> float:
        # warp(t) - s in one call, the same float operations in the same order
        def gap(t):
            return t + math.sin(two_pi_n * t) / two_pi_n - s
        return bisect_root(gap, lo, hi, tol=1e-15)
    return warp, unwarp


def smooth_tree_bijection(space: MetricTree, n: int) -> BijectionSpec:
    """Edgewise t -> t + sin(2 pi n t) / (2 pi n) on a tree whose edges all
    have length 1/n; fixes vertices, continuous, unit-distance preserving,
    and not an isometry."""
    edge = float(_unit_step(space, "smooth tree bijection", n))
    warp, unwarp = _sine_warp(n)

    def lift(g):
        def on_edges(p: Point) -> Point:
            c = p.coords
            if c[0] != "e":
                return p
            return tree_edge_point(space, c[1], Fraction(g(float(c[2]))))
        return on_edges
    return BijectionSpec(name="tree-smooth", domain=space, codomain=space,
                         forward=lift(warp),
                         inverse=lift(lambda s: unwarp(s, 0.0, edge)))


# ---------------------------------------------------------------------------
# line, sphere, and product counterexamples

def line_counterexample() -> BijectionSpec:
    """f(x) = x + sin(2 pi x) / (2 pi) on the real line, with its exact
    monotone inverse; preserves the classes d = 1, d <= 1, d < 1."""
    space = RealLine()
    warp, unwarp = _sine_warp(1)

    def fwd(p: Point) -> Point:
        return point(space, warp(p.coords))

    def inv(p: Point) -> Point:
        y = p.coords
        return point(space, unwarp(y, y - 0.5, y + 0.5))
    return BijectionSpec(name="line-sine", domain=space, codomain=space,
                         forward=fwd, inverse=inv)


def sphere_flip_bijection(radius: float, dim: int, membership) -> BijectionSpec:
    """phi(x) = -x on a centrally symmetric proper subset A, identity off A.

    ``membership`` is a predicate on coordinate tuples; it must satisfy
    membership(x) == membership(-x) (checked on every evaluated point).
    """
    space = SphereIntrinsic(radius, dim)

    def fwd(p: Point) -> Point:
        c = p.coords
        neg = tuple(-v for v in c)
        inside = bool(membership(c))
        if inside != bool(membership(neg)):
            raise SpaceError("membership set is not centrally symmetric")
        return Point(space, neg) if inside else p
    return BijectionSpec(name="sphere-flip", domain=space, codomain=space,
                         forward=fwd, inverse=fwd)


def band_membership(threshold: float):
    """Centrally symmetric band |x_n| >= threshold, x_n the last coordinate
    (a proper subset for thresholds in (0, 1))."""
    def member(coords):
        return abs(coords[-1]) >= threshold
    return member


def max_product_lift(phi: BijectionSpec, left_space) -> BijectionSpec:
    """Lift a bijection of Y to (x, y) -> (x, phi(y)) on MaxProduct(X, Y)."""
    Y = phi.domain
    space = MaxProduct(left_space, Y)

    def lift(g):
        def on_right(p: Point) -> Point:
            cl, cr = p.coords
            return Point(space, (cl, g(Point(Y, cr)).coords))
        return on_right
    return BijectionSpec(name=f"max-lift[{phi.name}]", domain=space, codomain=space,
                         forward=lift(phi.forward), inverse=lift(phi.inverse))
