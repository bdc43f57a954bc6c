"""Exact tree geometry against an independent oracle: breadth-first search
over the ``TreeDesc`` edge list, with no ``MetricTree`` code."""

import random
from collections import deque
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.horofn import busemann_value
from metriclab.spaces import (
    MetricTree,
    TreeDesc,
    distance,
    distance_rows,
    geodesic_between,
    line_through,
    ray_from,
    tree_edge_point,
    tree_end,
    tree_ray_point,
    tree_vertex,
)

N = 12   # edge lengths k/12


def _random_desc(rng, shape, V, n_ends):
    """Bushy trees hang each vertex off a random earlier one; caterpillars
    hang the odd vertices off a path of the even ones. Vertex order and edge
    orientation are shuffled, so the first vertex is an arbitrary one."""
    vs = [f"t{i}" if i % 3 else i for i in range(V)]
    edges = []
    for i in range(1, V):
        if shape == "bushy":
            j = rng.randrange(i)
        else:
            j = i - 2 if i % 2 == 0 else i - 1
            j = max(j, 0)
        u, v = (vs[i], vs[j]) if rng.random() < 0.5 else (vs[j], vs[i])
        edges.append((u, v, Fraction(rng.randint(1, 2 * N), N)))
    rng.shuffle(edges)
    ends = rng.sample(vs, n_ends)
    rng.shuffle(vs)
    return TreeDesc(vertices=tuple(vs), edges=tuple(edges), denominator_bound=N,
                    ends=tuple(ends))


class Oracle:
    """Distances from the edge list: one BFS per source vertex, cached."""

    def __init__(self, desc):
        self.desc = desc
        self.adj = {v: [] for v in desc.vertices}
        for u, v, ln in desc.edges:
            self.adj[u].append((v, ln))
            self.adj[v].append((u, ln))
        self._from = {}

    def from_vertex(self, src):
        if src not in self._from:
            out = {src: Fraction(0)}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nb, ln in self.adj[cur]:
                    if nb not in out:
                        out[nb] = out[cur] + ln
                        queue.append(nb)
            self._from[src] = out
        return self._from[src]

    def _attach(self, c):
        if c[0] == "v":
            return [(c[1], Fraction(0))]
        if c[0] == "e":
            u, v, ln = self.desc.edges[c[1]]
            return [(u, c[2]), (v, ln - c[2])]
        return [(c[1], c[2])]

    def dist(self, a, b):
        if a[0] == b[0] and a[0] in ("e", "r") and a[1] == b[1]:
            return abs(a[2] - b[2])
        if a == b:
            return Fraction(0)
        return min(ca + self.from_vertex(va)[vb] + cb
                   for va, ca in self._attach(a) for vb, cb in self._attach(b))

    def busemann(self, end, base, y):
        def h(c):
            if c[0] == "r" and c[1] == end:
                return -c[2]
            return self.dist(("v", end), c)
        return h(y) - h(base)


def _random_point(rng, tree):
    # offsets over 7 and 16 as well as N: the integer depths of a distance
    # share a denominator that the anchors, not only N, decide
    desc = tree.desc
    kind = rng.randrange(3 if desc.ends else 2)
    if kind == 0:
        return tree_vertex(tree, rng.choice(desc.vertices))
    den = rng.choice((7, 16, N))
    if kind == 1:
        i = rng.randrange(len(desc.edges))
        return tree_edge_point(tree, i, desc.edges[i][2] * Fraction(rng.randint(1, den - 1), den))
    return tree_ray_point(tree, rng.choice(desc.ends), Fraction(rng.randint(1, 3 * den), den))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(("bushy", "caterpillar")),
       V=st.integers(2, 60), n_ends=st.integers(0, 2))
def test_tree_matches_bfs_oracle(seed, shape, V, n_ends):
    rng = random.Random(seed)
    _check_against_oracle(rng, _random_desc(rng, shape, V, n_ends))


def test_deep_caterpillar_matches_bfs_oracle():
    # about 200 levels: every climb passes many vertices
    rng = random.Random(400)
    _check_against_oracle(rng, _random_desc(rng, "caterpillar", 400, 2))


def _params(D):
    """Parameters in [0, D]: eighths, sevenths and ninths (denominators
    that need not divide the climb's L), and exact-binary floats."""
    params = [D * k / 8 for k in range(9)] + [D * k / 7 for k in range(1, 7)]
    return params + [D * k / 9 for k in range(1, 9)] + [float(D) * 0.37, float(D) * 0.5]


def _check_against_oracle(rng, desc):
    tree = MetricTree(desc)
    oracle = Oracle(desc)
    pts = [_random_point(rng, tree) for _ in range(8)]

    for a in pts:
        for b in pts:
            assert distance(tree, a, b) == oracle.dist(a.coords, b.coords)
    for i, row in enumerate(distance_rows(tree, pts)):
        assert len(row) == len(pts) - 1 - i
        for j, d in enumerate(row, i + 1):
            assert d == distance(tree, pts[i], pts[j])
            assert d == oracle.dist(pts[i].coords, pts[j].coords)

    for a, b in zip(pts, pts[1:]):
        D = oracle.dist(a.coords, b.coords)
        if D == 0:
            continue
        geo = geodesic_between(tree, a, b)
        assert geo.point_at(0) == a and geo.point_at(D) == b
        for t in _params(D):
            p = geo.point_at(t).coords
            assert oracle.dist(a.coords, p) == Fraction(t)
            assert oracle.dist(p, b.coords) == D - Fraction(t)

    for end in desc.ends:
        xi = tree_end(tree, end)
        for base in pts[:2]:
            ray = ray_from(tree, base, xi)
            L = oracle.dist(base.coords, ("v", end))
            params = [(L + 2) * Fraction(k, 8) for k in range(9)]
            along = [ray.point_at(t).coords for t in params]
            assert along[0] == base.coords
            for s, p in zip(params, along):
                for t, q in zip(params, along):
                    assert oracle.dist(p, q) == abs(s - t)
            for y in pts:
                want = oracle.busemann(end, base.coords, y.coords)
                assert busemann_value(tree, ray, y, method="closed") == want
                assert busemann_value(tree, ray, y, method="limit") == want

    if len(desc.ends) == 2:
        line = line_through(tree, tree_end(tree, desc.ends[0]), tree_end(tree, desc.ends[1]))
        span = oracle.dist(("v", desc.ends[0]), ("v", desc.ends[1]))
        params = [p - 2 for p in _params(span + 4)]
        along = [line.point_at(t).coords for t in params]
        back = [line.reversed().point_at(t).coords for t in params]
        for s, p, p_back in zip(params, along, back):
            for t, q, q_back in zip(params, along, back):
                assert oracle.dist(p, q) == abs(Fraction(s) - Fraction(t))
                assert oracle.dist(p_back, q_back) == abs(Fraction(s) - Fraction(t))
                assert oracle.dist(p, q_back) == abs(Fraction(s) + Fraction(t))


def test_common_denominator_includes_the_bound():
    # b and c sit at depth 1, an integer, but their common ancestor a sits
    # at 1/3: over the anchors' denominators alone (L = 1) the climb would
    # read a's depth as 0 and return 2
    third = Fraction(1, 3)
    tree = MetricTree(TreeDesc(("r", "a", "b", "c"),
                               (("r", "a", third), ("a", "b", 2 * third),
                                ("a", "c", 2 * third)), 3))
    b, c = tree_vertex(tree, "b"), tree_vertex(tree, "c")
    assert distance(tree, b, c) == Fraction(4, 3)
    assert list(distance_rows(tree, [b, c])) == [[Fraction(4, 3)], []]
    geo = geodesic_between(tree, b, c)
    assert geo.point_at(Fraction(2, 3)).coords == ("v", "a")
