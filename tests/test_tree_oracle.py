"""Exact tree geometry against an independent oracle: breadth-first search
over the ``TreeDesc`` edge list, with no ``MetricTree`` code. The last tests
pin the work shape of the heavy-path queries by counting table reads."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.grasshopper import grasshopper_distance
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


def _spider_desc(rng, legs, length, first):
    """A centre with ``legs`` legs of ``length`` vertices each, two leg tips
    carrying ends. ``first`` names the vertex listed first, which roots the
    tree: "centre", "tip" (the last vertex of leg 0) or "mid-leg"."""
    centre = "c"
    vs = [centre] + [(leg, k) for leg in range(legs) for k in range(length)]
    edges = []
    for leg in range(legs):
        prev = centre
        for k in range(length):
            edges.append((prev, (leg, k), Fraction(rng.randint(1, 2 * N), N)))
            prev = (leg, k)
    rng.shuffle(edges)
    ends = [(0, length - 1), (legs - 1, length - 1)]
    rng.shuffle(vs)
    root = {"centre": centre, "tip": (0, length - 1), "mid-leg": (1, length // 2)}[first]
    vs.remove(root)
    return TreeDesc(vertices=(root, *vs), edges=tuple(edges), denominator_bound=N,
                    ends=tuple(ends))


def _mid_spine_desc(rng, V):
    """A caterpillar, a spine of V/2 vertices with the rest hung off random
    spine vertices, whose first vertex sits in the middle of the spine."""
    spine = V // 2
    vs = [f"s{i}" for i in range(spine)] + [f"l{i}" for i in range(V - spine)]
    edges = [(vs[i - 1], vs[i], Fraction(rng.randint(1, 2 * N), N)) for i in range(1, spine)]
    edges += [(vs[rng.randrange(spine)], vs[i], Fraction(rng.randint(1, 2 * N), N))
              for i in range(spine, V)]
    rng.shuffle(edges)
    root = vs[spine // 2]
    rest = [v for v in vs if v != root]
    rng.shuffle(rest)
    return TreeDesc(vertices=(root, *rest), edges=tuple(edges), denominator_bound=N,
                    ends=(vs[0], vs[spine - 1]))


class Oracle:
    """Distances from the edge list: one BFS per source vertex, cached; and
    unit jumps by walking the edge list out to distance 1."""

    def __init__(self, desc):
        self.desc = desc
        self.adj = {v: [] for v in desc.vertices}
        for i, (u, v, ln) in enumerate(desc.edges):
            self.adj[u].append((v, ln, i))
            self.adj[v].append((u, ln, i))
        self._from = {}

    def from_vertex(self, src):
        if src not in self._from:
            out = {src: Fraction(0)}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nb, ln, _ in self.adj[cur]:
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

    def _walk(self, x, budget, came, out):
        """Append the points at distance ``budget`` > 0 from vertex x that
        are not reached back through ``came``: ("e", i) or ("r", end)."""
        for y, ln, i in self.adj[x]:
            if came == ("e", i):
                continue
            if budget < ln:
                out.append(("e", i, budget if self.desc.edges[i][0] == x else ln - budget))
            elif budget == ln:
                out.append(("v", y))
            else:
                self._walk(y, budget - ln, ("e", i), out)
        if x in self.desc.ends and came != ("r", x):
            out.append(("r", x, budget))

    def unit_neighbours(self, c):
        """Canonical coordinates of every point at distance exactly 1 from c."""
        out = []
        if c[0] == "v":
            self._walk(c[1], Fraction(1), None, out)
        elif c[0] == "e":
            _, i, off = c
            u, v, ln = self.desc.edges[i]
            for x, gap, step in ((u, off, -1), (v, ln - off, 1)):
                if gap > 1:
                    out.append(("e", i, off + step))
                elif gap == 1:
                    out.append(("v", x))
                else:
                    self._walk(x, 1 - gap, ("e", i), out)
        else:
            _, end, off = c
            out.append(("r", end, off + 1))
            if off > 1:
                out.append(("r", end, off - 1))
            elif off == 1:
                out.append(("v", end))
            else:
                self._walk(end, 1 - off, ("r", end), out)
        return out

    def jumps(self, a, b):
        """Fewest unit jumps from a to b, math.inf if none: a BFS over the
        points reached, with end rays cut far past both points."""
        if a == b:
            return 0
        cap = (max([c[2] for c in (a, b) if c[0] == "r"], default=0)
               + sum(ln for _, _, ln in self.desc.edges) + 3)
        seen, frontier, k = {a}, [a], 0
        while frontier:
            k += 1
            reached = []
            for c in frontier:
                for q in self.unit_neighbours(c):
                    if q == b:
                        return k
                    if q not in seen and not (q[0] == "r" and q[2] > cap):
                        seen.add(q)
                        reached.append(q)
            frontier = reached
        return math.inf


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


@pytest.mark.parametrize("legs, length, first", [(3, 40, "centre"), (5, 30, "tip"),
                                                 (4, 50, "mid-leg"), (8, 12, "mid-leg")])
def test_spider_matches_bfs_oracle(legs, length, first):
    # several long legs: a geodesic between two legs crosses light edges
    # far from the root wherever the root sits
    rng = random.Random(legs * 1000 + length)
    desc = _spider_desc(rng, legs, length, first)
    _check_against_oracle(rng, desc)
    _check_grasshopper(rng, desc)


def test_mid_spine_caterpillar_matches_bfs_oracle():
    # the root splits the spine: a climb from either half hops to the root
    rng = random.Random(401)
    desc = _mid_spine_desc(rng, 300)
    _check_against_oracle(rng, desc)
    _check_grasshopper(rng, desc)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), V=st.integers(100, 300))
def test_random_recursive_tree_matches_bfs_oracle(seed, V):
    rng = random.Random(seed)
    desc = _random_desc(rng, "bushy", V, 2)
    _check_against_oracle(rng, desc)
    _check_grasshopper(rng, desc)


def _check_grasshopper(rng, desc):
    """Jump counts against the oracle's BFS: from a random point to the
    points 1, 2 and 3 along a geodesic to a vertex, between two vertices a
    whole 1 to 4 apart, and from a vertex to the point 1/24 from it, whose
    vertex distances are off the vertices' 1/12 grid, so that no chain
    reaches it. Pairs stay near each other or in different offset classes,
    because the tree BFS scans its whole offset class at every jump."""
    tree = MetricTree(desc)
    oracle = Oracle(desc)
    pairs = []
    for _ in range(2):
        a = _random_point(rng, tree)
        v = tree_vertex(tree, rng.choice(desc.vertices))
        D = oracle.dist(a.coords, v.coords)
        if D:
            geo = geodesic_between(tree, a, v)
            pairs += [(a, geo.point_at(k)) for k in (1, 2, 3) if k <= D]
    v = rng.choice(desc.vertices)
    near = sorted((w for w, d in oracle.from_vertex(v).items()
                   if d in (1, 2, 3, 4)), key=str)
    if near:
        pairs.append((tree_vertex(tree, v), tree_vertex(tree, rng.choice(near))))
    edge = rng.randrange(len(desc.edges))
    pairs.append((tree_vertex(tree, desc.edges[edge][0]),
                  tree_edge_point(tree, edge, Fraction(1, 2 * N))))
    for a, b in pairs:
        assert grasshopper_distance(tree, a, b) == oracle.jumps(a.coords, b.coords)


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


class _CountingTable(dict):
    """A copy of a ``TreeDesc.up`` table that counts the entries read."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)


def _counting(desc):
    table = _CountingTable(desc.up)
    object.__setattr__(desc, "up", table)
    return table


def _complete_binary_desc(V):
    vs = tuple(range(V))
    return TreeDesc(vs, tuple((i, (i - 1) // 2, Fraction(1, 2)) for i in range(1, V)), 2)


def _mid_path_desc(V):
    """The path 0 - 1 - ... - V-1 of half-unit edges, rooted at V // 2."""
    return TreeDesc((V // 2, *range(V // 2), *range(V // 2 + 1, V)),
                    tuple((i, i + 1, Fraction(1, 2)) for i in range(V - 1)), 2)


@pytest.mark.parametrize("shape", ["recursive", "caterpillar", "mid-spine", "spider",
                                   "binary", "path"])
def test_tree_queries_hop_at_most_log2_heavy_paths(shape):
    # work shape, not time: a common ancestor reads the two anchors' entries
    # and one per hop, a climb to the root three entries and one per hop;
    # each light edge on a root path at least halves the subtree, so an
    # endpoint hops at most floor(log2 V) times
    rng = random.Random(17)
    desc = {"recursive": lambda: _random_desc(rng, "bushy", 300, 2),
            "caterpillar": lambda: _random_desc(rng, "caterpillar", 300, 2),
            "mid-spine": lambda: _mid_spine_desc(rng, 300),
            "spider": lambda: _spider_desc(rng, 6, 40, "mid-leg"),
            "binary": lambda: _complete_binary_desc(255),
            "path": lambda: _mid_path_desc(300)}[shape]()
    tree = MetricTree(desc)
    V, n, root = len(desc.vertices), desc.denominator_bound, desc.vertices[0]
    bound = V.bit_length() - 1
    depth = {v: entry[2] for v, entry in desc.up.items()}
    table = _counting(desc)
    for v in desc.vertices[1:]:
        table.reads = 0
        assert tree._top(v, depth[v], root, 0, n) == 0
        assert table.reads - 2 <= bound
        table.reads = 0
        assert tree._coords(v, 0, n) == ("v", root)
        assert table.reads - 3 <= bound
    for _ in range(300):
        a, b = rng.sample(desc.vertices, 2)
        table.reads = 0
        tree._top(a, depth[a], b, depth[b], n)
        assert table.reads - 2 <= 2 * bound


def test_long_path_distance_takes_at_most_two_hops():
    # 20,000 vertices rooted mid-path: one end's path hangs off the root
    V = 20000
    desc = _mid_path_desc(V)
    tree = MetricTree(desc)
    a, b = tree_vertex(tree, 0), tree_vertex(tree, V - 1)
    table = _counting(desc)
    assert distance(tree, a, b) == Fraction(V - 1, 2)
    # two anchors, two entries in the common ancestor step, and the hops
    assert table.reads - 4 <= 2
    # a geodesic point reads at most five entries and one per hop
    geo = geodesic_between(tree, a, b)
    for t, want in ((Fraction(V - 3, 2), ("v", V - 3)),
                    (Fraction(3, 4), ("e", 1, Fraction(1, 4)))):
        table.reads = 0
        assert geo.point_at(t).coords == want
        assert table.reads - 5 <= 1
