"""The tree grasshopper distance, an integer breadth-first search over
offset-class anchors, against the lattice oracle in ``tests/oracles.py``: a
``UnitJumpGraph`` of Points on the whole 1/L grid, end rays past the cap."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.grasshopper import graph_bfs_distance, grasshopper_distance
from metriclab.spaces import (
    MetricTree,
    TreeDesc,
    tree_edge_point,
    tree_ray_point,
    tree_vertex,
)

from oracles import _lattice_jump_graph


def _small_tree(rng, n, V, n_ends):
    """V vertices, each hung off a random earlier one by an edge of length
    k/n <= 2, in random orientation and order; n_ends of them carry an end."""
    vs = [f"t{i}" for i in range(V)]
    edges = []
    for i in range(1, V):
        j = rng.randrange(i)
        u, v = (vs[i], vs[j]) if rng.random() < 0.5 else (vs[j], vs[i])
        edges.append((u, v, Fraction(rng.randint(1, 2 * n), n)))
    rng.shuffle(edges)
    ends = rng.sample(vs, n_ends)
    rng.shuffle(vs)
    return MetricTree(TreeDesc(vertices=tuple(vs), edges=tuple(edges),
                               denominator_bound=n, ends=tuple(ends)))


def _small_point(rng, tree):
    # offsets over n and 2n: points in the vertices' class and off it
    desc = tree.desc
    kind = rng.randrange(3 if desc.ends else 2)
    if kind == 0:
        return tree_vertex(tree, rng.choice(desc.vertices))
    den = 2 * desc.denominator_bound
    if kind == 1:
        i = rng.randrange(len(desc.edges))
        ln = desc.edges[i][2]
        return tree_edge_point(tree, i, ln * Fraction(rng.randint(1, den - 1), den))
    return tree_ray_point(tree, rng.choice(desc.ends), Fraction(rng.randint(1, 3 * den), den))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), V=st.integers(2, 4),
       n_ends=st.integers(0, 2))
def test_tree_grasshopper_matches_lattice_oracle(seed, n, V, n_ends):
    rng = random.Random(seed)
    tree = _small_tree(rng, n, V, n_ends)
    pts = [_small_point(rng, tree) for _ in range(4)]
    graph = _lattice_jump_graph(tree, pts)
    for a in pts:
        for b in pts:
            assert grasshopper_distance(tree, a, b) == graph_bfs_distance(graph, a, b)
