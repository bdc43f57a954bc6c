"""Exact values are decided on their integer numerators and denominators:
the metric axioms, the tree's closed Busemann value and its limit, the
tree's offset bounds, and the float tolerance tests on exact rows. Each is
checked here against the Fraction-operator expression it replaced (kept in
``tests/oracles.py``), and a count pins that none of these paths calls a
Fraction operator."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import grasshopper as gh
from metriclab.horofn import busemann_value
from metriclab.spaces import (
    ConvergenceError,
    MetricTree,
    Point,
    RealLine,
    SpaceError,
    TreeDesc,
    direction_ideal,
    point,
    ray_from,
    tree_edge_point,
    tree_end,
    tree_ray_point,
    tree_vertex,
)
from metriclab.suites import ended_tree, swap_tree
from metriclab.verify import (
    BijectionSpec,
    SampleSet,
    _unit_class,
    check_metric_axioms,
    is_isometry,
    preserves_unit_distance,
    random_sample,
)

from oracles import (
    _busemann_limit_per_point,
    _check_metric_axioms_fraction,
    _is_isometry_pairwise,
    _preserves_unit_distance_pairwise,
    _tree_busemann_fraction,
    _tree_offset_in_bounds,
    _unit_class_of,
)


@dataclass(frozen=True, eq=False)
class _FullTable(RealLine):
    """An exact line whose points 0, ..., n - 1 are d(i, j) = table[i][j]
    apart: any Fractions, so a table may be asymmetric, have zeros off its
    diagonal or break the triangle inequality. With eq=False no two
    instances are the same space."""

    table: tuple = ()
    exact = True

    def row(self, a, bs):
        return [self.table[a][b] for b in bs]


def _points(space):
    return tuple(Point(space, k) for k in range(len(space.table)))


# ---------------------------------------------------------------------------
# the metric axioms

@st.composite
def _axiom_tables(draw):
    """Square tables over a pool of 0, a, b, a + b and one value with
    numerator and denominator far past 2^53, so that equal distances and
    triangles with zero slack are frequent."""
    a = draw(st.fractions(0, 10, max_denominator=12))
    b = draw(st.fractions(0, 10, max_denominator=12))
    big = draw(st.fractions(0, 10 ** 30, max_denominator=10 ** 20))
    pool = st.sampled_from([Fraction(0), a, b, a + b, big])
    n = draw(st.integers(1, 4))
    return tuple(tuple(draw(pool) for _ in range(n)) for _ in range(n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_axiom_tables(), seed=st.integers(0, 2 ** 16))
def test_axiom_verdicts_match_fraction_operators(table, seed):
    space = _FullTable(table)
    sample = SampleSet(space, _points(space))
    got = check_metric_axioms(space, sample, triples=20, seed=seed)
    want = _check_metric_axioms_fraction(space, sample, triples=20, seed=seed)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("axiom, table", [
    ("symmetry", ((0, 1), (2, 0))),
    ("identity", ((0, 0), (0, 0))),
    ("triangle", ((0, 1, 3), (1, 0, 1), (3, 1, 0))),
    (None, ((0, 1, 2), (1, 0, 1), (2, 1, 0))),     # d(0, 2) ties d(0, 1) + d(1, 2)
], ids=["symmetry", "identity", "triangle", "tie"])
def test_axiom_verdicts_on_one_broken_axiom(axiom, table):
    space = _FullTable(tuple(tuple(Fraction(d, 3) for d in r) for r in table))
    sample = SampleSet(space, _points(space))
    got = check_metric_axioms(space, sample, triples=100, seed=3)
    want = _check_metric_axioms_fraction(space, sample, triples=100, seed=3)
    assert got.to_json() == want.to_json()
    assert {w["axiom"] for w in got.witnesses} == ({axiom} if axiom else set())


# ---------------------------------------------------------------------------
# the tree's Busemann value

def _random_ended_tree(rng):
    """A random recursive tree of 2-10 vertices with 1-3 ends at any of
    them; edge lengths k/n."""
    n = rng.choice((1, 2, 6, 12))
    vs = [f"t{i}" for i in range(rng.randint(2, 10))]
    edges = tuple((vs[rng.randrange(i)], vs[i], Fraction(rng.randint(1, 2 * n), n))
                  for i in range(1, len(vs)))
    ends = tuple(rng.sample(vs, rng.randint(1, min(3, len(vs)))))
    return MetricTree(TreeDesc(tuple(vs), edges, n, ends))


def _tree_point(rng, tree, end=None):
    """A vertex, an edge point or a ray point, with offsets over 7, 12 and
    16; a point on the ray at ``end`` if one is given."""
    desc = tree.desc
    den = rng.choice((7, 12, 16))
    kind = 2 if end is not None else rng.randrange(3)
    if kind == 0:
        return tree_vertex(tree, rng.choice(desc.vertices))
    if kind == 1:
        i = rng.randrange(len(desc.edges))
        return tree_edge_point(tree, i, desc.edges[i][2] * Fraction(rng.randint(1, den - 1), den))
    return tree_ray_point(tree, end or rng.choice(desc.ends), Fraction(rng.randint(1, 3 * den), den))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ended=st.booleans(), base_on_ray=st.booleans(),
       y_on_ray=st.booleans())
def test_tree_busemann_matches_fraction_operators(seed, ended, base_on_ray, y_on_ray):
    # the base or y on the end's own ray, or both, takes the branch that
    # reads minus its offset
    rng = random.Random(seed)
    tree = ended_tree() if ended else _random_ended_tree(rng)
    end = rng.choice(tree.desc.ends)
    base = _tree_point(rng, tree, end if base_on_ray else None)
    ray = ray_from(tree, base, tree_end(tree, end))
    for _ in range(4):
        y = _tree_point(rng, tree, end if y_on_ray else None)
        want = _tree_busemann_fraction(tree, ray, y.coords)
        got = busemann_value(tree, ray, y, method="closed")
        assert type(got) is Fraction and got == want
        assert busemann_value(tree, ray, y, method="limit") == want
        assert _busemann_limit_per_point(tree, ray, y) == want


@dataclass(frozen=True, eq=False)
class _ScaledLine(RealLine):
    """The real line at ``scale`` times its distance, in exact Fractions:
    beta stabilizes on it only at scale 1."""

    scale: int = 1
    exact = True

    def row(self, a, bs):
        return [self.scale * abs(Fraction(a) - Fraction(b)) for b in bs]


@pytest.mark.parametrize("scale", [1, 2])
def test_exact_limit_stabilizes_as_the_fraction_operators_decide(scale):
    space = _ScaledLine(scale)
    ray = ray_from(space, point(space, 0.5), direction_ideal(space, 1.0))
    y = point(space, -0.25)
    if scale == 1:
        assert busemann_value(space, ray, y, method="limit") == Fraction(3, 4)
        assert _busemann_limit_per_point(space, ray, y) == Fraction(3, 4)
        return
    with pytest.raises(ConvergenceError, match="did not stabilize"):
        busemann_value(space, ray, y, method="limit")
    with pytest.raises(ConvergenceError, match="did not stabilize"):
        _busemann_limit_per_point(space, ray, y)


# ---------------------------------------------------------------------------
# the tree's offset bounds

def _valid(tree, coords):
    try:
        tree.validate(coords)
    except SpaceError:
        return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(num=st.integers(1, 10 ** 20), den=st.integers(1, 10 ** 6), q=st.integers(1, 10 ** 20))
def test_offset_bounds_match_fraction_operators(num, den, q):
    # off = 0 and off = length, and one 1/q step inside and outside each
    ln = Fraction(num, den)
    tree = MetricTree(TreeDesc(("a", "b"), (("a", "b", ln),), ln.denominator, ("b",)))
    step = Fraction(1, q)
    for off in (Fraction(0), ln, step, ln - step, -step, ln + step):
        assert _valid(tree, ("e", 0, off)) == _tree_offset_in_bounds(off, ln), off
        assert _valid(tree, ("r", "b", off)) == _tree_offset_in_bounds(off), off


def test_offset_bounds_refuse_numbers_that_are_not_fractions():
    tree = ended_tree()
    for off in (0.25, 1, True, "1/4", None):
        assert not _valid(tree, ("e", 0, off))
        assert not _valid(tree, ("r", "e1", off))


# ---------------------------------------------------------------------------
# the float tolerance tests on exact rows

def _near_one(tol):
    """Exact distances around 1 and 1 +- tol: the double 1 +- tol or 1 moved
    by 2^-k (k >= 54), which float() rounds back onto it; ratios of
    integers near 2^53, 2^70 and 2^1400 (past double range); and any
    fraction in [0, 3]."""
    edges = [Fraction(1 + tol), Fraction(1 - tol), Fraction(1)]
    return st.one_of(
        st.builds(lambda e, k, s: e + s * Fraction(1, 2 ** k), st.sampled_from(edges),
                  st.integers(54, 200), st.sampled_from((-1, 0, 1))),
        st.builds(lambda a, b, k: Fraction(2 ** k + a, 2 ** k + b), st.integers(-2 ** 40, 2 ** 40),
                  st.integers(-2 ** 40, 2 ** 40), st.sampled_from((53, 70, 1400))),
        st.fractions(0, 3, max_denominator=2 ** 70),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tol=st.sampled_from([0.0, 1e-9, 0.25]), mode=st.sampled_from(["eq", "le", "lt"]),
       data=st.data())
def test_exact_unit_classes_match_float_conversion(tol, mode, data):
    row = data.draw(st.lists(_near_one(tol), max_size=12))
    assert _unit_class(mode, tol, True)(row) == [_unit_class_of(d, mode, tol, True) for d in row]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tol=st.sampled_from([1e-9, 0.25]), mode=st.sampled_from(["eq", "le", "lt"]),
       data=st.data())
def test_exact_bijection_verdicts_match_float_conversion(tol, mode, data):
    n = data.draw(st.integers(2, 6))
    values = _near_one(tol)

    def table():
        return tuple(tuple(data.draw(values) for _ in range(n)) for _ in range(n))
    X, Y = _FullTable(table()), _FullTable(table())
    spec = BijectionSpec("tabled", X, Y, lambda p: Point(Y, p.coords),
                         lambda q: Point(X, q.coords))
    sample = SampleSet(X, _points(X))
    got = is_isometry((X, Y), spec, sample, tol=tol)
    assert got.to_json() == _is_isometry_pairwise((X, Y), spec, sample, tol=tol).to_json()
    got = preserves_unit_distance((X, Y), spec, sample, mode=mode, tol=tol)
    want = _preserves_unit_distance_pairwise((X, Y), spec, sample, mode=mode, tol=tol)
    assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# the count: no Fraction operator on the exact paths

_SPIED = ("__add__", "__sub__", "__lt__", "__le__", "__gt__", "__ge__", "__float__")


def _spy_on_fractions(monkeypatch):
    """Counts of calls to each Fraction operator in _SPIED from now on."""
    counts = dict.fromkeys(_SPIED, 0)

    def spy(name):
        real = getattr(Fraction, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted
    for name in _SPIED:
        monkeypatch.setattr(Fraction, name, spy(name))
    return counts


def test_the_spies_see_fraction_operators(monkeypatch):
    counts = _spy_on_fractions(monkeypatch)
    a, b = Fraction(1, 3), Fraction(1, 2)
    a + b, a - b, a < b, a <= b, a > b, a >= b, float(a)
    assert counts == dict.fromkeys(_SPIED, 1)


def test_exact_checks_call_no_fraction_operator(monkeypatch):
    tree = ended_tree()
    sample = random_sample(tree, 16, seed=1)
    ends = tree.desc.ends
    bases = [tree_vertex(tree, "x0"), tree_vertex(tree, "spur"),
             tree_edge_point(tree, 0, Fraction(1, 4)), tree_edge_point(tree, 4, Fraction(1, 3))]
    ys = [tree_vertex(tree, "e2"), tree_edge_point(tree, 1, Fraction(1, 5)),
          tree_ray_point(tree, "e1", Fraction(3, 2))]
    rays = [ray_from(tree, base, tree_end(tree, ends[k])) for k, base in enumerate(bases)]
    path = swap_tree()
    tps = gh.TreePointSet(path, Fraction(1, 10), Fraction(1, 5))
    nodes = gh.tree_offset_class_nodes(path, tps.a_alpha[0], tps.a_beta[0])
    swap_sample = SampleSet(path, tuple(nodes) + tuple(tree_vertex(path, v)
                                                       for v in path.desc.vertices))
    spec = gh.tree_swap_bijection(tps)

    counts = _spy_on_fractions(monkeypatch)
    axioms = check_metric_axioms(tree, sample)
    values = [busemann_value(tree, ray, y, method="closed") for ray in rays for y in ys]
    unit = preserves_unit_distance((path, path), spec, swap_sample, tol=1e-9)
    iso = is_isometry((path, path), spec, swap_sample, tol=1e-9)
    assert counts == dict.fromkeys(_SPIED, 0)

    monkeypatch.undo()
    assert axioms.passed and axioms.counts["triples"] == 200
    assert len(values) == 12
    assert values == [_tree_busemann_fraction(tree, ray, y.coords) for ray in rays for y in ys]
    # the swap keeps unit distances and moves others
    assert unit.passed and not iso.passed
