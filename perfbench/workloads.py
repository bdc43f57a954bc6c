"""The benchmark's workloads and the oracles that check their outputs.

Every workload is a pool of jobs built from the workload seed before timing
starts. A job calls metriclab only through its public functions and returns
the program's raw outputs; its ``check`` compares them with answers the
benchmark works out itself and returns the problems found (empty when the
outputs are right).

* ``suite-all``: full ``all`` runs through the CLI's in-process path,
  cycling over three seeds derived from the workload seed.
* ``pair-checks``: the O(n^2) predicates ``is_isometry``,
  ``preserves_unit_distance`` and ``UnitJumpGraph.build`` on the five
  packaged counterexamples, true isometries and unit-jump point sets of
  46 to 200 points, sized so that every job costs about the same.
* ``tree-scale``: exact ``Fraction`` trees of 64, 128 and 256 vertices in
  two shapes, each built from its ``TreeDesc`` and then queried.

Program functions are looked up on the ``metriclab`` package at call time
(``ml.distance``), so the traced run sees the calls the jobs make.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import metriclab as ml
from metriclab import cli, suites

TREE_SIZES = (64, 128, 256)

# Suite parameters for smoke runs; they shrink sample counts only, never
# the number or kind of reports.
SMOKE_SUITE_PARAMS = {"oracle_pairs": 3, "ray_pairs": 2, "shadow_points": 5,
                      "triples": 20, "pairs": 5}


@dataclass
class Job:
    """One closed-loop request.

    ``run(span)`` calls the program and returns its outputs; ``span(label)``
    is a context manager that records a benchmark-side span in traced runs.
    ``check(outputs)`` returns a list of problems. ``checks`` is the number
    of verification results one run completes. Tree jobs also expose
    ``build``, which builds the tree and answers its first query.
    """

    name: str
    run: Callable
    check: Callable
    checks: int
    build: Callable = None
    size: int = 0


def make_pool(workload: str, seed: int, smoke: bool = False) -> list:
    """The job pool of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    builders = {"suite-all": suite_all_pool, "pair-checks": pair_checks_pool,
                "tree-scale": tree_scale_pool}
    return builders[workload](rng, smoke)


# ---------------------------------------------------------------------------
# suite-all

class SuiteSizeProbe:
    """Records the report count of each suite inside an ``all`` run.

    ``run_named_suite`` checks ``SUITE_SIZES`` for a named suite but not for
    the ``all`` branch, so the benchmark checks it from outside: each entry
    of ``suites.SUITES`` is replaced by a pass-through that notes how many
    reports it returned.
    """

    def __init__(self):
        self.counts = {}
        for name, fn in list(suites.SUITES.items()):
            suites.SUITES[name] = self._counting(name, fn)

    def _counting(self, name, fn):
        def run(seed, params):
            reports = fn(seed, params)
            self.counts[name] = len(reports)
            return reports
        return run


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def suite_all_pool(rng, smoke):
    params = SMOKE_SUITE_PARAMS if smoke else {}
    probe = SuiteSizeProbe()
    digests = {}
    expected_total = sum(suites.SUITE_SIZES.values())
    seeds = [rng.randrange(1, 2 ** 31) for _ in range(3)]

    def job(seed):
        def run(span):
            probe.counts.clear()
            config = cli.ScenarioConfig.from_dict(
                {"suite": "all", "seed": seed, "parameters": dict(params)})
            result = cli.run_suite(config)
            text = cli.emit_report(result, config.format)
            return result, text, dict(probe.counts)

        def check(out):
            result, text, counts = out
            problems = [f"suite {name} returned {counts.get(name)} reports, declared {size}"
                        for name, size in suites.SUITE_SIZES.items()
                        if counts.get(name) != size]
            if len(result.reports) != expected_total:
                problems.append(f"{len(result.reports)} reports, expected {expected_total}")
            failing = [r.check for r in result.reports if not r.passed]
            if failing:
                problems.append(f"failing reports: {failing}")
            try:
                json.dumps(result.payload(), allow_nan=False)
                parsed = json.loads(text, parse_constant=_reject_constant)
            except ValueError as exc:
                problems.append(f"payload is not strict JSON: {exc}")
            else:
                if parsed["summary"] != {"total": expected_total, "failed": 0}:
                    problems.append(f"summary {parsed['summary']}")
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digests.setdefault(seed, digest) != digest:
                problems.append(f"payload for seed {seed} differs from an earlier run")
            return problems
        return Job(f"all[seed={seed}]", run, check, checks=expected_total)

    return [job(s) for s in seeds]


# ---------------------------------------------------------------------------
# pair-checks

def _bijection_job(name, spaces, bijection, points, tol, isometry):
    """Unit-distance preservation and the isometry check on one sample.

    A counterexample must preserve unit distance and fail the isometry check
    with a witness; a true isometry must pass both."""
    sample = ml.SampleSet(spaces[0], tuple(points))
    n = len(points)
    pairs = n * (n - 1) // 2

    def run(span):
        unit = ml.preserves_unit_distance(spaces, bijection, sample, mode="eq", tol=tol)
        iso = ml.is_isometry(spaces, bijection, sample, tol=tol)
        return unit, iso

    def check(out):
        unit, iso = out
        problems = []
        if unit.counts.get("pairs") != pairs or iso.counts.get("pairs") != pairs:
            problems.append(f"pair counts {unit.counts.get('pairs')}, "
                            f"{iso.counts.get('pairs')}; expected {pairs}")
        if not unit.passed:
            problems.append("unit distance not preserved")
        if isometry and not iso.passed:
            problems.append("a true isometry failed the isometry check")
        if not isometry and (iso.passed or not iso.witnesses):
            problems.append("a counterexample showed no isometry violation")
        return problems
    return Job(f"{name}[n={n}]", run, check, checks=2)


def _half_edge_tree(rng, V):
    """Random recursive tree with every edge of length 1/2 and no ends."""
    vs = tuple(f"n{i}" for i in range(V))
    edges = tuple((vs[rng.randrange(i)], vs[i], Fraction(1, 2)) for i in range(1, V))
    return ml.MetricTree(ml.TreeDesc(vs, edges, 2))


def _sphere_pairs(rng, sph, pairs):
    pts = []
    for _ in range(pairs):
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        pts.append(ml.sphere_point(sph, v))
        pts.append(ml.sphere_point(sph, tuple(-x for x in v)))
    return pts


def _clear_of_half_integers(x, margin=1e-3):
    """The sine map x + sin(2 pi x) / (2 pi) has zero slope at the
    half-integers, where the program's inverse is accurate only to about
    1e-6 and the unit-distance check reports false violations. Timed jobs
    keep their line coordinates this far from them; the traced run measures
    the defect itself (``false_violations.line-sine``)."""
    return abs(x - round(2.0 * x) / 2.0) >= margin


def _line_sine(rng, n):
    rl = ml.RealLine()
    base = []
    while len(base) < n - n // 2:
        b = rng.uniform(-4.0, 4.0)
        if _clear_of_half_integers(b):
            base.append(b)
    vals = base + [b + 1.0 for b in base[:n // 2]]
    return _bijection_job("line-sine", (rl, rl), ml.line_counterexample(),
                          [ml.point(rl, v) for v in vals], 1e-9, isometry=False)


def _sphere_flip(rng, n):
    radius = 1.0 / math.pi
    sph = ml.SphereIntrinsic(radius, 3)
    flip = ml.sphere_flip_bijection(radius, 3, lambda c: abs(c[-1]) >= 0.5)
    pts = [ml.sphere_point(sph, v) for v in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.3))]
    pts += _sphere_pairs(rng, sph, (n - 3) // 2)
    return _bijection_job("sphere-flip", (sph, sph), flip, pts, 1e-9, isometry=False)


def _tree_swap(rng, V):
    tree = _half_edge_tree(rng, V)
    tps = ml.TreePointSet(tree, Fraction(1, 10), Fraction(1, 5))
    offsets = (Fraction(1, 10), Fraction(2, 5), Fraction(1, 5), Fraction(3, 10))
    pts = [ml.tree_vertex(tree, v) for v in tree.desc.vertices]
    pts += [ml.tree_edge_point(tree, i, o) for i in range(V - 1) for o in offsets]
    return _bijection_job("tree-swap", (tree, tree), ml.tree_swap_bijection(tps), pts,
                          0.0, isometry=False)


def _tree_smooth(rng, V):
    tree = _half_edge_tree(rng, V)
    pts = [ml.tree_vertex(tree, v) for v in tree.desc.vertices]
    pts += [ml.tree_edge_point(tree, i, Fraction(num, 16))
            for i in range(V - 1) for num in (1, 3, 5, 7)]
    return _bijection_job("tree-smooth", (tree, tree), ml.smooth_tree_bijection(tree, 2), pts,
                          1e-9, isometry=False)


def _max_lift(rng, side):
    lift = ml.max_product_lift(ml.line_counterexample(), ml.Euclidean(1))
    mp = lift.domain
    ox, oy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    while not all(_clear_of_half_integers(oy + j * 0.2) for j in range(side)):
        oy = rng.uniform(-1.0, 1.0)
    # steps 1/4 and 1/5 realize unit distances in both factors exactly
    pts = [ml.Point(mp, ((ox + i * 0.25,), oy + j * 0.2))
           for i in range(side) for j in range(side)]
    return _bijection_job("max-lift", (mp, mp), lift, pts, 1e-9, isometry=False)


def _e2_rotation(rng, n):
    e2 = ml.Euclidean(2)
    th = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(th), math.sin(th)
    tx, ty = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)

    def fwd(p):
        x, y = p.coords
        return ml.point(e2, (c * x - s * y + tx, s * x + c * y + ty))

    def inv(q):
        x, y = q.coords[0] - tx, q.coords[1] - ty
        return ml.point(e2, (c * x + s * y, -s * x + c * y))
    pts = []
    for _ in range(n // 2):
        x, y, phi = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0), rng.uniform(0.0, 6.3)
        pts += [ml.point(e2, (x, y)), ml.point(e2, (x + math.cos(phi), y + math.sin(phi)))]
    spec = ml.BijectionSpec("e2-rotation", e2, e2, fwd, inv)
    return _bijection_job("e2-rotation", (e2, e2), spec, pts, 1e-9, isometry=True)


def _identity(name, space, pts):
    spec = ml.BijectionSpec(name, space, space, lambda p: p, lambda p: p)
    return _bijection_job(name, (space, space), spec, pts, 1e-9, isometry=True)


def _h2_identity(rng, n):
    h2 = ml.HyperbolicPlane()
    pts = [ml.point(h2, (rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-1.5, 1.5))))
           for _ in range(n)]
    return _identity("h2-identity", h2, pts)


def _sphere_identity(rng, n):
    sph = ml.SphereIntrinsic(1.0 / math.pi, 3)
    return _identity("sphere-identity", sph, _sphere_pairs(rng, sph, n // 2))


def _coordinate_swap(name, space, rng, n, partner):
    """(x, y) -> (y + a, x + b), an isometry of every l_p plane."""
    a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)

    def fwd(p):
        return ml.point(space, (p.coords[1] + a, p.coords[0] + b))

    def inv(q):
        return ml.point(space, (q.coords[1] - b, q.coords[0] - a))
    pts = []
    for _ in range(n // 2):
        x, y = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        dx, dy = partner(rng)
        pts += [ml.point(space, (x, y)), ml.point(space, (x + dx, y + dy))]
    spec = ml.BijectionSpec(name, space, space, fwd, inv)
    return _bijection_job(name, (space, space), spec, pts, 1e-9, isometry=True)


def _lp_swap(rng, n, p):
    return _coordinate_swap(f"lp-swap[p={p:g}]", ml.MinkowskiLp(p), rng, n,
                            lambda r: (1.0, 0.0) if r.random() < 0.5 else (0.0, 1.0))


def _linf_swap(rng, n):
    return _coordinate_swap("linf-swap", ml.MinkowskiLinf(), rng, n,
                            lambda r: (1.0, r.uniform(-1.0, 1.0)))


def _unit_jump_graph(rng, n):
    """n cells of an integer grid, rotated and shifted in E^2: the unit-jump
    edges are exactly the axis neighbours, since every other pair of grid
    points lies at least sqrt(2) apart."""
    e2 = ml.Euclidean(2)
    k = math.isqrt(2 * n) + 1
    cells = [divmod(c, k) for c in rng.sample(range(k * k), n)]
    th = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(th), math.sin(th)
    ox, oy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    pts = [ml.point(e2, (c * i - s * j + ox, s * i + c * j + oy)) for i, j in cells]
    index = {cell: m for m, cell in enumerate(cells)}
    expected = {m: sorted(index[(i + di, j + dj)]
                          for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                          if (i + di, j + dj) in index)
                for m, (i, j) in enumerate(cells)}
    components = _count_components(expected)

    def run(span):
        graph = ml.UnitJumpGraph.build(e2, pts)
        return graph, ml.grasshopper_components(graph)

    def check(out):
        graph, comps = out
        problems = []
        if {m: sorted(v) for m, v in graph.adjacency.items()} != expected:
            problems.append("unit-jump edges differ from the grid's axis neighbours")
        if len(comps) != components:
            problems.append(f"{len(comps)} components, expected {components}")
        return problems
    return Job(f"unit-jump-graph[n={n}]", run, check, checks=1)


def _count_components(adjacency):
    seen, count = set(), 0
    for start in adjacency:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return count


def pair_checks_pool(rng, smoke):
    def n(points):
        return max(8, points // 8) if smoke else points
    V_swap, V_smooth = (4, 4) if smoke else (11, 10)
    side = 3 if smoke else 8
    # Sizes give every job about the same cost (46 to 200 points, fewer
    # where a pair costs more), so the median latency lies on a plateau of
    # many jobs instead of between two job kinds of different cost. Two
    # inputs of each kind; the first job is the warm-up, the same kind for
    # every seed.
    kinds = [
        lambda: _line_sine(rng, n(104)),
        lambda: _sphere_flip(rng, n(81)),
        lambda: _tree_swap(rng, V_swap),
        lambda: _tree_smooth(rng, V_smooth),
        lambda: _max_lift(rng, side),
        lambda: _e2_rotation(rng, n(126)),
        lambda: _h2_identity(rng, n(180)),
        lambda: _sphere_identity(rng, n(92)),
        lambda: _lp_swap(rng, n(124), 1.5),
        lambda: _lp_swap(rng, n(114), 3.0),
        lambda: _linf_swap(rng, n(124)),
        lambda: _unit_jump_graph(rng, n(200)),
    ]
    return [make() for _ in range(2) for make in kinds]


# ---------------------------------------------------------------------------
# tree-scale

class TreeOracle:
    """Exact tree distances by BFS over a ``TreeDesc``'s edge list.

    It uses no ``MetricTree`` table: distances from a vertex come from a
    fresh traversal of the description, cached per source vertex."""

    def __init__(self, desc):
        self.desc = desc
        self.adj = {v: [] for v in desc.vertices}
        for u, v, ln in desc.edges:
            self.adj[u].append((v, ln))
            self.adj[v].append((u, ln))
        self._from = {}

    def from_vertex(self, src):
        table = self._from.get(src)
        if table is None:
            table = {src: Fraction(0)}
            stack = [src]
            while stack:
                cur = stack.pop()
                for nb, ln in self.adj[cur]:
                    if nb not in table:
                        table[nb] = table[cur] + ln
                        stack.append(nb)
            self._from[src] = table
        return table

    def _attach(self, c):
        if c[0] == "v":
            return [(c[1], Fraction(0))]
        if c[0] == "e":
            u, v, ln = self.desc.edges[c[1]]
            return [(u, c[2]), (v, ln - c[2])]
        return [(c[1], c[2])]

    def dist(self, a, b):
        if a == b:
            return Fraction(0)
        if a[0] == b[0] and a[0] in ("e", "r") and a[1] == b[1]:
            return abs(a[2] - b[2])
        return min(ca + self.from_vertex(va)[vb] + cb
                   for va, ca in self._attach(a) for vb, cb in self._attach(b))

    def busemann(self, end, base, y):
        """beta(y) for the ray from base toward the end at ``end``:
        h(y) - h(base), where h is the distance to the end's anchor and
        minus the offset on the end's own ray."""
        def h(c):
            if c[0] == "r" and c[1] == end:
                return -c[2]
            return self.dist(("v", end), c)
        return h(y) - h(base)


def _random_tree_desc(rng, shape, V, n=12, n_ends=2):
    """Bushy trees attach each vertex to a random earlier one (diameter
    about log V); caterpillars hang half the vertices off a path (diameter
    about V). Edge lengths are k/n, two leaves carry infinite ends."""
    vs = tuple(f"t{i}" for i in range(V))

    def length():
        return Fraction(rng.randint(1, n), n)
    if shape == "bushy":
        edges = [(vs[rng.randrange(i)], vs[i], length()) for i in range(1, V)]
    else:
        spine = V // 2
        edges = [(vs[i - 1], vs[i], length()) for i in range(1, spine)]
        edges += [(vs[rng.randrange(spine)], vs[i], length()) for i in range(spine, V)]
    degree = {v: 0 for v in vs}
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    leaves = [v for v in vs if degree[v] == 1]
    return ml.TreeDesc(vs, tuple(edges), n, tuple(rng.sample(leaves, n_ends)))


def _random_tree_point(rng, shell):
    desc = shell.desc
    kind = rng.random()
    if kind < 0.3:
        return ml.tree_vertex(shell, rng.choice(desc.vertices))
    if kind < 0.85:
        i = rng.randrange(len(desc.edges))
        return ml.tree_edge_point(shell, i, desc.edges[i][2] * Fraction(rng.randint(1, 15), 16))
    return ml.tree_ray_point(shell, rng.choice(desc.ends), Fraction(rng.randint(1, 48), 16))


def _tree_job(rng, shape, V, smoke):
    desc = _random_tree_desc(rng, shape, V)
    shell = ml.MetricTree(desc)   # points are built on an equal tree
    oracle = TreeOracle(desc)
    sources, targets = (3, 4) if smoke else (8, 16)
    src_pts = [_random_tree_point(rng, shell) for _ in range(sources)]
    queries = [(a, _random_tree_point(rng, shell)) for a in src_pts for _ in range(targets)]
    want_dist = [oracle.dist(a.coords, b.coords) for a, b in queries]

    # a long geodesic: between the two ends of a longest vertex path
    far = oracle.from_vertex(desc.vertices[0])
    A = max(desc.vertices, key=lambda v: far[v])
    from_a = oracle.from_vertex(A)
    B = max(desc.vertices, key=lambda v: from_a[v])
    L = from_a[B]
    steps = 8 if smoke else 32
    params = [L * k / steps for k in range(steps + 1)]

    axiom_pts = ml.SampleSet(shell, tuple(_random_tree_point(rng, shell) for _ in range(24)))
    triples = 10 if smoke else 40
    axiom_seed = rng.randrange(2 ** 31)

    bus_cases = []
    for end in desc.ends:
        base = _random_tree_point(rng, shell)
        ys = [_random_tree_point(rng, shell) for _ in range(4)]
        bus_cases.append((end, base, ys,
                          [oracle.busemann(end, base.coords, y.coords) for y in ys]))

    def build():
        tree = ml.MetricTree(desc)
        return tree, ml.distance(tree, *queries[0])

    def run(span):
        with span(f"spaces.tree_tables.build@v{V}"):
            tree, first = build()
        dists = [ml.distance(tree, a, b) for a, b in queries]
        geo = ml.geodesic_between(tree, ml.tree_vertex(tree, A), ml.tree_vertex(tree, B))
        along = [geo.point_at(t) for t in params]
        axioms = ml.check_metric_axioms(tree, axiom_pts, triples=triples, seed=axiom_seed)
        bus = []
        for end, base, ys, _ in bus_cases:
            ray = ml.ray_from(tree, base, ml.tree_end(tree, end))
            bus.append([(ml.busemann_value(tree, ray, y, method="closed"),
                         ml.busemann_value(tree, ray, y, method="limit")) for y in ys])
        return first, dists, along, axioms, bus

    def check(out):
        first, dists, along, axioms, bus = out
        problems = []
        if first != want_dist[0]:
            problems.append("first distance query is wrong")
        wrong = sum(1 for got, want in zip(dists, want_dist) if got != want)
        if wrong or len(dists) != len(want_dist):
            problems.append(f"{wrong} of {len(want_dist)} distances differ from the BFS oracle")
        for t, p in zip(params, along):
            if (p.space != shell or oracle.dist(("v", A), p.coords) != t
                    or oracle.dist(("v", B), p.coords) != L - t):
                problems.append(f"point_at({t}) is off the geodesic")
                break
        if not axioms.passed or axioms.counts.get("triples") != triples:
            problems.append("metric axioms report did not pass")
        for (end, _, _, want), got in zip(bus_cases, bus):
            if any(c != w or lim != w for (c, lim), w in zip(got, want)):
                problems.append(f"Busemann values toward end {end} differ from the oracle")
        return problems
    return Job(f"tree[{shape}, V={V}]", run, check, checks=1, build=build, size=V)


def tree_scale_pool(rng, smoke):
    shapes = ("bushy", "caterpillar")
    if smoke:
        specs = [(shapes[i % 2], V) for i, V in enumerate(TREE_SIZES)]
    else:
        # two trees of each shape and size, plus one more middle-sized tree
        # so that the pool is odd and the median stays inside one block
        specs = [(shape, V) for V in TREE_SIZES for _ in range(2) for shape in shapes]
        specs.insert(len(specs) // 2, ("bushy", TREE_SIZES[1]))
    return [_tree_job(rng, shape, V, smoke) for shape, V in specs]


# ---------------------------------------------------------------------------
# accuracy probes

def accuracy_probes(seed: int, pairs: int = 20) -> dict:
    """Numerical defects measured against references the benchmark knows.

    Ray pseudometric: the largest |rho - reference| over seeded asymptotic
    ray pairs. E^2 rays share a direction and the reference is their
    perpendicular offset; H^2 rays head to a common finite boundary point and
    the reference is 0. A pair on which ``ray_pseudodistance`` raises counts
    under ``raised`` and has no error value.

    Line-sine: unit pairs {b, b + 1} with b within 1e-5 of a half-integer,
    each checked on its own, on which the unit-distance check reports a
    violation although the sine map preserves unit distance exactly."""
    rng = random.Random(f"accuracy:{seed}")
    e2, h2 = ml.Euclidean(2), ml.HyperbolicPlane()
    errors = {"euclidean": [], "hyperbolic": []}
    raised = {"euclidean": 0, "hyperbolic": 0}

    def measure(model, space, c, d, reference):
        try:
            errors[model].append(abs(float(ml.ray_pseudodistance(space, c, d)) - reference))
        except (ml.SpaceError, ml.ConvergenceError):
            raised[model] += 1

    for _ in range(pairs):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        u = (math.cos(ang), math.sin(ang))
        xi = ml.direction_ideal(e2, u)
        a = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        b = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        offset = abs(u[0] * (b[1] - a[1]) - u[1] * (b[0] - a[0]))
        measure("euclidean", e2, ml.ray_from(e2, ml.point(e2, a), xi),
                ml.ray_from(e2, ml.point(e2, b), xi), offset)

        eta = ml.boundary_ideal(h2, rng.uniform(-2.0, 2.0))
        p = ml.point(h2, (rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-1.0, 1.0))))
        q = ml.point(h2, (rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-1.0, 1.0))))
        measure("hyperbolic", h2, ml.ray_from(h2, p, eta), ml.ray_from(h2, q, eta), 0.0)

    out = {}
    for model in errors:
        out[f"horofn.ray_pseudodistance.max_abs_err.{model}"] = max(errors[model], default=0.0)
        out[f"horofn.ray_pseudodistance.raised.{model}"] = raised[model]

    rl = ml.RealLine()
    sine = ml.line_counterexample()
    flagged = 0
    for _ in range(pairs):
        b = rng.randrange(-4, 4) + 0.5 + rng.uniform(-1e-5, 1e-5)
        sample = ml.SampleSet(rl, (ml.point(rl, b), ml.point(rl, b + 1.0)))
        report = ml.preserves_unit_distance((rl, rl), sine, sample, mode="eq", tol=1e-9)
        flagged += not report.passed
    out["verify.preserves_unit_distance.false_violations.line-sine"] = flagged
    return out
