import math
from fractions import Fraction

import pytest

from metriclab.horofn import busemann_value, ray_toward
from metriclab.spaces import (
    Euclidean,
    HyperbolicPlane,
    MetricTree,
    SpaceError,
    TreeDesc,
    boundary_ideal,
    direction_ideal,
    distance,
    line_through,
    point,
    tree_end,
)
from metriclab.transfers import (
    ScissorsConfig,
    degenerate_flat_scissors,
    double_transfer,
    hyperbolic_scissors,
    scissors_shift,
    scissors_shift_formula,
    transfer_param,
    tree_scissors,
    validate_scissors,
)

INF = math.inf


def _flat_line(space, y_offset):
    xi = direction_ideal(space, (1, 0))
    eta = direction_ideal(space, (-1, 0))
    return line_through(space, eta, xi, point(space, (0.0, y_offset))), xi


@pytest.fixture
def flat_translate_scissors():
    """Flat scissors in E^2 with b = c = d = the translate of a by (0, 1);
    valid, shift 0, and nondegenerate under the strict flag (x is off a)."""
    e2 = Euclidean(2)
    a, _ = _flat_line(e2, 0.0)
    moved, _ = _flat_line(e2, 1.0)
    return ScissorsConfig(a, moved, moved, moved, point(e2, (0.0, 1.0)))


def test_horospherical_transfer_euclid_vertical_levels():
    e2 = Euclidean(2)
    a, xi = _flat_line(e2, 0.0)
    b, _ = _flat_line(e2, 1.0)
    out = b.point_at(transfer_param(e2, a, b, xi, point(e2, (3.0, 0.0))))
    assert abs(out.coords[0] - 3.0) < 1e-8
    assert out.coords[1] == 1.0


def test_horospherical_transfer_tree_exact(ended_tree):
    t = ended_tree
    # lines sharing the end e1; transfer matches arc length after the merge
    a = line_through(t, tree_end(t, "e2"), tree_end(t, "e1"))
    b = line_through(t, tree_end(t, "e3"), tree_end(t, "e1"))
    m = a.point_at(Fraction(-2))          # on e2's ray
    out = b.point_at(transfer_param(t, a, b, tree_end(t, "e1"), m))
    # equal Busemann level: same distance-to-merge bookkeeping on b
    from metriclab.horofn import busemann_value, ray_toward
    beta = lambda p: busemann_value(t, ray_toward(t, a, tree_end(t, "e1")), p)
    assert beta(out) == beta(m)
    assert out.coords == ("r", "e3", Fraction(2))


def test_horospherical_transfer_h2_residual():
    h = HyperbolicPlane()
    a = line_through(h, boundary_ideal(h, -1.0), boundary_ideal(h, 1.0))
    b = line_through(h, boundary_ideal(h, INF), boundary_ideal(h, 1.0))
    xi = boundary_ideal(h, 1.0)
    m = a.point_at(0.4)
    out = b.point_at(transfer_param(h, a, b, xi, m))
    from metriclab.horofn import busemann_value, ray_toward
    beta = lambda p: busemann_value(h, ray_toward(h, a, xi), p)
    assert abs(beta(out) - beta(m)) <= 1e-8


def test_transfer_rejects_non_asymptotic_lines():
    e2 = Euclidean(2)
    a, xi = _flat_line(e2, 0.0)
    up = direction_ideal(e2, (0, 1))
    down = direction_ideal(e2, (0, -1))
    vertical = line_through(e2, down, up, point(e2, (0.0, 0.0)))
    with pytest.raises(SpaceError):
        transfer_param(e2, a, vertical, xi, point(e2, (1.0, 0.0)))


def test_double_transfer_identity_euclid():
    e2 = Euclidean(2)
    a, _ = _flat_line(e2, 0.0)
    b, _ = _flat_line(e2, 1.0)
    x = point(e2, (2.0, 0.0))
    res = double_transfer(e2, a, b, x)
    assert abs(res.shift) <= 1e-8
    assert abs(res.image.coords[0] - 2.0) <= 1e-8


def _shift_case(name):
    """(space, a, b, probe on a, level_shift) for the shift identity; the
    two Busemann terms are nonzero in every case."""
    if name == "e2":
        e2 = Euclidean(2)
        a, xi = _flat_line(e2, 0.0)
        b = line_through(e2, direction_ideal(e2, (-1, 0)), xi, point(e2, (0.5, 1.5)))
        return e2, a, b, point(e2, (2.0, 0.0)), 0
    if name == "tree":
        # a star with arms 1/2, 1 and 3/2, so a(0) and b(0) sit at different
        # distances from the common end
        tree = MetricTree(TreeDesc(
            ("x0", "e1", "e2", "e3"),
            (("x0", "e1", Fraction(1, 2)), ("x0", "e2", Fraction(1)),
             ("x0", "e3", Fraction(3, 2))), 2, ("e1", "e2", "e3")))
        a = line_through(tree, tree_end(tree, "e2"), tree_end(tree, "e1"))
        b = line_through(tree, tree_end(tree, "e3"), tree_end(tree, "e1"))
        return tree, a, b, a.point_at(Fraction(3, 4)), 0
    # H^2 lines with the finite common end 1
    h = HyperbolicPlane()
    a = line_through(h, boundary_ideal(h, -1.0), boundary_ideal(h, 1.0))
    b = line_through(h, boundary_ideal(h, 4.0), boundary_ideal(h, 1.0))
    return h, a, b, a.point_at(0.7), (0.25 if name == "h2-level-quarter" else 0)


@pytest.mark.parametrize("name", ["e2", "h2", "h2-level-quarter", "tree"])
def test_double_transfer_shift_is_the_busemann_sum(name):
    # shift = beta_a(b(0)) + beta_b(a(0)) + level_shift, each beta taken here
    # on the ray toward the common end
    space, a, b, x, level_shift = _shift_case(name)

    def beta(line, y):
        return busemann_value(space, ray_toward(space, line, a.plus), y)
    want = beta(a, b.point_at(0)) + beta(b, a.point_at(0)) + level_shift
    shift = double_transfer(space, a, b, x, level_shift=level_shift).shift
    if name == "tree":
        assert isinstance(shift, Fraction) and shift == want
    else:
        assert abs(shift - want) <= 1e-8


def test_double_transfer_tree_exact_zero(ended_tree):
    t = ended_tree
    a = line_through(t, tree_end(t, "e2"), tree_end(t, "e1"))
    b = line_through(t, tree_end(t, "e3"), tree_end(t, "e1"))
    res = double_transfer(t, a, b, a.point_at(Fraction(1, 4)))
    assert res.shift == 0
    assert res.image.coords == a.point_at(Fraction(1, 4)).coords


def test_double_transfer_h2_regular_identity():
    h = HyperbolicPlane()
    a = line_through(h, boundary_ideal(h, 0.0), boundary_ideal(h, INF))
    b = line_through(h, boundary_ideal(h, 3.0), boundary_ideal(h, INF))
    res = double_transfer(h, a, b, a.point_at(0.7))
    assert abs(res.shift) <= 1e-8
    assert res.shift >= -1e-8


def test_n_fold_synthetic_composition():
    h = HyperbolicPlane()
    a = line_through(h, boundary_ideal(h, 0.0), boundary_ideal(h, INF))
    b = line_through(h, boundary_ideal(h, 3.0), boundary_ideal(h, INF))
    for n in (4, 8):
        x = a.point_at(0.0)
        for _ in range(n):
            x = double_transfer(h, a, b, x, level_shift=1.0 / n).image
        assert float(distance(h, x, a.point_at(1.0))) <= 1e-6


def test_validate_scissors_h2():
    cfg = hyperbolic_scissors()
    assert abs(cfg.x.coords[1] - math.sqrt(2.0)) < 1e-12
    rep = validate_scissors(HyperbolicPlane(), cfg)
    assert rep.passed
    assert rep.data["degenerate"] is False


def test_validate_scissors_flat_and_tree(ended_tree, flat_translate_scissors):
    e2 = Euclidean(2)
    rep = validate_scissors(e2, degenerate_flat_scissors(e2))
    assert rep.passed and rep.data["degenerate"] is True
    rep = validate_scissors(e2, flat_translate_scissors)
    assert rep.passed and rep.data["degenerate"] is False
    cfg = tree_scissors(ended_tree, ("e1", "e2", "e3", "e4"))
    rep = validate_scissors(ended_tree, cfg, tol=0)
    assert rep.passed and rep.data["degenerate"] is True
    assert cfg.x.coords == ("v", "x0")


def test_scissors_shift_degenerate_euclid_zero(flat_translate_scissors):
    e2 = Euclidean(2)
    comp, form = scissors_shift(e2, degenerate_flat_scissors(e2))
    assert abs(comp) <= 1e-6 and abs(form) <= 1e-6
    comp, form = scissors_shift(e2, flat_translate_scissors)
    assert abs(comp) <= 1e-6 and abs(form) <= 1e-6


def test_scissors_shift_tree_exact_zero(ended_tree):
    comp, form = scissors_shift(ended_tree, tree_scissors(ended_tree,
                                                          ("e1", "e2", "e3", "e4")))
    assert comp == 0 and form == 0
    assert isinstance(comp, Fraction) and isinstance(form, Fraction)


def test_scissors_shift_h2_two_routes_agree():
    cfg = hyperbolic_scissors()
    comp, form = scissors_shift(HyperbolicPlane(), cfg)
    assert abs(comp - form) <= 1e-6
    assert comp > 0.01 and form > 0.01
    # frozen closed-form value: 4 log(3 / (2 sqrt 2))
    assert abs(form - 4.0 * math.log(3.0 / (2.0 * math.sqrt(2.0)))) < 1e-9


def test_scissors_shift_nonnegativity_and_probe_invariance():
    cfg = hyperbolic_scissors(a_ends=(-1.5, 1.2), d_ends=(-2.5, 2.2))
    comp, form = scissors_shift(HyperbolicPlane(), cfg)
    assert comp >= -1e-8 and form >= -1e-8
    assert abs(comp - form) <= 1e-6
    comp2, _ = scissors_shift(HyperbolicPlane(), cfg, probe_param=1.5)
    assert abs(comp - comp2) <= 1e-8


def test_scissors_normalization_invariance():
    cfg = hyperbolic_scissors()
    h = HyperbolicPlane()
    f0 = scissors_shift_formula(h, cfg)
    f1 = scissors_shift_formula(h, cfg, p_param=2.1, q_param=-1.7)
    assert abs(f0 - f1) <= 1e-8


def test_scissors_shift_continuity_spot_check():
    h = HyperbolicPlane()
    _, base = scissors_shift(h, hyperbolic_scissors())
    _, moved = scissors_shift(h, hyperbolic_scissors(
        a_ends=(-1.0 - 1e-3, 1.0 + 1e-3), d_ends=(-2.0 + 1e-3, 2.0 - 1e-3)))
    assert abs(moved - base) < 1e-1

