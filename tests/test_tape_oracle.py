"""The closed unit chords of ``build_p_tape`` against the search oracle in
``tests/oracles.py``: ``half_chord`` against the bisection root, and the
gate decision and tape height against the nested bisection, on axis-aligned
base lines of l_q and on base lines in every direction of E^2."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metriclab.spaces import (
    Euclidean,
    MinkowskiLp,
    PreconditionError,
    direction_ideal,
    line_through,
    point,
    vdot,
    vsub,
)
from metriclab.tapes import build_p_tape

from oracles import _chord_roots, _tape_chords

AXES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
exponents = st.floats(1.0, 8.0, exclude_min=True)
heights = st.floats(0.0, 0.999, exclude_min=True)
angles = st.floats(0.0, 2.0 * math.pi)


def _unit(theta):
    return (math.cos(theta), math.sin(theta))


def _oracle_half_chord(space, u, beta):
    return _chord_roots(space.norm, u, (-u[1], u[0]), beta)[1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=exponents, beta=heights, u=st.sampled_from(AXES))
def test_lq_half_chord_agrees_with_bisection(q, beta, u):
    space = MinkowskiLp(q)
    assert abs(space.half_chord(u, beta) - _oracle_half_chord(space, u, beta)) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(theta=angles, beta=heights)
def test_euclidean_half_chord_agrees_with_bisection(theta, beta):
    e2 = Euclidean(2)
    u = _unit(theta)
    assert abs(e2.half_chord(u, beta) - _oracle_half_chord(e2, u, beta)) <= 1e-12


def _gate_case(space, v, p, drift):
    """The built tape's gate decision and height against the oracle's on the
    base line through the origin in direction v."""
    a = line_through(space, direction_ideal(space, tuple(-x for x in v)),
                     direction_ideal(space, v), point(space, (0.0, 0.0)))
    u = vsub(a.point_at(1.0).coords, a.point_at(0.0).coords)
    d_w, t_chord, admitted, beta_oracle = _tape_chords(space, u, drift, p)
    assert abs(d_w - 1.0) <= 1e-12
    # a draw within 1e-9 of the gate threshold is decided by rounding, not
    # by the chord: neither side's answer is meaningful there
    assume(abs((2.0 - t_chord) - 2.0 / p) > 1e-9)
    try:
        tape = build_p_tape(space, a, p, drift, window=(0, 0))
    except PreconditionError:
        assert not admitted
        return
    assert admitted
    step = vsub(tape.points[(2, 1, 0)].coords, tape.points[(1, 1, 0)].coords)
    assert abs(vdot(step, (-u[1], u[0])) - beta_oracle) <= 1e-12


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(q=exponents, v=st.sampled_from(AXES), p=st.integers(2, 60),
       drift=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_lq_gate_and_height_agree_with_nested_bisection(q, v, p, drift):
    _gate_case(MinkowskiLp(q), v, p, drift)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(theta=angles, p=st.integers(2, 60),
       drift=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_euclidean_gate_and_height_agree_with_nested_bisection(theta, p, drift):
    _gate_case(Euclidean(2), _unit(theta), p, drift)

