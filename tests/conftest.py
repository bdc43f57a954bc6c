from fractions import Fraction

import pytest

from metriclab import suites
from metriclab.spaces import MetricTree, TreeDesc


@pytest.fixture
def star_tree():
    """Three edges of length 1/2 around a center; n = 2."""
    return MetricTree(TreeDesc(
        vertices=("c", "l1", "l2", "l3"),
        edges=(("c", "l1", Fraction(1, 2)), ("c", "l2", Fraction(1, 2)),
               ("c", "l3", Fraction(1, 2))),
        denominator_bound=2))


@pytest.fixture
def path_tree():
    return suites.swap_tree()


@pytest.fixture
def ended_tree():
    return suites.ended_tree()
