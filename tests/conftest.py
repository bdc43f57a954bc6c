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


@pytest.fixture
def builds(monkeypatch):
    """The number of Points and of GeodesicRefs built from now on in the test."""
    from metriclab.spaces import GeodesicRef, Point
    counts = {"Point": 0, "GeodesicRef": 0}
    post, init = Point.__post_init__, GeodesicRef.__init__

    def point_built(self):
        counts["Point"] += 1
        post(self)

    def geodesic_built(self, *args, **kwargs):
        counts["GeodesicRef"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(Point, "__post_init__", point_built)
    monkeypatch.setattr(GeodesicRef, "__init__", geodesic_built)
    return counts
