"""The conformance matrix over ``suites.CATALOG``: each model's derived
quantities against their definitions. Its first cell is the metric: every
model's ``row(a, bs)``, the one-pair ``distance`` and the table ``rows``
give the same values, exactly (type and value, and floats bit for bit)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.spaces import MaxProduct, RealLine, distance
from metriclab.suites import CATALOG, ended_tree, swap_tree
from metriclab.verify import random_sample

# the catalog, plus products with a tree factor: one exact throughout, one
# whose distances are Fractions or floats pair by pair
MODELS = [model for model, _ in CATALOG] + [MaxProduct(ended_tree(), swap_tree()),
                                             MaxProduct(swap_tree(), RealLine())]


def _key(d):
    """d's type and value; a float by its hex, so that only equal bits match."""
    return type(d), d.hex() if isinstance(d, float) else d


@pytest.mark.parametrize("space", MODELS, ids=[f"{k}-{m.tag()}" for k, m in enumerate(MODELS)])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_row_distance_and_rows_agree(space, seed, n):
    pts = random_sample(space, n, seed).points
    coords = [p.coords for p in pts]
    table = list(space.rows(coords))
    assert len(table) == n
    for i, (p, a) in enumerate(zip(pts, coords)):
        row = [_key(d) for d in space.row(a, coords)]
        assert row == [_key(distance(space, p, q)) for q in pts]
        assert [_key(d) for d in table[i]] == row[i + 1:]
    if space.exact:
        assert all(type(d) is Fraction for r in table for d in r)
