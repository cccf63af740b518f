"""Shared strategies and oracles for the test suite.

``naive_sumset`` recomputes Minkowski sums by direct enumeration over raw
coordinate tuples — deliberately independent of every path of the library's
sumset engine (the ``int`` bitmap fold, the packed pair-set fold, and the
scaling by the lcm of the denominators that sends rational sums to them), so
each of them is cross-checked against it.
"""

import os
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from sumsetlab import PointSet

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("quick", deadline=None, max_examples=25)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def naive_sumset(sets):
    """Brute-force fold of A_1 + ... + A_k as a set of coordinate tuples."""
    acc = {tuple(p) for p in sets[0].points}
    for B in sets[1:]:
        acc = {
            tuple(x + y for x, y in zip(p, q)) for p in acc for q in B.points
        }
    return acc


def tuples_to_pointset(dim, tuples):
    return PointSet(dim, list(tuples))


int_coords = st.integers(min_value=-6, max_value=6)
rational_coords = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


def points(dim, coords=int_coords):
    return st.tuples(*([coords] * dim))


def point_sets(dim, min_size=1, max_size=8, coords=int_coords):
    return st.frozensets(points(dim, coords), min_size=min_size, max_size=max_size).map(
        lambda ps: PointSet(dim, list(ps))
    )


@st.composite
def set_families(draw, max_dim=3, max_k=3, max_size=8, coords=int_coords):
    """A list of 1..max_k point sets sharing one ambient dimension."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=max_k))
    return [draw(point_sets(dim, 1, max_size, coords)) for _ in range(k)]
