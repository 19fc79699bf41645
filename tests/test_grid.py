"""Differential tests of the integer grid against the Fraction oracles.

The library builds each map's grid from the branches' integer forms, and
validates maps, locates points and iterates forward orbits on numerators
over one common denominator.  Here each of those answers is compared with
``tests/oracles.py``, which computes the same thing with ``Fraction``
comparisons, bisection of ``Fraction`` breakpoints and ``value_at``: the
grid's fields and forms, validation reports (issue texts included) on
valid, corrupted and random maps and on a table of P2 edge cases, and
locations and classifications of points on and around the partition,
outside the ambient interval, with negative numerators and with large
denominators."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from escapemaps import (
    PARTIAL,
    STRICT,
    AffineBranch,
    EscapeMapsError,
    MapStructureError,
    MarkovMap,
    classify_point,
    itinerary,
    synthesize,
)

from conftest import synthesized_spec
from oracles import (
    FractionGrid,
    fraction_classify_point,
    fraction_forms,
    fraction_grid,
    fraction_itinerary,
    fraction_locate,
    fraction_validation,
    linear_locate,
    partition_points,
)

F = Fraction

small = st.fractions(-3, 3, max_denominator=40)
nonzero_slope = st.fractions(-6, 6, max_denominator=12).filter(bool)


def _random_map(data) -> MarkovMap:
    """One to five branches with endpoints in [-2, 2] over unrelated
    denominators, touching or separated by gaps; almost always invalid."""
    n = data.draw(st.integers(1, 5), label="n")
    ends = data.draw(
        st.lists(
            st.fractions(-2, 2, max_denominator=60), min_size=2 * n, max_size=2 * n,
            unique=True,
        ),
        label="endpoints",
    )
    ends.sort()
    branches = []
    for i in range(n):
        left, right = ends[2 * i], ends[2 * i + 1]
        if i and data.draw(st.booleans(), label="touch"):
            left = branches[-1].right
        slope = data.draw(nonzero_slope, label="slope")
        branches.append(AffineBranch(slope, data.draw(small, label="intercept"), left, right))
    return MarkovMap(tuple(branches))


def _corrupt(m: MarkovMap, data) -> MarkovMap:
    """Move one intercept, slope or endpoint of a valid map by a rational
    whose denominator is drawn apart from the map's own, or shift one branch
    so that an end of its image lands exactly on a partition point."""
    i = data.draw(st.integers(0, m.n - 1), label="branch")
    b = m.branches[i]
    delta = F(data.draw(st.sampled_from([-2, -1, 1, 2]), label="sign"),
              data.draw(st.integers(3, 97), label="denominator"))
    delta *= (b.right - b.left) / 4
    field = data.draw(st.sampled_from(["intercept", "slope", "left", "right", "snap"]))
    values = {"slope": b.slope, "intercept": b.intercept, "left": b.left, "right": b.right}
    if field == "snap":
        target = data.draw(st.sampled_from(partition_points(m)), label="target")
        end = data.draw(st.sampled_from(b.image()), label="image end")
        values["intercept"] += target - end
    else:
        values[field] += delta if field != "slope" else delta * b.slope
    branches = list(m.branches)
    try:
        branches[i] = AffineBranch(**values)
        return MarkovMap(tuple(branches))
    except MapStructureError:
        assume(False)


def _valid_map(data, fixtures) -> MarkovMap:
    if data.draw(st.booleans(), label="synthesized"):
        mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
        spec = synthesized_spec(data, mode)
        assume(spec is not None)
        return synthesize(spec).map
    return data.draw(st.sampled_from(fixtures), label="corpus map")


@pytest.fixture(scope="module")
def fixtures(four_map, reaching_map, full2_map, reversing_map, partial_map):
    return [four_map, reaching_map, full2_map, reversing_map, partial_map]


def _any_map(data, fixtures, kind) -> MarkovMap:
    if kind == "random":
        return _random_map(data)
    m = _valid_map(data, fixtures)
    return _corrupt(m, data) if kind == "corrupted" else m


kinds = st.sampled_from(["valid", "corrupted", "random"])


@settings(max_examples=120)
@given(st.data())
def test_validation_matches_the_fraction_oracle(fixtures, data):
    kind = data.draw(kinds, label="kind")
    m = _any_map(data, fixtures, kind)
    assert m.validate() == fraction_validation(m)
    if kind == "valid":
        assert m.validate().all_ok


@settings(max_examples=120)
@given(st.data())
def test_grid_and_forms_match_the_fraction_oracle(fixtures, data):
    m = _any_map(data, fixtures, data.draw(kinds, label="kind"))
    oracle = fraction_grid(m)
    for name in FractionGrid._fields:
        assert getattr(m.grid, name) == getattr(oracle, name), name
    assert m.grid.forms == fraction_forms(m)


def test_validation_matches_the_fraction_oracle_on_small_integer_maps():
    """2,000 seeded maps, n = 1..5, with every interval and image end an
    integer in 0..12, intervals touching or apart and either orientation."""
    rng = random.Random(13)
    p2_outcomes = set()
    for _ in range(2000):
        n = rng.randint(1, 5)
        ends = sorted(rng.sample(range(13), 2 * n))
        branches = []
        for i in range(n):
            left, right = ends[2 * i], ends[2 * i + 1]
            if i and rng.random() < 0.5:
                left = branches[-1].right
            lo, hi = sorted(rng.sample(range(13), 2))
            slope = F(hi - lo, right - left) * rng.choice((1, -1))
            start = lo if slope > 0 else hi
            branches.append(AffineBranch(slope, start - slope * left, left, right))
        m = MarkovMap(tuple(branches))
        assert m.validate() == fraction_validation(m)
        p2_outcomes.add(m.validate().p2_ok)
    assert p2_outcomes == {True, False}


# Intervals [0, 1] and [1, 2] touch, and [3, 4] lies across the gap (2, 3).
# Branches 2 and 3 map onto [0, 4]; branch 1 maps [0, 1] onto [lo, hi],
# increasing for sign 1 and decreasing for sign -1.
@pytest.mark.parametrize(
    "lo, hi, sign, p2_ok",
    [
        pytest.param(1, 4, 1, True, id="lo-on-touch-point-absorbed"),
        pytest.param(-1, 1, 1, True, id="hi-on-touch-point-absorbed"),
        pytest.param(1, F(3, 2), 1, False, id="touch-point-neighbour-cut"),
        pytest.param(2, 4, 1, False, id="lo-ends-interval-before-gap"),
        pytest.param(0, 3, 1, False, id="hi-starts-interval-after-gap"),
        pytest.param(F(1, 2), 4, 1, False, id="lo-inside-interval"),
        pytest.param(0, F(7, 2), 1, False, id="hi-inside-interval"),
        pytest.param(F(5, 2), 4, 1, True, id="lo-inside-gap"),
        pytest.param(-1, F(5, 2), 1, True, id="hi-inside-gap"),
        pytest.param(-1, 5, 1, True, id="ends-outside-ambient"),
        pytest.param(0, 4, 1, True, id="ends-on-ambient-ends"),
        pytest.param(4, 6, 1, False, id="lo-on-right-ambient-end"),
        pytest.param(-2, 0, 1, False, id="hi-on-left-ambient-end"),
        pytest.param(F(9, 4), F(11, 4), 1, True, id="image-inside-gap"),
        pytest.param(1, 4, -1, True, id="decreasing-on-touch-point"),
        pytest.param(F(1, 2), 4, -1, False, id="decreasing-inside-interval"),
        pytest.param(0, 3, -1, False, id="decreasing-hi-after-gap"),
    ],
)
def test_p2_edge_cases(lo, hi, sign, p2_ok):
    slope = sign * F(hi - lo)
    m = MarkovMap((
        AffineBranch(slope, lo if sign > 0 else hi, 0, 1),
        AffineBranch(4, -4, 1, 2),
        AffineBranch(4, -12, 3, 4),
    ))
    assert m.images[0] == (lo, hi)
    assert m.validate().p2_ok is p2_ok
    assert m.validate() == fraction_validation(m)


@pytest.mark.parametrize(
    "branches, p1, p2",
    [
        # The images [0, 5/6] and [25/28, 23/14] over denominators 6, 28, 14.
        (
            [AffineBranch(F(5, 2), 0, 0, F(1, 3)), AffineBranch(F(3, 2), F(1, 7), F(1, 2), 1)],
            ["branch images cover [0, 5/6], [25/28, 23/14], expected the ambient "
             "interval [0, 1]"],
            ["image of interval 1 meets the domain in [0, 1/3], [1/2, 5/6], not a "
             "union of whole intervals",
             "image of interval 2 meets the domain in [25/28, 1], not a union of "
             "whole intervals"],
        ),
        # The image [1/4, 1] of interval 2 takes half of interval 1.
        (
            [AffineBranch(2, 0, 0, F(1, 2)), AffineBranch(F(3, 2), F(-1, 2), F(1, 2), 1)],
            [],
            ["image of interval 2 meets the domain in [1/4, 1], not a union of "
             "whole intervals"],
        ),
    ],
)
def test_mixed_denominator_issue_texts(branches, p1, p2):
    m = MarkovMap(tuple(branches))
    report = m.validate()
    assert (list(report.p1_issues), list(report.p2_issues)) == (p1, p2)
    assert report == fraction_validation(m)


def _probe_points(m: MarkovMap, data) -> list[Fraction]:
    """Partition points, gap and incidence-cell endpoints, midpoints, points
    just outside the ambient interval, and drawn points with large
    denominators."""
    lo, hi = m.ambient
    cuts = partition_points(m)
    image_ends = [end for image in m.images for end in image]
    ends = [*cuts, *image_ends]
    huge = data.draw(st.integers(10**20, 10**40), label="large denominator")
    return [
        *cuts,
        *(end for _, glo, ghi in m.gaps for end in (glo, ghi)),
        *image_ends,
        *((a + b) / 2 for a, b in zip(cuts, cuts[1:])),
        *(end + F(1, huge) for end in ends),
        *(end - F(1, huge) for end in ends),
        lo - 1, lo - F(1, huge), hi + F(1, huge), hi + 1, F(-7, 3),
        *data.draw(
            st.lists(st.fractions(lo - 1, hi + 1, max_denominator=10**30), max_size=6),
            label="extra points",
        ),
    ]


def _outcome(call):
    try:
        return call()
    except EscapeMapsError as exc:
        return type(exc), str(exc)


@settings(max_examples=80)
@given(st.data())
def test_locate_and_classify_match_the_fraction_oracle(fixtures, data):
    m = _any_map(data, fixtures, data.draw(kinds, label="kind"))
    for x in _probe_points(m, data):
        assert m.locate(x) == fraction_locate(m, x) == linear_locate(m, x)
        assert _outcome(lambda: classify_point(m, x, 40)) == _outcome(
            lambda: fraction_classify_point(m, x, 40)
        )
        assert _outcome(lambda: itinerary(m, x, 12)) == _outcome(
            lambda: fraction_itinerary(m, x, 12)
        )
