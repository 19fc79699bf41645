import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    ESCAPE_INTERIOR,
    MARKOV_INTERIOR,
    OUTSIDE,
    PARTIAL,
    PARTITION_POINT,
    STRICT,
    AffineBranch,
    EscapeMapsError,
    MapFormatError,
    MapStructureError,
    MarkovMap,
    RationalParseError,
    SynthesisSpec,
    feasibility_check,
    map_document_from_jsonable,
    map_document_to_jsonable,
    merge_closed_intervals,
    synthesize,
)
from escapemaps.corpus import corpus_path, load_document

from oracles import linear_locate

F = Fraction


# -- interval merging ----------------------------------------------------


def test_merge_joins_touching_and_overlapping():
    assert merge_closed_intervals([(F(0), F(1)), (F(1), F(2))]) == ((F(0), F(2)),)
    assert merge_closed_intervals([(F(0), F(3, 2)), (F(1), F(2))]) == ((F(0), F(2)),)
    assert merge_closed_intervals([(F(2), F(3)), (F(0), F(1))]) == (
        (F(0), F(1)),
        (F(2), F(3)),
    )


def test_merge_absorbs_degenerate_intervals():
    assert merge_closed_intervals([(F(0), F(1)), (F(1, 2), F(1, 2))]) == (
        (F(0), F(1)),
    )
    assert merge_closed_intervals([(F(1), F(1))]) == ((F(1), F(1)),)


@given(
    st.lists(
        st.tuples(st.fractions(), st.fractions()).map(
            lambda ab: (min(ab), max(ab))
        ),
        min_size=1,
        max_size=8,
    )
)
def test_merge_output_is_sorted_disjoint_and_union_preserving(intervals):
    merged = merge_closed_intervals(intervals)
    for (alo, ahi), (blo, bhi) in zip(merged, merged[1:]):
        assert alo <= ahi
        assert ahi < blo  # strictly separated components
    # Union is preserved: every input endpoint/midpoint lands in a component,
    # and every component endpoint came from the union.
    def covered(x):
        return any(lo <= x <= hi for lo, hi in merged)

    def covered_input(x):
        return any(lo <= x <= hi for lo, hi in intervals)

    for lo, hi in intervals:
        assert covered(lo) and covered(hi) and covered((lo + hi) / 2)
    for lo, hi in merged:
        assert covered_input(lo) and covered_input(hi)


# -- affine branches -----------------------------------------------------


def test_branch_rejects_zero_slope_and_degenerate_domain():
    with pytest.raises(MapStructureError):
        AffineBranch(F(0), F(1), F(0), F(1))
    with pytest.raises(MapStructureError):
        AffineBranch(F(2), F(0), F(1), F(1))
    with pytest.raises(MapStructureError):
        AffineBranch(F(2), F(0), F(1), F(0))


def test_texts_naming_a_huge_rational_raise_the_library_error():
    # Python refuses to print an int of more than 4,300 digits; the texts
    # go through format_rational, so no bare ValueError escapes.
    tiny = F(1, 10**4400)
    with pytest.raises(EscapeMapsError, match="cannot print a rational"):
        AffineBranch(2, 0, tiny, tiny)
    with pytest.raises(EscapeMapsError, match="cannot print a rational"):
        MarkovMap((AffineBranch(2, 0, 0, F(1, 2)), AffineBranch(2, 0, F(1, 2) - tiny, 1)))
    with pytest.raises(EscapeMapsError, match="cannot print a rational"):
        MarkovMap((AffineBranch(2, tiny, 0, 1),)).validate()


def test_branch_image_sorts_endpoints_for_negative_slope():
    b = AffineBranch(F(-2), F(1), F(0), F(1, 2))
    assert b.image() == (F(0), F(1))
    assert b.value_at(F(1, 4)) == F(1, 2)


def test_branch_inverse_is_exact_and_none_outside_image():
    b = AffineBranch(F(7, 2), F(1, 5), F(0), F(1, 5))
    m = MarkovMap((b,))
    assert m.branch_inverse(1, F(1, 2)) == F(3, 35)
    assert b.value_at(F(3, 35)) == F(1, 2)
    assert m.branch_inverse(1, F(19, 20)) is None  # image is [1/5, 9/10]


# -- the bundled four-interval map --------------------------------------


def test_four_interval_geometry(four_map):
    assert four_map.n == 4
    assert four_map.ambient == (F(0), F(1))
    assert four_map.intervals == (
        (F(0), F(1, 5)),
        (F(1, 5), F(1, 4)),
        (F(7, 10), F(9, 10)),
        (F(9, 10), F(1)),
    )
    assert four_map.gaps == ((2, F(1, 4), F(7, 10)),)
    assert four_map.gap_bounds(2) == (F(1, 4), F(7, 10))
    with pytest.raises(MapStructureError):
        four_map.gap_bounds(1)
    assert four_map.partition_points == (
        F(0),
        F(1, 5),
        F(1, 4),
        F(7, 10),
        F(9, 10),
        F(1),
    )
    for i, branch in enumerate(four_map.branches, start=1):
        assert four_map.images[i - 1] == four_map.interval_image(i) == branch.image()
    assert four_map.transition_matrix is four_map.transition_matrix
    assert four_map.escape_block is four_map.escape_block
    assert four_map.escape_block == ((1,), (0,), (0,), (0,))
    # The geometry read above is cached on the frozen map and its branches;
    # equality and hashing must still agree with a freshly loaded copy.
    fresh = load_document("four_interval").map
    assert four_map == fresh and hash(four_map) == hash(fresh)


def test_locate_kinds(four_map):
    assert four_map.locate(F(1, 10)).kind == MARKOV_INTERIOR
    assert four_map.locate(F(1, 10)).index == 1
    # The located branch steps the point.  At a partition point shared by two
    # branches each branch gives a value: 1/5 goes to 9/10 under both, while
    # 9/10 goes to 1/4 under branch 3 and to 7/10 under branch 4.
    assert four_map.branches[0].value_at(F(1, 10)) == F(11, 20)
    assert [b.value_at(F(1, 5)) for b in four_map.branches[:2]] == [F(9, 10)] * 2
    assert [b.value_at(F(9, 10)) for b in four_map.branches[2:]] == [F(1, 4), F(7, 10)]
    assert four_map.locate(F(9, 20)).kind == ESCAPE_INTERIOR
    assert four_map.locate(F(9, 20)).index == 2
    assert four_map.locate(F(1, 4)).kind == PARTITION_POINT
    assert four_map.locate(F(2)).kind == OUTSIDE


def _banded_map(data):
    """A synthesized map at n = 5..32, or None when the drawn spec is not
    feasible.  Row i covers the intervals i - a..i + b with a, b in {1, 2}, so
    the matrix is primitive; each of one or two gaps gets the straddle
    column, which partial mode widens at random."""
    n = data.draw(st.integers(5, 32), label="n")
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = []
    for i in range(n):
        lo, hi = max(0, i - rng.randint(1, 2)), min(n - 1, i + rng.randint(1, 2))
        rows.append(tuple(int(lo <= j <= hi) for j in range(n)))
    positions = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
    columns = []
    for p in positions:
        column = [row[p - 1] & row[p] for row in rows]
        if mode == PARTIAL:
            column = [u | (row[p - 1] != row[p] and rng.random() < 0.5)
                      for u, row in zip(column, rows)]
        columns.append(column)
    spec = SynthesisSpec(tuple(rows), tuple(zip(*columns)), tuple(positions), mode)
    return synthesize(spec).map if feasibility_check(spec).feasible else None


@settings(max_examples=40)
@given(st.data())
def test_locate_matches_the_linear_scan(
    four_map, reaching_map, full2_map, reversing_map, data
):
    maps = [four_map, reaching_map, full2_map, reversing_map]
    if (m := _banded_map(data)) is not None:
        maps.append(m)
    for m in maps:
        lo, hi = m.ambient
        cuts = m.partition_points
        points = [
            *cuts,
            *((a + b) / 2 for a, b in zip(cuts, cuts[1:])),
            *(end for image in m.images for end in image),
            lo - (hi - lo) / 10**6,
            hi + (hi - lo) / 10**6,
            *data.draw(
                st.lists(st.fractions(lo - 1, hi + 1, max_denominator=10**6), max_size=8),
                label="extra points",
            ),
        ]
        for x in points:
            assert m.locate(x) == linear_locate(m, x)


def test_branch_inverse_on_map(four_map):
    assert four_map.branch_inverse(1, F(1, 2)) == F(3, 35)
    assert four_map.branch_inverse(3, F(3, 35)) == F(269, 350)
    assert four_map.branch_inverse(4, F(1, 2)) is None
    with pytest.raises(MapStructureError):
        four_map.branch_inverse(5, F(1, 2))


def test_interval_images(four_map, reaching_map):
    assert four_map.interval_image(1) == (F(1, 5), F(9, 10))
    assert four_map.interval_image(2) == (F(9, 10), F(1))
    assert four_map.interval_image(3) == (F(0), F(1, 4))
    assert four_map.interval_image(4) == (F(7, 10), F(9, 10))
    assert reaching_map.interval_image(4) == (F(3, 5), F(9, 10))


# -- validation ----------------------------------------------------------


def test_corpus_maps_validate(four_map, reaching_map, full2_map):
    for m in (four_map, reaching_map, full2_map):
        report = m.validate()
        assert report.all_ok, report
    assert four_map.validate().expansion_bound == F(5, 4)
    assert four_map.validate().aperiodicity_exponent == 5
    assert full2_map.validate().aperiodicity_exponent == 1


def test_corpus_path_refuses_unknown_names():
    with pytest.raises(KeyError, match="unknown corpus map 'nope'"):
        corpus_path("nope")


def test_validation_report_is_computed_once(four_map):
    assert four_map.validate() is four_map.validate()
    four_map.require_valid()


def test_require_valid_lists_the_failing_properties():
    doubling = MarkovMap((AffineBranch(2, 0, 0, 1),))
    with pytest.raises(EscapeMapsError) as err:
        doubling.require_valid()
    assert str(err.value).startswith("map fails validation:\n  P1: ")


def test_escape_coverage_distinguishes_full_and_partial(four_map, reaching_map):
    full = four_map.validate()
    assert full.p5_ok
    assert [(c.branch, c.gap, c.full) for c in full.escape_coverage] == [(1, 2, True)]
    part = reaching_map.validate()
    assert not part.p5_ok
    assert part.all_ok  # advisory only
    assert [(c.branch, c.gap, c.full) for c in part.escape_coverage] == [
        (1, 2, True),
        (4, 2, False),
    ]


@pytest.mark.parametrize(
    "name", ["four_map", "reaching_map", "full2_map", "partial_map"]
)
def test_escape_coverage_lists_the_escape_block_units(name, request):
    m = request.getfixturevalue(name)
    coverage = m.validate().escape_coverage
    units = [
        (i, k)
        for i, row in enumerate(m.escape_block, start=1)
        for (k, _, _), unit in zip(m.gaps, row)
        if unit
    ]
    assert [(c.branch, c.gap) for c in coverage] == units
    for c in coverage:
        lo, hi = m.images[c.branch - 1]
        glo, ghi = m.gap_bounds(c.gap)
        assert c.full == (lo <= glo and ghi <= hi)


def test_partition_set_is_forward_invariant_under_full_coverage(
    four_map, full2_map, reaching_map
):
    # With every gap fully covered, partition points can only map to
    # partition points; the reaching variant breaks this at 9/10.
    for m in (four_map, full2_map):
        assert m.validate().p5_ok
        pts = set(m.partition_points)
        for p in m.partition_points:
            for b in m.branches:
                if b.left <= p <= b.right:
                    assert b.value_at(p) in pts
    assert reaching_map.branches[3].value_at(F(9, 10)) == F(3, 5)
    assert F(3, 5) not in set(reaching_map.partition_points)


def _branch(slope, intercept, left, right):
    return AffineBranch(F(slope), F(intercept), F(left), F(right))


def test_validation_flags_a_covering_shortfall():
    # Two branches whose images leave [3/4, 1] uncovered.
    m = MarkovMap(
        (
            _branch(F(3, 2), 0, 0, F(1, 2)),  # image [0, 3/4]
            _branch(F(-3, 2), F(3, 2), F(1, 2), 1),  # image [0, 3/4]
        )
    )
    report = m.validate()
    assert not report.p1_ok and report.p1_issues
    assert not report.all_ok


def test_validation_flags_a_non_markov_image():
    # Branch 2's image [1/4, 1] starts strictly inside interval 1, so the
    # covering (P1) and expansion (P3) checks pass while alignment fails.
    m = MarkovMap(
        (
            _branch(2, 0, 0, F(1, 2)),  # image [0, 1]
            _branch(F(3, 2), F(-1, 2), F(1, 2), 1),  # image [1/4, 1]
        )
    )
    report = m.validate()
    assert report.p1_ok and report.p3_ok
    assert not report.p2_ok and report.p2_issues


def test_validation_flags_weak_expansion_and_imprimitivity():
    # The interval swap is Markov but neither expanding nor primitive.
    m = MarkovMap(
        (
            _branch(1, F(1, 2), 0, F(1, 2)),
            _branch(1, F(-1, 2), F(1, 2), 1),
        )
    )
    report = m.validate()
    assert not report.p3_ok and report.expansion_bound == F(1)
    assert not report.p4_ok and report.aperiodicity_exponent is None


def test_overlapping_domains_are_rejected():
    with pytest.raises(MapStructureError):
        MarkovMap((_branch(2, 0, 0, F(3, 5)), _branch(2, -1, F(1, 2), 1)))


def test_a_map_needs_a_branch():
    with pytest.raises(MapStructureError, match="at least one branch"):
        MarkovMap(())


# -- document schema -----------------------------------------------------


def test_document_round_trip(four_doc):
    data = map_document_to_jsonable(four_doc)
    again = map_document_from_jsonable(data)
    assert map_document_to_jsonable(again) == data
    assert again.map == four_doc.map
    assert again.expected_escape_matrix == four_doc.expected_escape_matrix


def test_document_round_trip_without_expected_block():
    doc = load_document("full_two_interval")
    assert doc.expected_escape_matrix is None
    data = map_document_to_jsonable(doc)
    assert "expected_escape_matrix" not in data
    assert map_document_from_jsonable(data).map == doc.map


def _minimal_doc():
    return {
        "markov_intervals": [["0", "1/2"], ["1/2", "1"]],
        "branches": [
            {"slope": "2", "intercept": "0"},
            {"slope": "2", "intercept": "-1"},
        ],
    }


def test_document_schema_rejects_malformed_inputs():
    with pytest.raises(MapFormatError):
        map_document_from_jsonable([])
    doc = _minimal_doc()
    doc["extra"] = 1
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    doc["branches"][0]["left"] = "0"
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    doc["branches"].pop()
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    doc["markov_intervals"][0] = ["1/2", "0"]
    with pytest.raises((MapFormatError, MapStructureError)):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    doc["branches"][0]["slope"] = "2/0"
    with pytest.raises(RationalParseError):
        map_document_from_jsonable(doc)
    # A two-character string is a sequence of length 2, but not a JSON array.
    doc = _minimal_doc()
    doc["markov_intervals"] = ["01", "12"]
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    doc["markov_intervals"][1] = "12"
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    del doc["branches"]
    with pytest.raises(MapFormatError, match="needs 'markov_intervals' and 'branches'"):
        map_document_from_jsonable(doc)
    doc = _minimal_doc()
    doc["markov_intervals"] = dict(enumerate(doc["markov_intervals"]))
    doc["branches"] = dict(enumerate(doc["branches"]))
    with pytest.raises(MapFormatError, match="must be arrays"):
        map_document_from_jsonable(doc)
    # Each branch is well formed; only the map built from them is refused.
    doc = _minimal_doc()
    doc["markov_intervals"][0] = ["0", "3/5"]
    with pytest.raises(MapFormatError, match="overlaps"):
        map_document_from_jsonable(doc)


def test_expected_matrix_schema_is_strict():
    doc = _minimal_doc()
    doc["expected_escape_matrix"] = {"symbol_order": ["1", "2"], "rows": [[1, 0]]}
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)  # ragged: 2 symbols, 1 row of width 2 is fine but one row only
    doc["expected_escape_matrix"] = {
        "symbol_order": ["1", "2"],
        "rows": [[1, 0], [0, 2]],
    }
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    # 1.0 == 1, but an entry is the integer 0 or 1.
    doc["expected_escape_matrix"] = {"symbol_order": ["1", "2"], "rows": [[1, 0], [0, 1.0]]}
    with pytest.raises(MapFormatError, match="entries must be 0 or 1, got 1.0"):
        map_document_from_jsonable(doc)
    doc["expected_escape_matrix"] = {
        "symbol_order": ["1", "2"],
        "rows": [[1, 0], [0, 1]],
        "note": "no",
    }
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
    doc["expected_escape_matrix"] = {"symbol_order": "12", "rows": [[1, 0], [0, 1]]}
    with pytest.raises(MapFormatError):
        map_document_from_jsonable(doc)
