import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    PARTIAL,
    STRICT,
    InfeasibleSpecError,
    MapFormatError,
    SynthesisSpec,
    TransitionData,
    WidthSnapError,
    feasibility_check,
    is_primitive,
    jsonable,
    perron_widths,
    spec_from_jsonable,
    synthesize,
    transition_data,
    wielandt_bound,
)
from escapemaps import synthesis
from escapemaps.corpus import FOUR_INTERVAL_MARKOV, load_document
from oracles import exhaustive_feasibility

F = Fraction


# -- spec validation -----------------------------------------------------


def test_spec_rejects_malformed_inputs():
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((1,),))  # one escape row missing
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((1,), (0, 1)))  # ragged
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((2,), (0,)))
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((True,), (False,)))
    with pytest.raises(MapFormatError, match="got 1.0"):
        SynthesisSpec(((1, 1), (1, 1)), ((1.0,), (1,)))
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((1,), (1,)), gap_positions=(1, 1))
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((1,), (1,)), gap_positions=(2,))
    with pytest.raises(MapFormatError):
        SynthesisSpec(((1, 1), (1, 1)), ((1,), (1,)), mode="loose")
    with pytest.raises(MapFormatError, match="strictly increasing"):
        SynthesisSpec(((1, 1, 1),) * 3, ((1, 1),) * 3, gap_positions=(2, 1))
    spec = SynthesisSpec(((1, 1), (1, 1)), ((1,), (1,)), gap_positions=(1,))
    assert (spec.n, spec.m) == (2, 1)


# -- feasibility ---------------------------------------------------------


def test_partial_spec_is_feasible_with_auto_position(partial_spec):
    report = feasibility_check(partial_spec)
    assert report.feasible
    assert report.gap_positions == (2,)
    assert report.row_issues == () and report.column_issues == ()
    segs = {seg.row: seg.symbols for seg in report.segments}
    assert segs[1] == ("2", "2^", "3")
    assert segs[4] == ("2^", "3")


def test_strict_rejects_the_reaching_block_at_position_two():
    spec = SynthesisSpec(
        FOUR_INTERVAL_MARKOV,
        ((1,), (0,), (0,), (1,)),
        gap_positions=(2,),
        mode=STRICT,
    )
    report = feasibility_check(spec)
    assert not report.feasible
    assert report.row_issues == (
        "row 4 segment ends at escape symbol 2^; strict mode requires "
        "Markov symbols at both ends",
    )
    with pytest.raises(InfeasibleSpecError) as err:
        synthesize(spec)
    assert err.value.report == report


def test_strict_reaching_block_has_no_workable_placement():
    spec = SynthesisSpec(
        FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (1,)), mode=STRICT
    )
    report = feasibility_check(spec)
    assert not report.feasible
    assert report.structure_issues == (
        "no placement of the escape columns makes every row contiguous and "
        "every gap covered",
    )


def test_structure_issues():
    non_primitive = SynthesisSpec(((0, 1), (1, 0)), ((1,), (0,)), mode=PARTIAL)
    report = feasibility_check(non_primitive)
    assert any("not primitive" in msg for msg in report.structure_issues)

    zero_column = SynthesisSpec(((1, 1), (1, 1)), ((0,), (0,)))
    report = feasibility_check(zero_column)
    assert any("all zero" in msg for msg in report.structure_issues)

    crowded = SynthesisSpec(((1, 1), (1, 1)), ((1, 1), (1, 1)))
    report = feasibility_check(crowded)
    assert any("inter-interval slots" in msg for msg in report.structure_issues)


def test_row_level_issues():
    # Row 2 of the transition matrix is zero and its escape entry is set, so
    # its image would be a single point.
    spec = SynthesisSpec(((1, 1), (0, 0)), ((0,), (1,)), gap_positions=(1,))
    report = feasibility_check(spec)
    assert any("collapse to a point" in msg for msg in report.row_issues)

    gap_hole = SynthesisSpec(
        ((1, 1, 1), (1, 1, 1), (1, 0, 1)), ((0,), (0,), (0,)), gap_positions=(2,)
    )
    report = feasibility_check(gap_hole)
    assert any("not contiguous" in msg for msg in report.row_issues)
    assert any("would not be fully covered" in msg for msg in report.column_issues)


def test_a_gap_reached_from_one_side_only_is_not_covered():
    """Row 2's segment starts at the gap 1^ and no segment ends there.  Row 1
    targets only the gap; it is refused, and its one-symbol span must not
    count as a segment ending at the gap."""
    spec = SynthesisSpec(
        ((0, 0, 0), (0, 1, 1), (1, 1, 1)), ((1,), (1,), (0,)), gap_positions=(1,), mode=PARTIAL
    )
    assert feasibility_check(spec).column_issues == (
        "the gap at position 1 (1^) would not be fully covered by the branch images: it "
        "needs a branch whose segment contains it strictly inside, or partial branches "
        "reaching it from both sides",
    )


def test_auto_positions(partial_spec):
    # gap_positions=None asks feasibility_check for the first workable slot.
    strict = feasibility_check(
        SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)))
    )
    assert strict.feasible and strict.gap_positions == (2,)
    assert partial_spec.gap_positions is None
    assert feasibility_check(partial_spec).gap_positions == (2,)
    stuck = feasibility_check(
        SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (1,)))
    )
    assert not stuck.feasible and stuck.gap_positions == ()
    assert stuck.structure_issues == (
        "no placement of the escape columns makes every row contiguous and "
        "every gap covered",
    )
    # Each column takes the first slot after the previous one that suits it.
    band = _band(8)
    escape = tuple(zip(*(_straddle_column(band, p) for p in (2, 4, 6))))
    found = feasibility_check(SynthesisSpec(band, escape))
    assert found.feasible and found.gap_positions == (2, 4, 6)


# -- width allocation ----------------------------------------------------


def test_perron_widths_on_the_full_shift():
    alloc = perron_widths(((1, 1), (1, 1)), ((), ()), ())
    assert alloc.markov_widths == (F(1, 2), F(1, 2))
    assert alloc.escape_widths == ()
    assert alloc.perron_bracket == (2, 2)


def test_perron_widths_on_the_four_interval_matrix():
    alloc = perron_widths(
        FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), (2,)
    )
    assert alloc.markov_widths == (F(12, 37), F(4, 37), F(12, 37), F(8, 37))
    assert alloc.escape_widths == (F(1, 37),)
    low, high = alloc.perron_bracket
    assert all(type(x) is Fraction for x in alloc.perron_bracket)
    assert all(
        type(x) is Fraction for x in alloc.markov_widths + alloc.escape_widths
    )
    perron_root = float(max(np.linalg.eigvals(np.array(FOUR_INTERVAL_MARKOV)).real))
    assert abs(perron_root - 1.465571231876837) < 1e-12
    assert low <= F(perron_root) <= high
    data = jsonable(alloc)
    assert set(data) == {"markov_widths", "escape_widths", "perron_bracket"}
    assert data["perron_bracket"] == ["4/3", "2"]
    assert not any(
        isinstance(v, float) for value in data.values() for v in value
    )
    result = synthesize(
        SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), mode=STRICT)
    )
    assert result.allocation == alloc
    slopes = [branch.slope for branch in result.map.branches]
    assert slopes == [F(17, 12), F(2), F(4, 3), F(3, 2)]
    intercepts = [branch.intercept for branch in result.map.branches]
    assert intercepts == [F(12, 37), F(5, 37), F(-68, 111), F(-53, 74)]


def test_perron_widths_rejects_zero_rows():
    with pytest.raises(WidthSnapError, match="row 2 .* is zero"):
        perron_widths(((1, 1), (0, 0)), ((), ()), ())


def test_perron_widths_rejects_imprimitive_matrices():
    with pytest.raises(WidthSnapError, match="not primitive"):
        perron_widths(((0, 1), (1, 0)), ((), ()), ())


@pytest.mark.parametrize(
    "positions, message",
    [
        ((7,), "must lie in 1..3"),
        ((), "one position per escape column"),
        ((1, 2), "one position per escape column"),
    ],
)
def test_perron_widths_checks_positions_against_the_escape_block(positions, message):
    # One escape column must be placed at exactly one slot of 1..n-1; a
    # position outside that range or a count that differs from B's columns
    # is refused like the same spec.
    with pytest.raises(MapFormatError, match=message):
        perron_widths(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), positions)


def test_single_interval_spec_cannot_expand():
    spec = SynthesisSpec(((1,),), ((),))
    report = feasibility_check(spec)
    assert not report.feasible
    assert report.structure_issues == (
        "a single interval cannot expand, so no expanding map exists",
    )
    with pytest.raises(InfeasibleSpecError) as err:
        synthesize(spec)
    assert err.value.report == report
    with pytest.raises(WidthSnapError, match="single interval"):
        perron_widths(((1,),), ((),), ())


# Row runs (1-based, inclusive) of a 32x32 band whose per-row widths vary, so
# its Perron vector spreads over about seven orders of magnitude.
_LOCALIZED_BAND_RUNS = (
    (1, 2), (1, 3), (2, 4), (2, 6), (4, 6), (4, 7), (5, 8), (6, 9),
    (7, 10), (8, 12), (10, 12), (11, 13), (12, 14), (13, 15), (14, 16),
    (14, 17), (16, 18), (16, 20), (18, 21), (19, 21), (20, 22), (20, 23),
    (22, 24), (23, 25), (24, 26), (24, 28), (26, 29), (26, 30), (27, 30),
    (29, 32), (30, 32), (30, 32),
)


def test_strict_synthesis_of_a_localized_32_band():
    n = len(_LOCALIZED_BAND_RUNS)
    markov = tuple(
        tuple(int(lo <= j <= hi) for j in range(1, n + 1))
        for lo, hi in _LOCALIZED_BAND_RUNS
    )
    escape = tuple((u,) for u in _straddle_column(markov, 16))
    result = synthesize(
        SynthesisSpec(markov, escape, gap_positions=(16,), mode=STRICT)
    )
    data = transition_data(result.map)
    assert data.markov == markov
    assert data.escape == escape
    assert data.gap_positions == (16,)
    assert result.validation.p5_ok
    for branch in result.map.branches:
        for value in (branch.slope, branch.intercept, branch.left, branch.right):
            assert value.numerator.bit_length() < 64
            assert value.denominator.bit_length() < 64


@pytest.mark.parametrize("n", [12, 40])
def test_width_iteration_reaches_the_wielandt_bound(n):
    # i -> i + 1 and n -> 1, 2: the exponent is the Wielandt bound (n - 1)^2 + 1,
    # and the width iteration needs one iterate fewer than that.
    markov = tuple(
        tuple(int(j == i + 1 or (i == n - 1 and j < 2)) for j in range(n)) for i in range(n)
    )
    result = synthesize(SynthesisSpec(markov, ((),) * n))
    assert result.validation.all_ok
    assert result.validation.aperiodicity_exponent == wielandt_bound(n)
    assert transition_data(result.map).markov == markov


# -- synthesis round trips ----------------------------------------------


def test_synthesized_full_shift_is_the_bundled_map(full2_map):
    result = synthesize(SynthesisSpec(((1, 1), (1, 1)), ((), ())))
    assert result.map == full2_map
    assert result.positions == ()
    assert result.validation.all_ok


def test_partial_synthesis_matches_the_claimed_matrix(partial_result):
    assert partial_result.positions == (2,)
    data = transition_data(partial_result.map)
    assert data.markov == FOUR_INTERVAL_MARKOV
    assert data.escape == ((1,), (0,), (0,), (1,))
    claimed = load_document("four_interval").expected_escape_matrix
    assert (data.symbols, data.entries) == (claimed.symbols, claimed.rows)
    assert partial_result.validation.all_ok
    assert not partial_result.validation.p5_ok  # branch 4 reaches partway in
    coverage = [
        (c.branch, c.gap, c.full)
        for c in partial_result.validation.escape_coverage
    ]
    assert coverage == [(1, 2, True), (4, 2, False)]


def test_strict_synthesis_fully_covers_every_gap():
    result = synthesize(
        SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), mode=STRICT)
    )
    data = transition_data(result.map)
    assert data.markov == FOUR_INTERVAL_MARKOV
    assert data.escape == ((1,), (0,), (0,), (0,))
    assert data.gap_positions == (2,)
    assert result.validation.p5_ok


def test_synthesize_refuses_a_map_with_another_escape_block(monkeypatch):
    """The post-condition compares A and B each: a rebuilt map whose A is
    right but whose escape block has one entry flipped is refused."""
    spec = SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), mode=STRICT)
    flipped = TransitionData(spec.markov, ((1,), (1,), (0,), (0,)), (2,))
    monkeypatch.setattr(synthesis, "transition_data", lambda m: flipped)
    with pytest.raises(AssertionError, match="does not reproduce the input matrices"):
        synthesize(spec)


def test_synthesize_refuses_a_map_that_fails_validation(monkeypatch):
    """Equal widths send interval 2 onto interval 4 with slope 1, so the
    built map fails P3 and the validation post-condition refuses it."""
    spec = SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), mode=STRICT)
    equal = ([1] * 5, synthesis.WidthAllocation((F(1, 5),) * 4, (F(1, 5),), (F(1), F(2))))
    monkeypatch.setattr(synthesis, "_expanding_widths", lambda data: equal)
    with pytest.raises(AssertionError, match=r"validation:[\s\S]*interval 2: \|slope\| = 1 is not > 1"):
        synthesize(spec)


def test_strict_synthesize_refuses_partial_gap_coverage(monkeypatch):
    """With the layout rules read in partial mode, a strict spec whose row 4
    reaches only part of the gap is planned, and the P5 post-condition
    refuses the map built from it."""
    spec = SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (1,)), mode=STRICT)
    layout = synthesis._layout_issues
    monkeypatch.setattr(synthesis, "_layout_issues", lambda data, mode: layout(data, PARTIAL))
    with pytest.raises(AssertionError, match="strict synthesis produced partial gap coverage"):
        synthesize(spec)


def test_synthesize_refuses_a_map_with_its_gaps_elsewhere(monkeypatch):
    """The post-condition compares the gap positions too: a rebuilt map whose
    A and B are right but whose gap sits one slot to the right is refused."""
    spec = SynthesisSpec(FOUR_INTERVAL_MARKOV, ((1,), (0,), (0,), (0,)), mode=STRICT)
    shifted = TransitionData(spec.markov, spec.escape, (3,))
    monkeypatch.setattr(synthesis, "transition_data", lambda m: shifted)
    with pytest.raises(AssertionError, match="synthesized map placed gaps at the wrong positions"):
        synthesize(spec)


def test_two_gap_synthesis():
    markov = (
        (1, 1, 0),
        (1, 1, 1),
        (0, 1, 1),
    )
    escape = ((1, 0), (1, 1), (0, 1))
    spec = SynthesisSpec(markov, escape, mode=STRICT)
    result = synthesize(spec)
    data = transition_data(result.map)
    assert data.markov == markov
    assert data.escape == escape
    assert data.gap_positions == (1, 2)
    assert result.map.n == 3
    assert len(result.map.gaps) == 2


# -- the straddle rule for strict single-column specs --------------------


def _rows_contiguous(markov):
    for row in markov:
        idx = [j for j, v in enumerate(row) if v]
        if not idx or idx != list(range(idx[0], idx[-1] + 1)):
            return False
    return True


def _straddle_column(markov, pos):
    return tuple(
        1 if markov[i][pos - 1] and markov[i][pos] else 0
        for i in range(len(markov))
    )


@pytest.mark.parametrize("n", [2, 3])
def test_strict_single_column_feasibility_is_the_straddle_rule(n):
    """Exhaustive cross-check: with one escape column at position p, a strict
    spec is feasible iff the matrix is primitive with contiguous rows and the
    column marks exactly the rows whose targets straddle p."""
    for bits in itertools.product((0, 1), repeat=n * n):
        markov = tuple(
            tuple(bits[i * n : (i + 1) * n]) for i in range(n)
        )
        primitive = is_primitive(markov).primitive
        for pos in range(1, n):
            straddle = _straddle_column(markov, pos)
            for u in itertools.product((0, 1), repeat=n):
                spec = SynthesisSpec(
                    markov,
                    tuple((v,) for v in u),
                    gap_positions=(pos,),
                    mode=STRICT,
                )
                predicted = (
                    primitive
                    and _rows_contiguous(markov)
                    and u == straddle
                    and any(u)
                )
                assert feasibility_check(spec).feasible == predicted, (
                    markov,
                    pos,
                    u,
                )


# -- gap placement by rule -----------------------------------------------


def _band(n):
    return tuple(tuple(int(abs(i - j) <= 1) for j in range(n)) for i in range(n))


def test_unplaceable_spec_names_the_rows_no_placement_can_fix():
    """Row 1 targets intervals 1 and 3 but not 2, and symbol 2 stays between
    them wherever the gap symbols go, so no placement joins them; the report
    says which row it is."""
    spec = SynthesisSpec(((1, 0, 1), (1, 1, 1), (1, 1, 1)), ((0,), (1,), (1,)))
    report = feasibility_check(spec)
    assert not report.feasible and report.gap_positions == ()
    assert report.structure_issues == (
        "no placement of the escape columns makes every row contiguous and "
        "every gap covered",
    )
    assert report.row_issues == (
        "targets of row 1 are not contiguous in symbol order: 1 3",
    )
    assert report == exhaustive_feasibility(spec)


def test_planner_checks_each_column_at_most_once_per_slot(monkeypatch):
    """On the n = 20 band with nine all-ones escape columns no placement
    among the C(19, 9) = 92,378 works; the planner finds that with at most
    m.(n-1) single-column layout checks, and makes no check of the spec's
    own placement."""
    checked = []
    layout_issues = synthesis._layout_issues

    def counting(data, mode):
        checked.append(data.gap_positions)
        return layout_issues(data, mode)

    monkeypatch.setattr(synthesis, "_layout_issues", counting)
    report = feasibility_check(SynthesisSpec(_band(20), ((1,) * 9,) * 20))
    assert not report.feasible and report.gap_positions == ()
    assert report.structure_issues == (
        "no placement of the escape columns makes every row contiguous and "
        "every gap covered",
    )
    assert 0 < len(checked) <= 9 * 19 + 1
    assert all(len(positions) == 1 for positions in checked)


def _mostly_contiguous(rng, n):
    """An n x n 0/1 matrix whose rows are runs of one to four intervals,
    with about one row in twenty drawn at random instead."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.05:
            rows.append(tuple(rng.randint(0, 1) for _ in range(n)))
            continue
        lo = rng.randrange(n)
        hi = min(lo + rng.randrange(4), n - 1)
        rows.append(tuple(int(lo <= j <= hi) for j in range(n)))
    return tuple(rows)


def _drawn_column(rng, markov, p):
    """The straddle column of slot p, with, by a draw, rows that reach the
    gap from one side added (two in five), or one entry flipped (one in
    five)."""
    column = list(_straddle_column(markov, p))
    [kind] = rng.choices(("straddle", "reach", "flip"), weights=(2, 2, 1))
    if kind == "reach":
        for i, row in enumerate(markov):
            if row[p - 1] != row[p] and rng.random() < 0.5:
                column[i] = 1
    elif kind == "flip":
        column[rng.randrange(len(column))] ^= 1
    return column


@settings(max_examples=500)
@given(st.data())
def test_planner_matches_the_exhaustive_placement_oracle(data):
    """With the positions left to the planner, every field of the report
    equals the one that trying every placement in lexicographic order
    gives."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n, m, mode = rng.randint(2, 8), rng.randint(0, 3), rng.choice((STRICT, PARTIAL))
    markov = _mostly_contiguous(rng, n)
    # Slots that some row crosses, where the straddle column is not zero.
    crossed = [p for p in range(1, n) if any(_straddle_column(markov, p))]
    if m <= len(crossed):
        slots = sorted(rng.sample(crossed, m))
    else:
        slots = [rng.randint(1, n - 1) for _ in range(m)]
    columns = [_drawn_column(rng, markov, p) for p in slots]
    escape = tuple(zip(*columns)) if m else ((),) * n
    spec = SynthesisSpec(markov, escape, mode=mode)
    assert feasibility_check(spec) == exhaustive_feasibility(spec)


@settings(max_examples=200)
@given(st.data())
def test_layout_rules_at_given_positions_match_the_oracle(data):
    """With the positions given, every field of the report equals the
    oracle's, which restates the layout rules instead of importing them.
    Any small 0/1 matrices are drawn, zero rows included, so a row may
    target a gap symbol alone."""
    n = data.draw(st.integers(2, 4), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    bits = st.integers(0, 1)
    markov = data.draw(st.tuples(*[st.tuples(*[bits] * n)] * n), label="A")
    escape = data.draw(st.tuples(*[st.tuples(*[bits] * m)] * n), label="B")
    positions = data.draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m, unique=True))
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    spec = SynthesisSpec(markov, escape, tuple(sorted(positions)), mode)
    assert feasibility_check(spec) == exhaustive_feasibility(spec)


# -- JSON assembly -------------------------------------------------------


def test_spec_from_jsonable_variants():
    spec = spec_from_jsonable([[1, 1], [1, 1]], [[1], [1]])
    assert spec.mode == STRICT and spec.gap_positions is None
    spec = spec_from_jsonable(
        {"rows": [[1, 1], [1, 1]]},
        {"rows": [[1], [1]], "mode": "partial", "gap_positions": [1]},
    )
    assert spec.mode == PARTIAL and spec.gap_positions == (1,)
    spec = spec_from_jsonable([[1, 1], [1, 1]], {"rows": [[1], [1]]}, mode=PARTIAL)
    assert spec.mode == PARTIAL


def test_spec_from_jsonable_rejects_conflicts_and_garbage():
    with pytest.raises(MapFormatError):
        spec_from_jsonable(
            [[1, 1], [1, 1]], {"rows": [[1], [1]], "mode": "strict"}, mode=PARTIAL
        )
    with pytest.raises(MapFormatError):
        spec_from_jsonable([[1, 1], [1, 1]], {"rows": [[1], [1]], "note": 1})
    with pytest.raises(MapFormatError):
        spec_from_jsonable("nope", [[1], [1]])
    with pytest.raises(MapFormatError, match="transition-matrix file object needs a 'rows'"):
        spec_from_jsonable({}, [[1], [1]])
    with pytest.raises(MapFormatError, match="escape-block file object needs a 'rows'"):
        spec_from_jsonable([[1, 1], [1, 1]], {"mode": "partial"})
    with pytest.raises(MapFormatError):
        spec_from_jsonable([[1, 2], [1, 1]], [[1], [1]])
    with pytest.raises(MapFormatError):
        spec_from_jsonable(
            [[1, 1], [1, 1]], {"rows": [[1], [1]], "gap_positions": [1.0]}
        )
    # Entries are the integers 0 and 1, in A and B alike.
    with pytest.raises(MapFormatError, match="transition-matrix file: .* got 1.0"):
        spec_from_jsonable([[1.0, 1], [1, 1.0]], {"rows": [[1], [1]], "gap_positions": [1]})
    with pytest.raises(MapFormatError, match="escape block entries .* got 1.0"):
        spec_from_jsonable([[1, 1], [1, 1]], {"rows": [[1.0], [1]], "gap_positions": [1]})
    # Strings are sequences, but not escape rows: "" is no zero-column row.
    with pytest.raises(MapFormatError, match="rows must be arrays"):
        spec_from_jsonable(FOUR_INTERVAL_MARKOV, {"rows": ["", "", "", ""]})
    with pytest.raises(MapFormatError, match="rows must be arrays"):
        spec_from_jsonable(FOUR_INTERVAL_MARKOV, ["", "", "", ""])


# -- property: feasibility and synthesis agree ---------------------------


@settings(max_examples=40)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.integers(1, n - 1),
            st.sampled_from([STRICT, PARTIAL]),
        )
    )
)
def test_synthesize_succeeds_exactly_on_feasible_specs(case):
    rows, u, pos, mode = case
    spec = SynthesisSpec(
        tuple(tuple(r) for r in rows),
        tuple((v,) for v in u),
        gap_positions=(pos,),
        mode=mode,
    )
    report = feasibility_check(spec)
    if not report.feasible:
        with pytest.raises(InfeasibleSpecError):
            synthesize(spec)
        return
    result = synthesize(spec)
    data = transition_data(result.map)
    assert data.markov == spec.markov
    assert data.escape == spec.escape
    assert data.gap_positions == (pos,)
    assert result.validation.all_ok
    if mode == STRICT:
        assert result.validation.p5_ok


# -- differential: the straddle law and exact round trips at n = 5..8 ----


def _contiguous_primitive(rng, n, cut):
    """A primitive n x n matrix whose rows are runs of one to four intervals,
    none crossing the gap at position ``cut`` (if any), by rejection sampling:
    about one draw in five is primitive."""
    while True:
        rows = []
        for _ in range(n):
            lo = rng.randrange(n)
            hi = min(lo + rng.randrange(4), n - 1)
            if cut is not None and lo < cut <= hi:
                lo, hi = (lo, cut - 1) if rng.random() < 0.5 else (cut, hi)
            rows.append(tuple(int(lo <= j <= hi) for j in range(n)))
        if is_primitive(rows).primitive:
            return tuple(rows)


@settings(max_examples=100)
@given(st.data())
def test_synthesis_differential_beyond_the_exhaustive_sizes(data):
    """Where exhaustive enumeration is out of reach: for a primitive matrix
    with contiguous rows and one or two gaps, strict feasibility is the
    straddle law, partial specs whose rows reach halfway into a gap are
    feasible exactly when every gap is still covered, and every feasible spec
    synthesizes to a map reproducing its matrices, with every Markov row of
    the escape matrix one contiguous run."""
    n = data.draw(st.integers(5, 8), label="n")
    positions = tuple(
        sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2)))
    )
    # No row crosses the cut gap, so its straddle column is zero.
    cut = data.draw(st.sampled_from((None,) + positions), label="cut")
    seed = data.draw(st.integers(0, 2**32 - 1), label="matrix seed")
    markov = _contiguous_primitive(random.Random(seed), n, cut)
    straddles = [_straddle_column(markov, p) for p in positions]

    # The straddle block is strictly feasible when no straddle column is
    # zero; flipping any one entry makes it infeasible.
    strict = SynthesisSpec(markov, tuple(zip(*straddles)), positions, STRICT)
    assert feasibility_check(strict).feasible == all(any(u) for u in straddles)
    i, k = data.draw(
        st.tuples(st.integers(0, n - 1), st.integers(0, len(positions) - 1)),
        label="flipped entry",
    )
    flipped = [list(u) for u in straddles]
    flipped[k][i] ^= 1
    spec = SynthesisSpec(markov, tuple(zip(*flipped)), positions, STRICT)
    assert not feasibility_check(spec).feasible

    columns, covered = [], []
    for p, u in zip(positions, straddles):
        # Rows whose run ends at interval p reach the gap from the left, rows
        # whose run starts at interval p + 1 from the right.
        ends = [i for i, row in enumerate(markov) if row[p - 1] and not row[p]]
        starts = [i for i, row in enumerate(markov) if row[p] and not row[p - 1]]
        from_left = data.draw(st.sets(st.sampled_from(ends))) if ends else set()
        from_right = data.draw(st.sets(st.sampled_from(starts))) if starts else set()
        columns.append([int(v or i in from_left | from_right) for i, v in enumerate(u)])
        covered.append(any(u) or bool(from_left and from_right))
    partial = SynthesisSpec(markov, tuple(zip(*columns)), positions, PARTIAL)
    assert feasibility_check(partial).feasible == all(covered)

    for spec in (strict, partial):
        if not feasibility_check(spec).feasible:
            continue
        result = synthesize(spec)
        rebuilt = transition_data(result.map)
        assert rebuilt == TransitionData(spec.markov, spec.escape, positions)
        for (_, k), row in zip(rebuilt.columns, rebuilt.entries):
            if k is None:
                units = [c for c, v in enumerate(row) if v]
                assert units == list(range(units[0], units[-1] + 1))
        if spec.mode == STRICT:
            assert result.validation.p5_ok
