import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    AffineBranch,
    DepthExceedsTreeError,
    Distinct,
    Equivalent,
    EscapeMapsError,
    EscapeVsRegular,
    InconsistentInputsError,
    Intertwiner,
    MarkovMap,
    NoLabelRespectingIso,
    NotAnEscapePointError,
    OrbitMeetsBoundaryError,
    OrbitTree,
    PARTIAL,
    STRICT,
    SynthesisSpec,
    bisim_equivalent,
    build_orbit_tree,
    classify_corpus,
    classify_point,
    compare_points,
    incidence_cells,
    jsonable,
    synthesize,
)
from escapemaps.equivalence import _PointedRefinement, _pointed_verdict
from escapemaps.transitions import color_refinement, predecessors

from conftest import periodic_point, pull_back, synthesized_spec
from oracles import (
    _oracle_same_unrolling,
    ahu_canonical,
    build_intertwiner,
    escape_point_with_incidence,
    refine,
    refined_root_colors,
    refined_verdict,
)

F = Fraction

FOUR_A = ((0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0))


# -- canonical forms (the oracle in oracles.py) -------------------------


def test_ahu_canonical_chain(four_map):
    tree = build_orbit_tree(four_map, F(1, 2), 2)
    form = ahu_canonical(tree, 2)
    assert form.form == "((()))"
    assert form.depth == 2
    # Truncation commutes with the canonical form.
    deep = build_orbit_tree(four_map, F(1, 2), 5)
    assert ahu_canonical(deep, 2) == form


def test_ahu_canonical_agrees_for_same_cell_points(four_map):
    tx = build_orbit_tree(four_map, F(1, 2), 6)
    ty = build_orbit_tree(four_map, F(9, 20), 6)
    assert ahu_canonical(tx, 6) == ahu_canonical(ty, 6)


def test_ahu_canonical_separates_different_cells(partial_map):
    x = escape_point_with_incidence(partial_map, (1, 0, 0, 0))
    y = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    tx = build_orbit_tree(partial_map, x, 4)
    ty = build_orbit_tree(partial_map, y, 4)
    assert ahu_canonical(tx, 4) != ahu_canonical(ty, 4)


def test_ahu_canonical_rejects_regular_windows(four_map):
    tree = build_orbit_tree(four_map, F(5, 27), 3, horizon=2)
    with pytest.raises(NotAnEscapePointError):
        ahu_canonical(tree, 2)


# -- exact bisimulation --------------------------------------------------


def test_bisim_equivalent_same_incidence():
    verdict = bisim_equivalent(FOUR_A, (1, 0, 0, 0), (1, 0, 0, 0))
    assert isinstance(verdict, Equivalent)
    assert verdict.rounds == 2
    assert ("root_x", "root_y") in verdict.partition


def test_bisim_distinct_at_round_zero():
    verdict = bisim_equivalent(FOUR_A, (1, 0, 0, 0), (1, 0, 0, 1))
    assert verdict == Distinct(0, "out-degree 1", "out-degree 2")


def test_bisim_distinct_at_a_later_round():
    verdict = bisim_equivalent(FOUR_A, (1, 0, 0, 0), (0, 1, 0, 0))
    assert isinstance(verdict, Distinct)
    assert verdict.separating_round == 1
    assert verdict.signature_x == "child classes [0] (round 0 colors)"
    assert verdict.signature_y == "child classes [1] (round 0 colors)"


def test_bisim_rejects_wrong_length():
    with pytest.raises(InconsistentInputsError):
        bisim_equivalent(FOUR_A, (1, 0, 0), (1, 0, 0, 0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_bisim_matches_depth_six_unrolling_oracle(case):
    rows, cx, cy = case
    markov = tuple(tuple(r) for r in rows)
    verdict = bisim_equivalent(markov, tuple(cx), tuple(cy))
    # Markov colors stabilize within n rounds and root colors one round
    # later, so depth-(n + 2) unrollings decide equivalence exactly.
    assert isinstance(verdict, Equivalent) == _oracle_same_unrolling(
        markov, cx, cy, len(markov) + 2
    )


# -- the refinement against the whole-graph oracle in oracles.py ----------


@st.composite
def pointed_cases(draw):
    """A square 0/1 matrix, n = 1..12, that is asymmetric, imprimitive (units
    only from one residue class mod 2 or 3 to the next), has an empty row and
    an empty column, or is banded; with one to five incidence rows, repeats
    included."""
    n = draw(st.integers(1, 12), label="n")
    kind = draw(st.sampled_from(["asymmetric", "imprimitive", "empty", "banded"]), label="kind")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = rng.random()
    if kind == "imprimitive":
        period = rng.choice((2, 3))
        unit = lambda i, j: (i + 1 - j) % period == 0 and rng.random() < density
    elif kind == "banded":
        lo, hi = sorted(rng.randint(-3, 3) for _ in range(2))
        unit = lambda i, j: lo <= j - i <= hi and rng.random() < 0.9
    else:
        unit = lambda i, j: rng.random() < density
    markov = [[int(unit(i, j)) for j in range(n)] for i in range(n)]
    if kind == "empty":
        markov[rng.randrange(n)] = [0] * n
        column = rng.randrange(n)
        for row in markov:
            row[column] = 0
    rows = []
    for _ in range(draw(st.integers(1, 5), label="rows")):
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
        else:
            rows.append(tuple(int(rng.random() < density) for _ in range(n)))
    return tuple(map(tuple, markov)), rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pointed_cases())
def test_refinement_matches_the_whole_graph_oracle(case):
    markov, rows = case
    preds = predecessors(markov)
    refinement = color_refinement(preds)
    # The map's own history: colors, and the signatures they rank.
    _, own = refine(preds, [])
    assert [list(colors) for colors in refinement.colors] == own
    assert refinement.signatures[0] == tuple(sorted({len(kids) for kids in preds}))
    for r, colors in enumerate(own, start=1):
        signatures = {
            (colors[s], tuple(sorted(colors[c] for c in kids))) for s, kids in enumerate(preds)
        }
        assert refinement.signatures[r] == tuple(sorted(signatures))
    assert len(refinement.signatures) == len(own) + 1
    # The roots placed into it give the whole graph's history, round by round.
    pointed = _PointedRefinement(refinement, rows)
    _, whole = refine(preds, rows)
    assert [pointed.colors(r) for r in range(pointed.rounds + 1)] == whole
    # What classify_corpus reads: each root's stable color and the rounds.
    stable = [pointed.root_color(pointed.rounds, k) for k in range(len(rows))]
    assert (stable, pointed.rounds) == refined_root_colors(preds, rows)
    # Every verdict, field by field.
    for x in rows:
        for y in rows:
            assert _pointed_verdict(refinement, x, y) == refined_verdict(preds, x, y)
    x, y = rows[0], rows[-1]
    assert bisim_equivalent(markov, x, y) == refined_verdict(preds, x, y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_compare_points_and_classify_corpus_match_the_oracle_on_synthesized_maps(data):
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    spec = synthesized_spec(data, mode)
    if spec is None:
        return
    m = synthesize(spec).map
    preds = m.transition_predecessors
    ((gap, _, _),) = m.gaps
    points = []
    for lo, hi, _ in incidence_cells(m, gap):
        e = (lo + hi) / 2
        points += [e, pull_back(m, e, data, data.draw(st.integers(1, 2), label="steps"))]
    for a, x in enumerate(points):
        for y in points[a:]:
            result = compare_points(m, x, y, depth=0)
            rows = result.class_x.incidence, result.class_y.incidence
            assert result.verdict == refined_verdict(preds, *rows)
    corpus = classify_corpus(m, points)
    rows = list(dict.fromkeys(classify_point(m, x).incidence for x in points))
    colors, rounds = refined_root_colors(preds, rows)
    assert corpus.rounds == rounds
    color_of = dict(zip(rows, colors))
    assert len(corpus.classes) == len(set(colors))
    for entry in corpus.classes:
        assert {color_of[row] for row in entry.incidences} == {entry.stable_class}
    # Two regular points are compared through the columns of their intervals.
    periodic = [x for x in (periodic_point(m, data) for _ in range(4)) if x is not None]
    if len(periodic) < 2:
        return
    x, y = periodic[:2]
    try:
        result = compare_points(m, x, y, depth=0)
    except OrbitMeetsBoundaryError:
        return
    columns = [tuple(row[m.locate(p).index - 1] for row in m.transition_matrix) for p in (x, y)]
    assert result.verdict == refined_verdict(preds, *columns, note=result.verdict.note)


def test_a_huge_point_fails_with_the_library_error(four_map):
    # The message names the point; Python refuses to print an int of more
    # than 4,300 digits, which must not surface as a bare ValueError.
    with pytest.raises(EscapeMapsError, match="cannot print a rational"):
        classify_corpus(four_map, [F(5, 27) + F(1, 10**4400)], max_iter=5)


# -- intertwiners (the matcher oracle in oracles.py) ---------------------


def test_intertwiner_between_equivalent_points(four_map):
    tx = build_orbit_tree(four_map, F(1, 2), 6)
    ty = build_orbit_tree(four_map, F(9, 20), 6)
    result = build_intertwiner(tx, ty)
    assert isinstance(result, Intertwiner)
    assert result.verified
    assert len(result.pairs) == 16
    assert result.pairs[0] == (0, 0)
    forward = dict(result.pairs)
    assert sorted(forward) == list(range(tx.node_count))
    assert sorted(forward.values()) == list(range(ty.node_count))
    for a, b in result.pairs:
        assert tx.labels[a] == ty.labels[b]
        assert tx.depths[a] == ty.depths[b]


def test_intertwiner_requires_escape_windows_on_one_map(four_map, full2_map):
    regular = build_orbit_tree(four_map, F(5, 27), 3, horizon=2)
    escape = build_orbit_tree(four_map, F(1, 2), 3)
    with pytest.raises(NotAnEscapePointError):
        build_intertwiner(regular, escape)
    import dataclasses

    other = build_orbit_tree(four_map, F(9, 20), 3)
    foreign = dataclasses.replace(other, map=full2_map)
    with pytest.raises(InconsistentInputsError):
        build_intertwiner(escape, foreign)
    with pytest.raises(InconsistentInputsError):
        build_intertwiner(escape, build_orbit_tree(four_map, F(9, 20), 2))


def _toy_window(four_map, child_labels):
    """Hand-assembled escape window rooted at 1/2 with one child per given
    branch label, for exercising the no-isomorphism paths.  The children are
    not all real preimages of 1/2 (only branch 1 covers it), so the window
    carries no points of its own: they would be computed from the labels."""
    esc = classify_point(four_map, F(1, 2))
    return OrbitTree(
        map=four_map,
        base_point=F(1, 2),
        base_class=esc,
        root_point=F(1, 2),
        max_depth=1,
        depths=(0,) + (1,) * len(child_labels),
        parents=(None,) + (0,) * len(child_labels),
        labels=(None,) + tuple(child_labels),
    )


def test_label_mismatch_with_shape_match(four_map):
    tx = _toy_window(four_map, [1])
    ty = _toy_window(four_map, [3])
    result = build_intertwiner(tx, ty)
    assert result == NoLabelRespectingIso(unlabeled_iso_exists=True)


def test_label_and_shape_mismatch(four_map):
    tx = _toy_window(four_map, [1])
    ty = _toy_window(four_map, [3, 4])
    result = build_intertwiner(tx, ty)
    assert result == NoLabelRespectingIso(unlabeled_iso_exists=False)


# -- corpus classification ----------------------------------------------


def test_classify_corpus_single_class(four_map):
    result = classify_corpus(four_map, [F(1, 2), F(9, 20), F(1, 3)])
    assert result.rounds == 2
    assert len(result.classes) == 1
    entry = result.classes[0]
    assert entry.points == (F(1, 3), F(9, 20), F(1, 2))
    assert entry.incidences == ((1, 0, 0, 0),)
    data = jsonable(result)
    assert data["classes"][0]["points"] == ["1/3", "9/20", "1/2"]


def test_classify_corpus_two_classes(partial_map):
    x = escape_point_with_incidence(partial_map, (1, 0, 0, 0))
    y = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    result = classify_corpus(partial_map, [x, y])
    assert len(result.classes) == 2
    assert {entry.incidences for entry in result.classes} == {
        ((1, 0, 0, 0),),
        ((1, 0, 0, 1),),
    }


def test_classify_corpus_rejects_regular_points(four_map):
    with pytest.raises(NotAnEscapePointError):
        classify_corpus(four_map, [F(1, 2), F(5, 27)])


def test_classify_corpus_refuses_a_boundary_orbit(four_map):
    # 0 is a partition point, so its orbit meets the boundary at step 0.
    with pytest.raises(OrbitMeetsBoundaryError, match="hits partition point 0"):
        classify_corpus(four_map, [F(1, 2), F(0)])


def test_classify_corpus_needs_a_valid_map():
    doubling = MarkovMap((AffineBranch(2, 0, 0, 1),))  # the image [0, 2] breaks P1
    with pytest.raises(EscapeMapsError, match="P1: branch images cover"):
        classify_corpus(doubling, [F(1, 3)])


def test_an_invalid_map_is_refused_for_every_pair_and_an_empty_corpus(four_map):
    # Branch 2 with slope 1 breaks P1 and P3 (and with them P2 and P4).
    branches = list(four_map.branches)
    branches[1] = dataclasses.replace(branches[1], slope=F(1))
    flat = MarkovMap(tuple(branches))
    # Escape/regular, regular/regular and escape/escape pairs alike.
    for x, y in ((F(1, 3), F(5, 27)), (F(5, 27), F(5, 27)), (F(1, 3), F(1, 3))):
        with pytest.raises(EscapeMapsError, match="P3: interval 2"):
            compare_points(flat, x, y)
    with pytest.raises(EscapeMapsError, match="P1: branch images cover"):
        classify_corpus(flat, [])


def test_classify_corpus_refuses_an_undefined_window_at_any_depth(reaching_map):
    # The escape root 3/5 has the partition point 9/10 as a preimage.
    for depth in (1, 8):
        with pytest.raises(OrbitMeetsBoundaryError, match="9/10"):
            classify_corpus(reaching_map, [F(1, 2), F(3, 5)], depth=depth)


# -- point comparison ----------------------------------------------------


def test_compare_refuses_an_undefined_window_for_every_verdict(reaching_map, full2_map):
    # The escape root 3/5 has the partition point 9/10 as a preimage, so its
    # window is undefined from depth 1 on: a distinct pair and an
    # escape/regular mix are refused as an equivalent pair is.  Depth 0
    # expands no root, so the verdict stands there.
    for x, y in ((F(3, 5), F(1, 2)), (F(1, 2), F(3, 5)), (F(5, 27), F(3, 5))):
        with pytest.raises(OrbitMeetsBoundaryError, match="preimage 9/10 of window node 3/5"):
            compare_points(reaching_map, x, y, depth=1)
    assert isinstance(compare_points(reaching_map, F(3, 5), F(1, 2), depth=0).verdict, Distinct)
    # A boundary orbit gets the text a window build gives.
    with pytest.raises(OrbitMeetsBoundaryError, match="forward orbit of 1/2 hits partition point 1/2 at step 0"):
        compare_points(full2_map, F(1, 3), F(1, 2))


def test_compare_equivalent_escaping_points(four_map):
    result = compare_points(four_map, F(1, 2), F(9, 20))
    assert isinstance(result.verdict, Equivalent)
    assert result.verdict.rounds == 2
    assert isinstance(result.intertwiner, Intertwiner)
    assert result.intertwiner.verified


def test_compare_escape_against_regular(four_map):
    result = compare_points(four_map, F(1, 2), F(5, 27))
    assert result.verdict == EscapeVsRegular()
    assert result.intertwiner is None


def test_compare_two_regular_points(four_map):
    same = compare_points(four_map, F(5, 27), F(5, 27))
    assert isinstance(same.verdict, Equivalent)
    assert same.verdict.note == "window-level comparison of non-escaping points"
    different = compare_points(four_map, F(5, 27), F(229, 270))
    assert isinstance(different.verdict, Distinct)
    assert different.verdict.separating_round == 0


def test_compare_rejects_boundary_orbits(four_map):
    with pytest.raises(OrbitMeetsBoundaryError):
        compare_points(four_map, F(0), F(1, 2))


def test_negative_budgets_are_refused(four_map):
    with pytest.raises(DepthExceedsTreeError, match="max_iter"):
        classify_point(four_map, F(5, 27), max_iter=-1)
    for x, y in ((F(1, 2), F(9, 20)), (F(1, 2), F(5, 27))):
        with pytest.raises(DepthExceedsTreeError, match="max_iter"):
            compare_points(four_map, x, y, max_iter=-1)
    with pytest.raises(DepthExceedsTreeError, match="max_iter"):
        classify_corpus(four_map, [F(1, 2)], max_iter=-1)
    with pytest.raises(DepthExceedsTreeError, match="depth"):
        compare_points(four_map, F(1, 2), F(9, 20), depth=-1)


def test_negative_depth_is_refused_for_every_pair(four_map, partial_map):
    # Escape/regular, regular/regular, distinct and equivalent escape pairs:
    # the depth is checked before either point is classified.
    cells = [escape_point_with_incidence(partial_map, row) for row in ((1, 0, 0, 0), (1, 0, 0, 1))]
    for m, x, y in (
        (four_map, F(1, 2), F(5, 27)),
        (four_map, F(5, 27), F(1, 2)),
        (four_map, F(5, 27), F(5, 27)),
        (partial_map, *cells),
        (four_map, F(1, 2), F(9, 20)),
    ):
        with pytest.raises(DepthExceedsTreeError, match="depth must be nonnegative"):
            compare_points(m, x, y, depth=-1)


def test_compare_distinct_cells_on_partial_map(partial_map):
    x = escape_point_with_incidence(partial_map, (1, 0, 0, 0))
    y = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    result = compare_points(partial_map, x, y)
    assert result.verdict == Distinct(0, "out-degree 1", "out-degree 2")
    assert result.intertwiner is None


def test_compare_bisimilar_rows_with_different_labels():
    # States 1 and 2 are bisimilar, so the rows (0, 1, 0, 1, 0) and
    # (1, 0, 0, 1, 0) are equivalent while their windows differ in labels.
    markov = (
        (0, 0, 0, 1, 0),
        (1, 1, 1, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 1, 1, 0),
        (1, 1, 0, 0, 0),
    )
    spec = SynthesisSpec(markov, ((1,), (1,), (0,), (1,), (0,)), (3,), PARTIAL)
    m = synthesize(spec).map
    x = escape_point_with_incidence(m, (0, 1, 0, 1, 0))
    y = escape_point_with_incidence(m, (1, 0, 0, 1, 0))
    result = compare_points(m, x, y, depth=2)
    assert isinstance(result.verdict, Equivalent)
    assert result.intertwiner == NoLabelRespectingIso(unlabeled_iso_exists=True)
    tx, ty = build_orbit_tree(m, x, 2), build_orbit_tree(m, y, 2)
    assert build_intertwiner(tx, ty) == result.intertwiner


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_intertwiners_and_canonical_forms_match_the_oracles(data):
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    spec = synthesized_spec(data, mode)
    if spec is None:
        return
    m = synthesize(spec).map
    depth = data.draw(st.integers(0, 3), label="depth")
    ((gap, _, _),) = m.gaps
    points = []
    for lo, hi, _ in incidence_cells(m, gap):
        e = (lo + hi) / 2
        points += [e, pull_back(m, e, data, data.draw(st.integers(1, 2), label="steps"))]
    for a, x in enumerate(points):
        for y in points[a:]:
            result = compare_points(m, x, y, depth=depth)
            tx, ty = build_orbit_tree(m, x, depth), build_orbit_tree(m, y, depth)
            verdict = result.verdict
            if isinstance(verdict, Equivalent):
                assert result.intertwiner == build_intertwiner(tx, ty)
            else:
                assert result.intertwiner is None
            # Root colors at round r mirror the unrollings of depth r + 1, and
            # once separated, two roots stay separated.
            same_colors = isinstance(verdict, Equivalent) or depth <= verdict.separating_round
            assert (ahu_canonical(tx, depth) == ahu_canonical(ty, depth)) == same_colors


# -- verdict serialization ----------------------------------------------


def test_verdicts_serialize_in_every_shape(four_map):
    eq = jsonable(bisim_equivalent(FOUR_A, (1, 0, 0, 0), (1, 0, 0, 0)))
    assert eq["verdict"] == "equivalent" and eq["rounds"] == 2
    di = jsonable(bisim_equivalent(FOUR_A, (1, 0, 0, 0), (1, 0, 0, 1)))
    assert di == {
        "verdict": "distinct",
        "separating_round": 0,
        "signature_x": "out-degree 1",
        "signature_y": "out-degree 2",
        "note": "",
    }
    mixed = jsonable(EscapeVsRegular())
    assert mixed == {
        "verdict": "distinct",
        "reason": "one point escapes and the other does not",
        "note": "",
    }
    tx = build_orbit_tree(four_map, F(1, 2), 3)
    ty = build_orbit_tree(four_map, F(9, 20), 3)
    inter = jsonable(build_intertwiner(tx, ty))
    assert inter["label_respecting"] is True and inter["verified"] is True
    noiso = jsonable(NoLabelRespectingIso(unlabeled_iso_exists=False))
    assert noiso == {"unlabeled_iso_exists": False, "label_respecting": False}


def test_classification_json_is_pinned(four_map, partial_map):
    # No subcommand prints a classification, so the CLI transcript does not
    # cover its JSON form.
    one = classify_corpus(four_map, [F(1, 2), F(9, 20), F(1, 3)])
    assert json.dumps(one, default=jsonable, sort_keys=True) == (
        '{"classes": [{"incidences": [[1, 0, 0, 0]], '
        '"points": ["1/3", "9/20", "1/2"], "stable_class": 0}], "rounds": 2}'
    )
    x = escape_point_with_incidence(partial_map, (1, 0, 0, 0))
    y = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    assert jsonable(classify_corpus(partial_map, [y, x])) == {
        "classes": [
            {"points": [str(x)], "incidences": [[1, 0, 0, 0]], "stable_class": 0},
            {"points": [str(y)], "incidences": [[1, 0, 0, 1]], "stable_class": 3},
        ],
        "rounds": 2,
    }
