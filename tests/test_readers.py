"""One reader per kind of input.

Points and coefficients are read by ``rationals.exact`` (a Fraction or an
int), 0/1 arrays by ``transitions.bit_rows``, indices by ``maps.is_index``
(an int), step budgets by ``maps.check_steps`` (a nonnegative int), and
numbers in text by ``rationals.parse_integer`` (ASCII digits padded by ASCII
whitespace, for rationals, budgets and vertex lists alike).  Each entry
point refuses what its reader refuses with the reader's error, before any
analysis runs, instead of rounding a float, parsing a string, truncating an
index or reading a bool as 1.  The paired test pins the results for ints and
Fractions.
"""

import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from escapemaps import (
    FOUR_INTERVAL_MARKOV,
    AffineBranch,
    DepthExceedsTreeError,
    Equivalent,
    Escaped,
    MapFormatError,
    MapStructureError,
    MarkovMap,
    RationalParseError,
    SynthesisSpec,
    admissible,
    bisim_equivalent,
    build_orbit_tree,
    check_relations,
    classify_corpus,
    classify_point,
    compare_points,
    faithfulness_certificate,
    format_rational,
    gap_projection,
    incidence_cells,
    load_document,
    map_document_from_jsonable,
    map_document_to_jsonable,
    parse_rational,
    perron_widths,
    realize,
    spec_from_jsonable,
)
from escapemaps.commands import _parse_vertices
from escapemaps.maps import Location
from escapemaps.rationals import parse_integer

A = FOUR_INTERVAL_MARKOV
B = ((1,), (0,), (0,), (0,))


@pytest.fixture(scope="module")
def rep(four_map):
    """The escape window of 1/2 at depth 3; its incidence row is (1, 0, 0, 0)."""
    return realize(build_orbit_tree(four_map, F(1, 2), 3))


# -- points and coefficients: rationals.exact ------------------------------

POINT_CALLS = {
    "classify_point": lambda m, x: classify_point(m, x),
    "build_orbit_tree": lambda m, x: build_orbit_tree(m, x, 2),
    "compare_points": lambda m, x: compare_points(m, x, F(1, 2)),
    "classify_corpus": lambda m, x: classify_corpus(m, [F(9, 20), x]),
    "locate": lambda m, x: m.locate(x),
    "branch_inverse": lambda m, x: m.branch_inverse(1, x),
    "AffineBranch": lambda m, x: AffineBranch(slope=x, intercept=0, left=0, right=1),
    "format_rational": lambda m, x: format_rational(x),
}
POINT_CASES = [
    (name, value)
    for name in list(POINT_CALLS)[:6]
    for value in (0.3, "1/2", Decimal("0.5"), True)
] + [("AffineBranch", 2.5), ("format_rational", 0.1)]


@pytest.mark.parametrize("name, value", POINT_CASES, ids=[f"{n}-{v!r}" for n, v in POINT_CASES])
def test_points_and_coefficients_are_fractions_or_ints(four_map, name, value):
    with pytest.raises(RationalParseError, match="expected a Fraction or an int"):
        POINT_CALLS[name](four_map, value)


# -- 0/1 arrays: transitions.bit_rows --------------------------------------

BIT_CASES = {
    "A-entry-2": (((2, 1), (1, 1)), (1, 0), (0, 1)),
    "A-entry-True": (((True, 1), (1, 1)), (1, 0), (0, 1)),
    "incidence-entry-2": (((1, 1), (1, 1)), (1, 0), (0, 2)),
    "incidence-entry-True": (((1, 1), (1, 1)), (True, 0), (0, 1)),
}


@pytest.mark.parametrize("args", BIT_CASES.values(), ids=BIT_CASES)
def test_bisim_reads_a_and_both_rows_as_bits(args):
    with pytest.raises(MapFormatError, match="entries must be 0 or 1"):
        bisim_equivalent(*args)


# -- indices: maps.is_index -------------------------------------------------

INDEX_CALLS = {
    "SynthesisSpec": (MapFormatError, lambda rep, p: SynthesisSpec(A, B, p)),
    "perron_widths": (MapFormatError, lambda rep, p: perron_widths(A, B, p)),
    "check_relations": (MapStructureError, lambda rep, v: check_relations(rep, v)),
    "admissible": (MapStructureError, lambda rep, v: admissible(rep.tree.base_class, v)),
    "faithfulness_certificate": (
        MapStructureError,
        lambda rep, v: faithfulness_certificate(rep, v),
    ),
    "branch_inverse": (
        MapStructureError,
        lambda rep, i: rep.tree.map.branch_inverse(i, F(1, 2)),
    ),
    "interval_image": (MapStructureError, lambda rep, i: rep.tree.map.interval_image(i)),
    "gap_projection": (MapStructureError, lambda rep, i: gap_projection(rep, i)),
    "gap_bounds": (MapStructureError, lambda rep, k: rep.tree.map.gap_bounds(k)),
    "incidence_cells": (MapStructureError, lambda rep, k: incidence_cells(rep.tree.map, k)),
}
INDEX_CASES = [
    (name, positions)
    for name in ("SynthesisSpec", "perron_widths")
    for positions in ((1.9,), ("1",), (True,))
] + [
    ("check_relations", [2.9]),
    ("admissible", [2.9]),
    ("faithfulness_certificate", [2.9]),
    ("branch_inverse", 1.0),
    ("interval_image", True),
    ("gap_projection", 2.0),
    ("gap_projection", True),
    ("gap_projection", "1"),
    ("gap_bounds", 2.0),
    ("incidence_cells", 2.0),
]


@pytest.mark.parametrize("name, value", INDEX_CASES, ids=[f"{n}-{v!r}" for n, v in INDEX_CASES])
def test_indices_are_ints(rep, name, value):
    error, call = INDEX_CALLS[name]
    with pytest.raises(error, match="integer"):
        call(rep, value)


# -- step budgets: maps.check_steps -----------------------------------------

BUDGET_CALLS = {
    ("classify_point", "max_iter"): lambda m, v: classify_point(m, F(5, 27), max_iter=v),
    ("build_orbit_tree", "depth"): lambda m, v: build_orbit_tree(m, F(1, 2), v),
    ("build_orbit_tree", "max_iter"): lambda m, v: build_orbit_tree(m, F(1, 2), 2, max_iter=v),
    ("build_orbit_tree", "horizon"): lambda m, v: build_orbit_tree(m, F(5, 27), 2, horizon=v),
    ("compare_points", "max_iter"): lambda m, v: compare_points(m, F(1, 2), F(9, 20), max_iter=v),
    ("compare_points", "depth"): lambda m, v: compare_points(m, F(1, 2), F(9, 20), depth=v),
    ("classify_corpus", "max_iter"): lambda m, v: classify_corpus(m, [F(1, 2)], max_iter=v),
    ("classify_corpus", "depth"): lambda m, v: classify_corpus(m, [F(1, 2)], depth=v),
    ("empty-corpus", "max_iter"): lambda m, v: classify_corpus(m, [], max_iter=v),
    ("empty-corpus", "depth"): lambda m, v: classify_corpus(m, [], depth=v),
}


@pytest.mark.parametrize("key", BUDGET_CALLS, ids=["-".join(key) for key in BUDGET_CALLS])
def test_step_budgets_are_nonnegative_ints(four_map, key):
    label = key[1]
    for value in (2.5, True, "3"):
        with pytest.raises(DepthExceedsTreeError, match=re.escape(f"{label} {value!r} is not an integer")):
            BUDGET_CALLS[key](four_map, value)
    with pytest.raises(DepthExceedsTreeError, match=f"{label} must be nonnegative"):
        BUDGET_CALLS[key](four_map, -1)


def test_perron_widths_needs_positions():
    with pytest.raises(MapFormatError):
        perron_widths(A, B, None)


def test_a_mode_in_the_escape_file_goes_to_the_spec_as_given():
    with pytest.raises(MapFormatError, match="mode must be 'strict' or 'partial', got ''"):
        spec_from_jsonable([list(row) for row in A], {"rows": [list(row) for row in B], "mode": ""})


# -- numbers in text: rationals.parse_integer -------------------------------

# Other Unicode decimal digits (Arabic-Indic, fullwidth) that re's \d and
# int() accept, a superscript, and int()'s digit separator.
NOT_ASCII = ["\u0663", "\uff11\uff10", "1\uff10", "\u00b2", "1_0"]


@pytest.mark.parametrize("text", NOT_ASCII, ids=ascii)
def test_integers_are_written_in_ascii_digits(text):
    with pytest.raises(RationalParseError, match=re.escape(f"entry {text!r} is not an integer")):
        parse_integer(text, "entry")


@pytest.mark.parametrize(
    "text",
    [*NOT_ASCII, "\u0669/\u0662\u0660", "\uff11/\uff13", "1/\u0663", "1/1_0"],
    ids=ascii,
)
def test_rationals_are_written_in_ascii_digits(text):
    with pytest.raises(RationalParseError, match="not a rational literal"):
        parse_rational(text)


# Characters that str.strip() drops but that are not ASCII whitespace: the
# ideographic, no-break and em spaces, and the file and unit separators.
NOT_ASCII_SPACE = ["\u3000", "\u00a0", "\u2003", "\x1c", "\x1f"]


@pytest.mark.parametrize("space", NOT_ASCII_SPACE, ids=ascii)
def test_padding_is_ascii_whitespace_only(space):
    for text in (space + "4", "4" + space):
        with pytest.raises(RationalParseError, match=re.escape(f"entry {text!r} is not an integer")):
            parse_integer(text, "entry")
    for text in (space + "9/20", "9/20" + space):
        with pytest.raises(RationalParseError, match="not a rational literal"):
            parse_rational(text)
    for text in (space + "2", "2," + space + "3", space):
        with pytest.raises(RationalParseError, match="vertex list entry .* is not an integer"):
            _parse_vertices(text, 4)


def test_ascii_whitespace_is_padding():
    pad = " \t\n\r\v\f"
    assert parse_integer(pad + "-4" + pad, "entry") == -4
    assert parse_rational(pad + "9/20" + pad) == F(9, 20)
    assert _parse_vertices(pad + "2" + pad + "," + pad + "3" + pad, 4) == (2, 3)
    assert _parse_vertices(pad, 4) == ()


def test_map_coefficients_are_written_in_ascii_digits():
    data = map_document_to_jsonable(load_document("four_interval"))
    data["branches"][0]["slope"] = "\uff12"
    with pytest.raises(RationalParseError, match="not a rational literal"):
        map_document_from_jsonable(data)


# -- the same calls with ints and Fractions ---------------------------------


def test_ints_and_fractions_give_the_same_results(four_map, rep):
    m = four_map
    assert classify_point(m, F(1, 2)) == Escaped(0, F(1, 2), 2, (1, 0, 0, 0))
    assert build_orbit_tree(m, F(1, 2), 2).points == (F(1, 2), F(3, 35), F(269, 350))
    assert compare_points(m, F(9, 20), F(1, 2)).verdict == Equivalent(
        rounds=2, partition=(("root_x", "root_y"), ("1",), ("4",), ("3",), ("2",))
    )
    (entry,) = classify_corpus(m, [F(9, 20), F(1, 2)]).classes
    assert entry.points == (F(9, 20), F(1, 2)) and entry.incidences == ((1, 0, 0, 0),)
    assert m.locate(F(1, 2)) == Location("escape-interior", 2, F(1, 2))
    assert (m.branch_inverse(1, F(1, 2)), m.branch_inverse(1, 0)) == (F(3, 35), None)
    assert m.interval_image(1) == (F(1, 5), F(9, 10))
    assert MarkovMap((AffineBranch(slope=3, intercept=0, left=0, right=1),)).images == ((0, 3),)
    assert (format_rational(3), format_rational(F(-1, 2))) == ("3", "-1/2")

    assert SynthesisSpec(A, B, [2]).gap_positions == (2,)
    widths = perron_widths(A, B, [2])
    assert widths.markov_widths == (F(12, 37), F(4, 37), F(12, 37), F(8, 37))
    assert widths.escape_widths == (F(1, 37),)
    assert widths.perron_bracket == (F(4, 3), 2)
    assert check_relations(rep, [2, 3, 4]).all_passed
    assert admissible(rep.tree.base_class, [2])
    assert faithfulness_certificate(rep, (2, 3, 4)).faithful
    # The transfer of branch 1 takes node 0 to node 1 and node 2 to node 3.
    assert (rep.vertex_masks[0], rep.tree.parents) == (0b01010, (None, 0, 1, 2, 2))
    assert gap_projection(rep, 1) == frozenset({1})

    assert bisim_equivalent(((1, 1), (1, 1)), [1, 0], (0, 1)) == Equivalent(
        rounds=0, partition=(("root_x", "root_y"), ("1", "2"))
    )
    spec = spec_from_jsonable([list(row) for row in A], {"rows": [list(row) for row in B], "mode": "partial"})
    assert (spec.escape, spec.gap_positions, spec.mode) == (B, None, "partial")
