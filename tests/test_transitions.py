from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    MapFormatError,
    SynthesisSpec,
    as_binary_matrix,
    block_form,
    build_graph,
    dot_export,
    escape_matrix,
    expected_matrix_notes,
    four_interval_map,
    four_interval_reaching_map,
    full_two_interval_map,
    is_primitive,
    markov_matrix,
    synthesize,
    transition_data,
    wielandt_bound,
)

from escapemaps.transitions import predecessors

F = Fraction

FOUR_A = ((0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0))


# -- matrix input hygiene ------------------------------------------------


def test_as_binary_matrix_rejects_bad_shapes_and_entries():
    with pytest.raises(MapFormatError):
        as_binary_matrix([])
    with pytest.raises(MapFormatError):
        as_binary_matrix([[1, 0], [1]])
    with pytest.raises(MapFormatError):
        as_binary_matrix([[1, 0, 0], [0, 1, 0]])  # non-square
    with pytest.raises(MapFormatError):
        as_binary_matrix([[2, 0], [0, 1]])
    with pytest.raises(MapFormatError):
        as_binary_matrix([[True, False], [False, True]])


# -- transition and escape matrices -------------------------------------


def test_four_interval_markov_matrix(four_map):
    assert markov_matrix(four_map) == FOUR_A


def test_predecessors_are_the_columns_of_a(four_map):
    # A point of I_1 has preimages under branch 3 only, one of I_3 under
    # branches 1 and 4.
    assert predecessors(FOUR_A) == ((2,), (0, 2), (0, 3), (1,))
    assert predecessors(((1, 1), (1, 1))) == ((0, 1), (0, 1))


def test_full_two_interval_matrix(full2_map):
    assert markov_matrix(full2_map) == ((1, 1), (1, 1))
    data = transition_data(full2_map)
    assert data.gap_positions == ()
    assert data.symbols() == ("1", "2")


def test_four_interval_escape_matrix(four_map):
    em = escape_matrix(four_map)
    assert em.symbols == ("1", "2", "2^", "3", "4")
    assert em.entries == (
        (0, 1, 1, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (0, 0, 0, 1, 0),
    )
    assert em.block_permutation == (0, 1, 3, 4, 2)
    data = em.data
    assert data.markov == FOUR_A
    assert data.escape == ((1,), (0,), (0,), (0,))
    assert data.gap_positions == (2,)


def test_reaching_escape_matrix_meets_gap_from_branch_four(reaching_map):
    data = transition_data(reaching_map)
    assert data.markov == FOUR_A
    assert data.escape == ((1,), (0,), (0,), (1,))


TWO_GAP_A = ((1, 1, 0), (1, 1, 1), (0, 1, 1))
TWO_GAP_B = ((1, 0), (1, 1), (0, 1))

BLOCK_FORM_CASES = {
    "four_interval": (four_interval_map, FOUR_A, ((1,), (0,), (0,), (0,))),
    "four_interval_reaching": (
        four_interval_reaching_map,
        FOUR_A,
        ((1,), (0,), (0,), (1,)),
    ),
    "full_two_interval": (full_two_interval_map, ((1, 1), (1, 1)), ((), ())),
    "synthesized_two_gaps": (
        lambda: synthesize(SynthesisSpec(TWO_GAP_A, TWO_GAP_B)).map,
        TWO_GAP_A,
        TWO_GAP_B,
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCK_FORM_CASES))
def test_block_form_factorization(name):
    load, markov, escape = BLOCK_FORM_CASES[name]
    em = escape_matrix(load())
    bf = block_form(em)
    assert bf.markov == markov
    assert bf.escape == escape
    size = len(em.symbols)
    p = bf.permutation_matrix
    # P is a permutation matrix and P Ahat P^T has the block shape
    # [[A, B], [0, 0]] with the computed blocks.
    assert all(sum(row) == 1 for row in p)
    assert all(sum(p[r][c] for r in range(size)) == 1 for c in range(size))
    permuted = [
        [
            sum(
                p[r][a] * em.entries[a][b] * p[c][b]
                for a in range(size)
                for b in range(size)
            )
            for c in range(size)
        ]
        for r in range(size)
    ]
    n = len(bf.markov)
    for i in range(size):
        for j in range(size):
            if i < n and j < n:
                assert permuted[i][j] == bf.markov[i][j]
            elif i < n:
                assert permuted[i][j] == bf.escape[i][j - n]
            else:
                assert permuted[i][j] == 0


# -- primitivity ---------------------------------------------------------


def test_wielandt_bound_values():
    assert wielandt_bound(1) == 1
    assert wielandt_bound(2) == 2
    assert wielandt_bound(4) == 10
    assert wielandt_bound(6) == 26


def test_primitivity_known_cases():
    assert is_primitive(((1,),)).exponent == 1
    assert not is_primitive(((0,),)).primitive
    res = is_primitive(FOUR_A)
    assert (res.primitive, res.exponent, res.zero_entry) == (True, 5, None)
    assert is_primitive(((1, 1), (1, 1))).exponent == 1
    swap = is_primitive(((0, 1), (1, 0)))
    assert not swap.primitive and swap.exponent is None
    assert swap.zero_entry in {(1, 2), (2, 1), (1, 1), (2, 2)}
    assert not is_primitive(((0, 0), (1, 1))).primitive  # zero row


def _oracle_primitivity(rows):
    """Float matrix powers with clipping, checked against the scan bound."""
    n = len(rows)
    a = np.array(rows, dtype=float)
    power = a.copy()
    for q in range(1, wielandt_bound(n) + 1):
        if q > 1:
            power = np.clip(power @ a, 0.0, 1.0)
        if power.min() > 0.0:
            return True, q
    return False, None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_primitivity_matches_matrix_power_oracle(rows):
    matrix = tuple(tuple(row) for row in rows)
    res = is_primitive(matrix)
    want_primitive, want_exponent = _oracle_primitivity(matrix)
    assert res.primitive == want_primitive
    assert res.exponent == want_exponent
    if res.primitive:
        assert res.exponent <= wielandt_bound(len(matrix))
    else:
        i, j = res.zero_entry
        a = np.array(matrix, dtype=float)
        power = a.copy()
        for _ in range(wielandt_bound(len(matrix)) - 1):
            power = np.clip(power @ a, 0.0, 1.0)
        assert power[i - 1][j - 1] == 0.0


# -- graphs and DOT ------------------------------------------------------


def test_graph_and_dot_export(full2_map, four_map):
    g = build_graph(markov_matrix(full2_map))
    assert g.vertex_count == 2
    assert g.edges == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert g.out_neighbours(1) == (1, 2)
    assert dot_export(g) == (
        "digraph transitions {\n"
        "  1;\n"
        "  2;\n"
        "  1 -> 1;\n"
        "  1 -> 2;\n"
        "  2 -> 1;\n"
        "  2 -> 2;\n"
        "}\n"
    )
    g4 = build_graph(markov_matrix(four_map))
    assert g4.edges == ((1, 2), (1, 3), (2, 4), (3, 1), (3, 2), (4, 3))
    labelled = dot_export(g4, {1: "I1"})
    assert '1 [label="I1"];' in labelled


def test_graph_strong_connectivity_matches_networkx(four_map):
    networkx = pytest.importorskip("networkx")
    g = build_graph(markov_matrix(four_map))
    dg = networkx.DiGraph(g.edges)
    assert networkx.is_strongly_connected(dg)
    # Primitivity = strong connectivity + aperiodicity (cycle gcd 1).
    assert networkx.is_aperiodic(dg)


# -- claimed-matrix comparison ------------------------------------------


def test_expected_matrix_notes_pinpoint_the_difference(four_doc):
    em = escape_matrix(four_doc.map)
    notes = expected_matrix_notes(four_doc.map, em, four_doc.expected_escape_matrix)
    assert len(notes) == 1
    assert notes[0] == (
        "computed escape matrix differs from the claimed one at (4, 2^): "
        "computed 0, claimed 1; branch 4 image [7/10, 9/10] does not meet "
        "gap ]1/4, 7/10["
    )


def test_expected_matrix_notes_empty_when_claim_matches(reaching_map, four_doc):
    em = escape_matrix(reaching_map)
    notes = expected_matrix_notes(reaching_map, em, four_doc.expected_escape_matrix)
    assert notes == ()


def test_expected_matrix_notes_flag_symbol_order_mismatch(four_doc):
    from escapemaps import ExpectedEscapeMatrix

    em = escape_matrix(four_doc.map)
    wrong = ExpectedEscapeMatrix(
        symbols=("1", "1^", "2", "3", "4"),
        rows=four_doc.expected_escape_matrix.rows,
    )
    notes = expected_matrix_notes(four_doc.map, em, wrong)
    assert len(notes) == 1 and "symbol order" in notes[0]
