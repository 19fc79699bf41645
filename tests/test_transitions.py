import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    ExpectedEscapeMatrix,
    MapFormatError,
    SynthesisSpec,
    TransitionData,
    as_binary_matrix,
    dot_export,
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

from escapemaps import transitions
from escapemaps.transitions import predecessors
from oracles import scan_primitivity

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
    with pytest.raises(MapFormatError, match="got 1.0"):
        as_binary_matrix([[1.0, 1], [1, 1.0]])  # 1.0 == 1, but not an integer


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
    assert data.symbols == ("1", "2")


def test_four_interval_escape_matrix(four_map):
    data = transition_data(four_map)
    assert data.symbols == ("1", "2", "2^", "3", "4")
    assert data.entries == (
        (0, 1, 1, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (0, 0, 0, 1, 0),
    )
    assert data.block_permutation == (0, 1, 3, 4, 2)
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


def _assert_block_form(data):
    """P . E . P^T = [[A, B], [0, 0]], each symbol once, and ``rows`` is
    [A | B] read in ``columns`` order, checked from A, B and the positions
    alone."""
    n, m = len(data.markov), len(data.gap_positions)
    markov = np.array(data.markov, dtype=int).reshape(n, n)
    escape = np.array(data.escape, dtype=int).reshape(n, m)
    p = np.array(data.permutation_matrix)
    assert (p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()
    blocks = np.zeros((n + m, n + m), dtype=int)
    blocks[:n, :n] = markov
    blocks[:n, n:] = escape
    assert (p @ np.array(data.entries) @ p.T == blocks).all()

    # Interval j comes before its gap j^, which comes before interval j + 1.
    columns = sorted(
        [(j, None) for j in range(1, n + 1)]
        + [(q, k) for k, q in enumerate(data.gap_positions)],
        key=lambda col: (col[0], col[1] is not None),
    )
    assert data.columns == tuple(columns)
    symbols = [str(j) if k is None else f"{j}^" for j, k in columns]
    assert data.symbols == tuple(symbols)
    assert len(set(data.symbols)) == n + m
    assert data.rows == tuple(
        tuple(markov[i, j - 1] if k is None else escape[i, k] for j, k in columns)
        for i in range(n)
    )


@pytest.mark.parametrize("name", sorted(BLOCK_FORM_CASES))
def test_block_form_factorization(name):
    load, markov, escape = BLOCK_FORM_CASES[name]
    data = transition_data(load())
    assert data.markov == markov
    assert data.escape == escape
    _assert_block_form(data)


@settings(max_examples=150)
@given(st.data())
def test_block_form_factorization_on_random_placements(data):
    """Random primitive A (n = 2..7) with zero to two gap columns in any
    slots, 1 and n - 1 included: no bundled map has two gaps or a gap in
    slot 1."""
    n = data.draw(st.integers(2, 7), label="n")
    m = data.draw(st.integers(0, min(2, n - 1)), label="gaps")
    positions = tuple(
        sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=m, max_size=m)))
    )
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    while True:
        markov = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        if is_primitive(markov).primitive:
            break
    escape = tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n))
    _assert_block_form(TransitionData(markov, escape, positions))


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


@settings(max_examples=150)
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


@st.composite
def _structured_matrices(draw):
    """Square 0/1 matrices of four kinds: unconstrained, block-cyclic of
    period 2 to 4 (imprimitive whenever irreducible), reducible (block upper
    triangular), and permutations whose cycle lengths may be coprime."""
    kind = draw(st.sampled_from(("free", "block-cyclic", "reducible", "permutation")))
    if kind == "permutation":
        lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        successor, start = [], 0
        for length in lengths:
            successor += [start + (k + 1) % length for k in range(length)]
            start += length
        return tuple(tuple(int(j == s) for j in range(start)) for s in successor)
    if kind == "block-cyclic":
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        block = [b for b, size in enumerate(sizes) for _ in range(size)]
        mask = [[bj == (bi + 1) % len(sizes) for bj in block] for bi in block]
    else:
        n = draw(st.integers(1, 7))
        # Rows from ``split`` on have no unit left of it; 0 leaves A free.
        split = draw(st.integers(1, max(1, n - 1))) if kind == "reducible" else 0
        mask = [[not i >= split > j for j in range(n)] for i in range(n)]
    return tuple(tuple(int(ok and draw(st.booleans())) for ok in row) for row in mask)


@settings(max_examples=400)
@given(_structured_matrices())
def test_primitivity_matches_the_full_scan(matrix):
    assert is_primitive(matrix) == scan_primitivity(matrix)


def test_imprimitive_scan_stops_once_the_powers_cycle(monkeypatch):
    """The complete bipartite A at n = 40 has period 2, so its powers repeat
    from A^2 on: a handful of products decide it, where a scan to the
    Wielandt bound takes 1,521."""
    n = 40
    bipartite = tuple(
        tuple(int((i < n // 2) != (j < n // 2)) for j in range(n)) for i in range(n)
    )
    want = scan_primitivity(bipartite)
    calls = []
    multiply = transitions._bool_multiply

    def counting(left, right):
        calls.append((left, right))
        return multiply(left, right)

    monkeypatch.setattr(transitions, "_bool_multiply", counting)
    assert is_primitive(bipartite) == want
    assert want.zero_entry == (1, 21)
    assert len(calls) <= 10


def test_primitivity_matches_the_full_scan_on_every_small_matrix():
    """All 66,066 square 0/1 matrices with n <= 4."""
    for n in range(1, 5):
        rows = list(itertools.product((0, 1), repeat=n))
        for matrix in itertools.product(rows, repeat=n):
            assert is_primitive(matrix) == scan_primitivity(matrix), matrix


def test_wielandt_exponent_takes_a_logarithmic_number_of_products(monkeypatch):
    """i -> i + 1 and n -> 1, 2 at n = 60 has exponent 3,482, the Wielandt
    bound: the repeated squares reach it in at most 24 products, where a scan
    of every power takes 3,481."""
    n = 60
    wielandt = tuple(
        tuple(int(j == i + 1 or (i == n - 1 and j < 2)) for j in range(n))
        for i in range(n)
    )
    calls = []
    multiply = transitions._bool_multiply

    def counting(left, right):
        calls.append((left, right))
        return multiply(left, right)

    monkeypatch.setattr(transitions, "_bool_multiply", counting)
    result = is_primitive(wielandt)
    assert (result.primitive, result.exponent) == (True, wielandt_bound(n))
    assert len(calls) <= 24


# -- graphs and DOT ------------------------------------------------------


def test_graph_and_dot_export(full2_map, four_map):
    assert dot_export(markov_matrix(full2_map)) == (
        "digraph transitions {\n"
        "  1;\n"
        "  2;\n"
        "  1 -> 1;\n"
        "  1 -> 2;\n"
        "  2 -> 1;\n"
        "  2 -> 2;\n"
        "}\n"
    )
    assert dot_export(markov_matrix(four_map)).endswith(
        "  1 -> 2;\n  1 -> 3;\n  2 -> 4;\n  3 -> 1;\n  3 -> 2;\n  4 -> 3;\n}\n"
    )
    # dot_export is public, so it checks its input as a 0/1 square matrix.
    with pytest.raises(MapFormatError):
        dot_export(((1, 2), (0, 1)))


def test_graph_strong_connectivity_matches_networkx(four_map):
    networkx = pytest.importorskip("networkx")
    markov = markov_matrix(four_map)
    dg = networkx.DiGraph(
        (i, j) for i, row in enumerate(markov) for j, unit in enumerate(row) if unit
    )
    assert networkx.is_strongly_connected(dg)
    # Primitivity = strong connectivity + aperiodicity (cycle gcd 1).
    assert networkx.is_aperiodic(dg)


# -- claimed-matrix comparison ------------------------------------------


def test_expected_matrix_notes_pinpoint_the_difference(four_doc):
    data = transition_data(four_doc.map)
    notes = expected_matrix_notes(four_doc.map, data, four_doc.expected_escape_matrix)
    assert len(notes) == 1
    assert notes[0] == (
        "computed escape matrix differs from the claimed one at (4, 2^): "
        "computed 0, claimed 1; branch 4 image [7/10, 9/10] does not meet "
        "gap ]1/4, 7/10["
    )


def test_expected_matrix_notes_explain_escape_rows_and_markov_columns(four_doc):
    claim = four_doc.expected_escape_matrix
    rows = [list(row) for row in claim.rows]
    for r, c in (("1", "3"), ("2^", "1")):
        rows[claim.symbols.index(r)][claim.symbols.index(c)] ^= 1
    flipped = ExpectedEscapeMatrix(claim.symbols, tuple(map(tuple, rows)))
    notes = expected_matrix_notes(four_doc.map, transition_data(four_doc.map), flipped)
    assert notes[:2] == (
        "computed escape matrix differs from the claimed one at (1, 3): "
        "computed 1, claimed 0; branch 1 open image of [1/5, 9/10] contains "
        "the interior of [7/10, 9/10]",
        "computed escape matrix differs from the claimed one at (2^, 1): "
        "computed 0, claimed 1 (escape symbols have no outgoing transitions)",
    )
    assert len(notes) == 3  # and the file's own (4, 2^) note


def test_expected_matrix_notes_empty_when_claim_matches(reaching_map, four_doc):
    data = transition_data(reaching_map)
    notes = expected_matrix_notes(reaching_map, data, four_doc.expected_escape_matrix)
    assert notes == ()


def test_expected_matrix_notes_flag_symbol_order_mismatch(four_doc):
    data = transition_data(four_doc.map)
    wrong = ExpectedEscapeMatrix(
        symbols=("1", "1^", "2", "3", "4"),
        rows=four_doc.expected_escape_matrix.rows,
    )
    notes = expected_matrix_notes(four_doc.map, data, wrong)
    assert len(notes) == 1 and "symbol order" in notes[0]
