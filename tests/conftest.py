"""Shared fixtures: the bundled corpus maps, a map whose second branch
reverses orientation, and one synthesized map that several suites exercise
(built once per session; synthesis is exact, so the result is
deterministic).  Also the hypothesis draws shared by the window and operator
suites: synthesized specs at n = 5..8, pull-backs along admissible words, and
periodic points of closed walks."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from escapemaps import (
    PARTIAL,
    FOUR_INTERVAL_MARKOV,
    AffineBranch,
    MarkovMap,
    SynthesisSpec,
    feasibility_check,
    four_interval_document,
    four_interval_map,
    four_interval_reaching_map,
    full_two_interval_map,
    is_primitive,
    synthesize,
)

F = Fraction


@pytest.fixture(scope="session")
def four_doc():
    return four_interval_document()


@pytest.fixture(scope="session")
def four_map():
    return four_interval_map()


@pytest.fixture(scope="session")
def reaching_map():
    return four_interval_reaching_map()


@pytest.fixture(scope="session")
def full2_map():
    return full_two_interval_map()


@pytest.fixture(scope="session")
def reversing_map():
    """x -> 3x on [0, 1/3] and x -> 3 - 3x on [2/3, 1], with the escape gap
    (1/3, 2/3) between them: the second branch reverses orientation."""
    return MarkovMap(
        (AffineBranch(3, 0, 0, F(1, 3)), AffineBranch(-3, 3, F(2, 3), 1))
    )


@pytest.fixture(scope="session")
def partial_spec():
    return SynthesisSpec(
        markov=FOUR_INTERVAL_MARKOV,
        escape=((1,), (0,), (0,), (1,)),
        mode=PARTIAL,
    )


@pytest.fixture(scope="session")
def partial_result(partial_spec):
    return synthesize(partial_spec)


@pytest.fixture(scope="session")
def partial_map(partial_result):
    return partial_result.map


def synthesized_spec(data, mode):
    """A primitive n x n matrix, n = 5..8, whose rows are runs of one to three
    intervals, with one gap and an escape column that is feasible in the
    given mode (None when the draw is not)."""
    n = data.draw(st.integers(5, 8), label="n")
    p = data.draw(st.integers(1, n - 1), label="gap position")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="matrix seed"))
    while True:
        rows = []
        for _ in range(n):
            lo = rng.randrange(n)
            hi = min(lo + rng.randrange(3), n - 1)
            rows.append(tuple(int(lo <= j <= hi) for j in range(n)))
        if is_primitive(rows).primitive:
            break
    column = [row[p - 1] & row[p] for row in rows]
    if mode == PARTIAL:
        # Rows ending at interval p or starting at p + 1 may reach into the gap.
        for i, row in enumerate(rows):
            if row[p - 1] != row[p] and data.draw(st.booleans(), label=f"reach {i}"):
                column[i] = 1
    spec = SynthesisSpec(tuple(rows), tuple((u,) for u in column), (p,), mode)
    return spec if feasibility_check(spec).feasible else None


def pull_back(m, x, data, steps):
    """A preimage of x along an admissible word of the given length."""
    for _ in range(steps):
        kids = [i for i, (lo, hi) in enumerate(m.images, start=1) if lo <= x <= hi]
        x = m.branch_inverse(data.draw(st.sampled_from(kids), label="branch"), x)
    return x


def periodic_point(m, data):
    """The periodic point of a closed walk in the transition graph, or None
    when the drawn walk does not close within six steps."""
    markov = m.transition_matrix
    start = j = data.draw(st.integers(1, m.n), label="cycle start")
    word = [j]
    for _ in range(6):
        j = data.draw(
            st.sampled_from([k for k in range(1, m.n + 1) if markov[j - 1][k - 1]]),
            label="cycle step",
        )
        if j == start:
            break
        word.append(j)
    else:
        return None
    slope, intercept = F(1), F(0)
    for j in word:
        b = m.branches[j - 1]
        slope, intercept = b.slope * slope, b.slope * intercept + b.intercept
    return intercept / (1 - slope)
