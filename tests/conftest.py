"""Shared fixtures: the bundled corpus maps, a map whose second branch
reverses orientation, one synthesized map that several suites exercise, and
strict two-gap banded maps at n = 16 and 32 (built once per session;
synthesis is exact, so the results are deterministic).  Also the hypothesis
draws shared by the window and operator suites: synthesized specs at n =
5..8, pull-backs along admissible words, and periodic points of closed
walks, and ``replaced``, which copies a record with some fields changed.
Every property test runs under one hypothesis profile, so each test states
only its number of examples."""

import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from escapemaps import (
    PARTIAL,
    STRICT,
    FOUR_INTERVAL_MARKOV,
    AffineBranch,
    MarkovMap,
    SynthesisSpec,
    feasibility_check,
    four_interval_map,
    is_primitive,
    load_document,
    synthesize,
)

F = Fraction

# No deadline, since the cost of an example grows with its rationals, and the
# same examples on every run, so that two runs of the suite agree.
settings.register_profile("escapemaps", deadline=None, derandomize=True)
settings.load_profile("escapemaps")


@pytest.fixture(scope="session")
def four_doc():
    return load_document("four_interval")


@pytest.fixture(scope="session")
def four_map():
    return four_interval_map()


@pytest.fixture(scope="session")
def reaching_map():
    return load_document("four_interval_reaching").map


@pytest.fixture(scope="session")
def full2_map():
    return load_document("full_two_interval").map


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


def banded_map(n, width, positions):
    """The strict synthesized map of the band A[i][j] = 1 iff |i - j| <=
    width, with a gap after each interval in ``positions``.  Each escape
    column holds the rows whose run covers both intervals beside its gap,
    the only column that strict mode realizes there."""
    band = tuple(tuple(int(abs(i - j) <= width) for j in range(n)) for i in range(n))
    escape = tuple(zip(*([row[p - 1] & row[p] for row in band] for p in positions)))
    return synthesize(SynthesisSpec(band, escape, positions, STRICT)).map


@pytest.fixture(scope="session")
def banded_maps():
    """Band widths 1 and 2 at n = 16 and 32, with gaps a quarter and three
    quarters of the way along.  A window node of I_j has at most 2w + 1
    preimages, with labels next to j, so most of the n labels are missing
    from every level of a shallow window."""
    return {
        f"band{n}w{width}": banded_map(n, width, (n // 4, 3 * n // 4 - 1))
        for n in (16, 32)
        for width in (1, 2)
    }


def replaced(record, **changes):
    """A copy of a record (an ``escapemaps.rationals.Record``) with the given
    fields changed, built through its constructor, so its ``__post_init__``
    checks run again."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def synthesized_spec(data, mode, tries=10):
    """A primitive n x n matrix, n = 5..8, whose rows are runs of one to three
    intervals, with one gap and an escape column that is feasible in the
    given mode.  n is sampled uniformly; an infeasible draw of the matrix
    and column is drawn again from the seeded rng, up to ``tries`` times
    (then None), so rejection does not favour small n."""
    n = data.draw(st.sampled_from((5, 6, 7, 8)), label="n")
    p = data.draw(st.integers(1, n - 1), label="gap position")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="matrix seed"))
    for _ in range(tries):
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
                if row[p - 1] != row[p] and rng.random() < 0.5:
                    column[i] = 1
        spec = SynthesisSpec(tuple(rows), tuple((u,) for u in column), (p,), mode)
        if feasibility_check(spec).feasible:
            return spec
    return None


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
