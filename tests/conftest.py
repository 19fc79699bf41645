"""Shared fixtures: the bundled corpus maps, a map whose second branch
reverses orientation, and one synthesized map that several suites exercise
(built once per session; synthesis is exact, so the result is
deterministic)."""

from fractions import Fraction

import pytest

from escapemaps import (
    PARTIAL,
    FOUR_INTERVAL_MARKOV,
    AffineBranch,
    MarkovMap,
    SynthesisSpec,
    four_interval_document,
    four_interval_map,
    four_interval_reaching_map,
    full_two_interval_map,
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
