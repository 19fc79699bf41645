"""Acceptance gate for the package: eight timed end-to-end criteria.

Each test prints exactly one pass/fail summary line (straight to the
terminal, bypassing capture) and enforces a wall-clock bound on top of its
exactness assertions.  Every expected value here was computed independently
of the library: escape matrices, windows, operator supports, and refinement
rounds by hand; primitivity and bisimulation against brute-force oracles
written from scratch, here and in ``oracles.py``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from escapemaps import (
    FOUR_INTERVAL_MARKOV,
    STRICT,
    InfeasibleSpecError,
    BoundaryOrbit,
    Equivalent,
    Escaped,
    EscapeVsRegular,
    SynthesisSpec,
    UndeterminedRegular,
    bisim_equivalent,
    build_orbit_tree,
    check_relations,
    classify_corpus,
    classify_point,
    compare_points,
    faithfulness_certificate,
    feasibility_check,
    four_interval_map,
    gap_projection,
    is_primitive,
    image_decomposition_check,
    load_document,
    markov_matrix,
    projection_sum_is_identity,
    realize,
    synthesize,
    transition_data,
    wielandt_bound,
)

from oracles import _oracle_same_unrolling, build_intertwiner, cursor_layout

F = Fraction

@contextmanager
def criterion(capsys, name: str, bound: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"\n[FAIL] {name}: assertion failed after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < bound
    with capsys.disabled():
        print(f"\n[{'pass' if ok else 'FAIL'}] {name}: {elapsed:.2f}s (bound {bound:g}s)")
    assert ok, f"{name} took {elapsed:.2f}s, over the {bound:g}s bound"


# -- criterion 1: exact validation of the bundled corpus ------------------


def test_criterion_1_corpus_validation(capsys):
    with criterion(capsys, "C1 corpus validation", 1.0):
        m = four_interval_map()
        report = m.validate()
        assert report.all_ok and report.p5_ok
        assert report.expansion_bound == F(5, 4)
        assert report.aperiodicity_exponent == 5
        assert [(c.branch, c.gap, c.full) for c in report.escape_coverage] == [
            (1, 2, True)
        ]

        reaching = load_document("four_interval_reaching").map.validate()
        assert reaching.all_ok and not reaching.p5_ok
        assert [(c.branch, c.gap, c.full) for c in reaching.escape_coverage] == [
            (1, 2, True),
            (4, 2, False),
        ]

        assert load_document("full_two_interval").map.validate().all_ok


# -- criterion 2: transition and escape matrices --------------------------


def test_criterion_2_transition_matrices(capsys):
    with criterion(capsys, "C2 transition matrices", 1.0):
        m = four_interval_map()
        assert markov_matrix(m) == FOUR_INTERVAL_MARKOV

        em = transition_data(m)
        assert em.symbols == ("1", "2", "2^", "3", "4")
        assert em.entries == (
            (0, 1, 1, 1, 0),
            (0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0),
            (1, 1, 0, 0, 0),
            (0, 0, 0, 1, 0),
        )
        assert em.block_permutation == (0, 1, 3, 4, 2)

        bf = em  # the record carries its own block form
        assert bf.markov == FOUR_INTERVAL_MARKOV
        assert bf.escape == ((1,), (0,), (0,), (0,))
        size = len(em.symbols)
        p = bf.permutation_matrix
        conjugated = tuple(
            tuple(
                sum(
                    p[r][i] * em.entries[i][j] * p[c][j]
                    for i in range(size)
                    for j in range(size)
                )
                for c in range(size)
            )
            for r in range(size)
        )
        expected_blocks = tuple(
            tuple(
                (bf.markov[r][c] if c < 4 else bf.escape[r][c - 4]) if r < 4 else 0
                for c in range(size)
            )
            for r in range(size)
        )
        assert conjugated == expected_blocks

        prim = is_primitive(FOUR_INTERVAL_MARKOV)
        assert prim.primitive and prim.exponent == 5
        assert wielandt_bound(4) == 10 and prim.exponent <= 10

        data = transition_data(m)
        assert data.escape == ((1,), (0,), (0,), (0,))
        assert data.gap_positions == (2,)
        reaching_data = transition_data(load_document("four_interval_reaching").map)
        assert reaching_data.escape == ((1,), (0,), (0,), (1,))


# -- criterion 3: point classification and backward windows ---------------


def test_criterion_3_points_and_windows(capsys):
    with criterion(capsys, "C3 points and windows", 1.0):
        m = four_interval_map()

        pc = classify_point(m, F(1, 2))
        assert isinstance(pc, Escaped)
        assert pc.escape_time == 0 and pc.final_point == F(1, 2)
        assert pc.incidence == (1, 0, 0, 0)

        pc = classify_point(m, F(1, 10))
        assert isinstance(pc, Escaped)
        assert pc.escape_time == 1 and pc.final_point == F(11, 20)

        pc = classify_point(m, F(1, 70))
        assert isinstance(pc, BoundaryOrbit)
        assert pc.hit_step == 1 and pc.hit_point == F(1, 4)

        pc = classify_point(m, F(5, 27))
        assert isinstance(pc, UndeterminedRegular) and pc.period == 2

        tree = build_orbit_tree(m, F(1, 2), depth=3)
        assert tree.points == (F(1, 2), F(3, 35), F(269, 350), F(199, 1225), F(327, 350))
        assert tree.depths == (0, 1, 2, 3, 3)
        assert tree.parents == (None, 0, 1, 2, 2)
        assert tree.labels == (None, 1, 3, 1, 4)
        for idx in range(1, tree.node_count):
            branch = m.branches[tree.labels[idx] - 1]
            image = branch.slope * tree.points[idx] + branch.intercept
            assert image == tree.points[tree.parents[idx]]

        window = build_orbit_tree(m, F(5, 27), depth=5, horizon=4)
        assert window.node_count == 9 and window.root_point == F(5, 27)


# -- criterion 4: operators, relations, and certificates ------------------


def test_criterion_4_operators_and_certificates(capsys):
    with criterion(capsys, "C4 operators and certificates", 10.0):
        m = four_interval_map()
        rep = realize(build_orbit_tree(m, F(1, 2), depth=4))

        good = check_relations(rep, (2, 3, 4))
        assert good.all_passed
        bad = check_relations(rep, (1,))
        assert not bad.all_passed

        assert gap_projection(rep, 1) == {1}
        assert isinstance(gap_projection(rep, 1), frozenset)
        assert image_decomposition_check(rep).passed
        assert not projection_sum_is_identity(rep)

        cert = faithfulness_certificate(rep, (2, 3, 4))
        assert cert.faithful and cert.all_verified
        assert cert.complement_misses == ()

        partial_cert = faithfulness_certificate(rep, (2, 3))
        assert not partial_cert.faithful
        assert partial_cert.complement_misses == (4,)
        failed = {(c.kind, c.vertex) for c in partial_cert.nonvanishing if not c.ok}
        assert failed == {("gap-projection", 4)}

        regular_rep = realize(build_orbit_tree(m, F(5, 27), depth=4, horizon=4))
        assert check_relations(regular_rep, (1, 2, 3, 4)).all_passed
        assert projection_sum_is_identity(regular_rep)


# -- criterion 5: equivalence classification and intertwiners -------------


def test_criterion_5_equivalence(capsys):
    with criterion(capsys, "C5 equivalence and intertwiners", 10.0):
        m = four_interval_map()

        result = compare_points(m, F(1, 2), F(9, 20))
        assert isinstance(result.verdict, Equivalent)
        assert result.verdict.rounds == 2
        assert result.intertwiner.identity_on == 16

        tx = build_orbit_tree(m, F(1, 2), depth=6)
        ty = build_orbit_tree(m, F(9, 20), depth=6)
        iso = build_intertwiner(tx, ty)
        assert iso.verified
        assert iso.pairs == tuple((i, i) for i in range(16))
        pair_map = dict(iso.pairs)
        assert pair_map[0] == 0
        for i, j in iso.pairs:
            assert tx.depths[i] == ty.depths[j] and tx.labels[i] == ty.labels[j]

        mixed = compare_points(m, F(1, 2), F(5, 27))
        assert isinstance(mixed.verdict, EscapeVsRegular)

        grouping = classify_corpus(m, (F(1, 3), F(9, 20), F(1, 2)))
        assert grouping.rounds == 2
        assert len(grouping.classes) == 1
        assert grouping.classes[0].incidences == ((1, 0, 0, 0),)


# -- criterion 6: bisimulation against an unrolled-tree oracle ------------


def test_criterion_6_bisimulation_oracle(capsys):
    with criterion(capsys, "C6 bisimulation vs unrolled oracle", 5.0):
        rng = random.Random(60601)
        for _ in range(200):
            n = rng.randint(1, 5)
            markov = tuple(
                tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)
            )
            cx = tuple(rng.randint(0, 1) for _ in range(n))
            cy = tuple(rng.randint(0, 1) for _ in range(n))
            verdict = bisim_equivalent(markov, cx, cy)
            expected = _oracle_same_unrolling(markov, cx, cy, n + 2)
            assert isinstance(verdict, Equivalent) == expected, (markov, cx, cy)


# -- criterion 7: exhaustive single-gap strict synthesis ------------------


def _row_contiguous(row):
    ones = [j for j, v in enumerate(row) if v]
    return bool(ones) and ones[-1] - ones[0] + 1 == len(ones)


def _oracle_primitive(matrix):
    n = len(matrix)
    a = np.array(matrix, dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for _ in range(wielandt_bound(n)):
        power = np.clip(power @ a, 0, 1)
    return bool(power.all())


def test_criterion_7_exhaustive_synthesis(capsys):
    with criterion(capsys, "C7 exhaustive single-gap synthesis (n <= 4)", 60.0):
        eligible = 0
        synthesized = 0
        rejected_samples = 0
        rng = random.Random(70701)
        for n in (2, 3, 4):
            cells = n * n
            for bits in range(1 << cells):
                matrix = tuple(
                    tuple((bits >> (r * n + c)) & 1 for c in range(n))
                    for r in range(n)
                )
                usable = all(_row_contiguous(row) for row in matrix) and (
                    _oracle_primitive(matrix)
                )
                if not usable:
                    # sampled negative control: no escape column is feasible
                    if rng.random() < 0.002:
                        column = tuple((1 if i == 0 else 0,) for i in range(n))
                        spec = SynthesisSpec(
                            matrix, column, gap_positions=(1,), mode=STRICT
                        )
                        assert not feasibility_check(spec).feasible
                        rejected_samples += 1
                    continue
                eligible += 1
                for pos in range(1, n):
                    straddle = tuple(
                        matrix[i][pos - 1] & matrix[i][pos] for i in range(n)
                    )
                    column = tuple((u,) for u in straddle)
                    spec = SynthesisSpec(
                        matrix, column, gap_positions=(pos,), mode=STRICT
                    )
                    report = feasibility_check(spec)
                    if not any(straddle):
                        assert not report.feasible
                        continue
                    assert report.feasible, (matrix, pos)
                    result = synthesize(spec)
                    data = transition_data(result.map)
                    assert data.markov == matrix
                    assert data.escape == column
                    assert data.gap_positions == (pos,)
                    assert result.validation.all_ok and result.validation.p5_ok
                    # the layout, field by field, against the Fraction cursor
                    reference = cursor_layout(data, result.allocation)
                    for got, want in zip(result.map.branches, reference, strict=True):
                        for field in ("slope", "intercept", "left", "right"):
                            value = getattr(got, field)
                            assert value == getattr(want, field), (matrix, pos, field)
                            assert type(value) is Fraction
                    synthesized += 1

                    # any other nonzero column at this position must fail
                    wrong = tuple(
                        (1 - u if i == 0 else u,)
                        for i, (u,) in enumerate(column)
                    )
                    if any(w for (w,) in wrong) and wrong != column:
                        wrong_spec = SynthesisSpec(
                            matrix, wrong, gap_positions=(pos,), mode=STRICT
                        )
                        assert not feasibility_check(wrong_spec).feasible
                        try:
                            synthesize(wrong_spec)
                        except InfeasibleSpecError:
                            pass
                        else:  # pragma: no cover - defends the gate itself
                            raise AssertionError("infeasible spec synthesized")

        assert eligible == 3791, eligible
        assert synthesized == 10659, synthesized
        assert rejected_samples > 20


# -- criterion 8: primitivity against a numpy oracle ----------------------


def test_criterion_8_primitivity_oracle(capsys):
    with criterion(capsys, "C8 primitivity vs numpy oracle", 5.0):
        rng = random.Random(80801)
        for _ in range(500):
            n = rng.randint(1, 6)
            density = rng.choice((0.2, 0.35, 0.5, 0.7))
            matrix = tuple(
                tuple(1 if rng.random() < density else 0 for _ in range(n))
                for _ in range(n)
            )
            result = is_primitive(matrix)

            a = np.array(matrix, dtype=np.int64)
            power = np.eye(n, dtype=np.int64)
            oracle_exponent = None
            for k in range(1, wielandt_bound(n) + 1):
                power = np.clip(power @ a, 0, 1)
                if power.all():
                    oracle_exponent = k
                    break

            assert result.primitive == (oracle_exponent is not None), matrix
            assert result.exponent == oracle_exponent, matrix
            if not result.primitive:
                r, c = result.zero_entry
                assert power[r - 1][c - 1] == 0
