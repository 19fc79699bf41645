"""Seeded inputs shared by the workloads.

Matrices, escape columns and symbolic words are chosen from the seed alone,
with plain integer and Fraction arithmetic, so the library only ever sees
the inputs generated here.
"""

from __future__ import annotations

from fractions import Fraction

import escapemaps as em


def interval_row(n: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(1 if lo <= j <= hi else 0 for j in range(n))


def contiguous_matrix(rng, n: int) -> tuple[tuple[int, ...], ...]:
    """Primitive 0/1 matrix whose rows are contiguous runs of random length."""
    while True:
        rows = []
        for _ in range(n):
            length = rng.randint(1, n // 2 + 1)
            lo = rng.randint(0, n - length)
            rows.append(interval_row(n, lo, lo + length - 1))
        if em.is_primitive(rows).primitive:
            return tuple(rows)


def banded_matrix(n: int, w: int) -> tuple[tuple[int, ...], ...]:
    """A[i][j] = 1 iff |i - j| <= w: contiguous, primitive, and with a
    spread-out Perron vector.  Bands with per-row random widths localize the
    Perron vector, so interval widths then span up to six orders of magnitude
    from one seed to the next (and the float width snapping in synthesis can
    fail on them at n = 32)."""
    return tuple(
        tuple(1 if abs(i - j) <= w else 0 for j in range(n)) for i in range(n)
    )


def straddle(markov, p: int) -> tuple[int, ...]:
    """The only strictly realizable escape column at gap position p: rows
    whose run covers both intervals p and p + 1 (1-based)."""
    return tuple(row[p - 1] & row[p] for row in markov)


def escape_block(columns) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*columns))


def window_sizes(markov, incidence, depth: int) -> list[int]:
    """Node counts of the backward window of an escape point with the given
    incidence, at depths 0..depth.  A node labelled i has a preimage under
    branch j exactly when A[j][i] = 1, so the counts follow from the matrix."""
    n = len(markov)
    layer = list(incidence)
    total = 1 + sum(layer)
    out = [1, total]
    for _ in range(2, depth + 1):
        layer = [sum(layer[i] for i in range(n) if markov[j][i]) for j in range(n)]
        total += sum(layer)
        out.append(total)
    return out[: depth + 1]


def capped_depth(markov, incidence, cap: int, lowest: int = 2) -> int:
    """Deepest window of at most ``cap`` nodes, but never below ``lowest``."""
    sizes = window_sizes(markov, incidence, 12)
    depth = lowest
    while depth + 1 < len(sizes) and sizes[depth + 1] <= cap:
        depth += 1
    return depth


def backward_word(rng, markov, incidence, length: int) -> tuple[int, ...]:
    """Branches i_1..i_L such that e lies in the image of I_{i_1} (incidence)
    and I_{i_t} lies in the image of I_{i_{t+1}}; x = f_w^{-1}(e) then escapes
    after exactly L steps."""
    n = len(markov)
    word = [rng.choice([i for i in range(1, n + 1) if incidence[i - 1]])]
    while len(word) < length:
        last = word[-1]
        word.append(rng.choice([j for j in range(1, n + 1) if markov[j - 1][last - 1]]))
    return tuple(word)


def cycle_word(rng, markov, length: int) -> tuple[int, ...] | None:
    """A primitive closed walk i_1 -> ... -> i_k -> i_1 in the transition
    graph (A[i][j] = 1 lets an orbit go from I_i to I_j), or None."""
    n = len(markov)
    for _ in range(200):
        word = [rng.randint(1, n)]
        while len(word) < length:
            word.append(rng.choice([j for j in range(1, n + 1) if markov[word[-1] - 1][j - 1]]))
        if not markov[word[-1] - 1][word[0] - 1]:
            continue
        if any(length % d == 0 and word == word[:d] * (length // d) for d in range(1, length)):
            continue
        return tuple(word)
    return None


def periodic_point(branches, word) -> Fraction:
    """The point whose itinerary repeats ``word``: the fixed point of
    f_{i_1}^{-1} o ... o f_{i_k}^{-1}, solved exactly."""
    a, b = Fraction(1), Fraction(0)
    for i in reversed(word):
        slope, intercept = branches[i - 1].slope, branches[i - 1].intercept
        # y -> (y - c) / s composed after the accumulated a*y + b
        a, b = a / slope, (b - intercept) / slope
    return b / (1 - a)


def orbit_avoids(branches, x: Fraction, steps: int) -> bool:
    """Whether the first ``steps`` forward iterates of x stay strictly inside
    Markov intervals (so none is a partition point)."""
    for _ in range(steps):
        inside = [b for b in branches if b.left < x < b.right]
        if not inside:
            return False
        x = inside[0].slope * x + inside[0].intercept
    return True


def point_in(rng, lo: Fraction, hi: Fraction, max_bits: int) -> Fraction:
    """A seeded rational strictly inside (lo, hi) with a denominator of up to
    ``max_bits`` bits."""
    q = rng.randint(3, 1 << max_bits)
    return lo + (hi - lo) * Fraction(rng.randint(1, q - 1), q)
