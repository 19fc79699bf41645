"""Transition matrices, the escape extension, and the transition graph.

For a map with intervals I_1..I_n and open gaps E_k:

  * the transition matrix A has a unit entry at (i, j) when the open image
    of I_i contains the interior of I_j;
  * the escape matrix extends A by one column per open gap, with a unit at
    (i, k) when the open image of I_i meets the open gap E_k; its symbols are
    interleaved as 1 < 1^ < 2 < 2^ < ... < n, and a permutation brings it to
    the block form [[A, B], [0, 0]].  ``TransitionData`` holds A, B and
    the gap positions and derives that order, the escape matrix and its
    block form from them; the claim notes and synthesis all read it.

Primitivity of A is decided by checking boolean powers up to the Wielandt
bound n^2 - 2n + 2; once the powers cycle without a positive one, A is not
primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import MapFormatError
from .maps import MarkovMap, is_bit
from .rationals import format_rational

Matrix = tuple[tuple[int, ...], ...]


def as_binary_matrix(rows: object) -> Matrix:
    """Validate square row-major data of the integers 0 and 1 as nested tuples."""
    if not isinstance(rows, Sequence) or not rows:
        raise MapFormatError("matrix must be a nonempty array of rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, Sequence):
            raise MapFormatError("matrix rows must be arrays")
        if width is None:
            width = len(row)
        if len(row) != width or width == 0:
            raise MapFormatError("matrix rows must be nonempty and equally long")
        for entry in row:
            if not is_bit(entry):
                raise MapFormatError(f"matrix entries must be 0 or 1, got {entry!r}")
        out.append(tuple(row))
    if len(out) != width:
        raise MapFormatError(f"expected a square matrix, got {len(out)}x{width}")
    return tuple(out)


def markov_symbol(i: int) -> str:
    return str(i)


def gap_symbol(k: int) -> str:
    return f"{k}^"


def predecessors(markov: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Per column j, the rows i with a unit at (i, j), all 0-based: the
    branches under which a point of I_j has a preimage."""
    return tuple(tuple(i for i, unit in enumerate(col) if unit) for col in zip(*markov))


def markov_matrix(m: MarkovMap) -> Matrix:
    """Transition matrix: unit at (i, j) iff the open image of I_i contains
    the interior of I_j (cached on the map)."""
    return m.transition_matrix


@dataclass(frozen=True)
class TransitionData:
    """Transition matrix A, escape block B and the escape matrix they
    determine.

    ``escape`` is n x m with one column per open gap, ordered by
    ``gap_positions`` (the 1-based gap indices, strictly increasing; gap k
    lies between intervals k and k+1).  The escape matrix reads its symbols
    in the interleaved order 1 < 1^ < 2 < ... < n: ``columns[c]`` is
    (j, None) for the Markov symbol j, or (p, k) for the gap symbol p^, which
    is escape column k (0-based) and the gap between intervals p and p + 1.
    ``rows[i - 1]`` is row i of [A | B] in that column order; the escape
    matrix's rows for gap symbols are zero.  ``block_permutation`` maps block
    position p (Markov symbols first, then escape symbols) to the interleaved
    position of the same symbol, and ``permutation_matrix`` is the 0/1 matrix
    P with P . E . P^T = [[A, B], [0, 0]].
    """

    markov: Matrix
    escape: Matrix
    gap_positions: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.markov)

    @property
    def m(self) -> int:
        return len(self.gap_positions)

    @cached_property
    def columns(self) -> tuple[tuple[int, int | None], ...]:
        slot = {p: k for k, p in enumerate(self.gap_positions)}
        columns: list[tuple[int, int | None]] = []
        for j in range(1, self.n + 1):
            columns.append((j, None))
            if j in slot:
                columns.append((j, slot[j]))
        return tuple(columns)

    @cached_property
    def rows(self) -> Matrix:
        columns = self.columns
        return tuple(
            tuple(a_row[j - 1] if k is None else b_row[k] for j, k in columns)
            for a_row, b_row in zip(self.markov, self.escape, strict=True)
        )

    @cached_property
    def symbols(self) -> tuple[str, ...]:
        return tuple(
            markov_symbol(j) if k is None else gap_symbol(j)
            for j, k in self.columns
        )

    @cached_property
    def entries(self) -> Matrix:
        zero = (0,) * len(self.columns)
        return tuple(self.rows[j - 1] if k is None else zero for j, k in self.columns)

    @cached_property
    def block_permutation(self) -> tuple[int, ...]:
        # A stable sort: Markov symbols first, then escape symbols, each in order.
        kinds = [k is not None for _, k in self.columns]
        return tuple(sorted(range(len(kinds)), key=kinds.__getitem__))

    @cached_property
    def permutation_matrix(self) -> Matrix:
        size = len(self.columns)
        return tuple(
            tuple(int(col == target) for col in range(size))
            for target in self.block_permutation
        )


def transition_data(m: MarkovMap) -> TransitionData:
    """The map's cached transition matrix and escape block with its gap
    positions."""
    return TransitionData(
        m.transition_matrix, m.escape_block, tuple(k for k, _, _ in m.gaps)
    )


# -- primitivity --------------------------------------------------------


def wielandt_bound(n: int) -> int:
    return n * n - 2 * n + 2


@dataclass(frozen=True)
class PrimitivityResult:
    """``exponent`` is the least q with A^q entrywise positive; when not
    primitive, ``zero_entry`` names a (1-based) entry of the Wielandt-bound
    power that is still zero."""

    primitive: bool
    exponent: int | None
    zero_entry: tuple[int, int] | None

    @property
    def issues(self) -> tuple[str, ...]:
        """The P4 failure text, or nothing when primitive."""
        return () if self.primitive else (
            f"transition matrix is not primitive: entry {self.zero_entry} of the "
            f"Wielandt-bound power is still zero",
        )


def _bool_multiply(left: list[int], right: list[int]) -> list[int]:
    out = []
    for row in left:
        acc = 0
        rest = row
        while rest:
            j = (rest & -rest).bit_length() - 1
            acc |= right[j]
            rest &= rest - 1
        out.append(acc)
    return out


def is_primitive(matrix: object) -> PrimitivityResult:
    """Decide primitivity by scanning boolean powers A^1, A^2, ... up to the
    Wielandt bound.  The scan keeps A^q' at each power of two q' and stops
    when a later A^q equals it (Brent's cycle test): from q' on the powers
    repeat with period q - q', and none of them is positive."""
    return _primitivity(as_binary_matrix(matrix))


def _primitivity(rows: Matrix) -> PrimitivityResult:
    """``is_primitive`` on a square 0/1 tuple matrix that is already checked,
    such as a map's transition matrix or a synthesis spec's."""
    n = len(rows)
    masks = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    full = (1 << n) - 1
    bound = wielandt_bound(n)
    power = kept = masks
    kept_q = 1
    for q in range(1, bound + 1):
        if q > 1:
            power = _bool_multiply(power, masks)
            if power == kept:  # a cycle with no positive power: step on to A^bound
                for _ in range((bound - q) % (q - kept_q)):
                    power = _bool_multiply(power, masks)
                break
            if q & (q - 1) == 0:
                kept, kept_q = power, q
        if all(row == full for row in power):
            return PrimitivityResult(True, q, None)
    for i, row in enumerate(power):
        for j in range(n):
            if not row & (1 << j):
                return PrimitivityResult(False, None, (i + 1, j + 1))
    raise AssertionError("unreachable: positive power not detected in scan")


# -- transition graph ---------------------------------------------------


def dot_export(matrix: object) -> str:
    """Deterministic DOT rendering of a square 0/1 matrix's graph: vertices
    ascending, then an edge i -> j per unit at (i, j), in row-major order."""
    rows = as_binary_matrix(matrix)
    lines = ["digraph transitions {"]
    lines.extend(f"  {v};" for v in range(1, len(rows) + 1))
    for i, row in enumerate(rows, start=1):
        lines.extend(f"  {i} -> {j};" for j, unit in enumerate(row, start=1) if unit)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- comparison against a claimed matrix --------------------------------


def expected_matrix_notes(
    m: MarkovMap, data: TransitionData, expected
) -> tuple[str, ...]:
    """Human-readable notes for every entry where the computed escape matrix
    disagrees with a claimed one."""
    if expected.symbols != data.symbols:
        return (
            "claimed symbol order "
            + " ".join(expected.symbols)
            + " does not match computed order "
            + " ".join(data.symbols),
        )
    notes = []
    columns, symbols = data.columns, data.symbols
    for r, (i, row_gap) in enumerate(columns):
        for c, (j, col_gap) in enumerate(columns):
            got = data.entries[r][c]
            want = expected.rows[r][c]
            if got == want:
                continue
            note = (
                f"computed escape matrix differs from the claimed one at "
                f"({symbols[r]}, {symbols[c]}): computed {got}, claimed {want}"
            )
            if row_gap is not None:
                note += " (escape symbols have no outgoing transitions)"
            else:
                lo, hi = m.images[i - 1]
                image = f"[{format_rational(lo)}, {format_rational(hi)}]"
                if col_gap is not None:
                    glo, ghi = m.gap_bounds(j)
                    gap = f"]{format_rational(glo)}, {format_rational(ghi)}["
                    verb = "does not meet" if got == 0 else "meets"
                    note += f"; branch {i} image {image} {verb} gap {gap}"
                else:
                    jlo, jhi = m.intervals[j - 1]
                    target = f"[{format_rational(jlo)}, {format_rational(jhi)}]"
                    verb = (
                        "does not contain the interior of"
                        if got == 0
                        else "contains the interior of"
                    )
                    note += f"; branch {i} open image of {image} {verb} {target}"
            notes.append(note)
    return tuple(notes)
