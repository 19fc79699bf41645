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

Primitivity of A is decided from the repeated boolean squares A, A^2, A^4,
..., in a number of products logarithmic in the Wielandt bound n^2 - 2n + 2.

``color_refinement`` colors the predecessor graph of A, round by round; a
map caches it, and every equivalence request places its roots into it.

This is the bottom layer: it imports no other layer (``errors`` and
``rationals`` only), and ``bit_rows`` here reads every 0/1 array the library
accepts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import MapFormatError
from .rationals import Record, cached_property, format_rational

if TYPE_CHECKING:
    from .maps import MarkovMap

Matrix = tuple[tuple[int, ...], ...]


def is_bit(entry: object) -> bool:
    """Whether a matrix entry is the integer 0 or 1 (not a bool, not 1.0)."""
    return type(entry) is int and entry in (0, 1)


def bit_rows(rows: object, label: str) -> Matrix:
    """The rows of a 0/1 array as nested tuples: a list or tuple of list or
    tuple rows, all of one width (0 allowed), whose entries pass ``is_bit``.
    Raises MapFormatError, naming the array by ``label``, otherwise."""
    if not isinstance(rows, (list, tuple)):
        raise MapFormatError(f"{label} must be an array of rows")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise MapFormatError(f"{label} rows must be arrays")
        if out and len(row) != len(out[0]):
            raise MapFormatError(f"{label} rows must be equally long")
        if not all(map(is_bit, row)):
            bad = next(entry for entry in row if not is_bit(entry))
            raise MapFormatError(f"{label} entries must be 0 or 1, got {bad!r}")
        out.append(tuple(row))
    return tuple(out)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _row_mask(row: Sequence[int]) -> int:
    """A checked 0/1 row as the int whose bit c is ``row[c]``: one ``int(..., 2)``."""
    return int(b"0" + bytes(row[::-1]).translate(_DIGITS), 2)


def as_binary_matrix(rows: object) -> Matrix:
    """A nonempty square 0/1 array (``bit_rows``) as nested tuples."""
    out = bit_rows(rows, "matrix")
    if not out or len(out) != len(out[0]):
        shape = f"{len(out)}x{len(out[0]) if out else 0}"
        raise MapFormatError(f"expected a nonempty square matrix, got {shape}")
    return out


def markov_symbol(i: int) -> str:
    return str(i)


def gap_symbol(k: int) -> str:
    return f"{k}^"


def predecessors(markov: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Per column j, the rows i with a unit at (i, j), all 0-based: the
    branches under which a point of I_j has a preimage."""
    return tuple(tuple(i for i, unit in enumerate(col) if unit) for col in zip(*markov))


class ColorRefinement(Record):
    """Color refinement of the graph in which state j has the predecessor
    column j as children.  ``colors[r][j]`` is state j's color at round r
    (round 0 always exists, so ``len(colors[0])`` is the state count),
    its rank among ``signatures[r]``, the sorted distinct signatures of that
    round: out-degrees at round 0, and from round 1 on the pairs (color at
    round r - 1, sorted colors of the children at round r - 1).  ``colors``
    ends with the stable coloring.  ``signatures`` has one more entry, the
    signatures of the stable coloring: their ranks repeat its colors, so
    that entry and the stable colors serve every later round."""

    colors: tuple[tuple[int, ...], ...]
    signatures: tuple[tuple, ...]

    def colors_at(self, r: int) -> tuple[int, ...]:
        return self.colors[min(r, len(self.colors) - 1)]

    def signatures_at(self, r: int) -> tuple:
        return self.signatures[min(r, len(self.signatures) - 1)]


def color_refinement(preds: Sequence[Sequence[int]]) -> ColorRefinement:
    """Refine from out-degrees until a round splits no color."""
    signatures: list = [len(kids) for kids in preds]
    tables: list[tuple] = []
    history: list[tuple[int, ...]] = []
    while True:
        table = tuple(sorted(set(signatures)))
        stable = bool(tables) and len(table) == len(tables[-1])
        tables.append(table)
        if stable:
            return ColorRefinement(tuple(history), tuple(tables))
        rank = {sig: r for r, sig in enumerate(table)}
        colors = tuple([rank[sig] for sig in signatures])
        history.append(colors)
        signatures = [
            (colors[s], tuple(sorted([colors[c] for c in kids])))
            for s, kids in enumerate(preds)
        ]


def markov_matrix(m: MarkovMap) -> Matrix:
    """Transition matrix: unit at (i, j) iff the open image of I_i contains
    the interior of I_j (cached on the map)."""
    return m.transition_matrix


class TransitionData(Record):
    """Transition matrix A, escape block B and the escape matrix they determine.

    ``escape`` is n x m with one column per open gap, ordered by
    ``gap_positions`` (the 1-based gap indices, strictly increasing; gap k
    lies between intervals k and k+1).  The escape matrix reads its symbols
    in the interleaved order 1 < 1^ < 2 < ... < n: ``columns[c]`` is
    (j, None) for the Markov symbol j, or (p, k) for the gap symbol p^, which
    is escape column k (0-based) and the gap between intervals p and p + 1.
    ``row_masks[i - 1]`` is row i of [A | B] in that column order as one
    int, bit c for column c, and ``gap_mask`` has the bits of the gap
    columns: feasibility, widths and branch ends in ``synthesis`` read only
    these ints.  ``rows[i - 1]`` spells the mask out as a tuple; the escape
    matrix's rows for gap symbols are zero.  ``block_permutation`` maps block
    position p (Markov symbols first, then escape symbols) to the interleaved
    position of the same symbol, and ``permutation_matrix`` is the 0/1 matrix
    P with P . E . P^T = [[A, B], [0, 0]]."""

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
    def row_masks(self) -> tuple[int, ...]:
        """A's row as a mask, with the bit of each gap symbol put in after
        its Markov symbol: escape column k goes to column p_k + k."""
        slots = [(p + k, k) for k, p in enumerate(self.gap_positions)]
        masks = []
        for a_row, b_row in zip(self.markov, self.escape, strict=True):
            mask = _row_mask(a_row)
            for c, k in slots:  # shift the columns from c on up by one
                mask = (mask >> c << c + 1) | (mask & (1 << c) - 1) | (b_row[k] << c)
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def rows(self) -> Matrix:
        width = len(self.columns)
        return tuple(tuple(mask >> c & 1 for c in range(width)) for mask in self.row_masks)

    @property
    def gap_mask(self) -> int:
        return sum(1 << p + k for k, p in enumerate(self.gap_positions))

    @cached_property
    def symbols(self) -> tuple[str, ...]:
        return tuple(markov_symbol(j) if k is None else gap_symbol(j) for j, k in self.columns)

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
        return tuple(tuple(int(c == t) for c in range(size)) for t in self.block_permutation)


def transition_data(m: MarkovMap) -> TransitionData:
    """The map's cached transition matrix and escape block with its gap
    positions."""
    return TransitionData(m.transition_matrix, m.escape_block, tuple(k for k, _, _ in m.gaps))


# -- primitivity --------------------------------------------------------


def wielandt_bound(n: int) -> int:
    return n * n - 2 * n + 2


class PrimitivityResult(Record):
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
        while row:
            low = row & -row
            acc |= right[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def is_primitive(matrix: object) -> PrimitivityResult:
    """Decide primitivity from the repeated squares A, A^2, A^4, ..., which
    stop at a positive one, a repeated one or the Wielandt bound.  A^q > 0
    gives A^(q+1) > 0 unless A has a zero column, when no power is positive,
    so the largest q up to the bound with A^q not positive is built from the
    squares bit by bit, highest first; A is primitive when q < the bound."""
    return _primitivity(as_binary_matrix(matrix))


def _primitivity(rows: Matrix) -> PrimitivityResult:
    """``is_primitive`` on a square 0/1 tuple matrix that is already checked,
    such as a map's transition matrix or a synthesis spec's."""
    n = len(rows)
    masks = list(map(_row_mask, rows))
    full = (1 << n) - 1
    bound = wielandt_bound(n)
    top = bound.bit_length()
    squares = [masks]  # squares[t] is A^(2^t)
    while len(squares) < top and min(squares[-1]) != full:
        square = _bool_multiply(squares[-1], squares[-1])
        if square == squares[-1]:  # so is every later square
            squares += [square] * (top - len(squares))
        else:
            squares.append(square)
    q, power = 0, None  # power is A^q
    for t in reversed(range(len(squares))):
        if q + (1 << t) <= bound:
            step = squares[t] if power is None else _bool_multiply(power, squares[t])
            if min(step) != full:
                q, power = q + (1 << t), step
    if q < bound:
        return PrimitivityResult(True, q + 1, None)
    i, j = next((i, j) for i, row in enumerate(power) for j in range(n) if not row >> j & 1)
    return PrimitivityResult(False, None, (i + 1, j + 1))


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


def expected_matrix_notes(m: MarkovMap, data: TransitionData, expected) -> tuple[str, ...]:
    """Human-readable notes for every entry where the computed escape matrix
    disagrees with a claimed one."""
    if expected.symbols != data.symbols:
        return (f"claimed symbol order {' '.join(expected.symbols)} does not match computed "
                f"order {' '.join(data.symbols)}",)
    notes = []
    columns, symbols = data.columns, data.symbols
    for r, (i, row_gap) in enumerate(columns):
        for c, (j, col_gap) in enumerate(columns):
            got, want = data.entries[r][c], expected.rows[r][c]
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
                    verb = ("does not contain" if got == 0 else "contains") + " the interior of"
                    note += f"; branch {i} open image of {image} {verb} {target}"
            notes.append(note)
    return tuple(notes)
