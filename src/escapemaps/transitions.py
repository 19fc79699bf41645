"""Transition matrices, the escape extension, and the transition graph.

For a map with intervals I_1..I_n and open gaps E_k:

  * the transition matrix A has a unit entry at (i, j) when the open image
    of I_i contains the interior of I_j;
  * the escape matrix extends A by one column per open gap, with a unit at
    (i, k) when the open image of I_i meets the open gap E_k; its symbols are
    interleaved as 1 < 1^ < 2 < 2^ < ... < n, and a permutation brings it to
    the block form [[A, B], [0, 0]].

Primitivity of A is decided by checking boolean powers up to the Wielandt
bound n^2 - 2n + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import MapFormatError
from .maps import MarkovMap
from .rationals import format_rational

Matrix = tuple[tuple[int, ...], ...]


def as_binary_matrix(rows: object, *, square: bool = True) -> Matrix:
    """Validate row-major 0/1 data and return it as nested tuples."""
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
            if isinstance(entry, bool) or entry not in (0, 1):
                raise MapFormatError(f"matrix entries must be 0 or 1, got {entry!r}")
        out.append(tuple(int(entry) for entry in row))
    if square and len(out) != width:
        raise MapFormatError(f"expected a square matrix, got {len(out)}x{width}")
    return tuple(out)


def markov_symbol(i: int) -> str:
    return str(i)


def gap_symbol(k: int) -> str:
    return f"{k}^"


def markov_matrix(m: MarkovMap) -> Matrix:
    """Transition matrix: unit at (i, j) iff the open image of I_i contains
    the interior of I_j (cached on the map)."""
    return m.transition_matrix


@dataclass(frozen=True)
class TransitionData:
    """Transition matrix plus the escape columns.

    ``escape`` is n x m with one column per open gap, ordered by
    ``gap_positions`` (the 1-based gap indices, strictly increasing; gap k
    lies between intervals k and k+1).
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

    def symbols(self) -> tuple[str, ...]:
        """Interleaved symbol order 1 < 1^ < 2 < ... < n."""
        out = []
        positions = set(self.gap_positions)
        for j in range(1, self.n + 1):
            out.append(markov_symbol(j))
            if j in positions:
                out.append(gap_symbol(j))
        return tuple(out)


def transition_data(m: MarkovMap) -> TransitionData:
    """The map's cached transition matrix and escape block with its gap
    positions."""
    return TransitionData(
        m.transition_matrix, m.escape_block, tuple(k for k, _, _ in m.gaps)
    )


@dataclass(frozen=True)
class EscapeMatrix:
    """The escape matrix in interleaved symbol order, together with the
    permutation taking it to block form.

    ``block_permutation`` maps block position p (Markov symbols first, then
    escape symbols) to the interleaved position of the same symbol.
    """

    data: TransitionData
    symbols: tuple[str, ...]
    entries: Matrix
    block_permutation: tuple[int, ...]


def escape_matrix(m: MarkovMap) -> EscapeMatrix:
    data = transition_data(m)
    symbols = data.symbols()
    index = {sym: pos for pos, sym in enumerate(symbols)}
    size = len(symbols)
    entries = [[0] * size for _ in range(size)]
    for i in range(1, data.n + 1):
        row = index[markov_symbol(i)]
        for j in range(1, data.n + 1):
            entries[row][index[markov_symbol(j)]] = data.markov[i - 1][j - 1]
        for col, k in enumerate(data.gap_positions):
            entries[row][index[gap_symbol(k)]] = data.escape[i - 1][col]
    block_symbols = [markov_symbol(i) for i in range(1, data.n + 1)]
    block_symbols += [gap_symbol(k) for k in data.gap_positions]
    permutation = tuple(index[sym] for sym in block_symbols)
    return EscapeMatrix(
        data, symbols, tuple(tuple(row) for row in entries), permutation
    )


@dataclass(frozen=True)
class BlockForm:
    """P . E . P^T = [[A, B], [0, 0]] with P the 0/1 permutation matrix."""

    markov: Matrix
    escape: Matrix
    permutation_matrix: Matrix


def block_form(em: EscapeMatrix) -> BlockForm:
    """The permutation matrix taking the interleaved escape matrix to block
    form, with the blocks A and B."""
    size = len(em.symbols)
    sigma = em.block_permutation
    permutation = tuple(
        tuple(1 if col == sigma[row] else 0 for col in range(size))
        for row in range(size)
    )
    return BlockForm(em.data.markov, em.data.escape, permutation)


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
    Wielandt bound."""
    rows = as_binary_matrix(matrix)
    n = len(rows)
    masks = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    full = (1 << n) - 1
    bound = wielandt_bound(n)
    power = list(masks)
    for q in range(1, bound + 1):
        if q > 1:
            power = _bool_multiply(power, masks)
        if all(row == full for row in power):
            return PrimitivityResult(True, q, None)
    for i, row in enumerate(power):
        for j in range(n):
            if not row & (1 << j):
                return PrimitivityResult(False, None, (i + 1, j + 1))
    raise AssertionError("unreachable: positive power not detected in scan")


# -- transition graph ---------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Directed graph with 1-based vertices and lexicographically sorted
    edges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def out_neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(j for i, j in self.edges if i == v)


def build_graph(matrix: object) -> GraphSpec:
    rows = as_binary_matrix(matrix)
    n = len(rows)
    edges = tuple(
        (i + 1, j + 1) for i in range(n) for j in range(n) if rows[i][j]
    )
    return GraphSpec(n, edges)


def dot_export(graph: GraphSpec, labels: Mapping[int, str] | None = None) -> str:
    """Deterministic DOT rendering: vertices ascending, then sorted edges."""
    lines = ["digraph transitions {"]
    for v in range(1, graph.vertex_count + 1):
        if labels and v in labels:
            lines.append(f'  {v} [label="{labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for i, j in sorted(graph.edges):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- vertex subsets -----------------------------------------------------


def vertex_subset_from_vector(u: Sequence[int]) -> tuple[int, ...]:
    """Zero positions of a 0/1 column, as a sorted vertex tuple: the vertex
    set associated with an escape column is {i : u_i = 0}."""
    for entry in u:
        if isinstance(entry, bool) or entry not in (0, 1):
            raise MapFormatError(f"column entries must be 0 or 1, got {entry!r}")
    return tuple(i for i, entry in enumerate(u, start=1) if entry == 0)


def vector_from_vertex_subset(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    vset = set(vertices)
    bad = [v for v in vset if not 1 <= v <= n]
    if bad:
        raise MapFormatError(f"vertices out of range 1..{n}: {sorted(bad)}")
    return tuple(0 if i in vset else 1 for i in range(1, n + 1))


# -- comparison against a claimed matrix --------------------------------


def expected_matrix_notes(
    m: MarkovMap, em: EscapeMatrix, expected
) -> tuple[str, ...]:
    """Human-readable notes for every entry where the computed escape matrix
    disagrees with a claimed one."""
    if expected.symbols != em.symbols:
        return (
            "claimed symbol order "
            + " ".join(expected.symbols)
            + " does not match computed order "
            + " ".join(em.symbols),
        )
    notes = []
    for r, row_sym in enumerate(em.symbols):
        for c, col_sym in enumerate(em.symbols):
            got = em.entries[r][c]
            want = expected.rows[r][c]
            if got == want:
                continue
            note = (
                f"computed escape matrix differs from the claimed one at "
                f"({row_sym}, {col_sym}): computed {got}, claimed {want}"
            )
            if row_sym.endswith("^"):
                note += " (escape symbols have no outgoing transitions)"
            else:
                i = int(row_sym)
                lo, hi = m.interval_image(i)
                image = f"[{format_rational(lo)}, {format_rational(hi)}]"
                if col_sym.endswith("^"):
                    k = int(col_sym[:-1])
                    glo, ghi = m.gap_bounds(k)
                    gap = f"]{format_rational(glo)}, {format_rational(ghi)}["
                    verb = "does not meet" if got == 0 else "meets"
                    note += f"; branch {i} image {image} {verb} gap {gap}"
                else:
                    j = int(col_sym)
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
