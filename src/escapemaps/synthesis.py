"""Constructing interval maps realizing prescribed transition data.

The inverse problem: given a primitive 0/1 transition matrix and an escape
block saying which branches reach which gaps, build a piecewise-affine map
whose recomputed matrices equal the inputs exactly.

Feasibility is combinatorial: an affine image is an interval, so the unit
entries of each row — Markov targets and gap targets merged in interleaved
symbol order — must form a contiguous segment.  In ``strict`` mode segments
must start and end at Markov symbols (branch images are then exact unions of
intervals and fully covered gaps); ``partial`` mode lets a segment end at a
gap symbol, realized by covering that gap up to its midpoint.  Either way
every gap's interior must end up covered by the branch images, which needs an
interior occurrence or partial occurrences from both sides.  These rules are
bit tests on ``TransitionData.row_masks``, one int per row of [A | B].

Widths come from integer power iteration w <- A.w started at w = 1, stopped
at the first iterate whose widths pass the exact expansion test, and the map
is laid out on those integers: one prefix sum gives every column's ends over
one denominator, each row's mask gives its first and last target column, and
each branch coefficient and column end becomes a ``Fraction`` once, at the
end; the Perron bracket compares its ratios by cross-multiplying first.  No
float ever enters, and the widths stay small because the iteration stops as
soon as it can.  The built map is validated again from its own ``Fraction``
branches.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from typing import Mapping, Sequence

from .errors import EscapeMapsError, InfeasibleSpecError, MapFormatError, WidthSnapError
from .maps import AffineBranch, MarkovMap, ValidationReport, is_index
from .rationals import Record, cached_property
from .transitions import (
    Matrix,
    TransitionData,
    _primitivity,
    as_binary_matrix,
    bit_rows,
    transition_data,
    wielandt_bound,
)

STRICT = "strict"
PARTIAL = "partial"

_SINGLE_INTERVAL = "a single interval cannot expand, so no expanding map exists"


class SynthesisSpec(Record):
    """Target transition matrix, escape block, and coverage mode.

    ``markov`` (n x n) and ``escape`` (n x m, m may be 0) are lists or
    tuples of the integers 0 and 1, read by ``bit_rows``.  ``gap_positions``,
    a list or tuple of ints (``is_index``), assigns escape column k to the
    gap between intervals p_k and p_k + 1; None asks the planner for the
    first workable placement in lexicographic order, in which each column
    takes the first slot after the previous column's at which it is
    workable alone.  Any other input raises MapFormatError."""

    markov: Matrix
    escape: Matrix
    gap_positions: tuple[int, ...] | None = None
    mode: str = STRICT

    def __post_init__(self) -> None:
        markov = as_binary_matrix(self.markov)
        object.__setattr__(self, "markov", markov)
        n = len(markov)
        escape = bit_rows(self.escape, "escape block")
        if len(escape) != n:
            raise MapFormatError("escape block needs one row per interval")
        object.__setattr__(self, "escape", escape)
        if self.gap_positions is not None:
            positions = self.gap_positions
            if not isinstance(positions, (list, tuple)) or not all(map(is_index, positions)):
                raise MapFormatError("gap_positions must be an array of integers")
            positions = tuple(positions)
            if len(positions) != self.m:
                raise MapFormatError("gap_positions must list one position per escape column")
            if any(not 1 <= p <= n - 1 for p in positions):
                raise MapFormatError(
                    f"gap positions must lie in 1..{n - 1} "
                    f"(between consecutive intervals)"
                )
            if any(a >= b for a, b in itertools.pairwise(positions)):
                raise MapFormatError("gap positions must be strictly increasing")
            object.__setattr__(self, "gap_positions", positions)
        if self.mode not in (STRICT, PARTIAL):
            raise MapFormatError(f"mode must be '{STRICT}' or '{PARTIAL}', got {self.mode!r}")

    @property
    def n(self) -> int:
        return len(self.markov)

    @property
    def m(self) -> int:
        return len(self.escape[0])

    @cached_property
    def _assessment(self) -> tuple[FeasibilityReport, TransitionData | None]:
        """``_assess`` of the spec, which is frozen, so computed once and
        shared by ``feasibility_check`` and ``synthesize``."""
        return _assess(self)


# -- feasibility ---------------------------------------------------------


def _ends(mask: int) -> tuple[int, int]:
    """The first and last column of a nonzero row mask."""
    return (mask & -mask).bit_length() - 1, mask.bit_length() - 1


class RowSegment(Record):
    """Contiguous target segment of one row, as interleaved symbols."""

    row: int
    symbols: tuple[str, ...]


class FeasibilityReport(Record):
    feasible: bool
    mode: str
    gap_positions: tuple[int, ...]
    structure_issues: tuple[str, ...]
    row_issues: tuple[str, ...]
    column_issues: tuple[str, ...]
    segments: tuple[RowSegment, ...]


def _layout_issues(
    data: TransitionData, mode: str
) -> tuple[list[str], list[str], list[RowSegment]]:
    """(row issues, column issues, segments) of a placement, decided by bit
    tests on ``data.row_masks``: a row from column ``first`` to ``last`` is
    contiguous when its mask is the run (1 << last + 1) - (1 << first),
    targets only an escape symbol when it has no bit outside ``gap_mask``,
    and in strict mode must have neither end bit in ``gap_mask``.  A gap's
    column is covered when it is strictly inside a segment, or both begins
    one segment and ends another; the inner, first and last columns of all
    segments are collected as three masks.  A segment is named by slicing
    ``data.symbols``."""
    symbols, gaps = data.symbols, data.gap_mask
    row_issues: list[str] = []
    segments: list[RowSegment] = []
    inner = starts = stops = 0
    for i, mask in enumerate(data.row_masks, start=1):
        if not mask:
            row_issues.append(f"row {i} has no targets")
            continue
        first, last = _ends(mask)
        if mask != (1 << last + 1) - (1 << first):
            row_issues.append(
                f"targets of row {i} are not contiguous in symbol order: "
                + " ".join(s for c, s in enumerate(symbols) if mask >> c & 1)
            )
            continue
        if not mask & ~gaps:
            row_issues.append(
                f"row {i} targets only an escape symbol; its image would "
                f"collapse to a point"
            )
            continue
        segments.append(RowSegment(i, symbols[first : last + 1]))
        if first < last:
            inner |= mask ^ (1 << first | 1 << last)
            starts |= 1 << first
            stops |= 1 << last
        if mode == STRICT:
            for end in dict.fromkeys((first, last)):
                if gaps >> end & 1:
                    row_issues.append(
                        f"row {i} segment ends at escape symbol "
                        f"{symbols[end]}; strict mode requires "
                        f"Markov symbols at both ends"
                    )

    column_issues: list[str] = []
    covered = inner | starts & stops
    for k, p in enumerate(data.gap_positions):
        c = p + k
        if not covered >> c & 1:
            column_issues.append(
                f"the gap at position {p} ({symbols[c]}) would not be fully "
                f"covered by the branch images: it needs a branch whose segment "
                f"contains it strictly inside, or partial branches reaching it "
                f"from both sides"
            )
    return row_issues, column_issues, segments


def _first_workable(
    markov: Matrix, escape: Matrix, mode: str
) -> tuple[int, ...] | None:
    """The first placement (in lexicographic order) of the escape columns
    into the n-1 inter-interval slots that makes every row and column
    workable, or None when no placement does.  Each rule of
    ``_layout_issues`` reads one gap symbol and the Markov symbols beside it,
    so a placement is workable exactly when each column is workable alone at
    its slot: each column takes the first such slot after the previous one."""
    positions: list[int] = []
    for column in zip(*escape):
        single = tuple((entry,) for entry in column)
        for p in range(positions[-1] + 1 if positions else 1, len(markov)):
            rows, cols, _ = _layout_issues(TransitionData(markov, single, (p,)), mode)
            if not rows and not cols:
                positions.append(p)
                break
        else:
            return None
    return tuple(positions)


def feasibility_check(spec: SynthesisSpec) -> FeasibilityReport:
    """Decide whether the spec is realizable, with per-row and per-column
    diagnostics.  Never raises; infeasibility is data."""
    return spec._assessment[0]


def _assess(
    spec: SynthesisSpec,
) -> tuple[FeasibilityReport, TransitionData | None]:
    """The feasibility report and the transition data of its placement (None
    when no placement was found)."""
    structure = list(_primitivity(spec.markov).issues)
    if spec.n < 2:
        structure.append(_SINGLE_INTERVAL)
    for col in range(spec.m):
        if all(spec.escape[i][col] == 0 for i in range(spec.n)):
            structure.append(
                f"escape column {col + 1} is all zero; no branch would ever "
                f"reach that gap"
            )
    if spec.m > spec.n - 1:
        structure.append(
            f"{spec.m} escape columns cannot be placed into {spec.n - 1} "
            f"inter-interval slots"
        )

    positions = spec.gap_positions
    if positions is None:
        positions = _first_workable(spec.markov, spec.escape, spec.mode)
    if positions is None:
        structure.append(
            "no placement of the escape columns makes every row "
            "contiguous and every gap covered"
        )
        positions, data, row_issues, column_issues, segments = (), None, [], [], []
        # A row whose Markov targets have a hole stays split under any placement.
        for i, row in enumerate(spec.markov, start=1):
            units = [j for j, v in enumerate(row, start=1) if v]
            if units and units[-1] - units[0] >= len(units):
                row_issues.append(
                    f"targets of row {i} are not contiguous in symbol order: "
                    + " ".join(map(str, units))
                )
    else:
        data = TransitionData(spec.markov, spec.escape, positions)
        row_issues, column_issues, segments = _layout_issues(data, spec.mode)

    feasible = not (structure or row_issues or column_issues)
    report = FeasibilityReport(
        feasible=feasible,
        mode=spec.mode,
        gap_positions=positions,
        structure_issues=tuple(structure),
        row_issues=tuple(row_issues),
        column_issues=tuple(column_issues),
        segments=tuple(segments),
    )
    return report, data


# -- width allocation ----------------------------------------------------


class WidthAllocation(Record):
    """Interval and gap widths summing to 1 (ambient [0, 1]), with an exact
    Collatz-Wielandt bracket (low, high) on the Perron root of the transition
    matrix: the minimum and maximum over i of (A.w)_i / w_i for the integer
    vector w the widths were taken from."""

    markov_widths: tuple[Fraction, ...]
    escape_widths: tuple[Fraction, ...]
    perron_bracket: tuple[Fraction, Fraction]


def perron_widths(
    markov: Matrix, escape: Matrix, positions: Sequence[int]
) -> WidthAllocation:
    """Widths from integer power iteration on the transition matrix.

    Starting from w = 1, iterate w <- A.w and stop at the first w for which
    interval widths 4.w and gap widths min(w) pass the exact expansion test:
    each row's image span strictly exceeds its width (that quotient is the
    branch slope).  A row's span is 4.(A.w)_i over its Markov targets plus a
    full gap width for each gap inside its run and half of one for a gap at
    either end.  Each iterate takes one sum per row, (A.w)_i, and as A.w >=
    w, only gap-free rows compare it with w_i.  The widths are then
    normalised to total 1.  Raises MapFormatError for positions of None and
    for inputs that ``SynthesisSpec`` refuses, such as positions that do not
    place every escape column, and WidthSnapError for a single interval, a
    zero row or a matrix that is not primitive, none of which admits an
    expanding map."""
    if positions is None:
        raise MapFormatError("perron_widths needs the gap positions")
    spec = SynthesisSpec(markov, escape, positions)
    markov = spec.markov
    if len(markov) < 2:
        raise WidthSnapError(_SINGLE_INTERVAL)
    for i, row in enumerate(markov, start=1):
        if not any(row):
            raise WidthSnapError(
                f"row {i} of the transition matrix is zero, so interval {i} "
                f"has no image and no expanding map exists"
            )
    if not _primitivity(markov).primitive:
        raise WidthSnapError(
            "the transition matrix is not primitive, so no expanding map exists"
        )
    return _expanding_widths(TransitionData(markov, spec.escape, spec.gap_positions))[1]


def _expanding_widths(data: TransitionData) -> tuple[list[int], WidthAllocation]:
    """The width step of ``perron_widths`` for a primitive matrix on at least
    two intervals: the integer width of each interleaved column of the first
    iterate that passes, and those widths as an allocation.  Row i's doubled
    span is 8.(A.w)_i + c_i.min(w), where c_i counts 2 for each gap inside
    its run and 1 for a gap at either end, and must exceed 8.w_i.  As A.w >=
    w (A.1 >= 1 and A^t >= 0), that holds on rows with c_i > 0, so an
    iterate takes one sum per row, over the row's Markov targets, and
    compares on the gap-free rows, those whose mask has no bit of
    ``gap_mask``; min(w) and the column widths are built once, for the
    iterate that passes.  The Perron bracket's least and greatest ratio
    (A.w)_i / w_i are found by cross-multiplying, and only those two become
    Fractions."""
    gaps = data.gap_mask
    targets = [list(itertools.compress(range(data.n), row)) for row in data.markov]
    gapless = [not mask & gaps for mask in data.row_masks]
    w = [1] * data.n
    # Iterate t is A^t.1.  Once A^t > 0, by the Wielandt bound at the latest,
    # (A.w)_i = (A^t.(A.1))_i > w_i, since A.1 >= 1 has an entry 2 (a
    # primitive A on two or more intervals is no permutation): the test passes.
    for _ in range(wielandt_bound(data.n) + 1):
        entry = w.__getitem__
        aw = [sum(map(entry, row)) for row in targets]
        if all(y > x for x, y, free in zip(w, aw, gapless) if free):
            g = min(w)
            widths = [4 * w[j - 1] if k is None else g for j, k in data.columns]
            total = sum(widths)
            ratio = cmp_to_key(lambda i, j: aw[i] * w[j] - aw[j] * w[i])  # of (A.w)_i / w_i
            low, high = min(range(data.n), key=ratio), max(range(data.n), key=ratio)
            return widths, WidthAllocation(
                tuple(Fraction(4 * x, total) for x in w),
                (Fraction(g, total),) * data.m,
                (Fraction(aw[low], w[low]), Fraction(aw[high], w[high])),
            )
        w = aw
    # Unreachable (see above); a guard, so a broken premise fails loudly.
    raise WidthSnapError(
        "no integer iterate passed the exact expansion check within the "
        "Wielandt bound"
    )


# -- construction --------------------------------------------------------


class SynthesisResult(Record):
    map: MarkovMap
    positions: tuple[int, ...]
    allocation: WidthAllocation
    validation: ValidationReport


def synthesize(spec: SynthesisSpec) -> SynthesisResult:
    """Build a map realizing the spec exactly.

    Raises InfeasibleSpecError (carrying the report) when the spec cannot be
    realized, a single interval included.  A feasible spec is primitive on
    at least two intervals, so its widths always pass; WidthSnapError, from
    the guard in ``_expanding_widths``, fires only if that premise breaks.
    The recomputed matrices of the result are asserted equal to the inputs
    before returning."""
    report, data = spec._assessment
    if not report.feasible:
        raise InfeasibleSpecError(report)
    # A feasible matrix is primitive, so it has no zero row either.
    positions = report.gap_positions
    widths, allocation = _expanding_widths(data)

    # Column c spans [ends[c], ends[c + 1]] over the denominator q; the ends
    # are doubled so that every gap midpoint, ends[c] + widths[c], is too.
    ends = [2 * end for end in itertools.accumulate(widths, initial=0)]
    q = ends[-1]
    points = [Fraction(end, q) for end in ends]
    gap = [k is not None for _, k in data.columns]
    branches = []
    own = (c for c, is_gap in enumerate(gap) if not is_gap)
    for c, mask in zip(own, data.row_masks):
        # A run ends at the edge of a Markov target or the middle of a gap.
        first, last = _ends(mask)
        lo = ends[first] + widths[first] * gap[first]
        hi = ends[last + 1] - widths[last] * gap[last]
        left, right = ends[c], ends[c + 1]
        branches.append(
            AffineBranch(
                slope=Fraction(hi - lo, right - left),
                intercept=Fraction(lo * right - hi * left, q * (right - left)),
                left=points[c],
                right=points[c + 1],
            )
        )

    built = MarkovMap(tuple(branches))
    try:
        built.require_valid()
    except EscapeMapsError as exc:
        raise AssertionError(f"synthesized {exc}") from exc
    validation = built.validate()
    if spec.mode == STRICT and not validation.p5_ok:
        raise AssertionError("strict synthesis produced partial gap coverage")
    rebuilt = transition_data(built)
    if rebuilt.markov != spec.markov or rebuilt.escape != spec.escape:
        raise AssertionError("synthesized map does not reproduce the input matrices")
    if rebuilt.gap_positions != positions:
        raise AssertionError("synthesized map placed gaps at the wrong positions")
    return SynthesisResult(
        map=built,
        positions=positions,
        allocation=allocation,
        validation=validation,
    )


# -- JSON surface --------------------------------------------------------

_A_KEYS = {"rows"}
_B_KEYS = {"rows", "mode", "gap_positions"}


def _matrix_block(data: object, allowed: set[str], label: str) -> tuple[object, dict]:
    if isinstance(data, Mapping):
        unknown = set(data) - allowed
        if unknown:
            raise MapFormatError(f"unknown keys in {label} file: {sorted(unknown)}")
        if "rows" not in data:
            raise MapFormatError(f"{label} file object needs a 'rows' array")
        return data["rows"], {k: v for k, v in data.items() if k != "rows"}
    return data, {}


def spec_from_jsonable(
    a_data: object, b_data: object, mode: str | None = None
) -> SynthesisSpec:
    """Assemble a SynthesisSpec from parsed JSON matrix files.

    Each file is either a bare row-major array or an object with a ``rows``
    key; the escape file may also carry ``mode`` and ``gap_positions``, which
    go to ``SynthesisSpec`` as given, to be checked there.  A mode passed
    here (e.g. from a command-line flag) must agree with one in the file;
    with neither, the mode is strict."""
    a_rows, _ = _matrix_block(a_data, _A_KEYS, "transition-matrix")
    b_rows, extras = _matrix_block(b_data, _B_KEYS, "escape-block")
    chosen = extras.get("mode", STRICT if mode is None else mode)
    if mode not in (None, chosen):
        raise MapFormatError(f"mode {mode!r} conflicts with mode {chosen!r} in the escape file")
    try:
        markov = as_binary_matrix(a_rows)
    except MapFormatError as exc:
        raise MapFormatError(f"transition-matrix file: {exc}") from exc
    return SynthesisSpec(
        markov=markov,
        escape=b_rows,
        gap_positions=extras.get("gap_positions"),
        mode=chosen,
    )
