"""Piecewise-affine interval maps with escape gaps, and their validation.

A map is given by n closed Markov intervals I_1 < ... < I_n inside an ambient
interval I, with one affine branch per interval.  Consecutive intervals may
touch or may leave an open gap between them; points in an open gap are outside
the domain (they "escape").  The four validity properties checked here:

  P1  the intervals are ordered and the branch images cover I exactly;
  P2  each branch image meets the domain in a union of whole intervals
      (strict reading: an isolated touch-point that is not absorbed by a
      fully covered neighbour fails);
  P3  every branch has |slope| > 1 (uniform expansion);
  P4  the transition matrix is primitive.

A fifth, purely diagnostic property:

  P5  whenever a branch image meets an open gap it contains the whole gap
      ("full escape coverage"); partial coverage is legal but reported.

Each map caches an ``IntegerGrid``: every interval and image endpoint as a
numerator over their least common denominator, the image ends found by
stepping the domain ends through each branch's integer form.  A, B, P1, P2,
P5, point location and closed-image incidence compare those integers, P2 by
looking up the cell of each image end, and the grid steps points, held as
reduced (num, den) pairs, through the branches; Fractions are built for
returned values and issue texts only.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import (
    DepthExceedsTreeError,
    EscapeMapsError,
    MapFormatError,
    MapStructureError,
)
from .rationals import Record, exact, format_rational, parse_rational

if TYPE_CHECKING:
    from .transitions import ColorRefinement

Interval = tuple[Fraction, Fraction]


def merge_closed_intervals(items: Iterable[tuple]) -> tuple[tuple, ...]:
    """Merge closed intervals (degenerate ones allowed) into disjoint maximal
    components; touching intervals are joined."""
    ordered = sorted(items)
    merged: list[list] = []
    for lo, hi in ordered:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class AffineBranch(Record):
    """One affine branch: x |-> slope*x + intercept on the closed domain
    [left, right], each coefficient a Fraction or an int (``exact``)."""

    slope: Fraction
    intercept: Fraction
    left: Fraction
    right: Fraction

    def __post_init__(self) -> None:
        for name in ("slope", "intercept", "left", "right"):
            object.__setattr__(self, name, exact(getattr(self, name)))
        if self.slope == 0:
            raise MapStructureError("branch slope must be nonzero")
        if not self.left < self.right:
            raise MapStructureError(
                f"branch domain [{format_rational(self.left)}, "
                f"{format_rational(self.right)}] is degenerate"
            )

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def image(self) -> Interval:
        a = self.value_at(self.left)
        b = self.value_at(self.right)
        return (a, b) if a <= b else (b, a)


# Location kinds returned by MarkovMap.locate.
MARKOV_INTERIOR = "markov-interior"
ESCAPE_INTERIOR = "escape-interior"
PARTITION_POINT = "partition-point"
OUTSIDE = "outside"


class IntegerGrid:
    """A map's geometry over the least common denominator D of its interval
    and closed-image endpoints, each endpoint held as its numerator over D:
    ``intervals`` and ``images`` as (lo, hi) per branch, ``gaps`` as
    (gap_index, lo, hi) per open gap, and the sorted partition ``points``.
    The image ends are the domain ends stepped through the branch's forward
    form (a, b, d), read off the branch's own slope and intercept, and put
    in order by the sign of a; no ``Fraction`` arithmetic is done.
    Points are reduced (num, den) pairs with den > 0; ``cell`` places one,
    ``incidence`` finds the closed images containing it, and ``image`` and
    ``preimage`` step it through a branch by its ``forms`` (hot loops apply
    them inline).  A lookup bisects the doubled bounds 2e, 2e + 1 of sorted
    numerators e: with p*D = t*q + r, twice p/q is 2t if r = 0 and inside
    (2t, 2t + 2) if not, so 2t + (r > 0) finds the open pieces between the
    e and the e themselves alike."""

    def __init__(self, branches: tuple[AffineBranch, ...]) -> None:
        self._branches = branches
        domains = [(b.left.as_integer_ratio(), b.right.as_integer_ratio()) for b in branches]
        images = []
        for (form, _), (left, right) in zip(self.forms, domains):
            lo, hi = _step(form, *left), _step(form, *right)
            images.append((lo, hi) if form[0] > 0 else (hi, lo))
        ends = domains + images
        den = self.den = math.lcm(*(q for pair in ends for _, q in pair))
        pairs = tuple([(p * (den // q), r * (den // s)) for (p, q), (r, s) in ends])
        self.intervals, self.images = pairs[: len(branches)], pairs[len(branches) :]
        # Cells before, on and after each partition point in turn.
        points, gaps = [self.intervals[0][0]], []
        cells = [(OUTSIDE, None, None), (PARTITION_POINT, None, 1)]
        for i, (lo, hi) in enumerate(self.intervals, start=1):
            if points[-1] < lo:
                gaps.append((i - 1, points[-1], lo))
                cells += [(ESCAPE_INTERIOR, i - 1, None), (PARTITION_POINT, None, i)]
                points.append(lo)
            points.append(hi)
            cells += [(MARKOV_INTERIOR, i, i), (PARTITION_POINT, None, i)]
        self.gaps, self.points = tuple(gaps), tuple(points)
        self._bounds = tuple([v for p in points for v in (2 * p, 2 * p + 1)])
        self._cells = tuple(cells + cells[:1])

    def cell(self, p: int, q: int) -> tuple[str, int | None, int | None]:
        """(kind, index, branch) of the point p/q: its ``Location`` kind and
        index, and the branch its forward orbit applies (the leftmost
        containing one; None in a gap or outside)."""
        t, r = divmod(p * self.den, q)
        return self._cells[bisect_right(self._bounds, 2 * t + (r > 0))]

    def whole_cover(self, lo: int, hi: int) -> bool:
        """Whether the closed image [lo, hi] (numerators over D) meets the
        domain in whole intervals: neither end, placed by one bisection,
        lies strictly inside a Markov interval, and an end on a partition
        point has a Markov interior next to it on the image's side."""
        cells, bounds = self._cells, self._bounds
        for k, inward in ((bisect_right(bounds, 2 * lo), 1), (bisect_right(bounds, 2 * hi), -1)):
            kind = cells[k][0]
            if kind == MARKOV_INTERIOR or (
                kind == PARTITION_POINT and cells[k + inward][0] != MARKOV_INTERIOR
            ):
                return False
        return True

    @cached_property
    def _image_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The doubled bounds of the sorted closed-image endpoints and, per
        piece of the line they cut, the bit mask of the images containing
        it.  Piece k > 0 holds the point whose double is bounds[k - 1], so
        the bit of image [lo, hi] is on from bound 2lo to bound 2hi + 1."""
        ends = sorted({e for image in self.images for e in image})
        toggles = dict.fromkeys((v for e in ends for v in (2 * e, 2 * e + 1)), 0)
        for i, (lo, hi) in enumerate(self.images):
            toggles[2 * lo] ^= 1 << i
            toggles[2 * hi + 1] ^= 1 << i
        masks = itertools.accumulate(toggles.values(), operator.xor, initial=0)
        return tuple(toggles), tuple(masks)

    def incidence(self, p: int, q: int) -> int:
        """Bit mask of the closed branch images containing p/q: bit i - 1
        is set iff p/q lies in f(I_i).  One bisection of the image table."""
        bounds, masks = self._image_table
        t, r = divmod(p * self.den, q)
        return masks[bisect_right(bounds, 2 * t + (r > 0))]

    def cells_between(self, lo: Fraction, hi: Fraction) -> tuple[tuple, ...]:
        """The open cells (x, y, mask) into which the image endpoints
        strictly between lo < hi cut (lo, hi), with the incidence mask that
        all points of the cell share: the pieces from the one just right of
        lo to the one just left of hi, cut at the endpoints between them."""
        bounds, masks = self._image_table
        first = bisect_right(bounds, 2 * lo * self.den + 1)
        last = bisect_right(bounds, 2 * hi * self.den - 1)
        cuts = [lo, *(Fraction(bounds[k] // 2, self.den) for k in range(first, last, 2)), hi]
        return tuple(zip(cuts, cuts[1:], masks[first : last + 1 : 2]))

    @cached_property
    def forms(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per branch, (forward, inverse) integer forms: forward (a, b, d)
        with f(p/q) = (a*p + b*q) / (d*q) and inverse (u, v, w) with
        f^{-1}(p/q) = (u*p + v*q) / (w*q), where d and w are positive."""
        forms = []
        for br in self._branches:
            (sp, sq), (ip, iq) = br.slope.as_integer_ratio(), br.intercept.as_integer_ratio()
            d = math.lcm(sq, iq)
            a, b, sign = sp * (d // sq), ip * (d // iq), 1 if sp > 0 else -1
            forms.append(((a, b, d), (sign * d, -sign * b, sign * a)))
        return tuple(forms)

    def image(self, i: int, p: int, q: int) -> tuple[int, int]:
        """f_i(p/q) under branch i (1-based), as a reduced pair."""
        return _step(self.forms[i - 1][0], p, q)

    def preimage(self, i: int, p: int, q: int) -> tuple[int, int]:
        """The preimage of p/q under branch i (1-based), as a reduced pair."""
        return _step(self.forms[i - 1][1], p, q)


def _step(form: tuple[int, ...], p: int, q: int) -> tuple[int, int]:
    a, b, d = form
    p, q = a * p + b * q, d * q
    g = math.gcd(p, q)
    return p // g, q // g


class Location(Record):
    """Where a point sits relative to the partition: strictly inside a Markov
    interval, strictly inside an escape gap, exactly on a partition point, or
    outside the ambient interval.  ``index`` is the interval index for
    markov-interior, the gap index for escape-interior, None otherwise."""

    kind: str
    index: int | None
    point: Fraction


class EscapeCoverage(Record):
    """P5 record: branch ``branch`` meets gap ``gap``; ``full`` says whether it
    contains the whole gap."""

    branch: int
    gap: int
    full: bool


class ValidationReport(Record):
    """Outcome of the P1-P4 checks plus the P5 diagnostic.

    ``expansion_bound`` is min |slope| (P3 requires it > 1) and
    ``aperiodicity_exponent`` is the least q with all entries of A^q positive
    (None when A is not primitive).  ``escape_coverage`` lists every
    (branch, gap) incidence with its P5 status; P5 is advisory only and does
    not enter ``all_ok``.
    """

    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    p4_ok: bool
    p1_issues: tuple[str, ...]
    p2_issues: tuple[str, ...]
    p3_issues: tuple[str, ...]
    p4_issues: tuple[str, ...]
    expansion_bound: Fraction
    aperiodicity_exponent: int | None
    escape_coverage: tuple[EscapeCoverage, ...]

    # Written after the fields in the JSON form (``rationals.jsonable``).
    _json = ("all_ok", "p5_ok")

    @property
    def all_ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok and self.p4_ok

    @property
    def p5_ok(self) -> bool:
        return all(item.full for item in self.escape_coverage)


class MarkovMap(Record):
    """A piecewise-affine map determined by its branches.  The branch domains
    are the Markov intervals; consecutive domains must not overlap, and a
    positive-length space between them is an open escape gap."""

    branches: tuple[AffineBranch, ...]

    def __post_init__(self) -> None:
        branches = tuple(self.branches)
        object.__setattr__(self, "branches", branches)
        if not branches:
            raise MapStructureError("a map needs at least one branch")
        for left, right in itertools.pairwise(branches):
            if not left.right <= right.left:
                raise MapStructureError(
                    f"interval [{format_rational(left.left)}, {format_rational(left.right)}] "
                    f"overlaps [{format_rational(right.left)}, {format_rational(right.right)}]"
                )

    # -- basic geometry -------------------------------------------------
    # The map is frozen, so each geometric fact is computed once and cached.

    @property
    def n(self) -> int:
        return len(self.branches)

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple((b.left, b.right) for b in self.branches)

    @cached_property
    def images(self) -> tuple[Interval, ...]:
        """Closed branch images f(I_1), ..., f(I_n), endpoints sorted."""
        return tuple(b.image() for b in self.branches)

    @property
    def ambient(self) -> Interval:
        return (self.branches[0].left, self.branches[-1].right)

    @cached_property
    def grid(self) -> IntegerGrid:
        return IntegerGrid(self.branches)

    @cached_property
    def gaps(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """Nonempty open gaps as (gap_index, lo, hi); gap k sits between
        intervals k and k+1."""
        b = self.branches
        return tuple((k, b[k - 1].right, b[k].left) for k, _, _ in self.grid.gaps)

    @cached_property
    def transition_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Transition matrix A: unit at (i, j) iff the open image of I_i
        contains the interior of I_j."""
        g = self.grid
        return tuple(
            tuple(int(lo <= jlo and jhi <= hi) for jlo, jhi in g.intervals)
            for lo, hi in g.images
        )

    @cached_property
    def transition_predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Per column j of A, the 0-based rows with a unit there: the
        branches under which a point of I_j has a preimage."""
        from .transitions import predecessors

        return predecessors(self.transition_matrix)

    @cached_property
    def transition_edges(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Each unit (i, j) of A, 1-based, keyed to (0, 0): ``realize`` copies it."""
        preds = self.transition_predecessors
        return {(i + 1, j + 1): (0, 0) for j, rows in enumerate(preds) for i in rows}

    @cached_property
    def transition_refinement(self) -> ColorRefinement:
        """``transitions.color_refinement`` of ``transition_predecessors``:
        every equivalence request on the map places its roots into it."""
        from .transitions import color_refinement

        return color_refinement(self.transition_predecessors)

    @cached_property
    def escape_block(self) -> tuple[tuple[int, ...], ...]:
        """Escape block B, one column per entry of ``gaps``: unit at (i, k)
        iff the open image of I_i meets the open gap."""
        g = self.grid
        return tuple(
            tuple(int(max(lo, glo) < min(hi, ghi)) for _, glo, ghi in g.gaps)
            for lo, hi in g.images
        )

    def gap_bounds(self, gap_index: int) -> tuple[Fraction, Fraction]:
        if not is_index(gap_index):
            raise MapStructureError(f"gap index {gap_index!r} is not an integer")
        for k, lo, hi in self.gaps:
            if k == gap_index:
                return lo, hi
        raise MapStructureError(f"no open gap with index {gap_index}")

    # -- point queries --------------------------------------------------

    def locate(self, x: Fraction) -> Location:
        """One integer bisection of the grid's partition points."""
        x = exact(x)
        kind, index, _ = self.grid.cell(*x.as_integer_ratio())
        return Location(kind, index, x)

    # Read by perfbench/window_chain.py and cli_corpus.py, and counted by its tracer.
    def branch_inverse(self, i: int, y: Fraction) -> Fraction | None:
        """Preimage of y under branch i (1-based), or None when y is outside
        the closed image of interval i."""
        check_index(i, self.n, "branch index")
        y = exact(y)
        lo, hi = self.images[i - 1]
        if not lo <= y <= hi:
            return None
        branch = self.branches[i - 1]
        return (y - branch.intercept) / branch.slope

    # Counted by the perfbench tracer, which wraps this method.
    def interval_image(self, i: int) -> Interval:
        """Closed image f(I_i) as an interval (endpoints sorted)."""
        check_index(i, self.n, "branch index")
        return self.images[i - 1]

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Run the P1-P4 checks and the P5 coverage diagnostic, once per map."""
        return self._validation

    def require_valid(self) -> None:
        """Raise EscapeMapsError listing every P1-P4 issue, if there is one."""
        report = self.validate()
        groups = (report.p1_issues, report.p2_issues, report.p3_issues, report.p4_issues)
        issues = [f"P{k}: {issue}" for k, group in enumerate(groups, 1) for issue in group]
        if issues:
            raise EscapeMapsError("map fails validation:\n  " + "\n  ".join(issues))

    @cached_property
    def _validation(self) -> ValidationReport:
        """P1, P2 and P5 compare numerators on the grid."""
        from .transitions import _primitivity

        g = self.grid

        def show(pieces) -> str:
            return ", ".join(
                f"[{format_rational(Fraction(a, g.den))}, {format_rational(Fraction(b, g.den))}]"
                for a, b in pieces
            )

        # P1: branch images cover the ambient interval exactly.
        p1_issues: list[str] = []
        covered = merge_closed_intervals(g.images)
        ambient = (g.intervals[0][0], g.intervals[-1][1])
        if covered != (ambient,):
            p1_issues.append(
                f"branch images cover {show(covered)}, expected the ambient "
                f"interval {show([ambient])}"
            )

        # P2: each image meets the domain in a union of whole intervals; the
        # pieces it meets are clipped only to describe a failing image.
        p2_issues: list[str] = []
        for i, (lo, hi) in enumerate(g.images, start=1):
            if not g.whole_cover(lo, hi):
                pieces = [(max(lo, jlo), min(hi, jhi)) for jlo, jhi in g.intervals]
                got = merge_closed_intervals((plo, phi) for plo, phi in pieces if plo <= phi)
                p2_issues.append(
                    f"image of interval {i} meets the domain in {show(got)}, "
                    f"not a union of whole intervals"
                )

        # P3: uniform expansion.
        slopes = [abs(b.slope) for b in self.branches]
        p3_issues = [
            f"interval {i}: |slope| = {s} is not > 1"
            for i, s in enumerate(slopes, start=1)
            if not s > 1
        ]
        expansion_bound = min(slopes)

        # P4: primitivity of the transition matrix.
        prim = _primitivity(self.transition_matrix)

        # P5 diagnostic: coverage of each gap the open image meets.
        coverage = tuple(
            EscapeCoverage(i, k, lo <= glo and ghi <= hi)
            for i, ((lo, hi), row) in enumerate(zip(g.images, self.escape_block), start=1)
            for (k, glo, ghi), unit in zip(g.gaps, row)
            if unit
        )

        return ValidationReport(
            p1_ok=not p1_issues,
            p2_ok=not p2_issues,
            p3_ok=not p3_issues,
            p4_ok=prim.primitive,
            p1_issues=tuple(p1_issues),
            p2_issues=tuple(p2_issues),
            p3_issues=tuple(p3_issues),
            p4_issues=prim.issues,
            expansion_bound=expansion_bound,
            aperiodicity_exponent=prim.exponent,
            escape_coverage=coverage,
        )


# -- JSON surface -------------------------------------------------------


class ExpectedEscapeMatrix(Record):
    """A claimed escape transition matrix attached to a map file; the
    ``matrices`` command reports every entry where the computed matrix
    disagrees with it."""

    symbols: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


class MapDocument(Record):
    """A map plus optional metadata carried by its JSON file."""

    map: MarkovMap
    expected_escape_matrix: ExpectedEscapeMatrix | None = None


_MAP_KEYS = {"markov_intervals", "branches", "expected_escape_matrix"}


def is_bit(entry: object) -> bool:
    """Whether a matrix entry is the integer 0 or 1 (not a bool, not 1.0)."""
    return type(entry) is int and entry in (0, 1)


def bit_rows(rows: object, label: str) -> tuple[tuple[int, ...], ...]:
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


def is_index(value: object) -> bool:
    """Whether a branch index, vertex or gap position is an int (not a bool or 1.0)."""
    return type(value) is int


def check_index(i: object, n: int, label: str) -> None:
    """Raise MapStructureError unless i is an index (``is_index``) in 1..n."""
    if not is_index(i):
        raise MapStructureError(f"{label} {i!r} is not an integer")
    if not 1 <= i <= n:
        raise MapStructureError(f"{label} {i} out of range 1..{n}")


# The default step budgets, here so that the CLI parser need not import orbits.
DEFAULT_MAX_ITER = 4096
DEFAULT_TREE_DEPTH = 6


def check_steps(value: object, label: str) -> None:
    """Raise DepthExceedsTreeError unless a step budget (a depth, max_iter or
    horizon) is an index (``is_index``) and nonnegative."""
    if not is_index(value):
        raise DepthExceedsTreeError(f"{label} {value!r} is not an integer")
    if value < 0:
        raise DepthExceedsTreeError(f"{label} must be nonnegative")


def _parse_expected_matrix(data: object) -> ExpectedEscapeMatrix:
    if not isinstance(data, Mapping) or set(data) != {"symbol_order", "rows"}:
        raise MapFormatError(
            "expected_escape_matrix must be an object with keys "
            "'symbol_order' and 'rows'"
        )
    symbols = data["symbol_order"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise MapFormatError("symbol_order must be an array of strings")
    rows = bit_rows(data["rows"], "expected_escape_matrix")
    if len(rows) != len(symbols) or any(len(row) != len(symbols) for row in rows):
        raise MapFormatError("rows must be a square 0/1 array matching symbol_order in size")
    return ExpectedEscapeMatrix(tuple(symbols), rows)


def map_document_from_jsonable(data: object) -> MapDocument:
    """Build a MapDocument from parsed JSON, rejecting schema violations."""
    if not isinstance(data, Mapping):
        raise MapFormatError("map document must be a JSON object")
    unknown = set(data) - _MAP_KEYS
    if unknown:
        raise MapFormatError(f"unknown keys in map document: {sorted(unknown)}")
    if "markov_intervals" not in data or "branches" not in data:
        raise MapFormatError("map document needs 'markov_intervals' and 'branches'")
    intervals = data["markov_intervals"]
    branches = data["branches"]
    if not isinstance(intervals, list) or not isinstance(branches, list):
        raise MapFormatError("'markov_intervals' and 'branches' must be arrays")
    if len(intervals) != len(branches) or not intervals:
        raise MapFormatError(
            "'markov_intervals' and 'branches' must be nonempty and equally long"
        )
    built = []
    for pos, (interval, branch) in enumerate(zip(intervals, branches), start=1):
        if not (isinstance(interval, list) and len(interval) == 2):
            raise MapFormatError(f"interval #{pos} must be a [lo, hi] pair")
        if not (
            isinstance(branch, Mapping) and set(branch) == {"slope", "intercept"}
        ):
            raise MapFormatError(
                f"branch #{pos} must be an object with keys 'slope' and 'intercept'"
            )
        slope, intercept = parse_rational(branch["slope"]), parse_rational(branch["intercept"])
        left, right = map(parse_rational, interval)
        try:
            built.append(AffineBranch(slope=slope, intercept=intercept, left=left, right=right))
        except MapStructureError as exc:
            raise MapFormatError(f"branch #{pos}: {exc}") from exc
    expected = None
    if "expected_escape_matrix" in data:
        expected = _parse_expected_matrix(data["expected_escape_matrix"])
    try:
        return MapDocument(MarkovMap(tuple(built)), expected)
    except MapStructureError as exc:
        raise MapFormatError(str(exc)) from exc


def map_document_to_jsonable(doc: MapDocument) -> dict:
    out: dict = {
        "markov_intervals": [
            [format_rational(b.left), format_rational(b.right)]
            for b in doc.map.branches
        ],
        "branches": [
            {
                "slope": format_rational(b.slope),
                "intercept": format_rational(b.intercept),
            }
            for b in doc.map.branches
        ],
    }
    if doc.expected_escape_matrix is not None:
        out["expected_escape_matrix"] = {
            "symbol_order": list(doc.expected_escape_matrix.symbols),
            "rows": [list(row) for row in doc.expected_escape_matrix.rows],
        }
    return out
