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
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    EscapeMapsError,
    MapFormatError,
    MapStructureError,
    NotInDomainError,
    OutsideAmbientError,
)
from .rationals import format_rational, parse_rational

Interval = tuple[Fraction, Fraction]


def _as_fraction(x) -> Fraction:
    # Fraction(x) copies a Fraction through an abstract-base-class check,
    # which costs a third of an exact inverse on the hot point queries.
    return x if type(x) is Fraction else Fraction(x)


def merge_closed_intervals(items: Iterable[Interval]) -> tuple[Interval, ...]:
    """Merge closed intervals (degenerate ones allowed) into disjoint maximal
    components; touching intervals are joined."""
    ordered = sorted(items)
    merged: list[list[Fraction]] = []
    for lo, hi in ordered:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class AffineBranch:
    """One affine branch: x |-> slope*x + intercept on the closed domain
    [left, right]."""

    slope: Fraction
    intercept: Fraction
    left: Fraction
    right: Fraction

    def __post_init__(self) -> None:
        for name in ("slope", "intercept", "left", "right"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.slope == 0:
            raise MapStructureError("branch slope must be nonzero")
        if not self.left < self.right:
            raise MapStructureError(
                f"branch domain [{self.left}, {self.right}] is degenerate"
            )

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def image(self) -> Interval:
        return self._image

    @cached_property
    def _image(self) -> Interval:
        # The branch is frozen, so its image is computed once.
        a = self.value_at(self.left)
        b = self.value_at(self.right)
        return (a, b) if a <= b else (b, a)

    def inverse_at(self, y: Fraction) -> Fraction | None:
        """Exact preimage of y under this branch, or None when y is outside
        the closed branch image."""
        lo, hi = self.image()
        if not lo <= y <= hi:
            return None
        return (y - self.intercept) / self.slope


# Location kinds returned by MarkovMap.locate.
MARKOV_INTERIOR = "markov-interior"
ESCAPE_INTERIOR = "escape-interior"
PARTITION_POINT = "partition-point"
OUTSIDE = "outside"


@dataclass(frozen=True)
class Location:
    """Where a point sits relative to the partition: strictly inside a Markov
    interval, strictly inside an escape gap, exactly on a partition point, or
    outside the ambient interval.  ``index`` is the interval index for
    markov-interior, the gap index for escape-interior, None otherwise."""

    kind: str
    index: int | None
    point: Fraction


@dataclass(frozen=True)
class EvalResult:
    """Value of the map at a point.  ``branch`` is the branch used; at a shared
    endpoint of two intervals whose branches disagree, the left branch wins and
    ``ambiguous`` is set."""

    value: Fraction
    branch: int
    ambiguous: bool


@dataclass(frozen=True)
class EscapeCoverage:
    """P5 record: branch ``branch`` meets gap ``gap``; ``full`` says whether it
    contains the whole gap."""

    branch: int
    gap: int
    full: bool


@dataclass(frozen=True)
class ValidationReport:
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

    @property
    def all_ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok and self.p4_ok

    @property
    def p5_ok(self) -> bool:
        return all(item.full for item in self.escape_coverage)

    def to_jsonable(self) -> dict:
        return {
            "p1_ok": self.p1_ok,
            "p2_ok": self.p2_ok,
            "p3_ok": self.p3_ok,
            "p4_ok": self.p4_ok,
            "p1_issues": list(self.p1_issues),
            "p2_issues": list(self.p2_issues),
            "p3_issues": list(self.p3_issues),
            "p4_issues": list(self.p4_issues),
            "all_ok": self.all_ok,
            "expansion_bound": format_rational(self.expansion_bound),
            "aperiodicity_exponent": self.aperiodicity_exponent,
            "p5_ok": self.p5_ok,
            "escape_coverage": [
                {"branch": item.branch, "gap": item.gap, "full": item.full}
                for item in self.escape_coverage
            ],
        }


@dataclass(frozen=True)
class MarkovMap:
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
                    f"interval [{left.left}, {left.right}] overlaps "
                    f"[{right.left}, {right.right}]"
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
    def gaps(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """Nonempty open gaps as (gap_index, lo, hi); gap k sits between
        intervals k and k+1."""
        out = []
        for k in range(1, self.n):
            lo = self.branches[k - 1].right
            hi = self.branches[k].left
            if lo < hi:
                out.append((k, lo, hi))
        return tuple(out)

    @cached_property
    def transition_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Transition matrix A: unit at (i, j) iff the open image of I_i
        contains the interior of I_j."""
        return tuple(
            tuple(int(lo <= jlo and jhi <= hi) for jlo, jhi in self.intervals)
            for lo, hi in self.images
        )

    @cached_property
    def transition_predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Per column j of A, the 0-based rows with a unit there: the
        branches under which a point of I_j has a preimage."""
        from .transitions import predecessors

        return predecessors(self.transition_matrix)

    @cached_property
    def escape_block(self) -> tuple[tuple[int, ...], ...]:
        """Escape block B, one column per entry of ``gaps``: unit at (i, k)
        iff the open image of I_i meets the open gap."""
        return tuple(
            tuple(int(max(lo, glo) < min(hi, ghi)) for _, glo, ghi in self.gaps)
            for lo, hi in self.images
        )

    @cached_property
    def gap_incidence(self) -> dict[int, tuple[tuple[int, ...], tuple]]:
        """Per open gap index, the closed-image incidence of the points
        strictly inside the gap: the row of entries that are the same for
        all of them, and (i, lo, hi) for each image f(I_{i+1}) = [lo, hi]
        with an endpoint strictly inside the gap, whose entry i varies."""
        out = {}
        for k, glo, ghi in self.gaps:
            row, partial = [], []
            for i, (lo, hi) in enumerate(self.images):
                if glo < lo < ghi or glo < hi < ghi:
                    partial.append((i, lo, hi))
                row.append(int(lo <= glo and ghi <= hi))
            out[k] = (tuple(row), tuple(partial))
        return out

    @cached_property
    def integer_forms(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per branch, integers for exact arithmetic on (num, den) pairs with
        den > 0, returned as (forward, inverse, domains): forward (a, b, d)
        with f(p/q) = (a*p + b*q) / (d*q), inverse (u, v, w) with
        f^{-1}(p/q) = (u*p + v*q) / (w*q), and domains (l, l', r, r') with
        I = [l/l', r/r'].  The entries d, w, l' and r' are positive."""
        forward, inverse, domains = [], [], []
        for b in self.branches:
            d = math.lcm(b.slope.denominator, b.intercept.denominator)
            a = b.slope.numerator * (d // b.slope.denominator)
            c = b.intercept.numerator * (d // b.intercept.denominator)
            sign = 1 if a > 0 else -1
            forward.append((a, c, d))
            inverse.append((sign * d, -sign * c, sign * a))
            domains.append(b.left.as_integer_ratio() + b.right.as_integer_ratio())
        return tuple(forward), tuple(inverse), tuple(domains)

    @property
    def partition_points(self) -> tuple[Fraction, ...]:
        return self._breakpoints[0]

    @cached_property
    def _breakpoints(
        self,
    ) -> tuple[tuple[Fraction, ...], tuple[tuple[str, int], ...]]:
        """The breakpoint index: the sorted partition points p_0 < ... < p_m
        and, for each open slot (p_s, p_s+1), its location kind and the index
        of the Markov interval or gap that it is."""
        points = [self.branches[0].left]
        slots = []
        for i, b in enumerate(self.branches, start=1):
            if points[-1] < b.left:
                slots.append((ESCAPE_INTERIOR, i - 1))
                points.append(b.left)
            slots.append((MARKOV_INTERIOR, i))
            points.append(b.right)
        return tuple(points), tuple(slots)

    def gap_bounds(self, gap_index: int) -> tuple[Fraction, Fraction]:
        for k, lo, hi in self.gaps:
            if k == gap_index:
                return lo, hi
        raise MapStructureError(f"no open gap with index {gap_index}")

    def containing_intervals(self, x: Fraction) -> tuple[int, ...]:
        """1-based indices of the closed intervals containing x (0, 1 or 2)."""
        return tuple(
            i for i, b in enumerate(self.branches, start=1) if b.left <= x <= b.right
        )

    # -- point queries --------------------------------------------------

    def locate(self, x: Fraction) -> Location:
        """Bisect the breakpoint index: about log2(2n) comparisons."""
        x = _as_fraction(x)
        points, slots = self._breakpoints
        s = bisect.bisect_left(points, x)
        if s < len(points) and points[s] == x:
            return Location(PARTITION_POINT, None, x)
        if s == 0 or s == len(points):
            return Location(OUTSIDE, None, x)
        kind, index = slots[s - 1]
        return Location(kind, index, x)

    def evaluate(self, x: Fraction) -> EvalResult:
        """Apply the map at x.  Raises NotInDomainError inside an open gap and
        OutsideAmbientError outside the ambient interval.  At a shared endpoint
        the left branch's value is returned; if the right branch disagrees the
        result is flagged ambiguous."""
        x = Fraction(x)
        lo, hi = self.ambient
        if not lo <= x <= hi:
            raise OutsideAmbientError(f"{x} is outside the ambient interval [{lo}, {hi}]")
        containing = self.containing_intervals(x)
        if not containing:
            loc = self.locate(x)
            raise NotInDomainError(x, loc.index)
        first = containing[0]
        value = self.branches[first - 1].value_at(x)
        ambiguous = False
        if len(containing) == 2:
            other = self.branches[containing[1] - 1].value_at(x)
            ambiguous = other != value
        return EvalResult(value, first, ambiguous)

    def branch_inverse(self, i: int, y: Fraction) -> Fraction | None:
        """Preimage of y under branch i (1-based), or None when y is outside
        the closed image of interval i."""
        self._check_branch_index(i)
        return self.branches[i - 1].inverse_at(_as_fraction(y))

    def interval_image(self, i: int) -> Interval:
        """Closed image f(I_i) as an interval (endpoints sorted)."""
        self._check_branch_index(i)
        return self.images[i - 1]

    def _check_branch_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise MapStructureError(f"branch index {i} out of range 1..{self.n}")

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
        from .transitions import is_primitive

        # P1: branch images cover the ambient interval exactly.
        p1_issues: list[str] = []
        covered = merge_closed_intervals(self.images)
        if covered != (self.ambient,):
            pretty = ", ".join(f"[{lo}, {hi}]" for lo, hi in covered)
            p1_issues.append(
                f"branch images cover {pretty}, expected the ambient interval "
                f"[{self.ambient[0]}, {self.ambient[1]}]"
            )

        # P2: each image meets the domain in a union of whole intervals.
        p2_issues: list[str] = []
        for i, (lo, hi) in enumerate(self.images, start=1):
            pieces = []
            whole = []
            for j, (jlo, jhi) in enumerate(self.intervals, start=1):
                plo, phi = max(lo, jlo), min(hi, jhi)
                if plo <= phi:
                    pieces.append((plo, phi))
                    if (plo, phi) == (jlo, jhi):
                        whole.append(j)
            got = merge_closed_intervals(pieces)
            want = merge_closed_intervals(self.intervals[j - 1] for j in whole)
            if got != want:
                pretty = ", ".join(f"[{a}, {b}]" for a, b in got)
                p2_issues.append(
                    f"image of interval {i} meets the domain in {pretty}, "
                    f"not a union of whole intervals"
                )

        # P3: uniform expansion.
        p3_issues = [
            f"interval {i}: |slope| = {abs(b.slope)} is not > 1"
            for i, b in enumerate(self.branches, start=1)
            if not abs(b.slope) > 1
        ]
        expansion_bound = min(abs(b.slope) for b in self.branches)

        # P4: primitivity of the transition matrix.
        prim = is_primitive(self.transition_matrix)
        p4_issues = []
        if not prim.primitive:
            r, c = prim.zero_entry
            p4_issues.append(
                f"transition matrix is not primitive: entry ({r}, {c}) of the "
                f"Wielandt-bound power is still zero"
            )

        # P5 diagnostic: coverage of each gap the open image meets.
        coverage = tuple(
            EscapeCoverage(i, k, lo <= glo and ghi <= hi)
            for i, ((lo, hi), row) in enumerate(
                zip(self.images, self.escape_block), start=1
            )
            for (k, glo, ghi), unit in zip(self.gaps, row)
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
            p4_issues=tuple(p4_issues),
            expansion_bound=expansion_bound,
            aperiodicity_exponent=prim.exponent,
            escape_coverage=coverage,
        )


# -- JSON surface -------------------------------------------------------


@dataclass(frozen=True)
class ExpectedEscapeMatrix:
    """A claimed escape transition matrix attached to a map file; the
    ``matrices`` command reports every entry where the computed matrix
    disagrees with it."""

    symbols: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MapDocument:
    """A map plus optional metadata carried by its JSON file."""

    map: MarkovMap
    expected_escape_matrix: ExpectedEscapeMatrix | None = None


_MAP_KEYS = {"markov_intervals", "branches", "expected_escape_matrix"}


def _parse_expected_matrix(data: object) -> ExpectedEscapeMatrix:
    if not isinstance(data, Mapping) or set(data) != {"symbol_order", "rows"}:
        raise MapFormatError(
            "expected_escape_matrix must be an object with keys "
            "'symbol_order' and 'rows'"
        )
    symbols = data["symbol_order"]
    rows = data["rows"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise MapFormatError("symbol_order must be an array of strings")
    if (
        not isinstance(rows, list)
        or len(rows) != len(symbols)
        or not all(
            isinstance(row, list)
            and len(row) == len(symbols)
            and all(entry in (0, 1) and not isinstance(entry, bool) for entry in row)
            for row in rows
        )
    ):
        raise MapFormatError(
            "rows must be a square 0/1 array matching symbol_order in size"
        )
    return ExpectedEscapeMatrix(
        tuple(symbols), tuple(tuple(int(entry) for entry in row) for row in rows)
    )


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
        try:
            built.append(
                AffineBranch(
                    slope=parse_rational(branch["slope"]),
                    intercept=parse_rational(branch["intercept"]),
                    left=parse_rational(interval[0]),
                    right=parse_rational(interval[1]),
                )
            )
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
