"""Brute-force oracles that the library no longer runs.

The library validates maps, locates points and iterates orbits on a map's
integer grid, and decides equivalence from the transition matrix and the
incidence rows alone.  The tools here decide the same questions the long
way, so the tests can check the short way against them:

  * ``linear_locate``: a point's location by scanning the ambient interval,
    every partition point, every interval and every gap in turn;
  * ``fraction_locate``, ``fraction_classify_point``, ``fraction_itinerary``
    and ``fraction_validation``: the point location, forward orbit, coding
    and P1-P5 checks in ``Fraction`` arithmetic, bisecting ``Fraction``
    breakpoints and stepping with ``value_at``;
  * ``ahu_canonical``: label-free canonical forms of truncated windows
    (bottom-up, children sorted); equal forms at equal depth iff the
    truncated trees are isomorphic as unlabeled rooted trees;
  * ``build_intertwiner``: the unique label-respecting isomorphism of two
    windows, found by matching children by branch label and verified against
    the realized operators;
  * ``_oracle_same_unrolling``: equality of the depth-d unrollings of two
    roots of the symbolic pointed graph;
  * ``compose`` and ``adjoint``: literal products and adjoints of partial
    permutations held as source -> target dicts, the reference for the
    relation verdicts that the library reads off keys and values;
  * ``bisect_image_decomposition_check``: the window check in ``Fraction``
    arithmetic, with closed-image membership found by bisecting the sorted
    interior points and each edge checked through the exact inverse;
  * ``layout_issues``: the synthesis layout rules, restated from their
    statement rather than imported;
  * ``exhaustive_feasibility``: the synthesis feasibility report with the
    escape columns placed by trying every one of the C(n-1, m) placements
    in lexicographic order, where the library places each column by itself;
  * ``scan_primitivity``: primitivity from every boolean power up to the
    Wielandt bound, where the library stops once the powers cycle.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

from escapemaps import (
    ESCAPE_INTERIOR,
    MARKOV_INTERIOR,
    OUTSIDE,
    PARTITION_POINT,
    BoundaryOrbit,
    DepthExceedsTreeError,
    Escaped,
    InconsistentInputsError,
    Intertwiner,
    Itinerary,
    MarkovMap,
    NoLabelRespectingIso,
    NotAnEscapePointError,
    OrbitTree,
    OutsideAmbientError,
    UndeterminedRegular,
    ValidationReport,
    incidence_cells,
    is_primitive,
    realize,
)
from escapemaps.maps import EscapeCoverage, Location, merge_closed_intervals
from escapemaps.operators import ImageDecompositionReport, Representation
from escapemaps.synthesis import STRICT, FeasibilityReport, RowSegment, SynthesisSpec
from escapemaps.transitions import (
    Matrix,
    PrimitivityResult,
    _bool_multiply,
    as_binary_matrix,
    wielandt_bound,
)


def linear_locate(m: MarkovMap, x: Fraction) -> Location:
    x = Fraction(x)
    lo, hi = m.ambient
    if not lo <= x <= hi:
        return Location(OUTSIDE, None, x)
    if x in {p for b in m.branches for p in (b.left, b.right)}:
        return Location(PARTITION_POINT, None, x)
    for i, b in enumerate(m.branches, start=1):
        if b.left < x < b.right:
            return Location(MARKOV_INTERIOR, i, x)
    for k, glo, ghi in m.gaps:
        if glo < x < ghi:
            return Location(ESCAPE_INTERIOR, k, x)
    raise AssertionError("unreachable: ambient point neither located nor boundary")


def _fraction_breakpoints(m: MarkovMap):
    """The sorted partition points as Fractions and, per open slot between
    two of them, its location kind and the index of its interval or gap."""
    points = [m.branches[0].left]
    slots = []
    for i, b in enumerate(m.branches, start=1):
        if points[-1] < b.left:
            slots.append((ESCAPE_INTERIOR, i - 1))
            points.append(b.left)
        slots.append((MARKOV_INTERIOR, i))
        points.append(b.right)
    return points, slots


def fraction_locate(m: MarkovMap, x: Fraction) -> Location:
    """Bisect the ``Fraction`` breakpoints."""
    x = Fraction(x)
    points, slots = _fraction_breakpoints(m)
    s = bisect.bisect_left(points, x)
    if s < len(points) and points[s] == x:
        return Location(PARTITION_POINT, None, x)
    if s == 0 or s == len(points):
        return Location(OUTSIDE, None, x)
    kind, index = slots[s - 1]
    return Location(kind, index, x)


def fraction_classify_point(m: MarkovMap, x: Fraction, max_iter: int):
    """Classify by iterating ``value_at`` and locating every point with
    ``fraction_locate``; the incidence compares the escape point with every
    closed image."""
    y, seen = Fraction(x), {}
    for step in range(max_iter + 1):
        loc = fraction_locate(m, y)
        if loc.kind == OUTSIDE:
            raise OutsideAmbientError(f"{y} left the ambient interval at step {step}")
        if loc.kind == PARTITION_POINT:
            return BoundaryOrbit(step, y)
        if loc.kind == ESCAPE_INTERIOR:
            incidence = tuple(int(lo <= y <= hi) for lo, hi in m.images)
            return Escaped(step, y, loc.index, incidence)
        if y in seen:
            return UndeterminedRegular(step, step - seen[y])
        seen[y] = step
        if step == max_iter:
            break
        y = m.branches[loc.index - 1].value_at(y)
    return UndeterminedRegular(max_iter, None)


def fraction_itinerary(m: MarkovMap, x: Fraction, max_iter: int) -> Itinerary:
    """The coding by ``value_at`` and ``fraction_locate``; at a partition
    point the leftmost closed interval containing it gives the symbol."""
    y, symbols, boundary = Fraction(x), [], []
    for step in range(max_iter + 1):
        loc = fraction_locate(m, y)
        if loc.kind == OUTSIDE:
            raise OutsideAmbientError(f"{y} left the ambient interval at step {step}")
        if loc.kind == ESCAPE_INTERIOR:
            symbols.append(f"{loc.index}^")
            return Itinerary(tuple(symbols), tuple(boundary), loc.index)
        if step == max_iter:
            break
        i = loc.index
        if loc.kind == PARTITION_POINT:
            boundary.append(step)
            i = next(i for i, b in enumerate(m.branches, 1) if b.left <= y <= b.right)
        symbols.append(str(i))
        y = m.branches[i - 1].value_at(y)
    return Itinerary(tuple(symbols), tuple(boundary), None)


def fraction_validation(m: MarkovMap) -> ValidationReport:
    """The P1-P4 checks and the P5 diagnostic on the ``Fraction`` endpoints,
    with A and B read off them afresh and P4 through ``is_primitive``."""
    ambient = (m.branches[0].left, m.branches[-1].right)
    gaps = [
        (k, m.branches[k - 1].right, m.branches[k].left)
        for k in range(1, m.n)
        if m.branches[k - 1].right < m.branches[k].left
    ]
    markov = [
        [int(lo <= jlo and jhi <= hi) for jlo, jhi in m.intervals] for lo, hi in m.images
    ]
    escape = [
        [int(max(lo, glo) < min(hi, ghi)) for _, glo, ghi in gaps] for lo, hi in m.images
    ]

    p1_issues = []
    covered = merge_closed_intervals(m.images)
    if covered != (ambient,):
        pretty = ", ".join(f"[{lo}, {hi}]" for lo, hi in covered)
        p1_issues.append(
            f"branch images cover {pretty}, expected the ambient interval "
            f"[{ambient[0]}, {ambient[1]}]"
        )
    p2_issues = []
    for i, (lo, hi) in enumerate(m.images, start=1):
        pieces, whole = [], []
        for j, (jlo, jhi) in enumerate(m.intervals, start=1):
            plo, phi = max(lo, jlo), min(hi, jhi)
            if plo <= phi:
                pieces.append((plo, phi))
                if (plo, phi) == (jlo, jhi):
                    whole.append(j)
        got = merge_closed_intervals(pieces)
        if got != merge_closed_intervals(m.intervals[j - 1] for j in whole):
            pretty = ", ".join(f"[{a}, {b}]" for a, b in got)
            p2_issues.append(
                f"image of interval {i} meets the domain in {pretty}, "
                f"not a union of whole intervals"
            )
    p3_issues = [
        f"interval {i}: |slope| = {abs(b.slope)} is not > 1"
        for i, b in enumerate(m.branches, start=1)
        if not abs(b.slope) > 1
    ]
    prim = is_primitive(markov)
    p4_issues = []
    if not prim.primitive:
        r, c = prim.zero_entry
        p4_issues.append(
            f"transition matrix is not primitive: entry ({r}, {c}) of the "
            f"Wielandt-bound power is still zero"
        )
    coverage = tuple(
        EscapeCoverage(i, k, lo <= glo and ghi <= hi)
        for i, ((lo, hi), row) in enumerate(zip(m.images, escape), start=1)
        for (k, glo, ghi), unit in zip(gaps, row)
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
        expansion_bound=min(abs(b.slope) for b in m.branches),
        aperiodicity_exponent=prim.exponent,
        escape_coverage=coverage,
    )


def escape_point_with_incidence(
    m: MarkovMap, target: tuple[int, ...]
) -> Fraction | None:
    """A point strictly inside some gap whose incidence vector equals
    ``target`` (cell midpoint; deterministic), or None if no gap cell has that
    incidence."""
    target = tuple(target)
    for k, _, _ in m.gaps:
        for lo, hi, incidence in incidence_cells(m, k):
            if incidence == target:
                return (lo + hi) / 2
    return None


@dataclass(frozen=True)
class CanonicalForm:
    """Label-free canonical form of a window truncated at ``depth``; equal
    forms at equal depth characterize unlabeled rooted-tree isomorphism."""

    depth: int
    form: str


def ahu_canonical(tree: OrbitTree, depth: int) -> CanonicalForm:
    if not tree.is_escape_window:
        raise NotAnEscapePointError(
            "canonical forms are defined for escape-rooted windows"
        )
    if depth > tree.max_depth:
        raise DepthExceedsTreeError(
            f"depth {depth} exceeds the materialized depth {tree.max_depth}"
        )

    def canon(idx: int) -> str:
        if tree.depths[idx] >= depth:
            return "()"
        parts = sorted(canon(child) for child in tree.children(idx))
        return "(" + "".join(parts) + ")"

    return CanonicalForm(depth, canon(0))


def children_by_label(tree: OrbitTree, idx: int) -> dict[int, int]:
    """Branch label -> child index; labels are unique among children."""
    out = {tree.labels[child]: child for child in tree.children(idx)}
    assert len(out) == len(tree.children(idx)), "repeated label among children"
    return out


def build_intertwiner(
    tx: OrbitTree, ty: OrbitTree
) -> Intertwiner | NoLabelRespectingIso:
    """Construct and verify the unique label-respecting isomorphism of two
    windows built at one depth, if it exists."""
    if not (tx.is_escape_window and ty.is_escape_window):
        raise NotAnEscapePointError("intertwiners are built for escape windows")
    if tx.map != ty.map or tx.max_depth != ty.max_depth:
        raise InconsistentInputsError("windows must come from one map at one depth")
    depth = tx.max_depth

    pairs: list[tuple[int, int]] = []

    def match(u: int, w: int) -> bool:
        pairs.append((u, w))
        cu = children_by_label(tx, u)
        cw = children_by_label(ty, w)
        if set(cu) != set(cw):
            return False
        return all(match(cu[label], cw[label]) for label in sorted(cu))

    if not match(0, 0):
        unlabeled = ahu_canonical(tx, depth) == ahu_canonical(ty, depth)
        return NoLabelRespectingIso(unlabeled)

    forward = dict(pairs)
    rep_x = realize(tx)
    rep_y = realize(ty)
    verified = True
    for edge in rep_x.edges():
        sx = rep_x.edge_isometry(*edge)
        sy = rep_y.edge_isometry(*edge)
        mapped = {(forward[a], forward[b]) for a, b in sx.items()}
        if mapped != set(sy.items()):
            verified = False
    for i in range(1, rep_x.n + 1):
        px = {forward[a] for a in rep_x.vertex_projection(i)}
        if px != rep_y.vertex_projection(i):
            verified = False
    return Intertwiner(tuple(sorted(pairs)), verified)


def _oracle_same_unrolling(markov, cx, cy, depth) -> bool:
    """Whether the roots with incidence rows cx and cy have isomorphic
    unrollings of the given depth in the graph whose state s has the rows i
    with markov[i][s] = 1 as children."""
    n = len(markov)
    children = [[i for i in range(n) if markov[i][s]] for s in range(n)]
    children.append([i for i in range(n) if cx[i]])
    children.append([i for i in range(n) if cy[i]])
    # Each distinct shape gets a number, so comparing two unrollings never
    # walks their (exponentially large) trees.
    memo: dict[tuple[int, int], int] = {}
    numbers: dict[tuple[int, ...], int] = {}

    def shape(node, d):
        if d == 0:
            return 0
        key = (node, d)
        if key not in memo:
            kids = tuple(sorted(shape(c, d - 1) for c in children[node]))
            memo[key] = numbers.setdefault(kids, len(numbers) + 1)
        return memo[key]

    return shape(n, depth) == shape(n + 1, depth)


def compose(outer: dict[int, int], inner: dict[int, int]) -> dict[int, int]:
    """The product outer * inner: x -> outer(inner(x)) where both are defined."""
    return {a: outer[b] for a, b in inner.items() if b in outer}


def adjoint(s: dict[int, int]) -> dict[int, int]:
    """The adjoint of a partial permutation is its inverse."""
    inverse = {b: a for a, b in s.items()}
    assert len(inverse) == len(s), "not a partial permutation"
    return inverse


def bisect_image_decomposition_check(rep: Representation) -> ImageDecompositionReport:
    """The reference for ``image_decomposition_check``.  Each closed image's
    interior members come from two bisections in the interior points sorted
    by value, and are compared with q_i.  For each member y of the image of
    I_i, z = f_i^{-1}(y) must satisfy f_i(z) = y and be the point of y's
    child labelled i.  An interior node that is no such child gets the round
    trip f_i^{-1}(f_i(x)) = x checked directly."""
    m, tree = rep.tree.map, rep.tree
    points, labels = tree.points, tree.labels
    ordered = sorted(sorted(rep.interior), key=points.__getitem__)
    keys = [points[idx] for idx in ordered]
    child_of = {
        (parent, label): idx
        for idx, (parent, label) in enumerate(zip(tree.parents, labels))
        if parent is not None
    }
    mismatches = []
    failures: list[tuple[tuple[int, int, int], str]] = []
    covered: set[int] = set()
    for i, ((lo, hi), b, q) in enumerate(
        zip(m.images, m.branches, rep.image_projections), start=1
    ):
        members = ordered[bisect.bisect_left(keys, lo) : bisect.bisect_right(keys, hi)]
        if diff := set(members) ^ (q & rep.interior):
            mismatches.append(
                f"image projection {i} mismatch at: " + ", ".join(rep.point_strings(diff))
            )
        for idx in members:
            y = points[idx]
            z = m.branch_inverse(i, y)
            if b.value_at(z) != y:
                failures.append(((idx, i, 0), f"branch {i} inverse identity fails at {y}"))
                continue
            child = child_of.get((idx, i))
            if child is not None:
                covered.add(child)
                if z != points[child]:
                    failures.append(
                        ((child, i, 1), f"branch {i} round trip fails at {points[child]}")
                    )
    for idx in rep.interior - covered:
        i, x = labels[idx], points[idx]
        if i is not None and m.branch_inverse(i, m.branches[i - 1].value_at(x)) != x:
            failures.append(((idx, i, 1), f"branch {i} round trip fails at {x}"))
    failures.sort()
    texts = mismatches + [text for _, text in failures]
    return ImageDecompositionReport(not texts, tuple(texts))


def layout_issues(markov: Matrix, escape: Matrix, positions: tuple[int, ...], mode: str):
    """(row issues, column issues, segments) of a placement, in the words of
    ``feasibility_check``.  Gap symbol p^ (escape column k, placed at
    positions[k] = p) follows symbol p.  Then:

      * a row's targets must be contiguous in that interleaved order;
      * no row may target only escape symbols;
      * in strict mode, a segment must end at Markov symbols at both ends;
      * a gap is covered by a segment that contains it strictly, or by a
        segment ending at it from the left together with one starting at it
        to the right."""
    order = []  # (symbol, gap position or None, its column of entries)
    for j in range(1, len(markov) + 1):
        order.append((str(j), None, [row[j - 1] for row in markov]))
        order += [(f"{j}^", j, [row[k] for row in escape])
                  for k, p in enumerate(positions) if p == j]
    rows, segments, spans = [], [], []
    for i in range(1, len(markov) + 1):
        hit = [c for c, (_, _, column) in enumerate(order) if column[i - 1]]
        names = tuple(order[c][0] for c in hit)
        if not hit:
            rows.append(f"row {i} has no targets")
        elif hit != list(range(hit[0], hit[-1] + 1)):
            rows.append(f"targets of row {i} are not contiguous in symbol order: " + " ".join(names))
        elif all(order[c][1] is not None for c in hit):
            rows.append(f"row {i} targets only an escape symbol; its image would collapse to a point")
        else:
            segments.append(RowSegment(i, names))
            spans.append((hit[0], hit[-1]))
            if mode == STRICT:
                rows += [
                    f"row {i} segment ends at escape symbol {order[c][0]}; strict mode "
                    f"requires Markov symbols at both ends"
                    for c in (hit[0], hit[-1]) if order[c][1] is not None
                ]
    cols = [
        f"the gap at position {p} ({name}) would not be fully covered by the "
        f"branch images: it needs a branch whose segment contains it strictly "
        f"inside, or partial branches reaching it from both sides"
        for c, (name, p, _) in enumerate(order)
        if p is not None
        and not any(lo < c < hi for lo, hi in spans)
        and not (any(lo < c == hi for lo, hi in spans) and any(lo == c < hi for lo, hi in spans))
    ]
    return rows, cols, segments


def exhaustive_placement(markov: Matrix, escape: Matrix, mode: str) -> tuple[int, ...] | None:
    """The first placement (in lexicographic order) of the escape columns
    into the n-1 inter-interval slots that makes every row and column
    workable, found by checking whole placements one after another; None
    when no placement does."""
    m = len(escape[0]) if escape and escape[0] else 0
    for combo in itertools.combinations(range(1, len(markov)), m):
        rows, cols, _ = layout_issues(markov, escape, combo, mode)
        if not rows and not cols:
            return combo
    return None


def exhaustive_feasibility(spec: SynthesisSpec) -> FeasibilityReport:
    """``feasibility_check`` with the positions that are not given found by
    ``exhaustive_placement``."""
    structure = list(is_primitive(spec.markov).issues)
    if spec.n == 1:
        structure.append("a single interval cannot expand, so no expanding map exists")
    for col in range(spec.m):
        if not any(row[col] for row in spec.escape):
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
        # With no escape column there is nothing to place.
        positions = exhaustive_placement(spec.markov, spec.escape, spec.mode) if spec.m else ()
    if positions is None:
        structure.append(
            "no placement of the escape columns makes every row "
            "contiguous and every gap covered"
        )
        positions, cols, segments = (), [], []
        # Gap symbols only add columns, so a zero of A between two units of
        # its row stays between them under every placement.
        rows = [
            f"targets of row {i} are not contiguous in symbol order: "
            + " ".join(str(j) for j, v in enumerate(row, start=1) if v)
            for i, row in enumerate(spec.markov, start=1)
            if any(row[j] and not row[j + 1] and any(row[j + 2 :]) for j in range(spec.n - 2))
        ]
    else:
        rows, cols, segments = layout_issues(spec.markov, spec.escape, positions, spec.mode)
    return FeasibilityReport(
        feasible=not (structure or rows or cols),
        mode=spec.mode,
        gap_positions=positions,
        structure_issues=tuple(structure),
        row_issues=tuple(rows),
        column_issues=tuple(cols),
        segments=tuple(segments),
    )


def scan_primitivity(matrix: object) -> PrimitivityResult:
    """``is_primitive`` by multiplying out every power A^1, A^2, ... up to
    the Wielandt bound; when none is positive, the zero entry is the first
    one of the Wielandt-bound power in row-major order."""
    rows = as_binary_matrix(matrix)
    n = len(rows)
    masks = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    full = (1 << n) - 1
    power = list(masks)
    for q in range(1, wielandt_bound(n) + 1):
        if q > 1:
            power = _bool_multiply(power, masks)
        if all(row == full for row in power):
            return PrimitivityResult(True, q, None)
    i, j = next((i, j) for i, row in enumerate(power) for j in range(n) if not row >> j & 1)
    return PrimitivityResult(False, None, (i + 1, j + 1))
