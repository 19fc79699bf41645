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
    the realized operators, as a list of basis pairs (``PairedIntertwiner``),
    where the library states only that it is the identity; or, failing a
    match, whether an unlabeled isomorphism exists (``NoLabelMatch``);
  * ``_oracle_same_unrolling``: equality of the depth-d unrollings of two
    roots of the symbolic pointed graph;
  * ``refine``, ``refined_verdict`` and ``refined_root_colors``: color
    refinement of the whole pointed graph, map states and roots alike, in
    every call, where the library refines each map once and places only the
    roots into that refinement;
  * ``compose`` and ``adjoint``: literal products and adjoints of partial
    permutations held as source -> target dicts, the reference for the
    relation verdicts that the library reads off keys and values;
  * ``bisect_image_decomposition_check``: the window check in ``Fraction``
    arithmetic, with closed-image membership found by bisecting the sorted
    interior points and each edge checked through the exact inverse;
  * ``set_realize`` and its ``SetRepresentation``, ``set_check_relations``,
    ``set_gap_projection``, ``set_projection_sum_is_identity``,
    ``set_image_decomposition_check`` and ``set_faithfulness_certificate``:
    the operators held as index dicts and frozensets of basis indices, with
    every relation decided by set algebra, where the library compares bit
    masks;
  * ``layout_issues``: the synthesis layout rules, restated from their
    statement rather than imported;
  * ``exhaustive_feasibility``: the synthesis feasibility report with the
    escape columns placed by trying every one of the C(n-1, m) placements
    in lexicographic order, where the library places each column by itself;
  * ``cursor_layout``: the branches of a synthesized map laid out in
    ``Fraction``s, a cursor walking the normalised widths column by column
    and halving each gap for its midpoint, where the library reads every
    end off one prefix sum of the integer widths (acceptance criterion C7
    compares it with every map it synthesizes);
  * ``scan_primitivity``: primitivity from every boolean power up to the
    Wielandt bound, where the library builds the least positive power from
    repeated squares.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from escapemaps import (
    ESCAPE_INTERIOR,
    MARKOV_INTERIOR,
    OUTSIDE,
    PARTITION_POINT,
    AffineBranch,
    BoundaryOrbit,
    DepthExceedsTreeError,
    Distinct,
    Equivalent,
    Escaped,
    InconsistentInputsError,
    Itinerary,
    MarkovMap,
    NotAdmissibleError,
    NotAnEscapePointError,
    OrbitTree,
    OutsideAmbientError,
    UndeterminedRegular,
    ValidationReport,
    WindowTooShallowError,
    incidence_cells,
    is_primitive,
    realize,
)
from escapemaps.maps import (
    EscapeCoverage,
    Location,
    MapStructureError,
    check_index,
    is_index,
    merge_closed_intervals,
)
from escapemaps.operators import (
    Certificate,
    ImageDecompositionReport,
    NonvanishingCheck,
    RelationCheck,
    Representation,
    _hits,
    _validated_vertices,
)
from escapemaps.rationals import format_rational
from escapemaps.synthesis import (
    STRICT,
    FeasibilityReport,
    RowSegment,
    SynthesisSpec,
    WidthAllocation,
)
from escapemaps.transitions import (
    Matrix,
    PrimitivityResult,
    TransitionData,
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


@dataclass(frozen=True)
class PairedIntertwiner:
    """The matched label-respecting isomorphism as basis pairs (x-index,
    y-index); ``verified`` records that it exchanges the realized
    operators."""

    pairs: tuple[tuple[int, int], ...]
    verified: bool


@dataclass(frozen=True)
class NoLabelMatch:
    """No label-respecting isomorphism; ``unlabeled_iso_exists`` records
    whether the windows are isomorphic once labels are forgotten."""

    unlabeled_iso_exists: bool


def build_intertwiner(tx: OrbitTree, ty: OrbitTree) -> PairedIntertwiner | NoLabelMatch:
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
        return NoLabelMatch(unlabeled)

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
    return PairedIntertwiner(tuple(sorted(pairs)), verified)


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


def refine(
    preds: Iterable[Iterable[int]], rows: Iterable[Iterable[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Color refinement of the pointed graph: state j < n has A's predecessor
    column j as children, and root n + k the units of incidence row k.
    Returns the children and the color history, one list per round, ending
    with the stable coloring (round 0 colors by out-degree)."""
    preds = [list(kids) for kids in preds]
    n = len(preds)
    children = [*preds, *([i for i in range(n) if row[i]] for row in rows)]
    size = len(children)
    colors = _canonical_ids([len(kids) for kids in children])
    history = [colors]
    while True:
        signatures = [
            (colors[s], tuple(sorted(colors[c] for c in children[s])))
            for s in range(size)
        ]
        new_colors = _canonical_ids(signatures)
        if len(set(new_colors)) == len(set(colors)):
            return children, history
        colors = new_colors
        history.append(colors)


def _canonical_ids(signatures) -> list[int]:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def refined_verdict(preds, incidence_x, incidence_y, note="") -> Equivalent | Distinct:
    """The verdict on two roots from ``refine``: the first round whose
    colors differ, with each root's signature there, or the stable partition
    by state name."""
    n = len(preds)
    root_x, root_y = n, n + 1
    children, history = refine(preds, (incidence_x, incidence_y))

    def text(round_no, state):
        if round_no == 0:
            return f"out-degree {len(children[state])}"
        multiset = sorted(history[round_no - 1][c] for c in children[state])
        return f"child classes {multiset} (round {round_no - 1} colors)"

    for round_no, colors in enumerate(history):
        if colors[root_x] != colors[root_y]:
            return Distinct(round_no, text(round_no, root_x), text(round_no, root_y), note)
    names = [str(i + 1) for i in range(n)] + ["root_x", "root_y"]
    classes: dict[int, list[str]] = {}
    for state, color in enumerate(history[-1]):
        classes.setdefault(color, []).append(names[state])
    partition = tuple(tuple(classes[color]) for color in sorted(classes))
    return Equivalent(rounds=len(history) - 1, partition=partition, note=note)


def refined_root_colors(preds, rows) -> tuple[list[int], int]:
    """The stable color of each row's root and the rounds, from ``refine``
    with one root per row."""
    rows = list(rows)
    _, history = refine(preds, rows)
    n = len(preds)
    return [history[-1][n + k] for k in range(len(rows))], len(history) - 1


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
    for i, ((lo, hi), b) in enumerate(zip(m.images, m.branches), start=1):
        q = rep.image_projection(i)
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


def cursor_layout(
    data: TransitionData, allocation: WidthAllocation
) -> tuple[AffineBranch, ...]:
    """The branches that ``synthesize`` builds from an allocation: a
    ``Fraction`` cursor gives each interleaved column its bounds, and each
    row's run maps its own interval onto the span from the left edge of its
    first target (the middle, for a gap) to the right edge of its last."""
    cursor = Fraction(0)
    bounds: list[tuple[Fraction, Fraction]] = []  # per interleaved column
    for j, k in data.columns:
        width = (
            allocation.markov_widths[j - 1]
            if k is None
            else allocation.escape_widths[k]
        )
        bounds.append((cursor, cursor + width))
        cursor += width
    own = [bounds[c] for c, (_, k) in enumerate(data.columns) if k is None]
    branches = []
    for (left, right), row in zip(own, data.rows):
        units = [c for c, v in enumerate(row) if v]
        first, last = units[0], units[-1]
        glo, ghi = bounds[first]
        left_target = glo if data.columns[first][1] is None else (glo + ghi) / 2
        glo, ghi = bounds[last]
        right_target = ghi if data.columns[last][1] is None else (glo + ghi) / 2
        slope = (right_target - left_target) / (right - left)
        branches.append(
            AffineBranch(
                slope=slope,
                intercept=left_target - slope * left,
                left=left,
                right=right,
            )
        )
    return tuple(branches)


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


# -- the operators as index dicts and frozensets ---------------------------


@dataclass(frozen=True, eq=False)
class SetRepresentation:
    """All operators realized on one window, each as plain index data: a
    partial isometry is a dict from source to target basis index, and a
    projection is the frozenset of basis indices it fixes."""

    tree: OrbitTree
    edge_isometries: Mapping[tuple[int, int], dict[int, int]]
    vertex_projections: tuple[frozenset[int], ...]
    image_projections: tuple[frozenset[int], ...]
    incidence: tuple[int, ...] | None
    interior: frozenset[int]
    check_domain: frozenset[int]

    @property
    def n(self) -> int:
        return self.tree.map.n

    @property
    def dim(self) -> int:
        return self.tree.node_count

    def transfer(self, i: int) -> dict[int, int]:
        check_index(i, self.n, "vertex")
        links = zip(self.tree.parents, self.tree.labels)
        return {parent: idx for idx, (parent, label) in enumerate(links)
                if label == i and parent in self.interior}

    def edge_isometry(self, i: int, j: int) -> dict[int, int]:
        if not (is_index(i) and is_index(j)):
            raise MapStructureError(f"edge ({i!r}, {j!r}) is not a pair of integers")
        if (i, j) not in self.edge_isometries:
            raise MapStructureError(f"no transition from {i} to {j}")
        return self.edge_isometries[(i, j)]

    def vertex_projection(self, i: int) -> frozenset[int]:
        check_index(i, self.n, "vertex")
        return self.vertex_projections[i - 1]

    def image_projection(self, i: int) -> frozenset[int]:
        check_index(i, self.n, "vertex")
        return self.image_projections[i - 1]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edge_isometries))

    @functools.cached_property
    def edge_ranges(self) -> tuple[frozenset[int], ...]:
        ranges: list[set[int]] = [set() for _ in range(self.n)]
        for (i, _), s in self.edge_isometries.items():
            assert ranges[i - 1].isdisjoint(s.values()), "edge ranges must be orthogonal"
            ranges[i - 1].update(s.values())
        return tuple(frozenset(r) for r in ranges)

    def point_strings(self, indices: Iterable[int]) -> tuple[str, ...]:
        pts = sorted(self.tree.points[idx] for idx in indices)
        return tuple(format_rational(p) for p in pts)


def set_realize(tree: OrbitTree) -> SetRepresentation:
    """``realize`` with every operator as index data, in one pass over the
    parent and label arrays."""
    markov = tree.map.transition_matrix
    n = len(markov)
    interior = frozenset(tree.interior_indices())

    edge_isometries: dict[tuple[int, int], dict[int, int]] = {
        (i, j): {}
        for i, row in enumerate(markov, start=1)
        for j, unit in enumerate(row, start=1)
        if unit
    }
    by_label: list[list[int]] = [[] for _ in range(n)]
    for idx, (parent, i) in enumerate(zip(tree.parents, tree.labels)):
        if i is None:
            continue
        by_label[i - 1].append(idx)
        if parent in interior:
            edge = edge_isometries.get((i, tree.labels[parent]))
            if edge is not None:
                edge[parent] = idx

    incidence = tree.base_class.incidence if isinstance(tree.base_class, Escaped) else None
    image_projections = tuple(
        frozenset(
            [idx for j, unit in enumerate(row) if unit for idx in by_label[j]]
            + ([0] if incidence is not None and incidence[i] else [])
        )
        for i, row in enumerate(markov)
    )
    check_domain = interior
    if incidence is None and tree.parents[0] is None:
        check_domain = interior - {0}

    return SetRepresentation(
        tree=tree,
        edge_isometries=edge_isometries,
        vertex_projections=tuple(frozenset(nodes) for nodes in by_label),
        image_projections=image_projections,
        incidence=incidence,
        interior=interior,
        check_domain=check_domain,
    )


def set_check_relations(rep: SetRepresentation, vertices: Iterable[int]) -> tuple[RelationCheck, ...]:
    """Every relation instance of ``check_relations``, passing ones
    included, decided by set equality: the edge isometry s*s = p_j and the
    range bound p_i ss* = ss* on the interior, and the vertex sum on the
    checkable domain."""
    vlist = _validated_vertices(vertices, rep.n)
    supports, domain = rep.vertex_projections, rep.check_domain
    interior_supports = [support & rep.interior for support in supports]
    checks = []

    def check(kind, edge, vertex, lhs, rhs) -> None:
        passed = lhs == rhs
        witnesses = () if passed else rep.point_strings(lhs ^ rhs)
        checks.append(RelationCheck(kind, edge, vertex, passed, witnesses))

    for (i, j), s in sorted(rep.edge_isometries.items()):
        check("edge-isometry", (i, j), None, s.keys(), interior_supports[j - 1])
        values = set(s.values())
        check("edge-range", (i, j), None, values, values & supports[i - 1])
    for v in vlist:
        check("vertex-sum", None, v, supports[v - 1] & domain, rep.edge_ranges[v - 1] & domain)
    return tuple(checks)


def set_gap_projection(rep: SetRepresentation, i: int) -> frozenset[int]:
    return (rep.vertex_projection(i) & rep.check_domain) - rep.edge_ranges[i - 1]


def set_projection_sum_is_identity(rep: SetRepresentation) -> bool:
    union: set[int] = set()
    for i in range(1, rep.n + 1):
        support = rep.vertex_projection(i)
        assert not (union & support), "vertex projections must be orthogonal"
        union |= support
    return rep.interior <= union


def set_image_decomposition_check(rep: SetRepresentation) -> ImageDecompositionReport:
    """``image_decomposition_check`` with the closed-image members of each
    q_i collected as sets of basis indices."""
    tree, grid = rep.tree, rep.tree.map.grid
    pairs, incidence = tree.pairs, grid.incidence
    masks = {idx: incidence(*pairs[idx]) for idx in rep.interior}
    by_mask: dict[int, list[int]] = {}
    for idx, mask in masks.items():
        by_mask.setdefault(mask, []).append(idx)
    texts = []
    for i, q in enumerate(rep.image_projections, start=1):
        exact = {idx for mask, nodes in by_mask.items() if mask >> (i - 1) & 1 for idx in nodes}
        if diff := exact ^ (q & rep.interior):
            texts.append(
                f"image projection {i} mismatch at: " + ", ".join(rep.point_strings(diff))
            )
    for idx, (parent, i) in enumerate(zip(tree.parents, tree.labels)):
        if i is None or (parent is None and idx not in rep.interior):
            continue
        y = grid.image(i, *pairs[idx])
        if parent is None:
            mask = incidence(*y)
        else:
            mask = masks[parent] if y == pairs[parent] else 0
        if not mask >> (i - 1) & 1:
            texts.append(f"branch {i} round trip fails at {rep.point_strings([idx])[0]}")
    return ImageDecompositionReport(not texts, tuple(texts))


def set_faithfulness_certificate(rep: SetRepresentation, vertices: Iterable[int]) -> Certificate:
    """``faithfulness_certificate`` with each nonvanishing fact read as a
    nonempty set of basis indices."""
    if rep.incidence is None:
        raise NotAnEscapePointError(
            "faithfulness certificates are defined on escape windows"
        )
    vlist = _validated_vertices(vertices, rep.n)
    hits = _hits(rep.incidence, vlist)
    if hits:
        raise NotAdmissibleError(
            f"vertex set {list(vlist)} is not admissible: incidence is 1 at {hits}"
        )
    if rep.tree.max_depth < 2:
        raise WindowTooShallowError(
            "faithfulness certificates need a window of depth at least 2"
        )
    complement = [k for k in range(1, rep.n + 1) if k not in vlist]
    complement_misses = tuple(k for k in complement if rep.incidence[k - 1] == 0)
    nonvanishing = [
        NonvanishingCheck("vertex-projection", i, bool(rep.vertex_projection(i)))
        for i in range(1, rep.n + 1)
    ]
    for k in complement:
        nonvanishing.append(
            NonvanishingCheck("gap-projection", k, bool(set_gap_projection(rep, k)))
        )
        nonvanishing.append(
            NonvanishingCheck("edge-range-sum", k, bool(rep.edge_ranges[k - 1]))
        )
    return Certificate(
        vertices=vlist,
        incidence=rep.incidence,
        faithful=not complement_misses,
        complement_misses=complement_misses,
        nonvanishing=tuple(nonvanishing),
    )
