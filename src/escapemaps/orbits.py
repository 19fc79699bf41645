"""Forward orbit classification and truncated backward orbit windows.

A point either escapes (its forward orbit enters an open gap after finitely
many steps), hits a partition point exactly, or stays inside Markov interiors
for the whole iteration budget (with an exact cycle sometimes detected, which
settles non-escape for good).

The backward window of a point x materializes a finite piece of the
generalized orbit {z : f^k(z) = r} around a root r: the final escape point
r = e(x) when x escapes, or r = f^T(x) for a chosen forward horizon T when it
does not.  Each node's edge to its forward image is labeled by the branch
containing the node, and the shape follows from those labels alone.  For
escape roots the window is a genuine tree; for periodic regular roots the
expansion closes a cycle through the root, recorded by its parent pointer.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    DepthExceedsTreeError,
    NotAnEscapePointError,
    OrbitMeetsBoundaryError,
    OutsideAmbientError,
)
from .maps import (
    ESCAPE_INTERIOR,
    MARKOV_INTERIOR,
    OUTSIDE,
    PARTITION_POINT,
    Location,
    MarkovMap,
)
from .rationals import format_rational
from .transitions import gap_symbol, markov_symbol

DEFAULT_MAX_ITER = 4096
DEFAULT_TREE_DEPTH = 6


@dataclass(frozen=True)
class Escaped:
    """The orbit reaches an open gap: f^escape_time(x) = final_point lies in
    gap ``gap_index``; ``incidence`` is the 0/1 vector saying which closed
    branch images contain the final point."""

    escape_time: int
    final_point: Fraction
    gap_index: int
    incidence: tuple[int, ...]


@dataclass(frozen=True)
class BoundaryOrbit:
    """The orbit lands exactly on a partition point at step ``hit_step``."""

    hit_step: int
    hit_point: Fraction


@dataclass(frozen=True)
class UndeterminedRegular:
    """No escape and no boundary hit within the budget.  When ``period`` is
    set an exact cycle was detected, so the point provably never escapes."""

    checked_depth: int
    period: int | None = None


PointClass = Escaped | BoundaryOrbit | UndeterminedRegular


def _forward_orbit(
    m: MarkovMap, x: Fraction
) -> Iterator[tuple[Fraction, Location, int | None]]:
    """Yield (y, location of y, branch applied to y) along the forward orbit
    of x, one step per item.  At a partition point the leftmost containing
    interval's branch is applied; an escape point comes with branch None and
    ends the orbit.  Raises OutsideAmbientError when a point is outside the
    ambient interval."""
    y = Fraction(x)
    for step in itertools.count():
        loc = m.locate(y)
        if loc.kind == OUTSIDE:
            raise OutsideAmbientError(f"{y} left the ambient interval at step {step}")
        if loc.kind == ESCAPE_INTERIOR:
            yield y, loc, None
            return
        i = loc.index if loc.kind == MARKOV_INTERIOR else m.containing_intervals(y)[0]
        yield y, loc, i
        y = m.branches[i - 1].value_at(y)


def classify_point(
    m: MarkovMap, x: Fraction, max_iter: int = DEFAULT_MAX_ITER
) -> PointClass:
    """Iterate the map exactly until escape, a partition-point hit, a cycle,
    or the budget runs out.  Raises OutsideAmbientError for points outside the
    ambient interval and DepthExceedsTreeError for a negative budget."""
    if max_iter < 0:
        raise DepthExceedsTreeError("max_iter must be nonnegative")
    seen: dict[Fraction, int] = {}
    for step, (y, loc, _) in enumerate(_forward_orbit(m, x)):
        if loc.kind == PARTITION_POINT:
            return BoundaryOrbit(step, y)
        if loc.kind == ESCAPE_INTERIOR:
            return Escaped(step, y, loc.index, _image_incidence(m, y, loc.index))
        if y in seen:
            return UndeterminedRegular(step, step - seen[y])
        seen[y] = step
        if step >= max_iter:
            return UndeterminedRegular(max_iter, None)


def escape_incidence(m: MarkovMap, e: Fraction) -> tuple[int, ...]:
    """0/1 vector over branches: unit at i iff the escape point e lies in the
    closed image of I_i.  Requires e strictly inside an open gap."""
    loc = m.locate(Fraction(e))
    if loc.kind != ESCAPE_INTERIOR:
        raise NotAnEscapePointError(f"{loc.point} is not strictly inside an open gap")
    return _image_incidence(m, loc.point, loc.index)


def _image_incidence(m: MarkovMap, e: Fraction, gap_index: int) -> tuple[int, ...]:
    """The incidence row behind ``escape_incidence``, for a point already
    located strictly inside gap ``gap_index``: only the images with an
    endpoint inside that gap are compared with the point."""
    row, partial = m.gap_incidence[gap_index]
    if not partial:
        return row
    row = list(row)
    for i, lo, hi in partial:
        row[i] = int(lo <= e <= hi)
    return tuple(row)


def incidence_cells(
    m: MarkovMap, gap_index: int
) -> tuple[tuple[Fraction, Fraction, tuple[int, ...]], ...]:
    """Subdivide gap ``gap_index`` at the branch-image endpoints falling
    inside it; return the open cells with the (constant) incidence vector of
    each cell interior."""
    glo, ghi = m.gap_bounds(gap_index)
    cuts = {glo, ghi}
    for _, lo, hi in m.gap_incidence[gap_index][1]:
        cuts.update(end for end in (lo, hi) if glo < end < ghi)
    ordered = sorted(cuts)
    cells = []
    for lo, hi in zip(ordered, ordered[1:]):
        mid = (lo + hi) / 2
        cells.append((lo, hi, _image_incidence(m, mid, gap_index)))
    return tuple(cells)


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


# -- backward windows ---------------------------------------------------


@dataclass(frozen=True)
class OrbitTree:
    """A finite backward window of a generalized orbit.

    ``depths[i]`` is the node's discovery depth (backward distance from the
    root); ``parents[i]`` the index of the node holding its forward image, or
    None when that image was not materialized (escape roots have no forward
    image at all); ``labels[i]`` the branch whose domain contains the node
    (None exactly for an escape root).  Nodes are stored level by level, in
    value order within a level.  ``points`` are computed on first use; they
    are pairwise distinct, so they form a sub-basis of the generalized orbit.
    """

    map: MarkovMap
    base_point: Fraction
    base_class: PointClass
    root_point: Fraction
    max_depth: int
    depths: tuple[int, ...]
    parents: tuple[int | None, ...]
    labels: tuple[int | None, ...]

    @property
    def node_count(self) -> int:
        return len(self.depths)

    @property
    def is_escape_window(self) -> bool:
        return isinstance(self.base_class, Escaped)

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        """Node values: each node is the preimage of its parent under the
        branch of its label, and parents come first.  Each value is computed
        as a reduced integer pair from its parent's pair, with the map's
        integer inverse coefficients and one gcd; the pairs become Fractions
        once, at the end."""
        inverse = self.map.integer_forms[1]
        pairs = [self.root_point.as_integer_ratio()]
        for parent, label in zip(self.parents[1:], self.labels[1:]):
            u, v, w = inverse[label - 1]
            p, q = pairs[parent]
            num, den = u * p + v * q, w * q
            g = math.gcd(num, den)
            pairs.append((num // g, den // g))
        return tuple([Fraction(p, q) for p, q in pairs])

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.depths]
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                out[parent].append(idx)
        return tuple(map(tuple, out))

    def children(self, idx: int) -> tuple[int, ...]:
        """Indices of nodes whose forward image is node ``idx``."""
        return self._children[idx]

    def interior_indices(self) -> tuple[int, ...]:
        """Nodes whose preimages were fully expanded: discovery depth at most
        max_depth - 1."""
        return tuple(range(bisect.bisect_left(self.depths, self.max_depth)))

    def index_of(self, point: Fraction) -> int:
        return self.points.index(Fraction(point))


def check_window_root(m: MarkovMap, x: Fraction, pc: PointClass, depth: int) -> None:
    """Raise OrbitMeetsBoundaryError when the window of x at this depth is
    undefined: the forward orbit of x hits a partition point, or depth >= 1
    and a preimage of its escape root is one.  P2 keeps every other
    preimage off the partition points, but a partially covering image can
    end exactly at the escape root."""
    if isinstance(pc, BoundaryOrbit):
        raise OrbitMeetsBoundaryError(
            f"forward orbit of {x} hits partition point "
            f"{pc.hit_point} at step {pc.hit_step}"
        )
    if not (isinstance(pc, Escaped) and depth):
        return
    for k, unit in enumerate(pc.incidence, start=1):
        if unit:
            z = m.branch_inverse(k, pc.final_point)
            if m.locate(z).kind == PARTITION_POINT:
                raise OrbitMeetsBoundaryError(
                    f"preimage {z} of window node {pc.final_point} under "
                    f"branch {k} is a partition point; the window is undefined"
                )


def window_node_count(m: MarkovMap, incidence: Sequence[int], depth: int) -> int:
    """Node count of the escape window of the given depth whose root has
    this incidence row, without building it: level 1 has a node labelled k
    per unit k of the row, and level d + 1 has A[k][j] nodes labelled k for
    each node labelled j at level d."""
    preds = m.transition_predecessors
    level, total = list(incidence), 1
    for _ in range(depth):
        total += sum(level)
        below = [0] * m.n
        for j, count in enumerate(level):
            for k in preds[j]:
                below[k] += count
        level = below
    return total


def build_orbit_tree(
    m: MarkovMap,
    x: Fraction,
    depth: int,
    max_iter: int = DEFAULT_MAX_ITER,
    horizon: int = 0,
) -> OrbitTree:
    """Materialize the backward window of x to the given depth.

    Escaping points are rooted at their final escape point (``horizon`` is
    ignored); otherwise the root is f^horizon(x).  On a map passing P1-P4
    (EscapeMapsError otherwise) a point of I_j has a preimage under branch k
    iff A[k][j] = 1, and an escape root one per unit of its incidence row.
    Within a level, nodes sort by label, then by parent, reversed where the
    branch reverses orientation.  Raises OrbitMeetsBoundaryError when the
    orbit touches a partition point: forward, or as a preimage of the root."""
    if depth < 0:
        raise DepthExceedsTreeError("depth must be nonnegative")
    if horizon < 0 or horizon > max_iter:
        raise DepthExceedsTreeError("horizon must satisfy 0 <= horizon <= max_iter")
    m.require_valid()
    base_class = classify_point(m, x, max_iter)
    check_window_root(m, x, base_class, depth)
    preds = m.transition_predecessors
    cycle: list[int] = []
    if isinstance(base_class, Escaped):
        root, root_label = base_class.final_point, None
        root_kids = tuple(k for k, unit in enumerate(base_class.incidence) if unit)
    else:
        # With a detected cycle the orbit stays in verified Markov interiors
        # forever, so any horizon is safe; otherwise stay within the budget
        # that was actually checked.
        if base_class.period is None and horizon > base_class.checked_depth:
            raise DepthExceedsTreeError(
                f"horizon {horizon} exceeds the verified forward depth "
                f"{base_class.checked_depth}"
            )
        orbit = itertools.islice(_forward_orbit(m, x), horizon, horizon + depth + 1)
        root, _, root_label = next(orbit)
        root_kids = preds[root_label - 1]
        # The root is the only node a window can revisit: when f^p(root) =
        # root with p <= depth, expanding f(root) at level p - 1 finds it.
        # ``cycle`` holds the labels on the way back, f^(p-1)(root) first.
        word = [root_label]
        for y, _, label in orbit:
            if y == root:
                cycle = word[::-1]
                break
            word.append(label)

    flips = [b.slope < 0 for b in m.branches]
    depths, parents, labels = [0], [None], [root_label]
    start = 0  # first node of the previous level
    path = 0  # the node on the cycle at the previous level
    for d in range(1, depth + 1):
        # Per branch, the parents at the previous level in value order.
        buckets: list[list[int]] = [[] for _ in flips]
        for idx in range(start, len(parents)):
            for k in preds[labels[idx] - 1] if idx else root_kids:
                buckets[k].append(idx)
        if d == len(cycle):
            buckets[root_label - 1].remove(path)
            parents[0] = path
        start = len(parents)
        for k, bucket in enumerate(buckets):
            if flips[k]:
                bucket.reverse()
            if d < len(cycle) and k == cycle[d - 1] - 1:
                path = len(parents) + bucket.index(path)
            parents.extend(bucket)
            labels.extend([k + 1] * len(bucket))
        depths.extend([d] * (len(parents) - start))

    return OrbitTree(
        map=m,
        base_point=Fraction(x),
        base_class=base_class,
        root_point=root,
        max_depth=depth,
        depths=tuple(depths),
        parents=tuple(parents),
        labels=tuple(labels),
    )


# -- itineraries --------------------------------------------------------


@dataclass(frozen=True)
class Itinerary:
    """Symbolic coding of a forward orbit: Markov interval indices, ended by
    the escape symbol when the orbit escapes.  ``boundary_steps`` flags the
    steps where the orbit sat exactly on a partition point (coding then uses
    the leftmost containing interval and continues)."""

    symbols: tuple[str, ...]
    boundary_steps: tuple[int, ...]
    terminal_gap: int | None


def itinerary(
    m: MarkovMap, x: Fraction, max_iter: int = DEFAULT_MAX_ITER
) -> Itinerary:
    symbols: list[str] = []
    boundary: list[int] = []
    for step, (_, loc, i) in enumerate(_forward_orbit(m, x)):
        if loc.kind == ESCAPE_INTERIOR:
            symbols.append(gap_symbol(loc.index))
            return Itinerary(tuple(symbols), tuple(boundary), loc.index)
        if step >= max_iter:
            break
        if loc.kind == PARTITION_POINT:
            boundary.append(step)
        symbols.append(markov_symbol(i))
    return Itinerary(tuple(symbols), tuple(boundary), None)


# -- serialization ------------------------------------------------------


def point_class_to_jsonable(pc: PointClass) -> dict:
    if isinstance(pc, Escaped):
        return {
            "class": "escaped",
            "escape_time": pc.escape_time,
            "final_point": format_rational(pc.final_point),
            "escape_symbol": gap_symbol(pc.gap_index),
            "incidence": list(pc.incidence),
        }
    if isinstance(pc, BoundaryOrbit):
        return {
            "class": "boundary-orbit",
            "hit_step": pc.hit_step,
            "hit_point": format_rational(pc.hit_point),
        }
    return {
        "class": "undetermined-regular",
        "checked_depth": pc.checked_depth,
        "period": pc.period,
    }


def tree_to_jsonable(tree: OrbitTree) -> dict:
    return {
        "base_point": format_rational(tree.base_point),
        "classification": point_class_to_jsonable(tree.base_class),
        "root": format_rational(tree.root_point),
        "max_depth": tree.max_depth,
        "node_count": tree.node_count,
        "nodes": [
            {
                "id": idx,
                "point": format_rational(tree.points[idx]),
                "depth": tree.depths[idx],
                "branch": tree.labels[idx],
                "parent": tree.parents[idx],
            }
            for idx in range(tree.node_count)
        ],
    }


def tree_to_dot(tree: OrbitTree) -> str:
    """DOT rendering; edges point from each node to its forward image and are
    labeled by the branch applied."""
    lines = ["digraph window {"]
    for idx in range(tree.node_count):
        lines.append(f'  n{idx} [label="{format_rational(tree.points[idx])}"];')
    for idx in range(tree.node_count):
        parent = tree.parents[idx]
        if parent is not None:
            lines.append(f'  n{idx} -> n{parent} [label="{tree.labels[idx]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
