"""Forward orbit classification and truncated backward orbit windows.

A point either escapes (its forward orbit enters an open gap after finitely
many steps), hits a partition point exactly, or stays inside Markov interiors
for the whole iteration budget (with an exact cycle sometimes detected, which
settles non-escape for good).  All point arithmetic is the map's
``IntegerGrid``'s: the orbit runs on reduced (num, den) pairs, one
forward-form step and one ``cell`` lookup each, and an escape point's
closed images come from one ``incidence`` lookup.

The backward window of a point x materializes a finite piece of the
generalized orbit {z : f^k(z) = r} around a root r: the final escape point
r = e(x) when x escapes, or r = f^T(x) for a chosen forward horizon T when it
does not.  Each node's edge to its forward image is labeled by the branch
containing the node, and the shape follows from those labels alone; the
nodes are reduced pairs, each one inverse-form step from its parent.  For
escape roots the window is a genuine tree; for periodic regular roots the
expansion closes a cycle through the root, recorded by its parent pointer.
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import (
    DepthExceedsTreeError,
    OrbitMeetsBoundaryError,
    OutsideAmbientError,
)
from .maps import (DEFAULT_MAX_ITER, ESCAPE_INTERIOR, OUTSIDE, PARTITION_POINT, MarkovMap,
                   check_steps)
from .rationals import Record, exact, format_rational
from .transitions import gap_symbol, markov_symbol


class Escaped(Record):
    """The orbit reaches an open gap: f^escape_time(x) = final_point lies in
    gap ``gap_index``; ``incidence`` is the 0/1 vector saying which closed
    branch images contain the final point."""

    escape_time: int
    final_point: Fraction
    gap_index: int
    incidence: tuple[int, ...]


class BoundaryOrbit(Record):
    """The orbit lands exactly on a partition point at step ``hit_step``."""

    hit_step: int
    hit_point: Fraction


class UndeterminedRegular(Record):
    """No escape and no boundary hit within the budget.  When ``period`` is
    set an exact cycle was detected, so the point provably never escapes."""

    checked_depth: int
    period: int | None = None


PointClass = Escaped | BoundaryOrbit | UndeterminedRegular
Pair = tuple[int, int]


def _forward_orbit(
    m: MarkovMap, x: Fraction
) -> Iterator[tuple[Pair, tuple[str, int | None, int | None]]]:
    """Yield (point, cell) along the forward orbit of x: each point as a
    reduced (num, den) pair and its ``IntegerGrid.cell`` (kind, index,
    branch applied).  An escape point has branch None and ends the orbit.
    Raises OutsideAmbientError when a point is outside the ambient
    interval."""
    cell, forward = m.grid.cell, [form for form, _ in m.grid.forms]
    p, q = exact(x).as_integer_ratio()
    for step in itertools.count():
        c = cell(p, q)
        if c[0] == OUTSIDE:
            raise OutsideAmbientError(
                f"{format_rational(Fraction(p, q))} left the ambient interval at step {step}"
            )
        yield (p, q), c
        if c[2] is None:
            return
        a, b, d = forward[c[2] - 1]
        p, q = a * p + b * q, d * q
        g = gcd(p, q)
        p, q = p // g, q // g


def classify_point(
    m: MarkovMap, x: Fraction, max_iter: int = DEFAULT_MAX_ITER, labels: list | None = None
) -> PointClass:
    """Iterate the map exactly until escape, a partition-point hit, a cycle,
    or the budget runs out; a ``labels`` list gets the branch of each step
    but the last.  Raises OutsideAmbientError for points outside the ambient
    interval and DepthExceedsTreeError for a budget ``check_steps`` refuses."""
    check_steps(max_iter, "max_iter")
    seen: dict[Pair, int] = {}
    for step, (y, (kind, index, label)) in enumerate(_forward_orbit(m, x)):
        if kind == PARTITION_POINT:
            return BoundaryOrbit(step, Fraction(*y))
        if kind == ESCAPE_INTERIOR:
            return Escaped(step, Fraction(*y), index, _row(m.n, m.grid.incidence(*y)))
        if y in seen:
            return UndeterminedRegular(step, step - seen[y])
        seen[y] = step
        if labels is not None:
            labels.append(label)
        if step >= max_iter:
            return UndeterminedRegular(max_iter, None)


@lru_cache(maxsize=1024)
def _row(n: int, mask: int) -> tuple[int, ...]:
    """The 0/1 row over n branches of an incidence mask (one per cell)."""
    return tuple(mask >> i & 1 for i in range(n))


def incidence_cells(
    m: MarkovMap, gap_index: int
) -> tuple[tuple[Fraction, Fraction, tuple[int, ...]], ...]:
    """Subdivide gap ``gap_index`` at the branch-image endpoints falling
    inside it; return the open cells with the (constant) incidence vector of
    each cell interior."""
    cells = m.grid.cells_between(*m.gap_bounds(gap_index))
    return tuple((lo, hi, _row(m.n, mask)) for lo, hi, mask in cells)


# -- backward windows ---------------------------------------------------


class OrbitTree(Record):
    """A finite backward window of a generalized orbit.

    ``depths[i]`` is the node's discovery depth (backward distance from the
    root); ``parents[i]`` the index of the node holding its forward image, or
    None when that image was not materialized (escape roots have no forward
    image at all); ``labels[i]`` the branch whose domain contains the node
    (None exactly for an escape root).  Nodes are stored level by level, in
    value order within a level.  ``pairs`` holds the node values as reduced
    (num, den) pairs and ``points`` as Fractions, both computed on first
    use; they are pairwise distinct, so they form a sub-basis of the
    generalized orbit.
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

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        """Node values as reduced (num, den) pairs: each node is the
        preimage of its parent under the branch of its label, and parents
        come first."""
        inverse = [form for _, form in self.map.grid.forms]
        pairs = [self.root_point.as_integer_ratio()]
        for parent, label in zip(self.parents[1:], self.labels[1:]):
            (p, q), (u, v, w) = pairs[parent], inverse[label - 1]
            p, q = u * p + v * q, w * q
            g = gcd(p, q)
            pairs.append((p // g, q // g))
        return tuple(pairs)

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        """Node values as Fractions, read from ``pairs``."""
        return tuple([Fraction(p, q) for p, q in self.pairs])

    def interior_indices(self) -> tuple[int, ...]:
        """Nodes whose preimages were fully expanded: discovery depth at most
        max_depth - 1."""
        return tuple(range(bisect.bisect_left(self.depths, self.max_depth)))


def window_classes(
    m: MarkovMap,
    points: Iterable[Fraction],
    depth: int,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[PointClass, ...]:
    """The forward class of each point, after the checks that every window
    request runs, in this order: both budgets ``check_steps`` (depth first),
    the map passes P1-P4 (EscapeMapsError otherwise), every point is
    classified, and then every window is defined.  A window is undefined,
    and OrbitMeetsBoundaryError is raised, when the forward orbit hits a
    partition point, or when depth >= 1 and a preimage of the escape root
    is one.  P2 keeps every other preimage off the partition points, but a
    partially covering image can end exactly at the escape root."""
    check_steps(depth, "depth")
    check_steps(max_iter, "max_iter")
    m.require_valid()
    points = tuple(points)
    classes = tuple(classify_point(m, x, max_iter) for x in points)
    for x, pc in zip(points, classes):
        if isinstance(pc, BoundaryOrbit):
            raise OrbitMeetsBoundaryError(
                f"forward orbit of {format_rational(x)} hits partition point "
                f"{format_rational(pc.hit_point)} at step {pc.hit_step}"
            )
        if not (isinstance(pc, Escaped) and depth):
            continue
        e = pc.final_point.as_integer_ratio()
        for k in itertools.compress(range(1, m.n + 1), pc.incidence):
            z = m.grid.preimage(k, *e)
            if m.grid.cell(*z)[0] == PARTITION_POINT:
                raise OrbitMeetsBoundaryError(
                    f"preimage {format_rational(Fraction(*z))} of window node "
                    f"{format_rational(pc.final_point)} under "
                    f"branch {k} is a partition point; the window is undefined"
                )
    return classes


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
    for value, label in ((depth, "depth"), (max_iter, "max_iter"), (horizon, "horizon")):
        check_steps(value, label)
    if horizon > max_iter:
        raise DepthExceedsTreeError("horizon must satisfy 0 <= horizon <= max_iter")
    (base_class,) = window_classes(m, (x,), depth, max_iter)
    preds = m.transition_predecessors
    cycle: list[int] = []
    if isinstance(base_class, Escaped):
        root, root_label = base_class.final_point, None
        root_kids = tuple(k for k, unit in enumerate(base_class.incidence) if unit)
    else:
        # horizon <= max_iter, so f^horizon(x) lies on the classified orbit.
        orbit = itertools.islice(_forward_orbit(m, x), horizon, horizon + depth + 1)
        pair, (_, _, root_label) = next(orbit)
        root, root_kids = Fraction(*pair), preds[root_label - 1]
        # The root is the only node a window can revisit: when f^p(root) =
        # root with p <= depth, expanding f(root) at level p - 1 finds it.
        # ``cycle`` holds the labels on the way back, f^(p-1)(root) first.
        word = [root_label]
        for y, (_, _, label) in orbit:
            if y == pair:
                cycle = word[::-1]
                break
            word.append(label)

    flips = [b.slope.numerator < 0 for b in m.branches]
    depths, parents, labels = [0], [None], [root_label]
    start = 0  # first node of the previous level
    path = 0  # the node on the cycle at the previous level
    for d in range(1, depth + 1):
        # Per branch reached, the parents at the previous level in value order.
        buckets: defaultdict[int, list[int]] = defaultdict(list)
        for idx in range(start, len(parents)):
            for k in preds[labels[idx] - 1] if idx else root_kids:
                buckets[k].append(idx)
        if d == len(cycle):
            buckets[root_label - 1].remove(path)
            parents[0] = path
        start = len(parents)
        for k, bucket in sorted(buckets.items()):
            if flips[k]:
                bucket.reverse()
            if d < len(cycle) and k == cycle[d - 1] - 1:
                path = len(parents) + bucket.index(path)
            parents.extend(bucket)
            labels.extend([k + 1] * len(bucket))
        depths.extend([d] * (len(parents) - start))

    return OrbitTree(
        map=m,
        base_point=exact(x),
        base_class=base_class,
        root_point=root,
        max_depth=depth,
        depths=tuple(depths),
        parents=tuple(parents),
        labels=tuple(labels),
    )


# -- itineraries --------------------------------------------------------


class Itinerary(Record):
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
    """The symbols of at most ``max_iter`` forward steps of x, then the escape
    symbol if it escapes.  A budget that ``check_steps`` refuses raises
    DepthExceedsTreeError."""
    check_steps(max_iter, "max_iter")
    symbols: list[str] = []
    boundary: list[int] = []
    for step, (_, (kind, index, i)) in enumerate(_forward_orbit(m, x)):
        if kind == ESCAPE_INTERIOR:
            symbols.append(gap_symbol(index))
            return Itinerary(tuple(symbols), tuple(boundary), index)
        if step >= max_iter:
            break
        if kind == PARTITION_POINT:
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
