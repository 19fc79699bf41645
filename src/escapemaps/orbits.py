"""Forward orbit classification and truncated backward orbit windows.

A point either escapes (its forward orbit enters an open gap after finitely
many steps), hits a partition point exactly, or stays inside Markov interiors
for the whole iteration budget (with an exact cycle sometimes detected, which
settles non-escape for good).

The backward window of a point x materializes a finite piece of the
generalized orbit {z : f^k(z) = r} around a root r: the final escape point
r = e(x) when x escapes, or r = f^T(x) for a chosen forward horizon T when it
does not.  Nodes are points; each node's edge to its forward image is labeled
by the branch containing the node.  For escape roots the window is a genuine
tree; for periodic regular roots the preimage expansion can close a cycle
through the root, which the window records via the root's parent pointer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


def classify_point(
    m: MarkovMap, x: Fraction, max_iter: int = DEFAULT_MAX_ITER
) -> PointClass:
    """Iterate the map exactly until escape, a partition-point hit, a cycle,
    or the budget runs out.  Raises OutsideAmbientError for points outside the
    ambient interval."""
    y = Fraction(x)
    seen: dict[Fraction, int] = {}
    for step in range(max_iter + 1):
        loc = m.locate(y)
        if loc.kind == OUTSIDE:
            raise OutsideAmbientError(f"{y} left the ambient interval at step {step}")
        if loc.kind == PARTITION_POINT:
            return BoundaryOrbit(step, y)
        if loc.kind == ESCAPE_INTERIOR:
            return Escaped(step, y, loc.index, escape_incidence(m, y))
        if y in seen:
            return UndeterminedRegular(step, step - seen[y])
        seen[y] = step
        if step == max_iter:
            break
        y = m.branches[loc.index - 1].value_at(y)
    return UndeterminedRegular(max_iter, None)


def escape_incidence(m: MarkovMap, e: Fraction) -> tuple[int, ...]:
    """0/1 vector over branches: unit at i iff the escape point e lies in the
    closed image of I_i.  Requires e strictly inside an open gap."""
    e = Fraction(e)
    loc = m.locate(e)
    if loc.kind != ESCAPE_INTERIOR:
        raise NotAnEscapePointError(f"{e} is not strictly inside an open gap")
    return tuple(1 if lo <= e <= hi else 0 for lo, hi in m.images)


def incidence_cells(
    m: MarkovMap, gap_index: int
) -> tuple[tuple[Fraction, Fraction, tuple[int, ...]], ...]:
    """Subdivide gap ``gap_index`` at the branch-image endpoints falling
    inside it; return the open cells with the (constant) incidence vector of
    each cell interior."""
    glo, ghi = m.gap_bounds(gap_index)
    cuts = {glo, ghi}
    for image in m.images:
        for endpoint in image:
            if glo < endpoint < ghi:
                cuts.add(endpoint)
    ordered = sorted(cuts)
    cells = []
    for lo, hi in zip(ordered, ordered[1:]):
        mid = (lo + hi) / 2
        cells.append((lo, hi, escape_incidence(m, mid)))
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

    ``points[i]`` is the node's value; ``depths[i]`` its discovery depth
    (backward distance from the root); ``parents[i]`` the index of the node
    holding f(points[i]), or None when the forward image was not materialized
    (escape roots have no forward image at all); ``labels[i]`` the branch
    whose domain contains the node (None exactly for an escape root).  Node
    points are pairwise distinct, so the points form a sub-basis of the
    generalized orbit.
    """

    map: MarkovMap
    base_point: Fraction
    base_class: PointClass
    root_point: Fraction
    max_depth: int
    points: tuple[Fraction, ...]
    depths: tuple[int, ...]
    parents: tuple[int | None, ...]
    labels: tuple[int | None, ...]

    @property
    def node_count(self) -> int:
        return len(self.points)

    @property
    def is_escape_window(self) -> bool:
        return isinstance(self.base_class, Escaped)

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.points]
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                out[parent].append(idx)
        return tuple(tuple(sorted(kids)) for kids in out)

    def children(self, idx: int) -> tuple[int, ...]:
        """Indices of nodes whose forward image is node ``idx``."""
        return self._children[idx]

    def children_by_label(self, idx: int) -> dict[int, int]:
        """Branch label -> child index; labels are unique among children."""
        out: dict[int, int] = {}
        for child in self.children(idx):
            label = self.labels[child]
            assert label is not None and label not in out
            out[label] = child
        return out

    def interior_indices(self) -> tuple[int, ...]:
        """Nodes whose preimages were fully expanded: discovery depth at most
        max_depth - 1."""
        return tuple(
            idx for idx, d in enumerate(self.depths) if d <= self.max_depth - 1
        )

    def index_of(self, point: Fraction) -> int:
        return self.points.index(Fraction(point))


def _iterate_forward(m: MarkovMap, x: Fraction, steps: int) -> Fraction:
    y = Fraction(x)
    for _ in range(steps):
        loc = m.locate(y)
        assert loc.kind == MARKOV_INTERIOR
        y = m.branches[loc.index - 1].value_at(y)
    return y


def build_orbit_tree(
    m: MarkovMap,
    x: Fraction,
    depth: int,
    max_iter: int = DEFAULT_MAX_ITER,
    horizon: int = 0,
) -> OrbitTree:
    """Materialize the backward window of x to the given depth.

    Escaping points are rooted at their final escape point (``horizon`` is
    ignored); otherwise the root is f^horizon(x).  Raises
    OrbitMeetsBoundaryError when the orbit (forward, or any materialized
    preimage) touches a partition point, since those orbits carry no
    representation."""
    if depth < 0:
        raise DepthExceedsTreeError("depth must be nonnegative")
    if horizon < 0 or horizon > max_iter:
        raise DepthExceedsTreeError("horizon must satisfy 0 <= horizon <= max_iter")
    base_class = classify_point(m, x, max_iter)
    if isinstance(base_class, BoundaryOrbit):
        raise OrbitMeetsBoundaryError(
            f"forward orbit of {x} hits partition point "
            f"{base_class.hit_point} at step {base_class.hit_step}"
        )
    if isinstance(base_class, Escaped):
        root = base_class.final_point
        root_label = None
    else:
        # With a detected cycle the orbit stays in verified Markov interiors
        # forever, so any horizon is safe; otherwise stay within the budget
        # that was actually checked.
        if base_class.period is None and horizon > base_class.checked_depth:
            raise DepthExceedsTreeError(
                f"horizon {horizon} exceeds the verified forward depth "
                f"{base_class.checked_depth}"
            )
        root = _iterate_forward(m, x, horizon)
        root_label = m.locate(root).index

    boundary = set(m.partition_points)
    points: list[Fraction] = [root]
    depths: list[int] = [0]
    parents: list[int | None] = [None]
    labels: list[int | None] = [root_label]
    index: dict[Fraction, int] = {root: 0}
    frontier = [0]
    escape_window = isinstance(base_class, Escaped)

    for level in range(1, depth + 1):
        new_entries: list[tuple[Fraction, int, int]] = []
        for parent_idx in frontier:
            y = points[parent_idx]
            for i, (lo, hi) in enumerate(m.images, start=1):
                if not lo <= y <= hi:
                    continue
                z = m.branch_inverse(i, y)
                assert z is not None
                if z in boundary:
                    raise OrbitMeetsBoundaryError(
                        f"preimage {z} of window node {y} under branch {i} "
                        f"is a partition point; the window is undefined"
                    )
                if z in index:
                    existing = index[z]
                    assert not escape_window, "escape windows cannot revisit points"
                    if existing == 0 and parents[0] is None:
                        # The expansion found the root's own forward image:
                        # close the cycle through the root.
                        assert labels[0] == i
                        parents[0] = parent_idx
                    else:
                        assert parents[existing] == parent_idx
                    continue
                new_entries.append((z, parent_idx, i))
        new_entries.sort(key=lambda entry: entry[0])
        frontier = []
        for z, parent_idx, label in new_entries:
            index[z] = len(points)
            frontier.append(len(points))
            points.append(z)
            depths.append(level)
            parents.append(parent_idx)
            labels.append(label)

    return OrbitTree(
        map=m,
        base_point=Fraction(x),
        base_class=base_class,
        root_point=root,
        max_depth=depth,
        points=tuple(points),
        depths=tuple(depths),
        parents=tuple(parents),
        labels=tuple(labels),
    )


def truncate_tree(tree: OrbitTree, depth: int) -> OrbitTree:
    """Restrict a window to nodes of discovery depth at most ``depth``."""
    if depth > tree.max_depth:
        raise DepthExceedsTreeError(
            f"truncation depth {depth} exceeds the materialized depth "
            f"{tree.max_depth}"
        )
    if depth < 0:
        raise DepthExceedsTreeError("depth must be nonnegative")
    keep = [idx for idx, d in enumerate(tree.depths) if d <= depth]
    remap = {old: new for new, old in enumerate(keep)}

    def remap_parent(old_parent: int | None) -> int | None:
        if old_parent is None or old_parent not in remap:
            return None
        return remap[old_parent]

    return OrbitTree(
        map=tree.map,
        base_point=tree.base_point,
        base_class=tree.base_class,
        root_point=tree.root_point,
        max_depth=depth,
        points=tuple(tree.points[idx] for idx in keep),
        depths=tuple(tree.depths[idx] for idx in keep),
        parents=tuple(remap_parent(tree.parents[idx]) for idx in keep),
        labels=tuple(tree.labels[idx] for idx in keep),
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
    y = Fraction(x)
    symbols: list[str] = []
    boundary: list[int] = []
    for step in range(max_iter + 1):
        loc = m.locate(y)
        if loc.kind == OUTSIDE:
            raise OutsideAmbientError(f"{y} is outside the ambient interval")
        if loc.kind == ESCAPE_INTERIOR:
            symbols.append(gap_symbol(loc.index))
            return Itinerary(tuple(symbols), tuple(boundary), loc.index)
        if step == max_iter:
            break
        if loc.kind == PARTITION_POINT:
            boundary.append(step)
            containing = m.containing_intervals(y)
            i = containing[0]
        else:
            i = loc.index
        symbols.append(markov_symbol(i))
        y = m.branches[i - 1].value_at(y)
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
