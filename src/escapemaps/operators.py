"""Partial-isometry representations on backward orbit windows.

On the finite basis given by a window's points, every operator here is a 0/1
partial permutation matrix, held as plain index data: a partial isometry is a
dict from source to target basis index, and a projection is the frozenset of
basis indices it fixes.  All algebra is exact set combinatorics:

  * transfer(i)        |y> -> |f_i^{-1}(y)>   for y in the closed image of I_i
  * edge_isometry(i,j) |y> -> |f_i^{-1}(y)>   for y in I_j (defined per unit
                        transition entry (i, j))
  * vertex_projection(i)  the nodes in I_i
  * image_projection(i)   the nodes in the closed image of I_i

The preimage f_i^{-1}(y) is read off the window as the child of y labelled i;
a child has one parent and a parent at most one child per label, so every
isometry is injective.  For an isometry s, s*s and ss* are the projections
onto ``s.keys()`` and ``s.values()``.  Relations are checked on the window
interior (nodes whose preimages are fully materialized); the vertex-sum
relation additionally needs the node's forward image inside the window, which
excludes a non-periodic regular root.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    NotAdmissibleError,
    NotAnEscapePointError,
    WindowTooShallowError,
)
from .maps import MapStructureError, check_index, is_index
from .orbits import Escaped, OrbitTree, PointClass
from .rationals import format_rational


@dataclass(frozen=True, eq=False)
class Representation:
    """All operators realized on one window.  ``incidence`` is the escape
    incidence vector of the window root (None for regular windows)."""

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
        """The child labelled i of each interior node, keyed by the node."""
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
        """Per vertex i (at index i - 1), the support of the sum of ss* over
        the edges s leaving i."""
        ranges: list[set[int]] = [set() for _ in range(self.n)]
        for (i, _), s in self.edge_isometries.items():
            assert ranges[i - 1].isdisjoint(s.values()), "edge ranges must be orthogonal"
            ranges[i - 1].update(s.values())
        return tuple(frozenset(r) for r in ranges)

    def point_strings(self, indices: Iterable[int]) -> tuple[str, ...]:
        pts = sorted(self.tree.points[idx] for idx in indices)
        return tuple(format_rational(p) for p in pts)


def realize(tree: OrbitTree) -> Representation:
    """Build the edge isometries and projections on the window's basis in one
    pass over its parent and label arrays (``Representation.transfer`` reads
    those arrays on request).  An interior node y has every preimage
    materialized (a root whose cycle closes through itself included), so
    f_i^{-1}(y) is the child of y labelled i."""
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
    # A node of I_j lies in f(I_i) iff A[i][j] = 1; the escape root lies there
    # iff its incidence is 1 at i.  image_decomposition_check confirms this
    # against the closed images.
    image_projections = tuple(
        frozenset(
            [idx for j, unit in enumerate(row) if unit for idx in by_label[j]]
            + ([0] if incidence is not None and incidence[i] else [])
        )
        for i, row in enumerate(markov)
    )

    # The vertex-sum relation speaks about a node's forward image, so it can
    # only be checked where that image is materialized: everywhere on the
    # interior except a regular root whose image never entered the window.
    check_domain = interior
    if incidence is None and tree.parents[0] is None:
        check_domain = interior - {0}

    return Representation(
        tree=tree,
        edge_isometries=edge_isometries,
        vertex_projections=tuple(frozenset(nodes) for nodes in by_label),
        image_projections=image_projections,
        incidence=incidence,
        interior=interior,
        check_domain=check_domain,
    )


# -- relation checks ----------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    """One verified relation instance.  ``witnesses`` lists the basis points
    where the relation fails (empty when it passes)."""

    kind: str
    edge: tuple[int, int] | None
    vertex: int | None
    passed: bool
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]

    _json = ("all_passed",)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def check_relations(rep: Representation, vertices: Iterable[int]) -> RelationReport:
    """Verify the defining relations on the window.

    Per transition edge e = (i, j): the isometry relation s*s = p_j and the
    range bound p_i ss* = ss*, both on the interior.  Per requested vertex v:
    the vertex-sum relation p_v = sum of ss* over edges leaving v, on the
    domain where forward images are materialized.  For an isometry s, s*s
    and ss* are the projections onto its keys and its values.
    """
    vlist = _validated_vertices(vertices, rep.n)
    supports, domain = rep.vertex_projections, rep.check_domain
    interior_supports = [support & rep.interior for support in supports]
    checks = []

    def check(kind, edge, vertex, lhs, rhs) -> None:
        """A relation holds when its two sides are equal; otherwise its
        witnesses are the points of their symmetric difference."""
        passed = lhs == rhs
        witnesses = () if passed else rep.point_strings(lhs ^ rhs)
        checks.append(RelationCheck(kind, edge, vertex, passed, witnesses))

    for (i, j), s in sorted(rep.edge_isometries.items()):
        check("edge-isometry", (i, j), None, s.keys(), interior_supports[j - 1])
        values = set(s.values())
        check("edge-range", (i, j), None, values, values & supports[i - 1])
    for v in vlist:
        check("vertex-sum", None, v, supports[v - 1] & domain, rep.edge_ranges[v - 1] & domain)
    return RelationReport(tuple(checks))


def _validated_vertices(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    """The vertex set sorted and de-duplicated: ints (``is_index``) in 1..n."""
    vlist = list(vertices)
    if not all(map(is_index, vlist)):
        raise MapStructureError(f"vertices must be integers, got {vlist}")
    vset = sorted(set(vlist))
    bad = [v for v in vset if not 1 <= v <= n]
    if bad:
        raise MapStructureError(f"vertices out of range 1..{n}: {bad}")
    return tuple(vset)


def gap_projection(rep: Representation, i: int) -> frozenset[int]:
    """The defect p_i - sum of ss* over edges leaving i, as a projection on
    the checkable domain.  For an escape window this is nonzero exactly when
    the root lies in the closed image of I_i, where it fixes the single point
    f_i^{-1}(root)."""
    return (rep.vertex_projection(i) & rep.check_domain) - rep.edge_ranges[i - 1]


def projection_sum_is_identity(rep: Representation) -> bool:
    """Whether the vertex projections resolve the identity on the interior
    (true for regular windows; an escape root lies in no interval)."""
    union: set[int] = set()
    for i in range(1, rep.n + 1):
        support = rep.vertex_projection(i)
        assert not (union & support), "vertex projections must be orthogonal"
        union |= support
    return rep.interior <= union


@dataclass(frozen=True)
class ImageDecompositionReport:
    passed: bool
    failures: tuple[str, ...]


def image_decomposition_check(rep: Representation) -> ImageDecompositionReport:
    """Check, on the interior, the decomposition of each image projection:
    q_i = sum of p_j over unit transitions (i, j), plus the root projection
    when the escape root lies in the closed image of I_i.  ``realize`` builds
    q_i by that formula, so this compares it with exact closed-image
    membership of the interior nodes: one ``IntegerGrid.incidence`` lookup
    of each node's pair.

    It also checks each window edge z -> y labelled i once, forwards:
    f_i(z) = y with y in the closed image of I_i, so that z is the preimage
    f_i^{-1}(y) under the branch.  An interior node that is no edge's child,
    such as a regular root whose forward image is not in the window, has
    f_i^{-1}(f_i(z)) = z exactly when f_i(z) lies in that image, that is,
    when z lies in the closed interval I_i; that is checked directly."""
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
            texts.append(f"branch {i} round trip fails at {tree.points[idx]}")
    return ImageDecompositionReport(not texts, tuple(texts))


# -- admissibility and faithfulness -------------------------------------


def admissible(pc: PointClass, vertices: Iterable[int]) -> bool:
    """Whether the escape point misses every closed branch image indexed by
    ``vertices`` (incidence zero on the whole set)."""
    if not isinstance(pc, Escaped):
        raise NotAnEscapePointError(
            "admissibility is defined for escaping points only"
        )
    vlist = _validated_vertices(vertices, len(pc.incidence))
    return all(pc.incidence[v - 1] == 0 for v in vlist)


@dataclass(frozen=True)
class NonvanishingCheck:
    kind: str
    vertex: int
    ok: bool


@dataclass(frozen=True)
class Certificate:
    """Faithfulness certificate for the algebra associated with a vertex set.

    ``faithful`` holds exactly when, beyond admissibility, every vertex
    outside the set has incidence one.  The nonvanishing checks confirm on
    the finite window the facts the certificate rests on: no vertex
    projection vanishes, and outside the vertex set both the gap defect and
    the edge-range sum are nonzero."""

    vertices: tuple[int, ...]
    incidence: tuple[int, ...]
    faithful: bool
    complement_misses: tuple[int, ...]
    nonvanishing: tuple[NonvanishingCheck, ...]

    admissible = True  # certificates are only issued for admissible sets
    _json = ("admissible", "all_verified")

    @property
    def all_verified(self) -> bool:
        return all(check.ok for check in self.nonvanishing)


def faithfulness_certificate(
    rep: Representation, vertices: Iterable[int]
) -> Certificate:
    """Certificate for an admissible vertex set on an escape window.

    Raises NotAnEscapePointError for regular windows, NotAdmissibleError when
    the vertex set is not admissible, and WindowTooShallowError below depth 2
    (the nonvanishing facts need at least the root's grandchildren)."""
    if rep.incidence is None:
        raise NotAnEscapePointError(
            "faithfulness certificates are defined on escape windows"
        )
    vlist = _validated_vertices(vertices, rep.n)
    hits = [v for v in vlist if rep.incidence[v - 1] == 1]
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
    faithful = not complement_misses
    nonvanishing = []
    for i in range(1, rep.n + 1):
        nonvanishing.append(
            NonvanishingCheck(
                "vertex-projection", i, bool(rep.vertex_projection(i))
            )
        )
    for k in complement:
        nonvanishing.append(
            NonvanishingCheck("gap-projection", k, bool(gap_projection(rep, k)))
        )
        nonvanishing.append(
            NonvanishingCheck("edge-range-sum", k, bool(rep.edge_ranges[k - 1]))
        )
    return Certificate(
        vertices=vlist,
        incidence=rep.incidence,
        faithful=faithful,
        complement_misses=complement_misses,
        nonvanishing=tuple(nonvanishing),
    )


@dataclass(frozen=True)
class QuotientWitness:
    """Evidence that a representation admissible for the larger vertex set
    kills the gap defect of a vertex outside the smaller one, so it cannot be
    faithful for the smaller set's algebra."""

    vertex: int
    gap_vanishes: bool


def quotient_nonfaithfulness_demo(
    rep: Representation, inner: Iterable[int], outer: Iterable[int]
) -> QuotientWitness:
    """For nested vertex sets inner < outer and a window admissible for
    ``outer``: pick a vertex of outer - inner and exhibit its vanishing gap
    defect.  Only tests call it; it stays in the library because the
    acceptance gate (criterion 4) asserts its witness."""
    inner_set = set(_validated_vertices(inner, rep.n))
    outer_set = set(_validated_vertices(outer, rep.n))
    if not inner_set < outer_set:
        raise MapStructureError("inner vertex set must be a proper subset of outer")
    if rep.incidence is None:
        raise NotAnEscapePointError("demonstration needs an escape window")
    if not admissible(rep.tree.base_class, outer_set):
        raise NotAdmissibleError("outer vertex set is not admissible")
    vertex = min(outer_set - inner_set)
    return QuotientWitness(vertex, not gap_projection(rep, vertex))
