"""Partial-isometry representations on backward orbit windows.

On the finite basis given by a window's points, every operator here is a 0/1
partial permutation matrix, held as int bit masks with one bit per basis
index: a projection is the mask of the basis indices it fixes, and a partial
isometry is the pair of masks of its sources and its targets.  The isometry
of a unit transition entry (i, j) sends y in I_j to f_i^{-1}(y), which the
window holds as the child of y labelled i; a child has one parent and a
parent at most one child per label, so every isometry is injective and its
two masks determine it.  For an isometry s, s*s and ss* are the projections
onto its sources and its targets.  Relations are checked on the window
interior (nodes whose preimages are fully materialized); the vertex-sum
relation additionally needs the node's forward image inside the window, which
excludes a non-periodic regular root.  All algebra is exact bit arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable, Mapping

from .errors import (
    InconsistentInputsError,
    NotAdmissibleError,
    NotAnEscapePointError,
    WindowTooShallowError,
)
from .maps import MapStructureError, check_index, is_index
from .orbits import Escaped, OrbitTree, PointClass
from .rationals import Record, format_rational


def _mask(indices: list[int], size: int) -> int:
    """The bit mask of the given basis indices, all below ``size``, built in
    time linear in ``size``: one ASCII digit per basis index, read once as a
    base-2 literal.  (Setting the bits one at a time copies the growing int
    at each step.)  An empty list costs nothing."""
    if not indices:
        return 0
    digits = bytearray(b"0") * size
    for idx in indices:
        digits[idx] = 49  # ord("1")
    return int(digits[::-1], 2)


# The digits "0" and "1" as the bytes 0 and 1, which ``compress`` reads.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _indices(mask: int) -> list[int]:
    """The basis indices whose bits are set in ``mask``, in increasing order."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(itertools.compress(range(len(bits)), bits))


class Representation(Record, eq=False):
    """All operators realized on one window, as bit masks over its basis.
    ``edge_masks`` maps each transition edge (i, j) to the source and target
    masks of its isometry.  ``incidence`` is the escape incidence vector of
    the window root (None for regular windows)."""

    tree: OrbitTree
    edge_masks: Mapping[tuple[int, int], tuple[int, int]]
    vertex_masks: tuple[int, ...]
    image_masks: tuple[int, ...]
    incidence: tuple[int, ...] | None
    interior_mask: int
    domain_mask: int

    @property
    def n(self) -> int:
        return self.tree.map.n

    @property
    def dim(self) -> int:
        return self.tree.node_count

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edge_masks))

    @functools.cached_property
    def range_masks(self) -> tuple[int, ...]:
        """Per vertex i (at index i - 1), the support of the sum of ss* over
        the edges s leaving i."""
        ranges = [0] * self.n
        for (i, _), (_, targets) in self.edge_masks.items():
            if targets:
                assert not ranges[i - 1] & targets, "edge ranges must be orthogonal"
                ranges[i - 1] |= targets
        return tuple(ranges)

    def point_strings(self, indices: Iterable[int]) -> tuple[str, ...]:
        pts = sorted(self.tree.points[idx] for idx in indices)
        return tuple(format_rational(p) for p in pts)


def realize(tree: OrbitTree) -> Representation:
    """Build the edge isometries and projections on the window's basis in one
    pass over its parent and label arrays.  An interior node y has every
    preimage materialized (a root whose cycle closes through itself
    included), so f_i^{-1}(y) is the child of y labelled i.  Per label, the pass lists three
    sets of nodes, each becomes a mask once, and each edge is two ANDs of
    them.  Every edge is an isometry because a point has at most one
    preimage per branch, so a window in which a parent has two children of
    one label raises InconsistentInputsError."""
    # Row i of A has a unit at j iff i is among the predecessors of j.
    predecessors = tree.map.transition_predecessors
    n, dim = len(predecessors), tree.node_count
    # Nodes are stored level by level, so the interior is a prefix of them.
    inner = len(tree.interior_indices())
    parents, labels = tree.parents, tree.labels

    # Per label i: the nodes labelled i, the nodes whose interior parent is
    # labelled i, and the interior parents of the nodes labelled i.
    labelled, children, parents_of = ([[] for _ in range(n)] for _ in range(3))
    for idx, (parent, i) in enumerate(zip(parents, labels)):
        if i is None:
            continue
        labelled[i - 1].append(idx)
        if parent is not None and parent < inner:
            parents_of[i - 1].append(parent)
            if labels[parent] is not None:
                children[labels[parent] - 1].append(idx)
    vertex_masks, child_masks, parent_masks = (
        tuple(_mask(nodes, dim) if nodes else 0 for nodes in lists)
        for lists in (labelled, children, parents_of)
    )
    for i, (mask, nodes) in enumerate(zip(parent_masks, parents_of), start=1):
        if mask.bit_count() < len(nodes):
            ((twice, _),) = Counter(nodes).most_common(1)
            raise InconsistentInputsError(f"node {twice} has two children labelled {i}, "
                                          "but a point has at most one preimage per branch")
    # The targets of edge (i, j) are the nodes labelled i whose parent is
    # labelled j, and its sources are those parents; none without a node in I_j.
    edge_masks = tree.map.transition_edges.copy()
    for j, sources in enumerate(vertex_masks):
        for i in predecessors[j] if sources else ():
            edge_masks[i + 1, j + 1] = sources & parent_masks[i], vertex_masks[i] & child_masks[j]

    incidence = tree.base_class.incidence if isinstance(tree.base_class, Escaped) else None
    # A node of I_j lies in f(I_i) iff A[i][j] = 1; the escape root lies there
    # iff its incidence is 1 at i.  image_decomposition_check confirms this
    # against the closed images.
    image_masks = [int(incidence is not None and incidence[i] == 1) for i in range(n)]
    for support, rows in zip(vertex_masks, predecessors):
        for i in rows if support else ():
            image_masks[i] |= support

    # The vertex-sum relation speaks about a node's forward image, so it can
    # only be checked where that image is materialized: everywhere on the
    # interior except a regular root whose image never entered the window.
    interior_mask = (1 << inner) - 1
    domain_mask = interior_mask
    if incidence is None and parents[0] is None:
        domain_mask &= ~1

    return Representation(
        tree=tree,
        edge_masks=edge_masks,
        vertex_masks=vertex_masks,
        image_masks=tuple(image_masks),
        incidence=incidence,
        interior_mask=interior_mask,
        domain_mask=domain_mask,
    )


# -- relation checks ----------------------------------------------------


class RelationCheck(Record):
    """One verified relation instance.  ``witnesses`` lists the basis points
    where the relation fails (empty when it passes)."""

    kind: str
    edge: tuple[int, int] | None
    vertex: int | None
    passed: bool
    witnesses: tuple[str, ...]


class RelationReport:
    """The verdicts of ``check_relations``.  Only the failing relations are
    kept, each with the mask of the basis indices where it fails; ``checks``
    lists every relation instance, passing ones included, when first read."""

    _json = ("checks", "all_passed")

    def __init__(
        self,
        rep: Representation,
        edges: list[tuple[int, int]],
        vertices: tuple[int, ...],
        failures: dict[tuple, int],
    ) -> None:
        self._rep, self._edges, self._vertices = rep, edges, vertices
        self._failures = failures

    @property
    def all_passed(self) -> bool:
        return not self._failures

    @functools.cached_property
    def checks(self) -> tuple[RelationCheck, ...]:
        """Per edge in order the edge-isometry and edge-range relations, then
        the vertex-sum relation per vertex."""
        relations = [(kind, edge, None) for edge in self._edges
                     for kind in ("edge-isometry", "edge-range")]
        relations += [("vertex-sum", None, v) for v in self._vertices]
        checks = []
        for key in relations:
            diff = self._failures.get(key, 0)
            witnesses = self._rep.point_strings(_indices(diff)) if diff else ()
            checks.append(RelationCheck(*key, not diff, witnesses))
        return tuple(checks)


def check_relations(rep: Representation, vertices: Iterable[int]) -> RelationReport:
    """Verify the defining relations on the window.

    Per transition edge e = (i, j): the isometry relation s*s = p_j and the
    range bound p_i ss* = ss*, both on the interior.  Per requested vertex v:
    the vertex-sum relation p_v = sum of ss* over edges leaving v, on the
    domain where forward images are materialized.  For an isometry s, s*s
    and ss* are the projections onto its sources and its targets.  A
    relation holds when its two sides are equal; otherwise its witnesses are
    the points of their symmetric difference.
    """
    vlist = _validated_vertices(vertices, rep.n)
    supports, interior, domain = rep.vertex_masks, rep.interior_mask, rep.domain_mask
    edges = sorted(rep.edge_masks)
    failures = {}
    for edge in edges:
        sources, targets = rep.edge_masks[edge]
        if diff := sources ^ (supports[edge[1] - 1] & interior):
            failures["edge-isometry", edge, None] = diff
        if diff := targets & ~supports[edge[0] - 1]:
            failures["edge-range", edge, None] = diff
    for v in vlist:
        if diff := (supports[v - 1] ^ rep.range_masks[v - 1]) & domain:
            failures["vertex-sum", None, v] = diff
    return RelationReport(rep, edges, vlist, failures)


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
    check_index(i, rep.n, "vertex")
    return frozenset(_indices(_gap_mask(rep, i)))


def _gap_mask(rep: Representation, i: int) -> int:
    return rep.vertex_masks[i - 1] & rep.domain_mask & ~rep.range_masks[i - 1]


def projection_sum_is_identity(rep: Representation) -> bool:
    """Whether the vertex projections resolve the identity on the interior
    (true for regular windows; an escape root lies in no interval)."""
    union = 0
    for support in rep.vertex_masks:
        assert not union & support, "vertex projections must be orthogonal"
        union |= support
    return not rep.interior_mask & ~union


class ImageDecompositionReport(Record):
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
    f_i^{-1}(y) under the branch: (a*p + b*q)*t == d*q*s for z = p/q, y =
    s/t and the forward form (a, b, d).  An interior node that is no edge's
    child, such as a regular root whose forward image is not in the window,
    has f_i^{-1}(f_i(z)) = z exactly when f_i(z) lies in that image, that
    is, when z lies in the closed interval I_i; that is checked directly."""
    tree, grid = rep.tree, rep.tree.map.grid
    pairs, incidence = tree.pairs, grid.incidence
    masks = {idx: incidence(*pairs[idx]) for idx in _indices(rep.interior_mask)}
    by_mask: dict[int, list[int]] = {}
    for idx, mask in masks.items():
        by_mask.setdefault(mask, []).append(idx)
    # The interior nodes of each closed-image incidence, as one basis mask.
    groups = [(mask, _mask(nodes, rep.dim)) for mask, nodes in by_mask.items()]
    texts = []
    for i, q in enumerate(rep.image_masks, start=1):
        exact = 0
        for mask, nodes in groups:
            if mask >> (i - 1) & 1:
                exact |= nodes
        if diff := exact ^ (q & rep.interior_mask):
            texts.append(
                f"image projection {i} mismatch at: "
                + ", ".join(rep.point_strings(_indices(diff)))
            )
    forward = [form for form, _ in grid.forms]
    for idx, (parent, i) in enumerate(zip(tree.parents, tree.labels)):
        if i is None or (parent is None and idx not in masks):
            continue
        if parent is None:
            mask = incidence(*grid.image(i, *pairs[idx]))
        else:
            (a, b, d), (p, q), (s, t) = forward[i - 1], pairs[idx], pairs[parent]
            mask = masks[parent] if (a * p + b * q) * t == d * q * s else 0
        if not mask >> (i - 1) & 1:
            (point,) = rep.point_strings((idx,))
            texts.append(f"branch {i} round trip fails at {point}")
    return ImageDecompositionReport(not texts, tuple(texts))


# -- admissibility and faithfulness -------------------------------------


def admissible(pc: PointClass, vertices: Iterable[int]) -> bool:
    """Whether the escape point misses every closed branch image indexed by
    ``vertices`` (incidence zero on the whole set)."""
    if not isinstance(pc, Escaped):
        raise NotAnEscapePointError(
            "admissibility is defined for escaping points only"
        )
    return not _hits(pc.incidence, _validated_vertices(vertices, len(pc.incidence)))


def _hits(incidence: tuple[int, ...], vertices: tuple[int, ...]) -> list[int]:
    """The vertices at which the incidence is 1: a set is admissible when
    there are none."""
    return [v for v in vertices if incidence[v - 1] == 1]


class NonvanishingCheck(Record):
    kind: str
    vertex: int
    ok: bool


class Certificate(Record):
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
    faithful = not complement_misses
    nonvanishing = []
    for i in range(1, rep.n + 1):
        nonvanishing.append(
            NonvanishingCheck("vertex-projection", i, bool(rep.vertex_masks[i - 1]))
        )
    for k in complement:
        nonvanishing.append(
            NonvanishingCheck("gap-projection", k, bool(_gap_mask(rep, k)))
        )
        nonvanishing.append(
            NonvanishingCheck("edge-range-sum", k, bool(rep.range_masks[k - 1]))
        )
    return Certificate(
        vertices=vlist,
        incidence=rep.incidence,
        faithful=faithful,
        complement_misses=complement_misses,
        nonvanishing=tuple(nonvanishing),
    )
