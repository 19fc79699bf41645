"""Partial-isometry representations on backward orbit windows.

On the finite basis given by a window's points, every operator here is a
partial injection of basis vectors (a 0/1 partial permutation matrix), so all
algebra is exact set combinatorics:

  * transfer(i)        |y> -> |f_i^{-1}(y)>   for y in the closed image of I_i
  * edge_isometry(i,j) |y> -> |f_i^{-1}(y)>   for y in I_j (defined per unit
                        transition entry (i, j))
  * vertex_projection(i)  diagonal over nodes in I_i
  * image_projection(i)   diagonal over nodes in the closed image of I_i

The preimage f_i^{-1}(y) is read off the window as the child of y labelled i.
Relations are checked on the window interior (nodes whose preimages are fully
materialized); the vertex-sum relation additionally needs the node's forward
image inside the window, which excludes a non-periodic regular root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    BasisMismatchError,
    NotAdmissibleError,
    NotAnEscapePointError,
    WindowTooShallowError,
)
from .maps import MapStructureError
from .orbits import Escaped, OrbitTree, PointClass
from .rationals import format_rational
from .transitions import TransitionData, build_graph, transition_data


@dataclass(frozen=True)
class PartialBasisMap:
    """A partial injection of basis indices: entries are (source, target)
    pairs, sorted by source, with pairwise distinct targets."""

    dim: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(tuple(pair) for pair in self.entries))
        object.__setattr__(self, "entries", entries)
        sources = [a for a, _ in entries]
        targets = [b for _, b in entries]
        if len(set(sources)) != len(sources):
            raise MapStructureError("partial basis map has a repeated source")
        if len(set(targets)) != len(targets):
            raise MapStructureError("partial basis map is not injective")
        for idx in sources + targets:
            if not 0 <= idx < self.dim:
                raise MapStructureError(f"basis index {idx} out of range")

    @staticmethod
    def empty(dim: int) -> "PartialBasisMap":
        return PartialBasisMap(dim, ())

    @staticmethod
    def diagonal(dim: int, indices: Iterable[int]) -> "PartialBasisMap":
        return PartialBasisMap(dim, tuple((i, i) for i in set(indices)))

    def apply(self, idx: int) -> int | None:
        for a, b in self.entries:
            if a == idx:
                return b
        return None

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def compose(self, inner: "PartialBasisMap") -> "PartialBasisMap":
        """self after inner: x -> self(inner(x)) where both are defined."""
        if self.dim != inner.dim:
            raise BasisMismatchError(
                f"cannot compose maps over bases of size {inner.dim} and {self.dim}"
            )
        outer = self.as_dict()
        pairs = [
            (a, outer[b]) for a, b in inner.entries if b in outer
        ]
        return PartialBasisMap(self.dim, tuple(pairs))

    def adjoint(self) -> "PartialBasisMap":
        """The adjoint of a partial permutation is its inverse."""
        return PartialBasisMap(self.dim, tuple((b, a) for a, b in self.entries))

    def domain(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.entries)

    def codomain(self) -> frozenset[int]:
        return frozenset(b for _, b in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def is_diagonal(self) -> bool:
        return all(a == b for a, b in self.entries)

    def support(self) -> frozenset[int]:
        """Fixed set of a diagonal map."""
        assert self.is_diagonal
        return self.domain()

    def restrict(self, keep: Iterable[int]) -> "PartialBasisMap":
        keep_set = set(keep)
        return PartialBasisMap(
            self.dim, tuple(pair for pair in self.entries if pair[0] in keep_set)
        )


@dataclass(frozen=True, eq=False)
class Representation:
    """All operators realized on one window, plus the transition data they
    were built from.  ``incidence`` is the escape incidence vector of the
    window root (None for regular windows)."""

    tree: OrbitTree
    data: TransitionData
    transfers: tuple[PartialBasisMap, ...]
    edge_isometries: Mapping[tuple[int, int], PartialBasisMap]
    vertex_projections: tuple[PartialBasisMap, ...]
    image_projections: tuple[PartialBasisMap, ...]
    incidence: tuple[int, ...] | None
    interior: frozenset[int]
    check_domain: frozenset[int]

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.tree.node_count

    def transfer(self, i: int) -> PartialBasisMap:
        return self.transfers[i - 1]

    def edge_isometry(self, i: int, j: int) -> PartialBasisMap:
        if (i, j) not in self.edge_isometries:
            raise MapStructureError(f"no transition from {i} to {j}")
        return self.edge_isometries[(i, j)]

    def vertex_projection(self, i: int) -> PartialBasisMap:
        return self.vertex_projections[i - 1]

    def image_projection(self, i: int) -> PartialBasisMap:
        return self.image_projections[i - 1]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edge_isometries))

    def point_strings(self, indices: Iterable[int]) -> tuple[str, ...]:
        pts = sorted(self.tree.points[idx] for idx in indices)
        return tuple(format_rational(p) for p in pts)


def realize(tree: OrbitTree) -> Representation:
    """Build every operator on the window's basis in one pass over its parent
    and label arrays.  An interior node y has every preimage materialized (a
    root whose cycle closes through itself included), so f_i^{-1}(y) is the
    child of y labelled i."""
    data = transition_data(tree.map)
    n = data.n
    dim = tree.node_count
    interior = frozenset(tree.interior_indices())

    transfer_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edge_pairs: dict[tuple[int, int], list[tuple[int, int]]] = {
        edge: [] for edge in build_graph(data.markov).edges
    }
    by_label: list[list[int]] = [[] for _ in range(n)]
    for idx, (parent, i) in enumerate(zip(tree.parents, tree.labels)):
        if i is None:
            continue
        by_label[i - 1].append(idx)
        if parent in interior:
            transfer_pairs[i - 1].append((parent, idx))
            edge = (i, tree.labels[parent])
            if edge in edge_pairs:
                edge_pairs[edge].append((parent, idx))

    transfers = [PartialBasisMap(dim, tuple(pairs)) for pairs in transfer_pairs]
    edge_isometries = {
        edge: PartialBasisMap(dim, tuple(pairs)) for edge, pairs in edge_pairs.items()
    }
    vertex_projections = [PartialBasisMap.diagonal(dim, nodes) for nodes in by_label]
    image_projections = [
        PartialBasisMap.diagonal(
            dim, (idx for idx, y in enumerate(tree.points) if lo <= y <= hi)
        )
        for lo, hi in tree.map.images
    ]

    incidence = tree.base_class.incidence if isinstance(tree.base_class, Escaped) else None
    # The vertex-sum relation speaks about a node's forward image, so it can
    # only be checked where that image is materialized: everywhere on the
    # interior except a regular root whose image never entered the window.
    check_domain = interior
    if incidence is None and tree.parents[0] is None:
        check_domain = interior - {0}

    return Representation(
        tree=tree,
        data=data,
        transfers=tuple(transfers),
        edge_isometries=edge_isometries,
        vertex_projections=tuple(vertex_projections),
        image_projections=tuple(image_projections),
        incidence=incidence,
        interior=interior,
        check_domain=frozenset(check_domain),
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

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "edge": list(self.edge) if self.edge else None,
            "vertex": self.vertex,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [check.to_jsonable() for check in self.checks],
        }


def check_relations(rep: Representation, vertices: Iterable[int]) -> RelationReport:
    """Verify the defining relations on the window.

    Per transition edge e = (i, j): the isometry relation s*s = p_j and the
    range bound ss* <= p_i, both on the interior.  Per requested vertex v: the
    vertex-sum relation p_v = sum of ss* over edges leaving v, on the domain
    where forward images are materialized.  For a partial injection s, s*s
    and ss* are the diagonals over its domain and its codomain.
    """
    vlist = _validated_vertices(vertices, rep.n)
    checks = []
    for i, j in rep.edges():
        s = rep.edge_isometry(i, j)
        lhs = s.domain()
        rhs = rep.vertex_projection(j).support() & rep.interior
        checks.append(
            RelationCheck(
                "edge-isometry",
                (i, j),
                None,
                lhs == rhs,
                rep.point_strings(lhs ^ rhs),
            )
        )
        range_support = s.codomain()
        covered = range_support <= rep.vertex_projection(i).support()
        checks.append(
            RelationCheck(
                "edge-range",
                (i, j),
                None,
                covered,
                rep.point_strings(range_support - rep.vertex_projection(i).support()),
            )
        )
    for v in vlist:
        rhs: set[int] = set()
        for i, j in rep.edges():
            if i != v:
                continue
            part = rep.edge_isometry(v, j).codomain()
            assert not (rhs & part), "edge ranges must be orthogonal"
            rhs |= part
        lhs_set = rep.vertex_projection(v).support() & rep.check_domain
        rhs_set = frozenset(rhs) & rep.check_domain
        checks.append(
            RelationCheck(
                "vertex-sum",
                None,
                v,
                lhs_set == rhs_set,
                rep.point_strings(lhs_set ^ rhs_set),
            )
        )
    return RelationReport(tuple(checks))


def _validated_vertices(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    vset = sorted(set(int(v) for v in vertices))
    bad = [v for v in vset if not 1 <= v <= n]
    if bad:
        raise MapStructureError(f"vertices out of range 1..{n}: {bad}")
    return tuple(vset)


def gap_projection(rep: Representation, i: int) -> PartialBasisMap:
    """The defect p_i - sum of ss* over edges leaving i, as a diagonal on the
    checkable domain.  For an escape window this is nonzero exactly when the
    root lies in the closed image of I_i, where it fixes the single point
    f_i^{-1}(root)."""
    if not 1 <= i <= rep.n:
        raise MapStructureError(f"vertex {i} out of range 1..{rep.n}")
    covered: set[int] = set()
    for vi, j in rep.edges():
        if vi == i:
            covered |= rep.edge_isometry(i, j).codomain()
    support = (
        rep.vertex_projection(i).support() & rep.check_domain
    ) - covered
    return PartialBasisMap.diagonal(rep.dim, support)


def projection_sum_is_identity(rep: Representation) -> bool:
    """Whether the vertex projections resolve the identity on the interior
    (true for regular windows; an escape root lies in no interval)."""
    union: set[int] = set()
    for i in range(1, rep.n + 1):
        support = rep.vertex_projection(i).support()
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
    when the escape root lies in the closed image of I_i.  Also confirms the
    two exact branch identities behind it on every interior point."""
    failures = []
    root_extra = frozenset([0]) if rep.incidence is not None else frozenset()
    for i in range(1, rep.n + 1):
        lhs = rep.image_projection(i).support() & rep.interior
        rhs: set[int] = set()
        for j in range(1, rep.n + 1):
            if rep.data.markov[i - 1][j - 1]:
                rhs |= rep.vertex_projection(j).support()
        if rep.incidence is not None and rep.incidence[i - 1]:
            rhs |= root_extra
        rhs &= rep.interior
        if lhs != frozenset(rhs):
            diff = rep.point_strings(lhs ^ frozenset(rhs))
            failures.append(
                f"image projection {i} mismatch at: " + ", ".join(diff)
            )
    for idx in sorted(rep.interior):
        y = rep.tree.points[idx]
        for i, (lo, hi) in enumerate(rep.tree.map.images, start=1):
            if lo <= y <= hi:
                z = rep.tree.map.branch_inverse(i, y)
                if rep.tree.map.branches[i - 1].value_at(z) != y:
                    failures.append(f"branch {i} inverse identity fails at {y}")
            if rep.tree.labels[idx] == i:
                forward = rep.tree.map.branches[i - 1].value_at(y)
                if rep.tree.map.branch_inverse(i, forward) != y:
                    failures.append(f"branch {i} round trip fails at {y}")
    return ImageDecompositionReport(not failures, tuple(failures))


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

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "vertex": self.vertex, "ok": self.ok}


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

    @property
    def all_verified(self) -> bool:
        return all(check.ok for check in self.nonvanishing)

    def to_jsonable(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "incidence": list(self.incidence),
            "admissible": True,
            "faithful": self.faithful,
            "complement_misses": list(self.complement_misses),
            "nonvanishing": [check.to_jsonable() for check in self.nonvanishing],
            "all_verified": self.all_verified,
        }


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
    if not admissible(rep.tree.base_class, vlist):
        hits = [v for v in vlist if rep.incidence[v - 1] == 1]
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
                "vertex-projection", i, not rep.vertex_projection(i).is_empty
            )
        )
    for k in complement:
        nonvanishing.append(
            NonvanishingCheck("gap-projection", k, not gap_projection(rep, k).is_empty)
        )
        edge_sum: set[int] = set()
        for i, j in rep.edges():
            if i == k:
                edge_sum |= rep.edge_isometry(k, j).codomain()
        nonvanishing.append(NonvanishingCheck("edge-range-sum", k, bool(edge_sum)))
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

    def to_jsonable(self) -> dict:
        return {"vertex": self.vertex, "gap_vanishes": self.gap_vanishes}


def quotient_nonfaithfulness_demo(
    rep: Representation, inner: Iterable[int], outer: Iterable[int]
) -> QuotientWitness:
    """For nested vertex sets inner < outer and a window admissible for
    ``outer``: pick a vertex of outer - inner and exhibit its vanishing gap
    defect."""
    inner_set = set(_validated_vertices(inner, rep.n))
    outer_set = set(_validated_vertices(outer, rep.n))
    if not inner_set < outer_set:
        raise MapStructureError("inner vertex set must be a proper subset of outer")
    if rep.incidence is None:
        raise NotAnEscapePointError("demonstration needs an escape window")
    if not admissible(rep.tree.base_class, outer_set):
        raise NotAdmissibleError("outer vertex set is not admissible")
    vertex = min(outer_set - inner_set)
    return QuotientWitness(vertex, gap_projection(rep, vertex).is_empty)
