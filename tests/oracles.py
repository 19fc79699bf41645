"""Brute-force oracles that the library no longer runs.

The library locates points by bisecting a breakpoint index, and decides
equivalence from the transition matrix and the incidence rows alone.  The
tools here decide the same questions the long way, so the tests can check the
short way against them:

  * ``linear_locate``: a point's location by scanning the ambient interval,
    every partition point, every interval and every gap in turn;
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
    interior points and each edge checked through the exact inverse.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from escapemaps import (
    ESCAPE_INTERIOR,
    MARKOV_INTERIOR,
    OUTSIDE,
    PARTITION_POINT,
    DepthExceedsTreeError,
    InconsistentInputsError,
    Intertwiner,
    MarkovMap,
    NoLabelRespectingIso,
    NotAnEscapePointError,
    OrbitTree,
    realize,
)
from escapemaps.maps import Location
from escapemaps.operators import ImageDecompositionReport, Representation


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
