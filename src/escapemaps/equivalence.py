"""Deciding when two escape windows carry unitarily equivalent representations.

The window of an escaping point, and with it every operator ``realize``
reads off, follows from the transition matrix A and the incidence row of its
escape point.  Equivalence is therefore decided on the symbolic pointed
graph: Markov states have the transition columns as children, each compared
point contributes a root state whose children are the unit positions of its
incidence row, and colors are refined from out-degrees until stable, so
verdicts are exact, not depth-limited.  No window is built.

Roots never receive edges, so Markov colors stabilize within n rounds and
root colors one round later; colors at round r mirror the unlabeled
unrollings of depth r + 1.  Equivalent roots thus have isomorphic windows at
every depth.  A label-respecting isomorphism matches children by label, and
level 1 of a window has one child per unit of the incidence row, so at
depth >= 1 it exists exactly when the rows, and so the windows, are equal.
It is then the identity on the window basis (``realize`` reads only the
parent and label arrays, equal for equal rows), so an ``Intertwiner`` holds
the node count, from ``orbits.window_node_count``, not one pair per node.

For the same reason the roots never change the Markov states' colors, so
the map's own graph is refined once per map (``MarkovMap.transition_refinement``)
and each request places only its roots into that history, round by round.
A color is a rank among the round's distinct signatures, so adding the
roots shifts each Markov color by the number of root-only signatures below
it.  That shift is strictly increasing and so keeps every comparison of
signatures: a root's signature is compared with the map's in the map's own
colors, and the shifted colors are computed only where a result prints
them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InconsistentInputsError, NotAnEscapePointError
from .maps import DEFAULT_MAX_ITER, DEFAULT_TREE_DEPTH, MarkovMap, bit_rows, check_steps
from .orbits import Escaped, PointClass, window_classes, window_node_count
from .rationals import exact, format_rational
from .transitions import (
    ColorRefinement,
    Matrix,
    as_binary_matrix,
    color_refinement,
    predecessors,
)


# -- bisimulation -------------------------------------------------------


@dataclass(frozen=True)
class Equivalent:
    """Roots share a class in the stable refinement.  ``partition`` lists the
    stable classes by state name; ``rounds`` is the round at which the
    refinement stabilized."""

    rounds: int
    partition: tuple[tuple[str, ...], ...]
    note: str = ""

    # Constant tags of the JSON form (``rationals.jsonable``).
    verdict = "equivalent"
    _json = ("verdict",)


@dataclass(frozen=True)
class Distinct:
    """Roots were separated; ``separating_round`` is the first round where
    their colors differ (round 0 compares out-degrees)."""

    separating_round: int
    signature_x: str
    signature_y: str
    note: str = ""

    verdict = "distinct"
    _json = ("verdict",)


@dataclass(frozen=True)
class EscapeVsRegular:
    """One point escapes and the other does not; the representations live on
    windows of different kinds and are never equivalent."""

    note: str = ""

    verdict = "distinct"
    reason = "one point escapes and the other does not"
    _json = ("verdict", "reason")


EquivalenceVerdict = Equivalent | Distinct | EscapeVsRegular


class _PointedRefinement:
    """The color history of the pointed graph: the map's refinement with the
    roots placed into it, root k having the units of incidence row k as
    children.  ``keys[r][k]`` places root k's round-r color among the map's
    round-r colors: (2c, 0) when it equals map color c, else (2i - 1, t) for
    the t-th root-only color between map colors i - 1 and i.  ``gaps[r]``
    lists the i of the distinct root-only colors of round r, sorted, so the
    shift of map color c is the number of them at most c."""

    def __init__(self, refinement: ColorRefinement, rows: Sequence[Sequence[int]]):
        self.refinement = refinement
        n = len(refinement.colors[0])
        self.children = [tuple(i for i in range(n) if row[i]) for row in rows]
        self.keys: list[list[tuple[int, int]]] = []
        self.gaps: list[list[int]] = []
        signatures: list = [len(kids) for kids in self.children]
        count = -1
        while True:
            r = len(self.keys)
            table = refinement.signatures_at(r)
            # Per root, the number of map signatures below its signature, and
            # the signature itself when it equals none of them (else None).
            places = []
            for sig in signatures:
                if r == 0:
                    query = sig
                else:
                    (p, _), kids = sig
                    if p % 2:  # a root-only color: no map signature can be equal
                        places.append((bisect_left(table, ((p + 1) // 2,)), sig))
                        continue
                    query = (p // 2, kids)
                idx = bisect_left(table, query)
                matched = idx < len(table) and table[idx] == query
                places.append((idx, None if matched else sig))
            order = sorted({place for place in places if place[1] is not None})
            if len(table) + len(order) == count:
                return
            count = len(table) + len(order)
            gaps = [i for i, _ in order]
            rank = {place: pos for pos, place in enumerate(order)}
            keys = [
                (2 * i, 0) if sig is None
                else (2 * i - 1, rank[i, sig] - bisect_left(gaps, i))
                for i, sig in places
            ]
            self.keys.append(keys)
            self.gaps.append(gaps)
            colors = refinement.colors_at(r)
            signatures = [
                (key, tuple(sorted([colors[c] for c in kids])))
                for key, kids in zip(keys, self.children)
            ]

    @property
    def rounds(self) -> int:
        """The round at which the pointed refinement stabilized."""
        return len(self.keys) - 1

    def map_color(self, r: int, c: int) -> int:
        return c + bisect_right(self.gaps[r], c)

    def root_color(self, r: int, k: int) -> int:
        p, t = self.keys[r][k]
        if p % 2 == 0:
            return self.map_color(r, p // 2)
        i = (p + 1) // 2
        return i + bisect_left(self.gaps[r], i) + t

    def colors(self, r: int) -> list[int]:
        """Round r's colors of the map states, then of the roots."""
        return [self.map_color(r, c) for c in self.refinement.colors_at(r)] + [
            self.root_color(r, k) for k in range(len(self.children))
        ]

    def signature_text(self, r: int, k: int) -> str:
        kids = self.children[k]
        if r == 0:
            return f"out-degree {len(kids)}"
        own = self.refinement.colors_at(r - 1)
        multiset = sorted(self.map_color(r - 1, own[c]) for c in kids)
        return f"child classes {multiset} (round {r - 1} colors)"


def bisim_equivalent(
    markov: Matrix,
    incidence_x: Sequence[int],
    incidence_y: Sequence[int],
) -> Equivalent | Distinct:
    """Exact equivalence of two pointed symbolic graphs over the same
    transition matrix, decided by color refinement.  A is read by
    ``as_binary_matrix`` and each incidence row by ``bit_rows``; the
    refinement of A is built for this call."""
    rows = bit_rows([incidence_x], "incidence") + bit_rows([incidence_y], "incidence")
    refinement = color_refinement(predecessors(as_binary_matrix(markov)))
    return _pointed_verdict(refinement, *rows)


def _pointed_verdict(
    refinement: ColorRefinement, incidence_x, incidence_y, note=""
) -> Equivalent | Distinct:
    """``bisim_equivalent`` from the refinement of A."""
    n = len(refinement.colors[0])
    if len(incidence_x) != n or len(incidence_y) != n:
        raise InconsistentInputsError("incidence vectors must have length n")
    pointed = _PointedRefinement(refinement, (incidence_x, incidence_y))
    for round_no, (key_x, key_y) in enumerate(pointed.keys):
        if key_x != key_y:
            return Distinct(
                separating_round=round_no,
                signature_x=pointed.signature_text(round_no, 0),
                signature_y=pointed.signature_text(round_no, 1),
                note=note,
            )
    names = [str(i + 1) for i in range(n)] + ["root_x", "root_y"]
    classes: dict[int, list[str]] = {}
    for state, color in enumerate(pointed.colors(pointed.rounds)):
        classes.setdefault(color, []).append(names[state])
    partition = tuple(tuple(classes[color]) for color in sorted(classes))
    return Equivalent(rounds=pointed.rounds, partition=partition, note=note)


# -- intertwiners -------------------------------------------------------


@dataclass(frozen=True)
class Intertwiner:
    """The label-respecting window isomorphism: the identity on the
    ``identity_on`` basis indices.  Windows of equal rows, or of depth 0,
    have equal parent and label arrays, and ``realize`` reads nothing else,
    so the identity exchanges the realized operators."""

    identity_on: int

    label_respecting = True
    # Read by perfbench/window_chain.py; not part of the JSON form.
    verified = True
    _json = ("label_respecting",)


@dataclass(frozen=True)
class NoLabelRespectingIso:
    """Equivalent windows of unequal rows: level 1 has one child per unit of the
    row, so no isomorphism matches children by label, but the roots' equal
    colors make the windows isomorphic once labels are forgotten."""

    label_respecting = False
    _json = ("label_respecting",)


# -- corpus classification ----------------------------------------------


@dataclass(frozen=True)
class PointClassEntry:
    points: tuple[Fraction, ...]
    incidences: tuple[tuple[int, ...], ...]
    stable_class: int


@dataclass(frozen=True)
class Classification:
    classes: tuple[PointClassEntry, ...]
    rounds: int


def classify_corpus(
    m: MarkovMap,
    points: Iterable[Fraction],
    max_iter: int = DEFAULT_MAX_ITER,
    depth: int = 8,
) -> Classification:
    """Partition escaping points into equivalence classes by joint color
    refinement, with one root state per distinct incidence row.  ``depth``
    no longer changes the result, since the classes follow from the rows
    alone; it stays because the ``window-chain`` benchmark passes it.  Every
    point gets the checks of a depth-1 window (``orbits.window_classes``),
    the same as ``compare_points``, and both budgets ``check_steps``, even
    for an empty corpus."""
    check_steps(depth, "depth")
    pts = list(points)
    classes_of = window_classes(m, pts, 1, max_iter)
    for p, pc in zip(pts, classes_of):
        if not isinstance(pc, Escaped):
            raise NotAnEscapePointError(
                f"{format_rational(p)} does not escape within the budget; corpus "
                f"classification covers escaping points"
            )

    rows = list(dict.fromkeys(pc.incidence for pc in classes_of))
    pointed = _PointedRefinement(m.transition_refinement, rows)
    rounds = pointed.rounds
    color_of = {row: pointed.root_color(rounds, k) for k, row in enumerate(rows)}

    groups: dict[int, list[int]] = {}
    for pos, pc in enumerate(classes_of):
        groups.setdefault(color_of[pc.incidence], []).append(pos)

    entries = []
    for color, members in groups.items():
        member_points = tuple(sorted(exact(pts[pos]) for pos in members))
        incidences = tuple(sorted({classes_of[pos].incidence for pos in members}))
        entries.append(PointClassEntry(member_points, incidences, color))
    entries.sort(key=lambda entry: entry.points[0])
    return Classification(tuple(entries), rounds)


# -- point comparison ---------------------------------------------------


@dataclass(frozen=True)
class ComparisonResult:
    class_x: PointClass
    class_y: PointClass
    verdict: EquivalenceVerdict
    intertwiner: Intertwiner | NoLabelRespectingIso | None = None


def compare_points(
    m: MarkovMap,
    x: Fraction,
    y: Fraction,
    max_iter: int = DEFAULT_MAX_ITER,
    depth: int = DEFAULT_TREE_DEPTH,
) -> ComparisonResult:
    """Classify two points and decide equivalence of their representations.

    Both points first get the checks of their windows at ``depth``
    (``orbits.window_classes``), whatever the verdict: budgets, a map
    passing P1-P4, and windows that are defined, so a pair with an
    undefined window raises OrbitMeetsBoundaryError.  Escaping pairs get
    the exact verdict from A and their incidence rows.  An equivalent pair
    also gets the label-respecting isomorphism of its windows at ``depth``:
    an ``Intertwiner``, the identity on the window's nodes, when ``depth``
    is 0 or the rows are equal, else ``NoLabelRespectingIso``.  A
    regular/escape mix is never equivalent.  Two regular points are
    compared through the symbolic states of their current intervals
    (window-level comparison)."""
    cls_x, cls_y = window_classes(m, (x, y), depth, max_iter)
    if isinstance(cls_x, Escaped) != isinstance(cls_y, Escaped):
        return ComparisonResult(cls_x, cls_y, EscapeVsRegular())
    if isinstance(cls_x, Escaped):
        verdict = _pointed_verdict(m.transition_refinement, cls_x.incidence, cls_y.incidence)
        intertwiner = None
        if isinstance(verdict, Equivalent):
            if depth == 0 or cls_x.incidence == cls_y.incidence:
                intertwiner = Intertwiner(window_node_count(m, cls_x.incidence, depth))
            else:
                intertwiner = NoLabelRespectingIso()
        return ComparisonResult(cls_x, cls_y, verdict, intertwiner)
    # Both regular: compare the unrollings of their current symbolic states.
    jx = m.locate(x).index
    jy = m.locate(y).index
    markov = m.transition_matrix
    verdict = _pointed_verdict(
        m.transition_refinement,
        tuple(markov[i][jx - 1] for i in range(m.n)),
        tuple(markov[i][jy - 1] for i in range(m.n)),
        note="window-level comparison of non-escaping points",
    )
    return ComparisonResult(cls_x, cls_y, verdict)
