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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InconsistentInputsError, NotAnEscapePointError
from .maps import DEFAULT_MAX_ITER, DEFAULT_TREE_DEPTH, MarkovMap, bit_rows, check_steps
from .orbits import Escaped, PointClass, window_classes, window_node_count
from .rationals import exact
from .transitions import Matrix, as_binary_matrix, predecessors


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


def _refine(
    preds: Sequence[Sequence[int]], rows: Iterable[Sequence[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Color refinement of the pointed graph: state j < n has A's predecessor
    column j as children, and root n + k the units of incidence row k.
    Returns the children and the color history, one list per round, ending
    with the stable coloring (round 0 colors by out-degree)."""
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


def _canonical_ids(signatures: Sequence) -> list[int]:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def bisim_equivalent(
    markov: Matrix,
    incidence_x: Sequence[int],
    incidence_y: Sequence[int],
) -> Equivalent | Distinct:
    """Exact equivalence of two pointed symbolic graphs over the same
    transition matrix, decided by color refinement.  A is read by
    ``as_binary_matrix`` and each incidence row by ``bit_rows``."""
    rows = bit_rows([incidence_x], "incidence") + bit_rows([incidence_y], "incidence")
    return _pointed_verdict(predecessors(as_binary_matrix(markov)), *rows)


def _pointed_verdict(preds, incidence_x, incidence_y, note="") -> Equivalent | Distinct:
    """``bisim_equivalent`` from the predecessor columns of A."""
    n = len(preds)
    if len(incidence_x) != n or len(incidence_y) != n:
        raise InconsistentInputsError("incidence vectors must have length n")
    root_x, root_y = n, n + 1
    children, history = _refine(preds, (incidence_x, incidence_y))
    for round_no, colors in enumerate(history):
        if colors[root_x] != colors[root_y]:
            return Distinct(
                separating_round=round_no,
                signature_x=_signature_text(children, history, round_no, root_x),
                signature_y=_signature_text(children, history, round_no, root_y),
                note=note,
            )
    names = [str(i + 1) for i in range(n)] + ["root_x", "root_y"]
    stable = history[-1]
    classes: dict[int, list[str]] = {}
    for state, color in enumerate(stable):
        classes.setdefault(color, []).append(names[state])
    partition = tuple(
        tuple(classes[color]) for color in sorted(classes)
    )
    return Equivalent(rounds=len(history) - 1, partition=partition, note=note)


def _signature_text(children, history, round_no: int, state: int) -> str:
    if round_no == 0:
        return f"out-degree {len(children[state])}"
    prev = history[round_no - 1]
    multiset = sorted(prev[c] for c in children[state])
    return f"child classes {multiset} (round {round_no - 1} colors)"


# -- intertwiners -------------------------------------------------------


@dataclass(frozen=True)
class Intertwiner:
    """The label-respecting window isomorphism as basis pairs (x-index,
    y-index); ``verified`` records that it exchanges the realized
    operators."""

    pairs: tuple[tuple[int, int], ...]
    verified: bool

    label_respecting = True
    _json = ("label_respecting",)


@dataclass(frozen=True)
class NoLabelRespectingIso:
    """No label-respecting isomorphism exists; ``unlabeled_iso_exists``
    records whether the windows are still isomorphic after forgetting
    labels."""

    unlabeled_iso_exists: bool

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
                f"{p} does not escape within the budget; corpus classification "
                f"covers escaping points"
            )

    rows = list(dict.fromkeys(pc.incidence for pc in classes_of))
    _, history = _refine(m.transition_predecessors, rows)
    color_of = {row: history[-1][m.n + k] for k, row in enumerate(rows)}
    rounds = len(history) - 1

    groups: dict[int, list[int]] = {}
    for pos, pc in enumerate(classes_of):
        groups.setdefault(color_of[pc.incidence], []).append(pos)

    entries = []
    for color, members in groups.items():
        member_points = tuple(sorted(exact(pts[pos]) for pos in members))
        incidences = tuple(
            sorted(set(classes_of[pos].incidence for pos in members))
        )
        entries.append(PointClassEntry(member_points, incidences, color))
    entries.sort(key=lambda entry: entry.points[0])
    return Classification(tuple(entries), rounds)


# -- point comparison ---------------------------------------------------


@dataclass(frozen=True)
class ComparisonResult:
    class_x: PointClass
    class_y: PointClass
    verdict: EquivalenceVerdict
    intertwiner: Intertwiner | NoLabelRespectingIso | None = field(default=None)


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
    also gets the label-respecting isomorphism of its windows at ``depth``
    (the identity when ``depth`` is 0 or the rows are equal, else none).  A
    regular/escape mix is never equivalent.  Two regular points are
    compared through the symbolic states of their current intervals
    (window-level comparison)."""
    cls_x, cls_y = window_classes(m, (x, y), depth, max_iter)
    preds = m.transition_predecessors
    if isinstance(cls_x, Escaped) != isinstance(cls_y, Escaped):
        return ComparisonResult(cls_x, cls_y, EscapeVsRegular())
    if isinstance(cls_x, Escaped):
        verdict = _pointed_verdict(preds, cls_x.incidence, cls_y.incidence)
        intertwiner = None
        if isinstance(verdict, Equivalent):
            # ``realize`` reads only the parent and label arrays, which are
            # equal for equal rows, so the identity exchanges the operators.
            if depth == 0 or cls_x.incidence == cls_y.incidence:
                size = window_node_count(m, cls_x.incidence, depth)
                pairs = tuple((i, i) for i in range(size))
                intertwiner = Intertwiner(pairs, verified=True)
            else:
                intertwiner = NoLabelRespectingIso(unlabeled_iso_exists=True)
        return ComparisonResult(cls_x, cls_y, verdict, intertwiner)
    # Both regular: compare the unrollings of their current symbolic states.
    jx = m.locate(x).index
    jy = m.locate(y).index
    markov = m.transition_matrix
    verdict = _pointed_verdict(
        preds,
        tuple(markov[i][jx - 1] for i in range(m.n)),
        tuple(markov[i][jy - 1] for i in range(m.n)),
        note="window-level comparison of non-escaping points",
    )
    return ComparisonResult(cls_x, cls_y, verdict)
