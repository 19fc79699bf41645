"""Deciding when two escape windows carry unitarily equivalent representations.

Three cooperating tools:

  * label-free canonical forms of truncated windows (bottom-up, children
    sorted — equal forms at equal depth iff the truncated trees are
    isomorphic as unlabeled rooted trees);
  * exact bisimulation on the symbolic pointed graph: Markov states have the
    transition columns as children, each compared point contributes a root
    state whose children are the unit positions of its incidence vector;
    colors are refined from out-degrees until stable, so verdicts are exact,
    not depth-limited;
  * explicit intertwiners: the unique label-respecting isomorphism of two
    windows (match children by branch label), verified against the realized
    operators.

Roots never receive edges, so Markov colors stabilize within n rounds and
root colors one round later; a depth-(n+2) unlabeled comparison can therefore
never disagree with the bisimulation verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DepthExceedsTreeError,
    InconsistentInputsError,
    NotAnEscapePointError,
    OrbitMeetsBoundaryError,
)
from .maps import MarkovMap
from .orbits import (
    DEFAULT_MAX_ITER,
    DEFAULT_TREE_DEPTH,
    BoundaryOrbit,
    Escaped,
    OrbitTree,
    PointClass,
    build_orbit_tree,
    classify_point,
    truncate_tree,
)
from .rationals import format_rational
from .transitions import Matrix, predecessors
from .operators import realize


# -- canonical forms ----------------------------------------------------


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


# -- bisimulation -------------------------------------------------------


@dataclass(frozen=True)
class Equivalent:
    """Roots share a class in the stable refinement.  ``partition`` lists the
    stable classes by state name; ``rounds`` is the round at which the
    refinement stabilized."""

    rounds: int
    partition: tuple[tuple[str, ...], ...]
    note: str = ""


@dataclass(frozen=True)
class Distinct:
    """Roots were separated; ``separating_round`` is the first round where
    their colors differ (round 0 compares out-degrees)."""

    separating_round: int
    signature_x: str
    signature_y: str
    note: str = ""


@dataclass(frozen=True)
class EscapeVsRegular:
    """One point escapes and the other does not; the representations live on
    windows of different kinds and are never equivalent."""

    note: str = ""


EquivalenceVerdict = Equivalent | Distinct | EscapeVsRegular


def _refine(children: Sequence[Sequence[int]]) -> list[list[int]]:
    """Color refinement; returns the color history, one list per round,
    ending with the stable coloring (round 0 colors by out-degree)."""
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
            return history
        colors = new_colors
        history.append(colors)


def _canonical_ids(signatures: Sequence) -> list[int]:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def bisim_equivalent(
    markov: Matrix,
    incidence_x: Sequence[int],
    incidence_y: Sequence[int],
    note: str = "",
) -> Equivalent | Distinct:
    """Exact equivalence of two pointed symbolic graphs over the same
    transition matrix, decided by color refinement."""
    n = len(markov)
    if len(incidence_x) != n or len(incidence_y) != n:
        raise InconsistentInputsError("incidence vectors must have length n")
    children = list(predecessors(markov))
    root_x, root_y = n, n + 1
    children.append([i for i in range(n) if incidence_x[i]])
    children.append([i for i in range(n) if incidence_y[i]])

    history = _refine(children)
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
    y-index), verified to exchange the realized operators."""

    pairs: tuple[tuple[int, int], ...]
    verified: bool


@dataclass(frozen=True)
class NoLabelRespectingIso:
    """No label-respecting isomorphism exists; ``unlabeled_iso_exists``
    records whether the windows are still isomorphic after forgetting
    labels."""

    unlabeled_iso_exists: bool


def build_intertwiner(
    tree_x: OrbitTree, tree_y: OrbitTree, depth: int
) -> Intertwiner | NoLabelRespectingIso:
    """Construct and verify the unique label-respecting isomorphism of the
    two windows truncated at ``depth``, if it exists."""
    if not (tree_x.is_escape_window and tree_y.is_escape_window):
        raise NotAnEscapePointError("intertwiners are built for escape windows")
    if tree_x.map != tree_y.map:
        raise InconsistentInputsError("windows must come from the same map")
    tx = truncate_tree(tree_x, depth)
    ty = truncate_tree(tree_y, depth)

    pairs: list[tuple[int, int]] = []

    def match(u: int, w: int) -> bool:
        pairs.append((u, w))
        cu = tx.children_by_label(u)
        cw = ty.children_by_label(w)
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
        mapped = {
            (forward[a], forward[b]) for a, b in sx.entries
        }
        if mapped != set(sy.entries):
            verified = False
    for i in range(1, rep_x.n + 1):
        px = {forward[a] for a in rep_x.vertex_projection(i).support()}
        if px != set(rep_y.vertex_projection(i).support()):
            verified = False
    return Intertwiner(tuple(sorted(pairs)), verified)


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

    def to_jsonable(self) -> dict:
        return {
            "rounds": self.rounds,
            "classes": [
                {
                    "points": [format_rational(p) for p in entry.points],
                    "incidences": [list(c) for c in entry.incidences],
                    "stable_class": entry.stable_class,
                }
                for entry in self.classes
            ],
        }


def classify_corpus(
    m: MarkovMap,
    points: Iterable[Fraction],
    max_iter: int = DEFAULT_MAX_ITER,
    depth: int = 8,
) -> Classification:
    """Partition escaping points into equivalence classes by joint color
    refinement, cross-checked against pairwise canonical forms at ``depth``."""
    pts = [Fraction(p) for p in points]
    classes_of: list[Escaped] = []
    for p in pts:
        pc = classify_point(m, p, max_iter)
        if not isinstance(pc, Escaped):
            raise NotAnEscapePointError(
                f"{p} does not escape within the budget; corpus classification "
                f"covers escaping points"
            )
        classes_of.append(pc)

    n = m.n
    children = list(predecessors(m.transition_matrix))
    for pc in classes_of:
        children.append([i for i in range(n) if pc.incidence[i]])
    history = _refine(children)
    stable = history[-1]
    rounds = len(history) - 1

    groups: dict[int, list[int]] = {}
    for pos in range(len(pts)):
        groups.setdefault(stable[n + pos], []).append(pos)

    entries = []
    for color, members in groups.items():
        member_points = tuple(sorted(pts[pos] for pos in members))
        incidences = tuple(
            sorted(set(classes_of[pos].incidence for pos in members))
        )
        entries.append(PointClassEntry(member_points, incidences, color))
    entries.sort(key=lambda entry: entry.points[0])

    # Cross-check against canonical forms whenever the truncation depth can
    # see the stable refinement (root colors settle one round after the
    # Markov states, and colors at round r mirror depth-(r+1) unrollings).
    if depth - 1 >= rounds:
        forms = {}
        for pos, p in enumerate(pts):
            tree = build_orbit_tree(m, p, depth, max_iter)
            forms[pos] = ahu_canonical(tree, depth)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                same_class = stable[n + a] == stable[n + b]
                if (forms[a] == forms[b]) != same_class:
                    raise AssertionError(
                        "bisimulation and canonical forms disagree on "
                        f"{pts[a]} vs {pts[b]}"
                    )
    return Classification(tuple(entries), rounds)


def verdict_to_jsonable(
    verdict: EquivalenceVerdict | Intertwiner | NoLabelRespectingIso,
) -> dict:
    if isinstance(verdict, Equivalent):
        return {
            "verdict": "equivalent",
            "rounds": verdict.rounds,
            "partition": [list(block) for block in verdict.partition],
            "note": verdict.note,
        }
    if isinstance(verdict, Distinct):
        return {
            "verdict": "distinct",
            "separating_round": verdict.separating_round,
            "signature_x": verdict.signature_x,
            "signature_y": verdict.signature_y,
            "note": verdict.note,
        }
    if isinstance(verdict, EscapeVsRegular):
        return {
            "verdict": "distinct",
            "reason": "one point escapes and the other does not",
            "note": verdict.note,
        }
    if isinstance(verdict, Intertwiner):
        return {
            "label_respecting": True,
            "pairs": [list(pair) for pair in verdict.pairs],
            "verified": verdict.verified,
        }
    if isinstance(verdict, NoLabelRespectingIso):
        return {
            "label_respecting": False,
            "unlabeled_iso_exists": verdict.unlabeled_iso_exists,
        }
    raise TypeError(f"cannot serialize {type(verdict).__name__}")


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

    Escaping pairs get the exact bisimulation verdict and, when equivalent,
    an intertwiner attempt at ``depth``.  A regular/escape mix is never
    equivalent.  Two regular points are compared through the symbolic states
    of their current intervals (window-level comparison)."""
    cls_x = classify_point(m, x, max_iter)
    cls_y = classify_point(m, y, max_iter)
    for label, pc in (("x", cls_x), ("y", cls_y)):
        if isinstance(pc, BoundaryOrbit):
            raise OrbitMeetsBoundaryError(
                f"point {label} hits a partition point at step {pc.hit_step}; "
                f"no representation is defined"
            )
    markov = m.transition_matrix
    if isinstance(cls_x, Escaped) != isinstance(cls_y, Escaped):
        return ComparisonResult(cls_x, cls_y, EscapeVsRegular())
    if isinstance(cls_x, Escaped):
        verdict = bisim_equivalent(markov, cls_x.incidence, cls_y.incidence)
        intertwiner = None
        if isinstance(verdict, Equivalent):
            tree_x = build_orbit_tree(m, x, depth, max_iter)
            tree_y = build_orbit_tree(m, y, depth, max_iter)
            intertwiner = build_intertwiner(tree_x, tree_y, depth)
        return ComparisonResult(cls_x, cls_y, verdict, intertwiner)
    # Both regular: compare the unrollings of their current symbolic states.
    jx = m.locate(Fraction(x)).index
    jy = m.locate(Fraction(y)).index
    verdict = bisim_equivalent(
        markov,
        tuple(markov[i][jx - 1] for i in range(m.n)),
        tuple(markov[i][jy - 1] for i in range(m.n)),
        note="window-level comparison of non-escaping points",
    )
    return ComparisonResult(cls_x, cls_y, verdict)
