"""window-chain: a few synthesized maps, queried many times with large rationals.

Set-up synthesizes strict maps at n in {8, 16, 32} from banded matrices of
width 1 and 2 in equal numbers, each with two gaps at seeded positions.
Every pass then builds fresh points symbolically from (seed, pass index): an
escape point e inside a seeded cell of ``incidence_cells`` with a seeded
denominator size, pulled back along a seeded admissible word w
(x = f_w^{-1}(e) via ``branch_inverse``), or a periodic point of a seeded
cycle word.  Escape times, itineraries and window node counts therefore
depend only on the matrix and the seed; only the bit sizes follow the
coefficients synthesis chose.  Window depths are the deepest whose symbolic
node count stays under a cap, so every operation does a comparable amount of
work whatever the matrix.

Operations: a point chain (classify, window, realize, relations and image
identities, certificate for the admissible vertex set), a pair comparison
(half the pairs share an escape cell), and one ``classify_corpus`` per map.
A corpus runs at the shallowest depth at which ``classify_corpus`` cross-checks
its classes against AHU canonical forms (one more than its refinement
rounds) whenever those windows stay under ``CROSSCHECK_NODES``; otherwise at
the capped depth, where the cross-check is skipped.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import dataclass

import escapemaps as em

import gen

SIZES = {
    # n values, maps per n, then per map and pass: escape chains, periodic
    # chains, pairs, corpus points, and the budget of window nodes times n.
    # Many maps with few operations each average out how each matrix's
    # window sizes fall against the budget; dividing the budget by n keeps
    # the larger maps, whose nodes cost more, from dominating the pass.
    "full": ((8, 16, 32), 16, 2, 1, 1, 3, 1600),
    "tiny": ((8, 16), 1, 2, 1, 2, 3, 320),
}
CROSSCHECK_NODES = 600
MAX_WORD = 10
MAX_CYCLE = 6
DENOMINATOR_BITS = (4, 24)


@dataclass(frozen=True)
class MapCase:
    map: object
    markov: tuple
    cells: tuple  # (lo, hi, incidence) over both gaps


@dataclass(frozen=True)
class EscapePoint:
    x: object
    e: object
    word: tuple
    cell: int


@dataclass(frozen=True)
class Op:
    kind: str  # "chain", "periodic", "pair" or "corpus"
    case: MapCase
    points: tuple
    depth: int


class Workload:
    def __init__(self, seed: int, size: str, workdir) -> None:
        self.seed = seed
        self.size = size
        self.tracer = None
        self.cases: list[MapCase] = []
        self.corpus_ops = 0
        self.crosschecked = 0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        sizes, maps = SIZES[self.size][:2]
        for n in sizes:
            for k in range(maps):
                self.cases.append(self._map_case(rng, gen.banded_matrix(n, 1 + k % 2)))

    def _map_case(self, rng, markov) -> MapCase:
        n = len(markov)
        positions = tuple(sorted(rng.sample(range(2, n - 1), 2)))
        columns = [gen.straddle(markov, p) for p in positions]
        spec = em.SynthesisSpec(markov, gen.escape_block(columns), positions, em.STRICT)
        with self.tracer.activated() if self.tracer else contextlib.nullcontext():
            m = em.synthesize(spec).map
        cells = tuple(cell for k in positions for cell in em.incidence_cells(m, k))
        return MapCase(m, markov, cells)

    def batch(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{index}")
        chains, periodic, pairs, corpus, budget = SIZES[self.size][2:]
        ops = []
        # Word and cycle lengths run through their ranges in turn rather than
        # being drawn, so every pass gets the same mix of orbit lengths; pairs
        # alternate between sharing one escape cell and spanning two.
        share_cell = itertools.cycle((True, False))
        word_lengths = itertools.cycle(range(1, MAX_WORD + 1))
        cycle_lengths = itertools.cycle(range(1, MAX_CYCLE + 1))
        for case in self.cases:
            cap = budget // len(case.markov)
            depth = [gen.capped_depth(case.markov, cell[2], cap) for cell in case.cells]

            def escape_point(cell: int) -> EscapePoint:
                lo, hi, inc = case.cells[cell]
                e = gen.point_in(rng, lo, hi, rng.randint(*DENOMINATOR_BITS))
                word = gen.backward_word(rng, case.markov, inc, next(word_lengths))
                x = e
                for i in word:
                    x = case.map.branch_inverse(i, x)
                return EscapePoint(x, e, word, cell)

            for _ in range(chains):
                p = escape_point(rng.randrange(len(case.cells)))
                ops.append(Op("chain", case, (p,), depth[p.cell]))
            for _ in range(periodic):
                word, x = _periodic(rng, case, next(cycle_lengths))
                column = [row[word[0] - 1] for row in case.markov]
                ops.append(Op("periodic", case, (word, x), gen.capped_depth(case.markov, column, cap)))
            for _ in range(pairs):
                first = rng.randrange(len(case.cells))
                second = first if next(share_cell) else (first + 1) % len(case.cells)
                p, q = escape_point(first), escape_point(second)
                ops.append(Op("pair", case, (p, q), min(depth[first], depth[second])))
            members = tuple(escape_point(k % len(case.cells)) for k in range(corpus))
            ops.append(Op("corpus", case, members, self._corpus_depth(case, members, depth)))
        rng.shuffle(ops)
        return ops

    def _corpus_depth(self, case: MapCase, members, depth) -> int:
        rounds = em.classify_corpus(case.map, [p.x for p in members], depth=1).rounds
        widest = max(
            gen.window_sizes(case.markov, case.cells[p.cell][2], rounds + 1)[-1] for p in members
        )
        chosen = rounds + 1 if widest <= CROSSCHECK_NODES else min(depth[p.cell] for p in members)
        self.corpus_ops += 1
        self.crosschecked += chosen - 1 >= rounds
        return chosen

    def notes(self) -> dict:
        return {"corpus_ops": self.corpus_ops, "corpus_crosschecked": self.crosschecked}

    def execute(self, op: Op):
        m = op.case.map
        if op.kind == "chain":
            (p,) = op.points
            pc = em.classify_point(m, p.x)
            tree = em.build_orbit_tree(m, p.x, op.depth)
            rep = em.realize(tree)
            vertices = _admissible(pc.incidence)
            return (
                pc,
                tree,
                em.check_relations(rep, vertices),
                em.image_decomposition_check(rep),
                em.faithfulness_certificate(rep, vertices),
            )
        if op.kind == "periodic":
            word, x = op.points
            pc = em.classify_point(m, x)
            tree = em.build_orbit_tree(m, x, op.depth)
            rep = em.realize(tree)
            return (
                pc,
                em.check_relations(rep, range(1, rep.n + 1)),
                em.image_decomposition_check(rep),
            )
        if op.kind == "pair":
            p, q = op.points
            return em.compare_points(m, p.x, q.x, depth=op.depth)
        return em.classify_corpus(m, [p.x for p in op.points], depth=op.depth)

    def check(self, op: Op, out) -> str | None:
        case = op.case
        if op.kind == "chain":
            pc, tree, relations, identities, cert = out
            (p,) = op.points
            problem = _escape_problem(pc, p)
            if problem:
                return problem
            if not (relations.all_passed and identities.passed):
                return "window relations or image identities failed"
            expected = _expected_nonvanishing(case.markov, tree, pc.incidence)
            got = {(c.kind, c.vertex): c.ok for c in cert.nonvanishing}
            if not cert.faithful or got != expected:
                return "faithfulness certificate differs from the window"
            return None
        if op.kind == "periodic":
            pc, relations, identities = out
            word, _ = op.points
            if getattr(pc, "period", None) != len(word):
                return f"periodic point classified as {pc}, expected period {len(word)}"
            if not (relations.all_passed and identities.passed):
                return "regular window relations or image identities failed"
            return None
        if op.kind == "pair":
            p, q = op.points
            problem = _escape_problem(out.class_x, p) or _escape_problem(out.class_y, q)
            if problem:
                return problem
            inc_x, inc_y = out.class_x.incidence, out.class_y.incidence
            expected = em.bisim_equivalent(case.markov, inc_x, inc_y)
            if type(out.verdict) is not type(expected):
                return "verdict disagrees with bisim_equivalent"
            if p.cell == q.cell and not isinstance(out.intertwiner, em.Intertwiner):
                return "points of one escape cell got no intertwiner"
            if isinstance(out.intertwiner, em.Intertwiner) and not out.intertwiner.verified:
                return "intertwiner not verified"
            return None
        incidence = {p.x: case.cells[p.cell][2] for p in op.points}
        klass = {x: k for k, entry in enumerate(out.classes) for x in entry.points}
        if sorted(klass) != sorted(incidence):
            return "corpus classification lost or invented points"
        for x in incidence:
            for y in incidence:
                verdict = em.bisim_equivalent(case.markov, incidence[x], incidence[y])
                if isinstance(verdict, em.Equivalent) != (klass[x] == klass[y]):
                    return "corpus classes disagree with bisim_equivalent"
        return None


def _periodic(rng, case: MapCase, length: int):
    """A seeded cycle word of the given length whose periodic orbit avoids
    every partition point, with its periodic point."""
    while True:
        word = gen.cycle_word(rng, case.markov, length)
        if word is None:
            continue
        x = gen.periodic_point(case.map.branches, word)
        if gen.orbit_avoids(case.map.branches, x, len(word)):
            return word, x


def _admissible(incidence) -> tuple[int, ...]:
    """The largest admissible vertex set: every vertex the escape point misses."""
    return tuple(i for i, v in enumerate(incidence, start=1) if not v)


def _escape_problem(pc, p: EscapePoint) -> str | None:
    if not isinstance(pc, em.Escaped):
        return f"point built to escape was classified as {type(pc).__name__}"
    if pc.escape_time != len(p.word) or pc.final_point != p.e:
        return f"escape after {pc.escape_time} steps, expected {len(p.word)}"
    return None


def _expected_nonvanishing(markov, tree, incidence) -> dict:
    """The certificate's nonvanishing facts, read off the window's labels:
    a vertex projection is nonzero iff some node carries that label; outside
    the admissible set the gap defect is the preimage of the root, which is
    interior from depth 2 on; and the edge-range sum of k is nonzero iff some
    interior node has a label j with A[k][j] = 1."""
    n = len(markov)
    labels = set(tree.labels)
    interior = {tree.labels[idx] for idx in tree.interior_indices()}
    expected = {("vertex-projection", i): i in labels for i in range(1, n + 1)}
    for k in range(1, n + 1):
        if incidence[k - 1]:
            expected[("gap-projection", k)] = True
            expected[("edge-range-sum", k)] = any(
                j is not None and markov[k - 1][j - 1] for j in interior
            )
    return expected
