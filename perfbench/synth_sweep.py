"""synth-sweep: many fresh small specs, each checked and synthesized once.

One operation is ``feasibility_check``, then ``synthesize`` when the spec is
feasible, then the exact round trip through ``transition_data``.  Every pass
is a fresh batch of specs from (seed, pass index).  Matrices are
contiguous-row and primitive with n = 3..8; each batch covers every
combination of n, strict/partial mode, one or two escape columns and
feasibility equally, and a fixed share of the specs carries a wrong column
(as in acceptance criterion C7) so the rejection path runs too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import escapemaps as em

import gen

# 120 is the period of the stratification below: 6 sizes, 2 modes, 2 column
# counts and 5 feasibility slots.
BATCH = {"full": 120, "tiny": 24}
# Two specs in five are made infeasible: close to one in two, but kept well
# below one half so the median latency falls inside the feasible cluster
# rather than between the fast rejections and the synthesized specs.
INFEASIBLE_EVERY, INFEASIBLE_OF = 5, 2


@dataclass(frozen=True)
class Op:
    spec: object
    feasible: bool


def _spec(rng, n: int, mode: str, gaps: int, feasible: bool):
    while True:
        markov = gen.contiguous_matrix(rng, n)
        usable = [p for p in range(1, n) if any(gen.straddle(markov, p))]
        if len(usable) >= gaps:
            break
    positions = sorted(rng.sample(usable, gaps))
    columns = [list(gen.straddle(markov, p)) for p in positions]
    if mode == em.PARTIAL:
        # Rows whose run ends at interval p, or starts at p + 1, may reach
        # halfway into the gap.
        for column, p in zip(columns, positions):
            for i, row in enumerate(markov):
                if row[p - 1] != row[p] and rng.random() < 0.5:
                    column[i] = 1
    if not feasible:
        k = rng.randrange(gaps)
        p = positions[k]
        if mode == em.STRICT:
            rows = range(n)  # every single flip breaks a strict column
        else:
            # Flips that leave a row's targets non-contiguous in any mode.
            rows = [i for i, row in enumerate(markov) if row[p - 1] == row[p]]
        columns[k][rng.choice(rows)] ^= 1
    return em.SynthesisSpec(markov, gen.escape_block(columns), tuple(positions), mode)


class Workload:
    def __init__(self, seed: int, size: str, workdir) -> None:
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        pass

    def batch(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{index}")
        ops = []
        for k in range(BATCH[self.size]):
            n = 3 + k % 6
            mode = (em.STRICT, em.PARTIAL)[k // 6 % 2]
            gaps = 2 if n >= 4 and k // 12 % 2 else 1
            feasible = k % INFEASIBLE_EVERY >= INFEASIBLE_OF
            ops.append(Op(_spec(rng, n, mode, gaps, feasible), feasible))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        report = em.feasibility_check(op.spec)
        if not report.feasible:
            return report, None, None
        result = em.synthesize(op.spec)
        return report, result, em.transition_data(result.map)

    def check(self, op: Op, out) -> str | None:
        report, result, data = out
        spec = op.spec
        if report.feasible != op.feasible:
            return f"feasibility is {report.feasible}, expected {op.feasible}"
        if not op.feasible:
            try:
                em.synthesize(spec)
            except em.InfeasibleSpecError:
                return None
            return "an infeasible spec was synthesized"
        if (data.markov, data.escape, data.gap_positions) != (
            spec.markov,
            spec.escape,
            spec.gap_positions,
        ):
            return "recomputed transition data differs from the spec"
        if not result.validation.all_ok:
            return "synthesized map fails validation"
        if spec.mode == em.STRICT and not result.validation.p5_ok:
            return "strict synthesis left a gap partly covered"
        return None
