#!/usr/bin/env python3
"""Survey of strict single-gap synthesis over all small transition matrices.

For every 0/1 matrix A of size up to ``--max-size`` this script determines
which escape columns are realizable in strict mode at each gap position.
The observed rule: a position p admits exactly one strict escape column —
the "straddle" column u with u_i = A[i][p] AND A[i][p+1] (1-based) — and it
is feasible precisely when A is primitive, every row of A is contiguous,
and u is nonzero.  Each feasible spec is synthesized and the resulting
map's recomputed matrices are checked against the inputs exactly.

The count table goes to stdout, so two runs print the same bytes; the wall
time of each size goes to stderr.

Usage:
    python3 scripts/enumerate_realizable.py --max-size 4
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from escapemaps import (
    STRICT,
    SynthesisSpec,
    feasibility_check,
    is_primitive,
    synthesize,
    transition_data,
)


@dataclass
class SizeTally:
    matrices: int = 0
    contiguous_and_primitive: int = 0
    feasible_specs: int = 0
    verified_round_trips: int = 0
    infeasible_zero_straddle: int = 0
    seconds: float = field(default=0.0)


def row_contiguous(row: tuple[int, ...]) -> bool:
    ones = [j for j, v in enumerate(row) if v]
    return bool(ones) and ones[-1] - ones[0] + 1 == len(ones)


def survey(n: int, verify: bool) -> SizeTally:
    tally = SizeTally()
    start = time.perf_counter()
    cells = n * n
    for bits in range(1 << cells):
        matrix = tuple(
            tuple((bits >> (r * n + c)) & 1 for c in range(n)) for r in range(n)
        )
        tally.matrices += 1
        if not all(row_contiguous(row) for row in matrix):
            continue
        if not is_primitive(matrix).primitive:
            continue
        tally.contiguous_and_primitive += 1
        for pos in range(1, n):
            straddle = tuple(matrix[i][pos - 1] & matrix[i][pos] for i in range(n))
            column = tuple((u,) for u in straddle)
            spec = SynthesisSpec(matrix, column, gap_positions=(pos,), mode=STRICT)
            report = feasibility_check(spec)
            if not any(straddle):
                assert not report.feasible
                tally.infeasible_zero_straddle += 1
                continue
            assert report.feasible, (matrix, pos)
            tally.feasible_specs += 1
            if verify:
                result = synthesize(spec)
                data = transition_data(result.map)
                assert data.markov == matrix
                assert data.escape == column
                assert data.gap_positions == (pos,)
                tally.verified_round_trips += 1
    tally.seconds = time.perf_counter() - start
    return tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=4,
                        help="largest matrix size to enumerate (default 4)")
    parser.add_argument("--no-verify", action="store_true",
                        help="count feasible specs without synthesizing maps")
    args = parser.parse_args(argv)
    if args.max_size < 2:
        parser.error("--max-size must be at least 2")

    header = (f"{'n':>2} {'matrices':>10} {'eligible A':>10} "
              f"{'feasible':>9} {'verified':>9} {'zero-u':>7}")
    print(header)
    print("-" * len(header))
    totals = SizeTally()
    for n in range(2, args.max_size + 1):
        tally = survey(n, verify=not args.no_verify)
        print(f"{n:>2} {tally.matrices:>10} {tally.contiguous_and_primitive:>10} "
              f"{tally.feasible_specs:>9} {tally.verified_round_trips:>9} "
              f"{tally.infeasible_zero_straddle:>7}")
        print(f"n = {n}: {tally.seconds:.2f}s", file=sys.stderr)
        totals.matrices += tally.matrices
        totals.contiguous_and_primitive += tally.contiguous_and_primitive
        totals.feasible_specs += tally.feasible_specs
        totals.verified_round_trips += tally.verified_round_trips
        totals.infeasible_zero_straddle += tally.infeasible_zero_straddle
        totals.seconds += tally.seconds
    print("-" * len(header))
    print(f"{'*':>2} {totals.matrices:>10} {totals.contiguous_and_primitive:>10} "
          f"{totals.feasible_specs:>9} {totals.verified_round_trips:>9} "
          f"{totals.infeasible_zero_straddle:>7}")
    print(f"total: {totals.seconds:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
