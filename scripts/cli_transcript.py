#!/usr/bin/env python3
"""Record, or check, the CLI transcript: the exit code and the sha256 of
stdout and stderr for a fixed list of command lines.

Usage, from the root of an escapemaps checkout:

    PYTHONPATH=src python3 scripts/cli_transcript.py          # rewrite it
    PYTHONPATH=src python3 scripts/cli_transcript.py --check  # compare

The transcript is ``tests/cli_transcript.json``, one entry per line, and
``--check`` exits 1 naming every entry that differs.  Each command line runs
in-process through ``escapemaps.commands.main``, in order, since later
entries read the maps that the ``synth`` entries write.  The inputs are the
three bundled maps, a map whose second branch reverses orientation, an
n = 8 band and the four-interval matrices that CI synthesizes, escape blocks
given without gap positions (straddle columns of the n = 8 band, and nine
all-ones columns on an n = 20 band), two maps that fail P2 and P1 (the
second with image endpoints over mixed denominators), the malformed inputs
that CI feeds the command line (a file that is not UTF-8 and a matrix with
float entries among them), a point and a window node over Python's limit
on digits in an int string, an n = 8 map whose transition matrix is
complete bipartite, and two infeasible specs (a row that no gap placement
makes contiguous, and a single interval).  Paths are written as
``{maps}/...`` and ``{tmp}/...``, and both directories are written back as
those placeholders in the output before it is hashed, so the digests do not
depend on where the checkout or the temporary directory sits.  Help texts
and argparse usage errors are left out, since their layout changes between
Python versions.  An exception that escapes ``main`` is recorded by its
class name in place of the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from escapemaps import commands
from escapemaps.corpus import corpus_path

TRANSCRIPT = Path(__file__).resolve().parent.parent / "tests" / "cli_transcript.json"

BAND8_A = [[int(abs(i - j) <= 1) for j in range(8)] for i in range(8)]
BAND20_A = [[int(abs(i - j) <= 1) for j in range(20)] for i in range(20)]


def bipartite_map(n: int) -> dict:
    """An n-interval map (n even) whose transition matrix is complete
    bipartite, so of period 2: branch i (0-based) has slope n/2 and maps
    [i/n, (i+1)/n] onto [1/2, 1] for i < n/2 and onto [0, 1/2] otherwise."""
    half = Fraction(1, 2)
    return {
        "markov_intervals": [[str(Fraction(i, n)), str(Fraction(i + 1, n))]
                             for i in range(n)],
        "branches": [
            {"slope": str(n // 2),
             "intercept": str((half if i < n // 2 else 0) - Fraction(i, 2))}
            for i in range(n)
        ],
    }


INPUTS = {
    "reversing.json": {
        "markov_intervals": [["0", "1/3"], ["2/3", "1"]],
        "branches": [
            {"slope": "3", "intercept": "0"},
            {"slope": "-3", "intercept": "3"},
        ],
    },
    # The band |i - j| <= 1 at n = 8 with its gap after interval 4.
    "band8_a.json": BAND8_A,
    "band8_b.json": [[row[3] & row[4]] for row in BAND8_A],
    # Its straddle columns for the gaps after intervals 2, 4 and 6, given
    # without positions, so the planner has to find them.
    "band8_straddles.json": [[row[p - 1] & row[p] for p in (2, 4, 6)] for row in BAND8_A],
    # The band at n = 20 with nine all-ones columns: no placement works.
    "band20_a.json": BAND20_A,
    "band20_b.json": [[1] * 9 for _ in BAND20_A],
    "a.json": [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]],
    "b.json": [[1], [0], [0], [0]],
    "slope2.json": {
        "markov_intervals": [["0", "1"]],
        "branches": [{"slope": "2", "intercept": "0"}],
    },
    # Fails P2: the image [1/4, 1] of interval 2 takes half of interval 1.
    "p2_partial.json": {
        "markov_intervals": [["0", "1/2"], ["1/2", "1"]],
        "branches": [
            {"slope": "2", "intercept": "0"},
            {"slope": "3/2", "intercept": "-1/2"},
        ],
    },
    # Fails P1 with image endpoints over denominators 6, 28 and 14.
    "p1_mixed.json": {
        "markov_intervals": [["0", "1/3"], ["1/2", "1"]],
        "branches": [
            {"slope": "5/2", "intercept": "0"},
            {"slope": "3/2", "intercept": "1/7"},
        ],
    },
    "strings.json": {
        "markov_intervals": ["01", "12"],
        "branches": [
            {"slope": "2", "intercept": "0"},
            {"slope": "2", "intercept": "-1"},
        ],
    },
    "b_strings.json": ["", "", "", ""],
    # 1.0 equals 1, but a matrix entry must be the integer 0 or 1.
    "float_a.json": [[1.0, 1], [1, 1.0]],
    "float_b.json": {"rows": [[1.0], [1]], "gap_positions": [1]},
    "bipartite8.json": bipartite_map(8),
    # Row 1 targets intervals 1 and 3 only, which no placement can join.
    "unplaceable_a.json": [[1, 0, 1], [1, 1, 1], [1, 1, 1]],
    "unplaceable_b.json": [[0], [1], [1]],
    # One interval cannot expand.
    "one_a.json": [[1]],
    "one_b.json": [[]],
}
RAW_INPUTS = {
    "garbled.json": b"{not json",
    "deep.json": b"[" * 3000 + b"]" * 3000,
    "not_utf8.json": b"\xff\xfe\x00bad",
}

# Per map: escape points e and e2 (None without a gap), a regular point r
# with the horizon that roots its window on a cycle, a partition point, and
# an admissible vertex set with a subset that misses part of the complement.
MAPS = {
    "{maps}/four_interval.json": ("1/2", "9/20", "5/27", 4, "1/4", "2,3,4", "2,3"),
    "{maps}/four_interval_reaching.json": ("13/20", "1/2", "5/27", 1, "1/4", "2,3", "2"),
    "{maps}/full_two_interval.json": (None, None, "1/3", 0, "1/2", None, None),
    "{tmp}/reversing.json": ("1/2", "1/6", "3/4", 0, "1/3", "", None),
    "{tmp}/band8.json": ("1/2", "190/429", "2/11", 0, "4/33", "1,2,3,6,7,8", "1,2,3"),
    "{tmp}/map.json": ("33/74", "1/2", "15/74", 2, "12/37", "2,3,4", "3,4"),
}


def argv_list() -> list[list[str]]:
    out = [
        ["synth", "--A", "{tmp}/band8_a.json", "--B", "{tmp}/band8_b.json",
         "--mode", "strict", "-o", "{tmp}/band8.json"],
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/b.json", "--mode", "strict",
         "-o", "{tmp}/map.json"],
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/b.json", "--mode", "partial",
         "-o", "{tmp}/partial.json"],
    ]
    for path, (e, e2, r, horizon, boundary, vertices, fewer) in MAPS.items():
        h = str(horizon)
        out += [
            ["validate", path],
            ["matrices", path],
            ["matrices", "--block", path],
            ["graph", "--dot", "{tmp}/graph.dot", path],
            ["point", "--x", r, path],
            ["point", "--x", r, "--max-iter", "3", path],
            ["point", "--x", boundary, path],
            ["tree", "--x", r, "--depth", "3", "--horizon", h, path],
            ["tree", "--x", r, "--depth", "2", "--horizon", h, "--dot", path],
            ["tree", "--x", boundary, "--depth", "2", path],
            ["rep", "--x", r, "--depth", "4", "--horizon", h, "--check", path],
            ["rep", "--x", r, "--depth", "1", "--horizon", "1", "--check", path],
        ]
        if e is None:
            out.append(["equiv", "--x", r, "--y", boundary, path])
            continue
        out += [
            ["point", "--x", e, path],
            ["tree", "--x", e, "--depth", "3", path],
            ["tree", "--x", e2, "--depth", "2", "--dot", path],
            ["rep", "--x", e, path],
            ["rep", "--x", e, "--depth", "3", "--V", vertices, "--check", path],
            ["rep", "--x", e2, "--depth", "2", "--V", "1", "--check", path],
            ["certify", "--x", e, "--depth", "4", "--V", vertices, path],
            ["certify", "--x", e, "--depth", "1", "--V", vertices, path],
            ["certify", "--x", e, "--V", "1", path],
            ["equiv", "--x", e, "--y", e2, path],
            ["equiv", "--x", e, "--y", r, path],
            ["equiv", "--x", e2, "--y", e2, "--depth", "3", path],
        ]
        if fewer is not None:
            out.append(["certify", "--x", e, "--depth", "3", "--V", fewer, path])
    four, reaching = "{maps}/four_interval.json", "{maps}/four_interval_reaching.json"
    out += [
        # Malformed inputs and check failures that CI runs as shell steps.
        ["point", "--x=-1/3", four],
        ["point", "--x", "2/3", "{tmp}/slope2.json"],
        ["validate", "{tmp}/slope2.json"],
        ["validate", "{tmp}/p2_partial.json"],
        ["validate", "{tmp}/p1_mixed.json"],
        ["rep", "--x", "1/2", "--V", "+-3", four],
        ["validate", "{tmp}/strings.json"],
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/b_strings.json",
         "-o", "{tmp}/strings_map.json"],
        ["tree", "--x", "3/5", "--depth", "1", reaching],
        ["equiv", "--x", "3/5", "--y", "3/5", "--depth", "1", reaching],
        # A distinct pair needs no root check; depth 0 expands no root.
        ["equiv", "--x", "3/5", "--y", "1/2", "--depth", "1", reaching],
        ["equiv", "--x", "3/5", "--y", "3/5", "--depth", "0", reaching],
        ["equiv", "--x", "1/2", "--y", "9/20", "--depth", "0", four],
        ["validate", "{tmp}/garbled.json"],
        ["validate", "{tmp}/missing.json"],
        ["graph", "--dot", "{tmp}/missing/graph.dot", four],
        ["validate", "{tmp}/deep.json"],
        ["synth", "--A", "{tmp}/deep.json", "--B", "{tmp}/b.json", "-o", "{tmp}/deep_map.json"],
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/deep.json", "-o", "{tmp}/deep_map.json"],
        # Python reads and prints ints of at most 4,300 digits: a longer
        # literal is a usage error, and a window node that outgrows the
        # limit ends the tree with exit 1.
        ["point", "--x", "1" * 5000, four],
        ["tree", "--x", f"{10**4299 + 2}/{2 * 10**4299}", "--depth", "6", four],
        # A file that is not UTF-8 text is malformed input.
        ["validate", "{tmp}/not_utf8.json"],
        # Gap positions left to the planner: one spec with no workable
        # placement among C(19, 9), and one whose placement is found.
        ["synth", "--A", "{tmp}/band20_a.json", "--B", "{tmp}/band20_b.json",
         "-o", "{tmp}/band20.json"],
        ["synth", "--A", "{tmp}/band8_a.json", "--B", "{tmp}/band8_straddles.json",
         "-o", "{tmp}/band8_found.json"],
        # Two regular points: the verdict compares the unrollings of the
        # intervals they lie in (distinct here, equivalent on the full shift).
        ["equiv", "--x", "5/27", "--y", "229/270", four],
        ["equiv", "--x", "1/3", "--y", "1/5", "{maps}/full_two_interval.json"],
        ["synth", "--A", "{tmp}/float_a.json", "--B", "{tmp}/float_b.json",
         "-o", "{tmp}/float_map.json"],
        # Escapes after two steps and after one, through the itinerary loop.
        ["point", "--x", "269/350", four],
        ["point", "--x", "3/35", four],
        # An imprimitive A of period 2: the P4 text and the graph report.
        ["validate", "{tmp}/bipartite8.json"],
        ["matrices", "{tmp}/bipartite8.json"],
        ["graph", "--dot", "{tmp}/graph.dot", "{tmp}/bipartite8.json"],
        # Infeasible specs: a row no placement can make contiguous, and a
        # single interval.
        ["synth", "--A", "{tmp}/unplaceable_a.json", "--B", "{tmp}/unplaceable_b.json",
         "-o", "{tmp}/unplaceable.json"],
        ["synth", "--A", "{tmp}/one_a.json", "--B", "{tmp}/one_b.json",
         "-o", "{tmp}/one.json"],
    ]
    return out


def prepare(tmp: Path) -> None:
    for name, data in INPUTS.items():
        (tmp / name).write_text(json.dumps(data))
    for name, raw in RAW_INPUTS.items():
        (tmp / name).write_bytes(raw)


def run(argv: list[str], tmp: Path) -> dict:
    """Run one command line in-process and digest what it printed."""
    maps = str(corpus_path("four_interval").parent)
    real = [arg.replace("{tmp}", str(tmp)).replace("{maps}", maps) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = commands.main(real)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so a crash shows as a difference
            code = type(exc).__name__

    def digest(text: str) -> str:
        text = text.replace(str(tmp), "{tmp}").replace(maps, "{maps}")
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": digest(out.getvalue()),
        "stderr_sha256": digest(err.getvalue()),
    }


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        prepare(tmp)
        return [run(argv, tmp) for argv in argv_list()]


def dumps(entries: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed transcript instead of writing it")
    args = parser.parse_args()
    entries = record()
    if not args.check:
        TRANSCRIPT.write_text(dumps(entries))
        print(f"wrote {len(entries)} entries to {TRANSCRIPT}")
        return 0
    committed = json.loads(TRANSCRIPT.read_text())
    differ = [new["argv"] for new, old in zip(entries, committed) if new != old]
    if len(entries) != len(committed):
        differ.append(f"{len(entries)} entries, {len(committed)} committed")
    for item in differ:
        print(f"differs: {item}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
