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
n = 8 band and the four-interval matrices that CI synthesizes, and the
malformed inputs that CI feeds the command line.  Paths are written as
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
from pathlib import Path

from escapemaps import commands
from escapemaps.corpus import corpus_path

TRANSCRIPT = Path(__file__).resolve().parent.parent / "tests" / "cli_transcript.json"

BAND8_A = [[int(abs(i - j) <= 1) for j in range(8)] for i in range(8)]
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
    "a.json": [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]],
    "b.json": [[1], [0], [0], [0]],
    "slope2.json": {
        "markov_intervals": [["0", "1"]],
        "branches": [{"slope": "2", "intercept": "0"}],
    },
    "strings.json": {
        "markov_intervals": ["01", "12"],
        "branches": [
            {"slope": "2", "intercept": "0"},
            {"slope": "2", "intercept": "-1"},
        ],
    },
    "b_strings.json": ["", "", "", ""],
}
TEXT_INPUTS = {
    "garbled.json": "{not json",
    "deep.json": "[" * 3000 + "]" * 3000,
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
    ]
    return out


def prepare(tmp: Path) -> None:
    for name, data in INPUTS.items():
        (tmp / name).write_text(json.dumps(data))
    for name, text in TEXT_INPUTS.items():
        (tmp / name).write_text(text)


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
