#!/usr/bin/env python3
"""Record, or check, the CLI transcript ``tests/cli_transcript.json``: for a
fixed list of command lines, the exit code, and for stdout, stderr and the
file that ``graph --dot FILE`` or ``synth -o FILE`` writes, the first
``TEXT_LINES`` lines and the sha256 of the whole text.  An entry may carry a
``why``: the fact it pins.

Usage, from the root of an escapemaps checkout:

    PYTHONPATH=src python3 scripts/cli_transcript.py          # rewrite it
    PYTHONPATH=src python3 scripts/cli_transcript.py --check  # compare

``--check`` exits 1 if any entry differs, and prints for each a unified diff
of its stored lines, or says that the difference lies past them.  Each
command line runs in-process through ``escapemaps.commands.main``, in order,
since later entries read the maps that the ``synth`` entries write.  The
temporary and the bundled-map directories are written ``{tmp}`` and
``{maps}``, in the arguments and in what is stored, so nothing depends on
where they sit.  Help texts and argparse usage errors are left out, since
their layout changes between Python versions.  An exception that escapes
``main`` is recorded by its class name in place of the exit code, and a file
that the command did not write by null.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
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
# The lines of each text kept readable in an entry; the digest covers the rest.
TEXT_LINES = 40
STREAMS = ("stdout", "stderr", "file")

BAND8_A = [[int(abs(i - j) <= 1) for j in range(8)] for i in range(8)]
BAND20_A = [[int(abs(i - j) <= 1) for j in range(20)] for i in range(20)]


def bipartite_map(n: int) -> dict:
    """An n-interval map (n even) whose transition matrix is complete
    bipartite, so of period 2: branch i (0-based) has slope n/2 and maps
    [i/n, (i+1)/n] onto [1/2, 1] for i < n/2 and onto [0, 1/2] otherwise.
    The hang guard of the CI workflow validates it at n = 160."""
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
    # A mode must be "strict" or "partial"; the empty string is neither.
    "empty_mode_b.json": {"rows": [[1], [0], [0], [0]], "mode": ""},
    # With the gap after interval 1, row 2's segment starts at the gap and no
    # segment ends there: row 1, which targets only the gap, does not count.
    "one_side_a.json": [[0, 0, 0], [0, 1, 1], [1, 1, 1]],
    "one_side_b.json": {"rows": [[1], [1], [0]], "gap_positions": [1]},
    # States 1 and 2 are bisimilar, so two escape cells whose rows differ
    # only there are equivalent, with windows that differ in labels.
    "bisimilar_a.json": [[0, 0, 0, 1, 0], [1, 1, 1, 0, 0], [0, 0, 0, 0, 1],
                         [0, 0, 1, 1, 0], [1, 1, 0, 0, 0]],
    "bisimilar_b.json": {"rows": [[1], [1], [0], [1], [0]], "gap_positions": [3]},
}
RAW_INPUTS = {
    "garbled.json": b"{not json",
    "deep.json": b"[" * 3000 + b"]" * 3000,
    "not_utf8.json": b"\xff\xfe\x00bad",
}

FOUR = "{maps}/four_interval.json"
REACHING = "{maps}/four_interval_reaching.json"
MAP = "{tmp}/map.json"
REVERSING = "{tmp}/reversing.json"
BISIMILAR = "{tmp}/bisimilar.json"

# Per map: escape points e and e2 (None without a gap), a regular point r
# with the horizon that roots its window on a cycle, a partition point, and
# an admissible vertex set with a subset that misses part of the complement.
MAPS = {
    FOUR: ("1/2", "9/20", "5/27", 4, "1/4", "2,3,4", "2,3"),
    REACHING: ("13/20", "1/2", "5/27", 1, "1/4", "2,3", "2"),
    "{maps}/full_two_interval.json": (None, None, "1/3", 0, "1/2", None, None),
    REVERSING: ("1/2", "1/6", "3/4", 0, "1/3", "", None),
    "{tmp}/band8.json": ("1/2", "190/429", "2/11", 0, "4/33", "1,2,3,6,7,8", "1,2,3"),
    MAP: ("33/74", "1/2", "15/74", 2, "12/37", "2,3,4", "3,4"),
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
    out += [
        # Malformed inputs and check failures.
        ["point", "--x=-1/3", FOUR],
        ["point", "--x", "2/3", "{tmp}/slope2.json"],
        ["validate", "{tmp}/slope2.json"],
        ["validate", "{tmp}/p2_partial.json"],
        ["validate", "{tmp}/p1_mixed.json"],
        ["rep", "--x", "1/2", "--V", "+-3", FOUR],
        ["validate", "{tmp}/strings.json"],
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/b_strings.json",
         "-o", "{tmp}/strings_map.json"],
        ["tree", "--x", "1/2", "--horizon", "5", "--max-iter", "3", FOUR],
        ["tree", "--x", "3/5", "--depth", "1", REACHING],
        ["equiv", "--x", "3/5", "--y", "3/5", "--depth", "1", REACHING],
        # Both roots are checked at the given depth whatever the verdict, so a
        # distinct pair and an escape/regular mix are refused too; depth 0
        # expands no root.
        ["equiv", "--x", "3/5", "--y", "1/2", "--depth", "1", REACHING],
        ["equiv", "--x", "5/27", "--y", "3/5", "--depth", "1", REACHING],
        ["equiv", "--x", "3/5", "--y", "3/5", "--depth", "0", REACHING],
        ["equiv", "--x", "3/5", "--y", "13/20", "--depth", "0", REACHING],
        ["equiv", "--x", "1/2", "--y", "9/20", "--depth", "0", FOUR],
        ["validate", "{tmp}/garbled.json"],
        ["validate", "{tmp}/missing.json"],
        ["graph", "--dot", "{tmp}/missing/graph.dot", FOUR],
        ["validate", "{tmp}/deep.json"],
        ["synth", "--A", "{tmp}/deep.json", "--B", "{tmp}/b.json", "-o", "{tmp}/deep_map.json"],
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/deep.json", "-o", "{tmp}/deep_map.json"],
        # Python reads and prints ints of at most 4,300 digits: a longer
        # literal is a usage error, and a window node that outgrows the
        # limit ends the tree with exit 1.
        ["point", "--x", "1" * 5000, FOUR],
        ["tree", "--x", f"{10**4299 + 2}/{2 * 10**4299}", "--depth", "6", FOUR],
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
        ["equiv", "--x", "5/27", "--y", "229/270", FOUR],
        ["equiv", "--x", "1/3", "--y", "1/5", "{maps}/full_two_interval.json"],
        ["synth", "--A", "{tmp}/float_a.json", "--B", "{tmp}/float_b.json",
         "-o", "{tmp}/float_map.json"],
        # Escapes after two steps and after one: the itinerary is the branch
        # labels that classify_point collects, then the gap symbol.
        ["point", "--x", "269/350", FOUR],
        ["point", "--x", "3/35", FOUR],
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
        ["synth", "--A", "{tmp}/a.json", "--B", "{tmp}/empty_mode_b.json",
         "-o", "{tmp}/empty_mode.json"],
        # Every number the command line reads is written in ASCII digits.
        ["point", "--x", "\u0669/\u0662\u0660", FOUR],
        ["rep", "--x", "1/2", "--V", "\u0663", FOUR],
        # Padding is ASCII whitespace only.
        ["point", "--x", "\u30009/20", FOUR],
        ["rep", "--x", "1/2", "--V", "\u30002", FOUR],
        # A gap that only the segment starting at it reaches.
        ["synth", "--A", "{tmp}/one_side_a.json", "--B", "{tmp}/one_side_b.json",
         "--mode", "partial", "-o", "{tmp}/one_side.json"],
        # Windows and points that no per-map entry above covers.
        ["point", "--x", "9/20", FOUR],
        ["tree", "--x", "1/2", "--depth", "3", "--dot", FOUR],
        ["certify", "--x", "1/2", "--depth", "4", "--V", "2,3", FOUR],
        ["rep", "--x", "5/27", "--depth", "5", "--horizon", "4", "--check", FOUR],
        ["rep", "--x", "33/74", "--depth", "4", "--V", "2,3,4", "--check", MAP],
        ["tree", "--x", "1/2", "--depth", "4", REVERSING],
        ["rep", "--x", "1/2", "--depth", "4", "--check", REVERSING],
        # The intertwiner of a 160,219-node window, and an equivalent pair
        # with unequal rows.
        ["equiv", "--x", "1/2", "--y", "9/20", "--depth", "30", FOUR],
        ["synth", "--A", "{tmp}/bisimilar_a.json", "--B", "{tmp}/bisimilar_b.json",
         "--mode", "partial", "-o", BISIMILAR],
        ["equiv", "--x", "81/148", "--y", "83/148", "--depth", "2", BISIMILAR],
    ]
    return out


# The fact that an entry pins, where its output alone does not say which
# part of it matters.  Keyed by the entry's argv.
WHY = {
    ("synth", "--A", "{tmp}/a.json", "--B", "{tmp}/b.json", "--mode", "strict",
     "-o", MAP): "builds the four-interval map with one gap after interval 2",
    ("validate", MAP): "the synthesized map passes every check (exit 0)",
    ("certify", "--x", "33/74", "--depth", "4", "--V", "2,3,4", MAP):
        "the synthesized map's admissible set is verified (exit 0)",
    ("rep", "--x", "33/74", "--depth", "4", "--V", "2,3,4", "--check", MAP):
        "the synthesized map's escape window passes its relation and image "
        "identity checks (exit 0)",
    ("graph", "--dot", "{tmp}/graph.dot", FOUR): "writes A as a DOT digraph",
    ("tree", "--x", "1/2", "--depth", "3", "--dot", FOUR): "prints the window as a DOT digraph",
    ("point", "--x", "1/4", FOUR): "a partition point is a boundary orbit hit at step 0",
    ("point", "--x", "9/20", FOUR): "a point inside the gap has escaped at step 0",
    ("point", "--x=-1/3", FOUR): "a point left of the ambient interval is refused (exit 1)",
    ("point", "--x", "1" * 5000, FOUR):
        "a literal over Python's 4,300-digit limit is malformed input (exit 2)",
    ("point", "--x", "\u0669/\u0662\u0660", FOUR):
        "a non-ASCII digit is malformed input (exit 2), not 9/20",
    ("rep", "--x", "1/2", "--V", "\u0663", FOUR):
        "a non-ASCII digit is malformed input (exit 2), not vertex 3",
    ("point", "--x", "\u30009/20", FOUR):
        "an ideographic space is malformed input (exit 2), not padding",
    ("rep", "--x", "1/2", "--V", "\u30002", FOUR):
        "an ideographic space is malformed input (exit 2), not padding",
    ("rep", "--x", "1/2", "--V", "+-3", FOUR): "a sign-mangled vertex is malformed input (exit 2)",
    ("point", "--x", "2/3", "{tmp}/slope2.json"):
        "an analysis command refuses a map that fails P1 (exit 1)",
    ("validate", "{tmp}/slope2.json"):
        "names the images [0, 2] against the ambient interval [0, 1] (exit 1)",
    ("validate", "{tmp}/deep.json"): "a document nested 3,000 deep is malformed input (exit 2)",
    ("validate", "{tmp}/not_utf8.json"): "a file that is not UTF-8 is malformed input (exit 2)",
    ("validate", "{tmp}/strings.json"): "a string is not an interval (exit 2)",
    ("synth", "--A", "{tmp}/a.json", "--B", "{tmp}/b_strings.json",
     "-o", "{tmp}/strings_map.json"): "a string is not an escape row (exit 2)",
    ("synth", "--A", "{tmp}/one_side_a.json", "--B", "{tmp}/one_side_b.json",
     "--mode", "partial", "-o", "{tmp}/one_side.json"):
        "names the gap 1^, which only a segment starting at it reaches (exit 1)",
    ("tree", "--x", "1/2", "--horizon", "5", "--max-iter", "3", FOUR):
        "a horizon past --max-iter is a usage error (exit 2)",
    ("tree", "--x", "3/5", "--depth", "1", REACHING):
        "names the partition point 9/10, a preimage of the root, on stderr (exit 1)",
    ("equiv", "--x", "3/5", "--y", "3/5", "--depth", "1", REACHING):
        "refuses the root that tree refuses (exit 1)",
    ("equiv", "--x", "3/5", "--y", "1/2", "--depth", "1", REACHING):
        "checks both roots before any verdict, so a distinct pair names 9/10 too (exit 1)",
    ("equiv", "--x", "1/2", "--y", "9/20", FOUR):
        "two points of one escape cell get the identity intertwiner on the 16 "
        "nodes of their window",
    ("equiv", "--x", "1/2", "--y", "9/20", "--depth", "30", FOUR):
        "the identity on a 160,219-node window is stated by its node count, "
        "not listed pair by pair",
    ("equiv", "--x", "81/148", "--y", "83/148", "--depth", "2", BISIMILAR):
        "an equivalent pair with unequal rows has no label-respecting intertwiner",
    ("certify", "--x", "1/2", "--depth", "4", "--V", "2,3,4", FOUR):
        "the fully admissible set is verified (exit 0)",
    ("certify", "--x", "1/2", "--depth", "4", "--V", "2,3", FOUR):
        "dropping vertex 4 makes it a complement miss whose gap vanishes (exit 1)",
    ("rep", "--x", "5/27", "--depth", "5", "--horizon", "4", "--check", FOUR):
        "a regular window whose cycle closes through its root passes its checks (exit 0)",
    ("tree", "--x", "1/2", "--depth", "4", REVERSING):
        "pulls the window back through a branch of negative slope",
    ("rep", "--x", "1/2", "--depth", "4", "--check", REVERSING):
        "the window checks pass through a branch of negative slope (exit 0)",
    ("matrices", REACHING): "the bundled claim matches the computed escape matrix",
}


def prepare(tmp: Path) -> None:
    for name, data in INPUTS.items():
        (tmp / name).write_text(json.dumps(data))
    for name, raw in RAW_INPUTS.items():
        (tmp / name).write_bytes(raw)


def written_file(argv: list[str]) -> str | None:
    """The file a command line writes: the argument after ``graph --dot``
    or ``synth -o``, or None for the other commands."""
    flag = {"graph": "--dot", "synth": "-o"}.get(argv[0])
    return argv[argv.index(flag) + 1] if flag in argv else None


def run(argv: list[str], tmp: Path) -> dict:
    """Run one command line in-process and store what it printed and the
    file it wrote (removed first, so a stale copy is not read)."""
    maps = str(corpus_path("four_interval").parent)
    real = [arg.replace("{tmp}", str(tmp)).replace("{maps}", maps) for arg in argv]
    target = written_file(argv)
    if target is not None:
        target = Path(target.replace("{tmp}", str(tmp)))
        target.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = commands.main(real)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so a crash shows as a difference
            code = type(exc).__name__

    entry: dict = {"argv": argv}
    if tuple(argv) in WHY:
        entry["why"] = WHY[tuple(argv)]
    entry["exit"] = code
    texts = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    if target is not None:
        texts["file"] = target.read_text() if target.exists() else None
    for stream, text in texts.items():
        if text is None:
            entry[stream] = entry[f"{stream}_sha256"] = None
            continue
        text = text.replace(str(tmp), "{tmp}").replace(maps, "{maps}")
        entry[stream] = text.splitlines()[:TEXT_LINES]
        entry[f"{stream}_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return entry


def record() -> list[dict]:
    argvs = argv_list()
    stale = set(WHY).difference(map(tuple, argvs))
    if stale:
        raise ValueError(f"WHY names command lines the transcript does not run: {stale}")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        prepare(tmp)
        return [run(argv, tmp) for argv in argvs]


def dumps(entries: list[dict]) -> str:
    """The transcript text: one field per line, stored text one line per row."""

    def field(key: str, value: object) -> str:
        if key in STREAMS and value:
            rows = ",\n".join(f"    {json.dumps(line)}" for line in value)
            return f"  {json.dumps(key)}: [\n{rows}\n  ]"
        return f"  {json.dumps(key)}: {json.dumps(value)}"

    blocks = ("{\n" + ",\n".join(field(*item) for item in e.items()) + "\n}" for e in entries)
    return "[\n" + ",\n".join(blocks) + "\n]\n"


def differences(old: dict, new: dict) -> list[str]:
    """What changed between a stored entry and a fresh one: the fields other
    than text, and a unified diff of each stream's stored lines, or a note
    that the stream differs past them."""
    lines = [f"differs: {json.dumps(new['argv'])}"]
    for key in ("argv", "why", "exit"):
        if old.get(key) != new.get(key):
            lines.append(f"  {key}: {json.dumps(old.get(key))} -> {json.dumps(new.get(key))}")
    for stream in STREAMS:
        diff = list(difflib.unified_diff(
            old.get(stream) or [], new.get(stream) or [],
            f"committed {stream}", f"recorded {stream}", lineterm="",
        ))
        if diff:
            lines += diff
        elif old.get(f"{stream}_sha256") != new.get(f"{stream}_sha256"):
            lines.append(f"  {stream} differs past the first {TEXT_LINES} lines stored")
    return lines


def check(path: Path = TRANSCRIPT) -> int:
    """Compare a fresh recording with the transcript at ``path``: print what
    differs in each entry, and return 1 if any entry differs, else 0."""
    committed = json.loads(path.read_text())
    entries = record()
    failed = len(entries) != len(committed)
    if failed:
        print(f"{len(entries)} entries recorded, {len(committed)} committed")
    for new, old in zip(entries, committed):
        if new != old:
            failed = True
            print("\n".join(differences(old, new)))
    return int(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed transcript instead of writing it")
    if parser.parse_args().check:
        return check()
    entries = record()
    TRANSCRIPT.write_text(dumps(entries))
    print(f"wrote {len(entries)} entries to {TRANSCRIPT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
