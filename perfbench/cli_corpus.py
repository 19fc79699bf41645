"""cli-corpus: the command-line pipeline, one ``python -m escapemaps`` at a time.

Each operation starts one CLI process on one of the three bundled maps and
waits for it.  Every pass is a fresh batch from (seed, pass index) that runs
every subcommand once (``validate``, ``matrices
--block``, ``graph``, ``point``, ``tree`` as JSON and as DOT, ``rep --check``,
``equiv``, ``certify``), taking the maps in turn, plus ``synth`` on seeded
matrix files and one malformed invocation that must exit 2.
Points are small seeded rationals: an escape point with a denominator below
40, pulled back one or two steps, or a purely periodic point of the doubling
map.  Interpreter start-up, imports and JSON handling dominate here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import escapemaps as em
import escapemaps.cli

import gen

HERE = Path(__file__).resolve().parent
COMMANDS = ("validate", "matrices", "graph", "point", "tree", "tree-dot", "rep", "equiv", "certify")
IN_PROCESS = ("point", "equiv", "matrices")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: int  # exit code
    output: str = ""  # file the command writes, if any


class Workload:
    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.root = Path.cwd()
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.tracer = None
        self.child_summaries: list[dict] = []
        self.child_spans: list[tuple] = []
        self.peak_rss_kib = 0
        self._expected: dict[tuple, tuple] = {}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- inputs ---------------------------------------------------------

    def setup(self) -> None:
        self.maps = {
            name: (str(self.root / "src" / "escapemaps" / "maps" / f"{name}.json"),
                   em.load_document(name).map)
            for name in em.CORPUS_NAMES
        }

    def batch(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{index}")
        per_map = {name: self._map_ops(rng, name, path, m) for name, (path, m) in self.maps.items()}
        # Each subcommand runs once per pass, on the maps in turn from a
        # seeded start.  A short pass lets a run time every operation many
        # times, and start-up dominates every command whichever map it reads.
        start = rng.randrange(len(em.CORPUS_NAMES))
        ops = []
        for k, command in enumerate(COMMANDS):
            for shift in range(len(em.CORPUS_NAMES)):
                name = em.CORPUS_NAMES[(start + k + shift) % len(em.CORPUS_NAMES)]
                if command in per_map[name]:
                    ops.append(per_map[name][command])
                    break
        ops.append(self._synth_op(rng, rng.choice((em.STRICT, em.PARTIAL))))
        malformed = self._malformed(rng, ops)
        if self.size == "tiny":
            ops = rng.sample(ops, 5)
        ops.append(malformed)
        rng.shuffle(ops)
        return ops

    def _map_ops(self, rng, name: str, path: str, m) -> dict[str, Op]:
        cells = [cell for k, _, _ in m.gaps for cell in em.incidence_cells(m, k)]
        if cells:
            x, inc = self._escape_point(rng, m, cells)
            y, _ = self._escape_point(rng, m, [c for c in cells if c[2] == inc])
            vertices = ",".join(str(i) for i, v in enumerate(inc, start=1) if not v)
        else:
            # The doubling map: odd denominators give purely periodic orbits
            # that never meet the partition points 0, 1/2 and 1.
            x, y = (Fraction(rng.randrange(1, q), q) for q in rng.sample((3, 5, 7, 9, 11, 13, 15), 2))
            vertices = ",".join(str(i) for i in range(1, m.n + 1))
        depth = str(rng.randint(2, 5))
        fx, fy = em.format_rational(x), em.format_rational(y)
        dot = str(self.tmp / f"{name}.dot")
        ops = {
            "validate": Op(("validate", path), 0),
            "matrices": Op(("matrices", "--block", path), 0),
            "graph": Op(("graph", "--dot", dot, path), 0, dot),
            "point": Op(("point", "--x", fx, path), 0),
            "tree": Op(("tree", "--x", fx, "--depth", depth, path), 0),
            "tree-dot": Op(("tree", "--x", fx, "--depth", depth, "--dot", path), 0),
            "rep": Op(("rep", "--x", fx, "--depth", depth, "--V", vertices, "--check", path), 0),
            "equiv": Op(("equiv", "--x", fx, "--y", fy, path), 0),
        }
        if cells:  # certificates need an escape window
            ops["certify"] = Op(("certify", "--x", fx, "--V", vertices, path), 0)
        return ops

    @staticmethod
    def _escape_point(rng, m, cells):
        """A point inside a seeded escape cell with a denominator below 40,
        pulled back along a seeded admissible word of length 0 to 2."""
        lo, hi, inc = rng.choice(cells)
        choices = [Fraction(a, q) for q in range(2, 40) for a in range(q) if lo < Fraction(a, q) < hi]
        x = rng.choice(choices)
        word = gen.backward_word(rng, em.markov_matrix(m), inc, 2)
        for i in word[: rng.randint(0, 2)]:
            x = m.branch_inverse(i, x)
        return x, inc

    def _synth_op(self, rng, mode: str) -> Op:
        n = rng.randint(3, 5)
        while True:
            markov = gen.contiguous_matrix(rng, n)
            usable = [p for p in range(1, n) if any(gen.straddle(markov, p))]
            if usable:
                break
        p = rng.choice(usable)
        a_file, b_file, out = (self.tmp / f"synth-{part}.json" for part in ("A", "B", "map"))
        a_file.write_text(json.dumps([list(row) for row in markov]))
        column = [[u] for u in gen.straddle(markov, p)]
        b_file.write_text(json.dumps({"rows": column, "gap_positions": [p]}))
        return Op(("synth", "--A", str(a_file), "--B", str(b_file), "--mode", mode, "-o", str(out)), 0, str(out))

    def _malformed(self, rng, ops: list[Op]) -> Op:
        base = rng.choice([op for op in ops if op.argv[0] in ("point", "rep", "equiv")])
        argv = list(base.argv)
        kind = rng.randrange(3)
        if kind == 0:
            argv[argv.index("--x") + 1] = rng.choice(("1/0", "0.25", "one-half", "1//2"))
        elif kind == 1:
            bad = self.tmp / "bad.json"
            doc = json.loads(Path(argv[-1]).read_text())
            doc["comment"] = "unknown key"
            bad.write_text(json.dumps(doc))
            argv[-1] = str(bad)
        else:
            argv[1:1] = ["--max-iter", "many"]
        return Op(tuple(argv), 2)

    # -- one operation ----------------------------------------------------

    def execute(self, op: Op):
        if self.tracer is not None and self.tracer.active:
            spans = self.tmp / "spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(self.tracer.op), *op.argv]
        else:
            spans = None
            cmd = [sys.executable, "-m", "escapemaps", *op.argv]
        with open(self.tmp / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode().strip().splitlines()[-1:]
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if spans is not None:
            dump = json.loads(spans.read_text())
            spans.unlink()
            self.child_summaries.append(dump["summary"])
            self.child_summaries[-1]["counters"]["cli.stdout_bytes"] = len(out)
            self.child_spans.append(dump["spans"])
        return proc.returncode, out.decode(), message

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kib / 1024

    # -- correctness --------------------------------------------------------

    def check(self, op: Op, result) -> str | None:
        code, out, message = result
        if code != op.expect:
            return f"exit code {code}, expected {op.expect}: {message}"
        if op.expect == 2:
            return None if not out else "malformed input printed a report"
        command = op.argv[0]
        if command == "tree" and "--dot" in op.argv:
            return None if out.startswith("digraph") else "tree --dot printed no DOT graph"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if command == "graph" and not Path(op.output).read_text().startswith("digraph"):
            return "graph wrote no DOT file"
        if command == "synth":
            em.map_document_from_jsonable(json.loads(Path(op.output).read_text()))
        if command in IN_PROCESS and (code, report) != self._in_process(op.argv):
            return f"{command} differs from the same call made in-process"
        return None

    def _in_process(self, argv: tuple) -> tuple:
        if argv not in self._expected:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = escapemaps.cli.main(list(argv))
            self._expected[argv] = (code, json.loads(buffer.getvalue()))
        return self._expected[argv]
