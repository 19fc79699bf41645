#!/usr/bin/env python3
"""Layered benchmark of escapemaps.

Usage, from the root of an escapemaps checkout:

    python3 perfbench/run.py --workload synth-sweep --seed 1 --seconds 30 --trace 0

Workloads are ``synth-sweep``, ``window-chain`` and ``cli-corpus`` (see
perfbench/README.md for why each exists).  Each is a closed loop with one
client: the next operation starts when the previous one has finished and
been checked.  Inputs come from the seed alone.

``--trace 0`` runs passes until ``--seconds`` have gone by.  Each pass is a
fresh batch generated from (seed, pass index), outside the timed span, so no
operation repeats.  A fixed reference task is timed between operations, and
every timing is scaled to the host speed at which that task takes its
nominal time (see ``REFERENCES``): a shared machine's speed drifts by tens
of percent over minutes, and the scaling takes that drift out.  The end-to-end
metrics are ``ops_per_s`` (completed operations over the scaled time spent
in operations), ``op_ms_p50``, ``op_ms_p90``, ``setup_s`` (median of several
fresh processes that import and generate the first batch) and
``peak_rss_mb``.  ``--trace 1`` runs the first batch once untraced to warm
up, once traced, with wrappers around the library's public functions, and
once more untraced, and reports the per-layer metrics; their counts repeat
exactly for a given seed.

Every operation is checked; a failure is counted, reported on stderr and
never stops the run.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Workload name: (module, reference task that its operations are scaled by).
WORKLOADS = {
    "synth-sweep": ("synth_sweep", "loop"),
    "window-chain": ("window_chain", "loop"),
    "cli-corpus": ("cli_corpus", "spawn"),
}
# Set for the harness and inherited by every process it starts, before
# anything imports numpy.  The library's numpy use is a power iteration on
# matrices of at most 32 rows, and OpenBLAS would otherwise start a worker
# thread per core on import, whose start-up swung numpy's import between 60
# and 140 ms with the load on the other core.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
CLI_PROBES = 5
MAX_REPORTED_FAILURES = 5
# Timings of a reference task between operations take the shared host's
# slow phases, which last from seconds to minutes, out of every reported
# time.  An operation's scale comes from the median of the two timings
# before it and the two after, so one preempted timing cannot move it.
SAMPLE_WINDOW = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny batches for the harness smoke run")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and generate the first batch, print the time")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "escapemaps" / "__init__.py").is_file():
        print("error: src/escapemaps not found; run from the root of an "
              "escapemaps checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)
    sys.path.insert(0, str(root / "src"))
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    if args.setup_probe:
        start = time.perf_counter()
        workload = make_workload(args, workdir)
        workload.setup()
        workload.batch(0)
        print(time.perf_counter() - start)
        close(workload)
        return 0
    if args.trace:
        metrics, attempted, failed, notes = traced_run(args, root, workdir)
    else:
        metrics, attempted, failed, notes = timed_run(args, root)
    for name, value in metrics.items():
        print(f"{name:48} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps({"env": environment(args, root, attempted) | notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def make_workload(args, workdir):
    module = importlib.import_module(WORKLOADS[args.workload][0])
    return module.Workload(args.seed, args.size, workdir)


def close(workload) -> None:
    if hasattr(workload, "close"):
        workload.close()


def notes_of(workload) -> dict:
    return workload.notes() if hasattr(workload, "notes") else {}


# -- host speed ------------------------------------------------------------------


def loop_reference() -> Fraction:
    """Interpreter and big-integer work like the library's own: a running
    sum of Fractions whose denominators grow to a few thousand bits."""
    x, total = Fraction(3, 7), Fraction(0)
    for k in range(1, 400):
        x = x * Fraction(2 * k + 1, 3 * k + 2) + Fraction(1, k)
        total += x
    return total


def spawn_reference() -> None:
    """The start-up every CLI call pays: a fresh interpreter that exits at
    once."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# Name: (task, its time on an idle 2-vCPU Xeon with Python 3.11 in seconds,
# operation time between two timings, runs per timing, of which the fastest
# counts).  The start-up cost of a CLI call flips between a fast and a slow
# state within seconds, so the spawn is timed once after every call.  Over a 12-minute probe in which CLI
# calls got 39% faster, their time over the spawn's stayed within 3%, and
# over the loop's moved by 13%; set-up, which import time dominates in two
# workloads, behaved the same.  The loop follows in-process work closely
# and costs far less time between operations.
REFERENCES = {
    "loop": (loop_reference, 0.008, 0.25, 3),
    "spawn": (spawn_reference, 0.05, 0.0, 1),
}


class HostSpeed:
    """Timings of a reference task taken between operations.

    ``scale(k)`` turns seconds measured after timing k into seconds at the
    reference speed.  The task runs with the garbage collector off, so the
    heap the library leaves behind does not slow it."""

    def __init__(self, reference: str) -> None:
        self.work, self.nominal_s, self.every_s, self.runs = REFERENCES[reference]
        self.samples: list[float] = []
        self.pending = 0.0

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(self.runs):
                start = time.perf_counter()
                self.work()
                best = min(best, time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.append(best)
        self.pending = 0.0

    def tick(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= self.every_s:
            self.sample()

    @property
    def index(self) -> int:
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        window = self.samples[max(0, k - SAMPLE_WINDOW + 1): k + SAMPLE_WINDOW + 1]
        return self.nominal_s / statistics.median(window)

    def scaled_total(self, latencies) -> float:
        return sum(seconds * self.scale(k) for seconds, k in latencies)

    def overall(self) -> float:
        return self.nominal_s / statistics.median(self.samples)


# -- the closed loop ---------------------------------------------------------


class Tally:
    """Attempted and failed operations; the first few failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {op!r:.300}: {problem}", file=sys.stderr)


def run_pass(workload, ops, tally: Tally, tracer=None, speed=None, deadline=None) -> list[tuple]:
    """One pass over a batch, cut short once ``deadline`` has passed (the
    batch is shuffled, so a cut pass is a random share of it).  Returns, per
    operation, the seconds it took and the index of the last reference
    timing before it (None without ``speed``)."""
    latencies = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = workload.execute(op)
            problem = None
        except Exception as exc:  # counted as a failure, never ends the run
            problem = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if speed is None:
            latencies.append((seconds, None))
        else:
            latencies.append((seconds, speed.index))
            speed.tick(seconds)
        if problem is None:
            if tracer is not None:
                tracer.active = False
            try:
                problem = workload.check(op, out)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if tracer is not None:
                tracer.active = True
        tally.record(op, problem)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return latencies


def timed_run(args, root):
    setup_s = setup_seconds(args, root)
    speed = HostSpeed(WORKLOADS[args.workload][1])
    workload = make_workload(args, HERE / "out")
    try:
        workload.setup()
        tally = Tally()
        latencies = []
        passes = 0
        speed.sample()
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            ops = workload.batch(passes)
            latencies += run_pass(workload, ops, tally, speed=speed, deadline=deadline)
            passes += 1
        speed.sample()
        rss = peak_rss_mb(workload)
        notes = notes_of(workload)
    finally:
        close(workload)
    per_op = [1000 * seconds * speed.scale(k) for seconds, k in latencies]
    completed = tally.attempted - tally.failed
    metrics = {
        "ops_per_s": (1000 * completed / sum(per_op), "1/s"),
        "op_ms_p50": (statistics.median(per_op), "ms"),
        "op_ms_p90": (p90(per_op), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    wall_s = sum(seconds for seconds, _ in latencies)
    print(f"{'error_rate':48} {tally.failed / tally.attempted:>16.6g} fraction")
    print(f"{'passes':48} {passes:>16} count")
    print(f"{'unscaled ops_per_s':48} {completed / wall_s:>16.6g} 1/s")
    print(f"{'host speed (1 = reference speed)':48} {speed.overall():>16.6g} ratio")
    notes |= {"passes": passes, "host_speed": speed.overall(),
              "unscaled_ops_per_s": completed / wall_s}
    return as_metrics(metrics), tally.attempted, tally.failed, notes


def p90(values):
    """90th percentile, interpolating between order statistics as numpy's
    default does; steadier than the exclusive method on short batches."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def setup_seconds(args, root) -> float:
    """Median of several set-up probes, each scaled by the timings of the
    spawn reference taken just before and just after it.  An untimed probe
    goes first, so that the files set-up reads are in the page cache, as
    they are for a user who runs the program repeatedly."""
    setup_probe(args, root)
    speed = HostSpeed("spawn")
    speed.sample()
    scaled = []
    for _ in range(SETUP_PROBES):
        seconds = setup_probe(args, root)
        speed.sample()
        scaled.append(seconds * speed.nominal_s / statistics.mean(speed.samples[-2:]))
    return statistics.median(scaled)


def setup_probe(args, root) -> float:
    """Import plus generation of the first batch, timed inside a fresh
    interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb(workload) -> float:
    if hasattr(workload, "peak_rss_mb"):
        return workload.peak_rss_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# -- traced run ---------------------------------------------------------------


def traced_run(args, root, workdir):
    from tracing import Tracer, merge, write_spans

    tracer = Tracer()
    tracer.install()
    try:
        # Only the library calls a workload counts as set-up work are traced
        # during set-up; generating the batch is the benchmark's own work.
        tracer.active = False
        tracer.op = "setup"
        workload = make_workload(args, workdir)
        workload.tracer = tracer
        workload.setup()
        ops = workload.batch(0)
        tally = Tally()
        # An untraced warm-up pass, so that the traced and the untraced pass
        # whose times give the overhead both run warm.
        run_pass(workload, ops, tally)
        tracer.active = True
        speed = HostSpeed(WORKLOADS[args.workload][1])
        speed.sample()
        traced = run_pass(workload, ops, tally, tracer, speed)
    finally:
        tracer.uninstall()
    try:
        workload.tracer = None
        plain = run_pass(workload, ops, tally, speed=speed)
        speed.sample()
        notes = notes_of(workload)
    finally:
        close(workload)

    spans_file = workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    spans_file.unlink(missing_ok=True)
    write_spans(spans_file, "main", tracer.spans)
    for k, spans in enumerate(getattr(workload, "child_spans", [])):
        write_spans(spans_file, f"cli-{k}", spans)
    summary = merge([tracer.summary(), *getattr(workload, "child_summaries", [])])
    # Both passes run the same operations, so the ratio of their ops_per_s
    # is the inverse ratio of their total times at the reference speed.
    overhead = speed.scaled_total(plain) / speed.scaled_total(traced)
    interpreter_ms, import_ms = cli_probes(root)
    metrics = layer_metrics(summary, overhead, tally, interpreter_ms, import_ms)
    return as_metrics(metrics), tally.attempted, tally.failed, notes


def layer_metrics(summary, overhead, tally, interpreter_ms, import_ms) -> dict:
    self_s, calls = summary["self_s"], summary["calls"]
    counters, maxima = summary["counters"], summary["maxima"]
    checked = counters.get("synthesis.checked", 0)
    out = {}
    for name in ("synthesis.feasibility_check", "synthesis.perron_widths", "synthesis.synthesize"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["synthesis.feasible_ratio"] = (
        counters.get("synthesis.feasible", 0) / checked if checked else 0.0, "fraction")
    out["synthesis.coef_bits_max"] = (maxima.get("synthesis.coef_bits_max", 0), "bits")
    out["maps.validate.self_s"] = (self_s.get("maps.validate", 0.0), "s")
    for name in ("validate", "locate", "interval_image", "branch_inverse"):
        out[f"maps.{name}.calls"] = (calls.get(f"maps.{name}", 0), "count")
    out["transitions.transition_data.calls"] = (calls.get("transitions.transition_data", 0), "count")
    for name in ("transitions.transition_data", "transitions.is_primitive",
                 "orbits.classify_point", "orbits.build_orbit_tree"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["orbits.forward_steps"] = (counters.get("orbits.forward_steps", 0), "count")
    out["orbits.window_nodes"] = (counters.get("orbits.window_nodes", 0), "count")
    out["orbits.point_bits_max"] = (maxima.get("orbits.point_bits_max", 0), "bits")
    for name in ("operators.realize", "operators.check_relations",
                 "operators.faithfulness_certificate", "equivalence.compare_points",
                 "equivalence.classify_corpus"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("operators.basis_size", "operators.relation_checks",
                 "equivalence.refinement_rounds", "equivalence.intertwiner_pairs"):
        out[name] = (counters.get(name, 0), "count")
    out["cli.interpreter_ms"] = (interpreter_ms, "ms")
    out["cli.import_ms"] = (import_ms, "ms")
    out["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    out["cli.stdout_bytes"] = (counters.get("cli.stdout_bytes", 0), "bytes")
    out["trace_overhead_ratio"] = (overhead, "ratio")
    out["error_rate"] = (tally.failed / tally.attempted, "fraction")
    return out


def cli_probes(root) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and median time to import
    escapemaps.cli measured inside a fresh interpreter, in ms."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bare = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True)
        bare.append(1000 * (time.perf_counter() - start))
    code = ("import time; t = time.perf_counter(); import escapemaps.cli; "
            "print(1000 * (time.perf_counter() - t))")
    imports = [
        float(subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(CLI_PROBES)
    ]
    return statistics.median(bare), statistics.median(imports)


# -- environment ----------------------------------------------------------------


def environment(args, root, attempted: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_attempted": attempted,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
