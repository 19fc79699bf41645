#!/usr/bin/env python3
"""Smoke run and determinism self-check of the benchmark harness.

Usage, from the root of an escapemaps checkout:

    python3 perfbench/selfcheck.py

For every workload, at the tiny size, it checks that:

* a timed run (``--trace 0``) and a traced run (``--trace 1``) end with exit
  code 0, ``correct`` true, and exactly the metrics BENCHMARK.json names;
* every count-type per-layer metric is identical across two traced runs
  with one seed;
* one seed always generates the same inputs, and a different seed or
  another pass of the same seed changes them;

and that the harness exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 7
# Units of per-layer metrics that are counts of work, not measured times.
COUNT_UNITS = {"count", "bits", "bytes", "fraction"}


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def result(done) -> dict:
    if done.returncode != 0:
        fail(f"harness exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def inputs_digest(workload: str, seed: int, index: int = 0) -> str:
    import run as harness

    args = harness.parse_args(["--workload", workload, "--seed", str(seed), "--size", "tiny"])
    instance = harness.make_workload(args, HERE / "out")
    try:
        instance.setup()
        text = repr(instance.batch(index))
    finally:
        harness.close(instance)
    if hasattr(instance, "tmp"):
        text = text.replace(str(instance.tmp), "TMP")
    return hashlib.sha256(text.encode()).hexdigest()


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    (HERE / "out").mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        timed = result(run(workload, 0))
        first, second = result(run(workload, 1)), result(run(workload, 1))
        for res, names in ((timed, end_to_end), (first, per_layer), (second, per_layer)):
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{workload}: {res['failed']} of {res['attempted']} operations failed")
            if set(res["metrics"]) != names:
                fail(f"{workload}: metrics {sorted(set(res['metrics']) ^ names)} differ from BENCHMARK.json")
        for name, metric in first["metrics"].items():
            if metric["unit"] in COUNT_UNITS and metric != second["metrics"][name]:
                fail(f"{workload}: {name} changed between traced runs of one seed")
        digest = inputs_digest(workload, SEED)
        if digest != inputs_digest(workload, SEED):
            fail(f"{workload}: one seed generated different inputs")
        if digest == inputs_digest(workload, SEED + 1):
            fail(f"{workload}: another seed generated the same inputs")
        if digest == inputs_digest(workload, SEED, 1):
            fail(f"{workload}: two passes of one seed generated the same inputs")
        print(f"ok  {workload}")

    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        workload = spec["workloads"][0]["name"]
        done = subprocess.run(
            [sys.executable, str(Path(bare) / HERE.name / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if done.returncode == 0 or done.stdout.strip():
            fail("the harness produced a result without the escapemaps sources")
    print("ok  refuses to run without the escapemaps sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
