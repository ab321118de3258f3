"""Benchmark entry point: one workload (or all three), one result line.

    python3 perfbench/run.py --workload readout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from a checkout's root (or anywhere: paths resolve from this file).
Each workload runs in its own fresh worker process, one at a time, with
BLAS capped at one thread. Before it, SETUP_PROBES short processes each
measure set-up alone (interpreter start plus numpy, scipy and gnmqsim
imports); `setup_s` is the median of those and the worker's own.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mib); --trace 1 reports the per-layer metrics of a traced pass.
Failed and attempted operations (jobs plus output checks) are the
record's `failed` and `attempted`; their ratio is the fail ratio. The
last stdout line is the JSON record; a readable summary and every
failure go to stderr. Scratch files live in .perfbench_work/ and the
per-run directory is removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("readout", "evolve", "readin")
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_CAP = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GNMQSIM_THREADS")}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def spawn(args: list[str], timeout: float) -> dict:
    """Run a worker to completion; its last stdout line is a JSON record."""
    env = dict(os.environ, **THREAD_CAP)
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(timeout, 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    setups = [spawn(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--setup-only"], deadline - time.monotonic())["setup_s"]
              for _ in range(SETUP_PROBES)]
    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    try:
        rec = spawn(["--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--work", str(work)], deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec["setup_s"] = statistics.median([*setups, rec["setup_s"]])
    return rec


def result_line(rec: dict, trace: int, prefix: str = "") -> dict:
    """The metrics of one workload, named and with units as BENCHMARK.json has them."""
    values, units = (rec["per_layer"], LAYER_UNITS) if trace else (rec, UNITS)
    return {prefix + name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def describe(name: str, rec: dict, trace: int) -> None:
    ratio = rec["failed"] / rec["attempted"]
    print(f"{name}: {rec['passes']} passes, fail_ratio {ratio:g} "
          f"({rec['failed']} of {rec['attempted']} operations), untraced pass "
          f"walls {', '.join(f'{w:.3f}' for w in rec['pass_walls'])} s",
          file=sys.stderr)
    for key, m in result_line(rec, trace).items():
        print(f"  {key:44s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for failure in rec["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gnmqsim" / "__init__.py").is_file():
        print(f"error: no gnmqsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = start + DEADLINE_S * (names.index(name) + 1)
        try:
            rec = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        describe(name, rec, args.trace)
        attempted += rec["attempted"]
        failed += rec["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(result_line(rec, args.trace, prefix))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
