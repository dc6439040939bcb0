"""martcheck benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen): mc-const, mc-mixed,
tree-sweep, tree-search. Each runs in a worker process of its own
(worker.py) as a closed loop with one client; every op is checked by an
oracle.

--trace 0 reports the end-to-end metrics. setup_s is the median over
SETUP_SAMPLES fresh worker processes of the time from process launch until
the worker has imported martcheck, written its inputs and finished one
checked warm-up op; the last of them goes on to run the timed loop. Each
sample is scaled by the machine speed probed just before the worker starts
and just after it is ready, with a yardstick of its own: a fresh interpreter
that imports numpy and runs no martcheck code. Over minutes of drift on a
shared host this cut the spread of single set-up samples by about half.

--trace 1 runs one worker that runs each op untraced and traced back to
back, and reports the per-layer metrics (see tracing.py) next to the
untraced end-to-end figures.

Besides a table, each run writes a record (machine, per-op results digests,
sample counts, figures such as path_steps_per_s and failed_ops_ratio) to
perfbench/runs/. The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_SAMPLES = 5
# set-up yardstick and its typical time in seconds on an idle 2-vCPU Intel
# Xeon VM with Python 3.11; the time only fixes the reported scale
SETUP_YARDSTICK = ("-c", "import numpy")
SETUP_YARDSTICK_S = 0.15
WORKER_TIMEOUT_S = 170.0
WORKLOADS = ("mc-const", "mc-mixed", "tree-sweep", "tree-search")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:   # BLAS / OpenMP pools capped at nproc
        try:
            cap = min(int(env[var]), nproc)
        except (KeyError, ValueError):
            cap = nproc
        env[var] = str(max(cap, 1))
    return env


def setup_speed(deadline: float) -> float:
    """Machine speed for set-up: the yardstick's typical time over its time now."""
    t0 = time.perf_counter()
    rc = subprocess.run([sys.executable, *SETUP_YARDSTICK], cwd=ROOT, env=worker_env(),
                        timeout=max(1.0, deadline - time.monotonic())).returncode
    if rc != 0:
        raise WorkerError(f"set-up yardstick exited with {rc}")
    return SETUP_YARDSTICK_S / (time.perf_counter() - t0)


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return (its set-up time scaled by the machine speed
    probed before it starts and once it is READY, its final JSON record).
    The worker waits on stdin after READY, so the probe runs alone."""
    before = setup_speed(deadline)
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() == "READY":
            speed = (before + setup_speed(deadline)) / 2.0
        proc.stdin.close()
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if rc != 0 or ready.strip() != "READY" or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with {rc}")
    record = json.loads(lines[-1])
    record["raw_setup_s"], record["setup_speed"] = setup, speed
    return setup * speed, record


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups, records = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            s, rec = run_worker(base + ["--setup-only"], deadline)
            setups.append(s)
            records.append(rec)
    s, main_rec = run_worker(base, deadline)
    setups.append(s)
    records.append(main_rec)
    if not trace:
        main_rec["metrics"] = {"setup_s": statistics.median(setups), **main_rec["metrics"]}
        main_rec["raw_setup_samples_s"] = [r["raw_setup_s"] for r in records]
        main_rec["setup_samples_speed"] = [r["setup_speed"] for r in records]
    main_rec["attempted"] = sum(r["attempted"] for r in records)
    main_rec["failed"] = sum(r["failed"] for r in records)
    main_rec["correct"] = all(r["correct"] for r in records) and \
        len({r["warmup_digest"] for r in records}) == 1
    main_rec["workload"], main_rec["seed"], main_rec["trace"] = name, seed, trace
    main_rec["seconds"] = seconds
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{name}.seed{seed}.trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(main_rec, fh, indent=2)
    return main_rec


def print_table(rec: dict, unit_of: dict[str, str]) -> None:
    name = rec["workload"]
    print(f"# {name} seed={rec['seed']} trace={rec['trace']} correct={rec['correct']} "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"results_sha256={rec['results_sha256']}")
    for metric, value in rec["metrics"].items():
        note = " (computed)" if metric in rec.get("computed", ()) else ""
        print(f"{name:12s} {metric:34s} {value:14.6g} {unit_of.get(metric, '')}{note}")
    for metric, value in rec.get("untraced", {}).items():
        print(f"{name:12s} {metric + ' (untraced)':34s} {value:14.6g} {unit_of.get(metric, '')}")
    for key, value in rec.get("extra", {}).items():
        print(f"{name:12s} {key:34s} {value:14.6g}")
    for problem in rec.get("problems", []):
        print(f"{name:12s} problem: {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "martcheck" / "cli.py").is_file():
        print(f"no martcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    unit_of = units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        recs = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for rec in recs:
        print_table(rec, unit_of)
    if len(recs) == 1:
        metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in recs[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit_of[k]}
                   for r in recs for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in recs),
                      "attempted": sum(r["attempted"] for r in recs),
                      "failed": sum(r["failed"] for r in recs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
