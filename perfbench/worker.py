"""One workload process: a closed loop with a single client.

Started by run.py with the checkout root as working directory and
`<root>/src` on PYTHONPATH. It imports martcheck, writes the seeded inputs,
runs and checks one warm-up op, prints READY (run.py times set-up up to
that line), then runs a fixed number of ops: --seconds divided by the
workload's typical op time (`Workload.op_s`), so a run takes about
--seconds at the commit that set op_s and wall_s measures the program. Each
op is one in-process `martcheck.cli.main(argv)` call; the next op starts
when the previous one has returned and been checked. The last stdout line
is a JSON object for run.py.

The host this runs on is shared, and its speed swings by tens of percent
within a second and drifts over minutes. So a fixed yardstick of work that
runs no martcheck code is timed between ops (`probe`), and every op time is
multiplied by the machine speed measured on either side of it: the reported
timings are op times at a fixed machine speed. Each workload is probed with
the yardstick its time tracks best: large-array numpy work for the Monte
Carlo workloads, interpreter-bound work for the tree workloads. On this
host that cut the spread of the median op time over 40-op windows from
8-24% to 2-3%. The raw figures are kept in the record. The scaling was
validated on single-threaded martcheck only. run.py scales set-up time by
a speed probe of its own.

With --trace 1 every op runs twice back to back, untraced and traced (see
tracing.py), for half the op count of an untraced run. Both runs of an op
must produce the same results digest, and the ratio of their summed raw
times gives trace.overhead. The spans are written to
runs/<workload>.spans.npz.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, OpOutput, Workload

RUNS = Path(__file__).resolve().parent / "runs"
MIN_OPS = 20         # keeps at least 10 samples beyond the tail percentile
MAX_LOOP_S = 120.0   # hard stop for a pathologically slow program; the run then fails
DIGEST_OPS = 10      # ops hashed into the run digest; every run reaches this many
TAIL_BEYOND = 10     # the tail is the slowest op with this many samples beyond it


@dataclass
class OpResult:
    index: object
    seconds: float
    problems: list[str]
    digest: str
    work: dict
    scale: float = 1.0   # machine speed around this op (see probe)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def _array_yardstick() -> None:
    """Large-array work, as in the Monte Carlo scan: Philox draws and a cumsum."""
    a = np.random.Generator(np.random.Philox(0)).standard_normal((256, 256, 2))
    np.cumsum(a, axis=1, out=a)


def _interp_yardstick() -> None:
    """Interpreter-bound work, as in the tree layer: small numpy calls and dicts."""
    v = np.arange(16.0)
    d: dict[int, tuple[int, float]] = {}
    acc = 0.0
    for i in range(3000):
        acc += float(np.linalg.norm(v * 0.5))
        d[i % 97] = (i, acc)


# yardstick -> (work, its typical time in seconds on an idle 2-vCPU Intel Xeon
# VM with Python 3.11 and numpy 2.4; the time only fixes the reported scale)
YARDSTICKS = {"array": (_array_yardstick, 0.0035), "interp": (_interp_yardstick, 0.010)}


def probe(kind: str) -> float:
    """Machine speed now: the yardstick's typical time over its time now."""
    work, nominal = YARDSTICKS[kind]
    t0 = time.perf_counter()
    work()
    return nominal / (time.perf_counter() - t0)


def run_op(cli, wl: Workload, index) -> tuple[OpResult, OpOutput]:
    argv = wl.argv(index)
    wl.clear_outputs()
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc, error = None, f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    out = wl.read_outputs(rc, buf.getvalue())
    problems = [error] if error else wl.check(out)
    work = wl.work(out.doc) if not problems else {}
    return OpResult(index, seconds, problems, out.digest, work), out


def control_caught(wl: Workload, out: OpOutput) -> bool:
    """Positive control: a tampered copy of a correct output must fail the oracle."""
    if out.doc is None:
        return False
    bad = copy.copy(out)
    bad.doc = copy.deepcopy(out.doc)
    wl.tamper(bad.doc)
    return bool(wl.check(bad))


def op_count(wl: Workload, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / wl.op_s))


def loop(wl: Workload, steps: int, step) -> tuple[list[OpResult], bool]:
    """Closed loop: call step(i) -> [OpResult] for i in range(steps); return
    the results and whether every step ran before MAX_LOOP_S. Every result
    of a step is scaled by the machine speed probed on either side of it
    with the workload's yardstick."""
    results: list[OpResult] = []
    started = time.perf_counter()
    before = probe(wl.yardstick)
    for i in range(steps):
        if time.perf_counter() - started > MAX_LOOP_S:
            return results, False
        step_results = step(i)
        after = probe(wl.yardstick)
        for r in step_results:
            r.scale = (before + after) / 2.0
        before = after
        results += step_results
    return results, True


def traced_step(cli, wl: Workload, tracer: tracing.Tracer, modules: dict):
    """A loop step that runs op i untraced and traced, alternating which goes
    first, so neither side always runs on warmer caches."""
    def step(i: int) -> list[OpResult]:
        def traced_op() -> OpResult:
            tracer.op = i
            tracer.install(modules)
            try:
                return run_op(cli, wl, i)[0]
            finally:
                tracer.uninstall()
        if i % 2 == 0:
            plain = run_op(cli, wl, i)[0]
            return [plain, traced_op()]
        traced = traced_op()
        return [run_op(cli, wl, i)[0], traced]
    return step


def run_digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results[:DIGEST_OPS]:
        h.update(r.digest.encode())
    return h.hexdigest()


def end_to_end(results: list[OpResult]) -> tuple[dict, dict]:
    """End-to-end metrics of the timed ops (scaled timings), and the extra
    figures behind them."""
    times = sorted(r.scaled for r in results)
    busy = sum(times)
    work: dict[str, float] = {}
    for r in results:
        for k, v in r.work.items():
            work[k] = work.get(k, 0) + v
    n = len(times)
    tail_rank = max(0, n - 1 - TAIL_BEYOND)
    raw = sorted(r.seconds for r in results)
    metrics = {
        "wall_s": busy,
        "reports_per_s": work.get("reports", 0) / busy,
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": times[tail_rank],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "verdict_samples": n,
        "verdict_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "failed_ops_ratio": sum(1 for r in results if r.problems) / n,
        "machine_speed": statistics.median(r.scale for r in results),
        "raw_wall_s": sum(raw),
        "raw_reports_per_s": work.get("reports", 0) / sum(raw),
        "raw_verdict_s_p50": statistics.median(raw),
        "raw_verdict_s_tail": raw[tail_rank],
    }
    for k in ("path_steps", "trees"):
        if k in work:
            extra[f"{k}_per_s"] = work[k] / busy
    return metrics, extra


def machine() -> dict:
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "client_processes": 1,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    from martcheck import cli, formats, ineq, ptree, sharpness, wiener_mc
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"martcheck imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    warm, warm_out = run_op(cli, wl, "warmup")
    ops = [warm]
    control = control_caught(wl, warm_out)
    print("READY", flush=True)
    sys.stdin.readline()   # run.py probes the machine speed, then lets us go on

    record: dict = {"control_caught": control, "warmup_digest": warm.digest}
    run_problems, complete = [], True
    if args.trace:
        floor = tracing.rng_floor_ns_per_cell(wl.rng_block) if wl.rng_block else 0.0
        tracer = tracing.Tracer()
        modules = {"cli": cli, "formats": formats, "ineq": ineq, "ptree": ptree,
                   "sharpness": sharpness, "wiener_mc": wiener_mc}
        pairs, complete = loop(wl, op_count(wl, args.seconds / 2.0),
                               traced_step(cli, wl, tracer, modules))
        plain, traced = pairs[0::2], pairs[1::2]
        ops += pairs
        for a, b in zip(plain, traced):
            if a.digest != b.digest:
                b.problems.append("traced results differ from untraced results")
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
        record["metrics"] = tracing.layer_metrics(
            tracer.summary(), tracer.counters, len(traced), wl.cells_per_scan, floor, overhead)
        record["computed"] = list(tracing.COMPUTED)
        record["untraced"], record["extra"] = end_to_end(plain)
        record["spans"] = len(tracer.start)
        record["results_sha256"] = run_digest(plain)
        record["machine"] = machine()
        RUNS.mkdir(exist_ok=True)
        tracer.save(RUNS / f"{wl.name}.spans.npz")
        for name in sorted(set(tracer.missing)):
            # its layer metrics would read 0, which looks like a gain
            run_problems.append(f"traced function {name} not found")
    elif not args.setup_only:
        timed, complete = loop(wl, op_count(wl, args.seconds),
                               lambda i: [run_op(cli, wl, i)[0]])
        ops += timed
        record["metrics"], record["extra"] = end_to_end(timed)
        record["results_sha256"] = run_digest(timed)
        record["op_digests"] = [r.digest for r in timed]
        record["op_seconds"] = [r.seconds for r in timed]
        record["op_scale"] = [r.scale for r in timed]
        record["machine"] = machine()
    wl.clear_outputs()

    if not complete:
        run_problems.append(f"loop stopped after {MAX_LOOP_S:.0f} s, before its last op")
    failed = [r for r in ops if r.problems]
    record["attempted"] = len(ops)
    record["failed"] = len(failed)
    record["problems"] = run_problems + [f"op {r.index}: {p}" for r in failed[:5]
                                         for p in r.problems[:3]]
    record["correct"] = control and not failed and not run_problems
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
