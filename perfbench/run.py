"""The cccodes benchmark: one workload per run, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports cccodes from ./src.
With --trace 0 the run repeats untraced passes of the workload for about
--seconds and reports the median of each end-to-end metric. With --trace 1
it alternates untraced and traced passes and reports the per-layer metrics of
the traced passes plus the tracing overhead. Both first measure set-up time.

The bounded times are CPU times. On a shared virtual machine the hypervisor
takes the CPUs away for stretches that vary from minute to minute, which
wall time counts and CPU time does not; wall times go to the record.

Earlier stdout lines hold the run's record (environment, seed, every pass);
the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "search", "inflate", "cli-verify")
SETUP_SPAWNS = 9
RUN_LIMIT_S = 170       # a run must end within 180 s
PASS_METRICS = ("cpu_s", "peak_rss_mb", "part_a_cpu_s", "part_b_cpu_s")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def children_cpu() -> float:
    u = resource.getrusage(resource.RUSAGE_CHILDREN)
    return u.ru_utime + u.ru_stime


def setup_once() -> tuple[float, float]:
    """CPU seconds of a fresh interpreter that imports `cccodes.cli` and
    exits, and wall seconds from spawning it until the import returns."""
    c0, t0 = children_cpu(), time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, cccodes.cli; print(time.monotonic())"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import cccodes.cli failed:\n{proc.stderr[-2000:]}")
    return children_cpu() - c0, float(proc.stdout) - t0


def one_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """Run worker.py in its own process group, so that a pass that overruns the
    deadline is stopped together with the `ccc` processes it started."""
    with subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(traced))],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool,
            deadline: float) -> list[tuple[dict, ...]]:
    """Rounds of passes (one untraced pass, plus a traced one when tracing)
    until another round would end after `seconds`; at least one round."""
    rounds: list[tuple[dict, ...]] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(tuple(one_pass(workload, seed, tr, deadline)
                            for tr in ((False, True) if traced else (False,))))
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            return rounds


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cccodes" / "__init__.py").is_file():
        print(f"no cccodes sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup = [setup_once() for _ in range(SETUP_SPAWNS)]
        rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    passes = [p for r in rounds for p in r]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for what in p["failures"][:5]:
            print(f"check failed: {what}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_frac": failed / attempted,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": passes[0]["numpy"],
            "blas": passes[0]["blas"],
            "blas_threads": {k: os.environ.get(k, "default")
                             for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "commit": git_commit(),
        },
        "setup_cpu_s": [c for c, _ in setup],
        "setup_wall_s": [w for _, w in setup],
        "passes": [{k: v for k, v in p.items() if k not in ("numpy", "blas")} for p in passes],
    }
    print(json.dumps({"record": record}))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = [r[0] for r in rounds]
    if args.trace:
        traced = [r[1] for r in rounds]
        # A layer that the workload never calls reads 0.
        values = {m["name"]: statistics.median(p["layers"].get(m["name"], 0.0) for p in traced)
                  for m in spec["per_layer"]}
        values["bench.trace_overhead_frac"] = (
            statistics.median(p["cpu_s"] for p in traced)
            / statistics.median(p["cpu_s"] for p in untraced) - 1)
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(p[name] for p in untraced) for name in PASS_METRICS}
        values["setup_s"] = statistics.median(c for c, _ in setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
