"""Benchmark driver for qgeo: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 benchmarks/run.py --workload invariants-k4n6 --seed 1 \\
        --seconds 20 --trace 0

Workloads, metrics and units are read from ``BENCHMARK.json``.  With
``--trace 0`` the run reports the end-to-end metrics: set-up time is the
median over several fresh interpreters, each timing ``import qgeo`` plus
the first op, and the rest comes from one closed-loop worker process.
With ``--trace 1`` one worker runs traced and reports the per-layer
metrics.  Every process gets the same environment: single-threaded BLAS,
no ``QGEO_JET_ORDER_MAX``, a fixed hash seed, no bytecode cache and pinned
malloc thresholds.  Op and set-up times are scaled to a reference speed,
see ``timings``.

The last line of standard output is the result object; the line before it
holds the run's details (tail percentile and sample counts, the failed-op
ratio, versions).  The exit code is not 0, and no result is printed, when
the sources or a worker are missing or a worker fails.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every run, set-up probes included, ends within this many seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The run cannot report a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QGEO_JET_ORDER_MAX", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               # glibc's malloc raises its mmap threshold after the first
               # large free, up to 32 MiB, and the trim threshold to twice
               # that.  Pinning both there gives every process the state of
               # a warmed-up one, whatever the program allocated before, so
               # the reference timing cannot shift with the program's
               # allocation pattern.
               MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    return env


def call_worker(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    return s[-11], 100.0 * (len(s) - 10) / len(s), 10


def environment(main: dict) -> dict:
    info = {**main["versions"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": None}
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        info["git_sha"] = proc.stdout.strip() or None
    return info


def measure(args) -> tuple[dict, dict, dict]:
    """(counts, metric values, details) of one run."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    main = call_worker(common + ["--mode", "run", "--seconds",
                                 str(args.seconds), "--trace",
                                 str(args.trace)], deadline)
    reports = [main]
    details = {"environment": environment(main)}
    if args.trace:
        values = main["layers"]
        details["top_entries_per_op"] = main["entries"]
    else:
        reports += [call_worker(common + ["--mode", "setup"], deadline)
                    for _ in range(main["setup_probes"])]
        values, timing = timings(main, reports)
        details.update(timing)
    counts = {key: sum(r[key] for r in reports)
              for key in ("attempted", "failed")}
    counts["problems"] = [msg for r in reports for msg in r["problems"]]
    details["failed_ops_ratio"] = counts["failed"] / counts["attempted"]
    if not args.trace:
        values["ok_ops_ratio"] = 1.0 - details["failed_ops_ratio"]
    return counts, values, details


def timings(main: dict, reports: list) -> tuple[dict, dict]:
    """End-to-end timings at the reference speed, plus the raw ones.

    Each time is scaled by ``nominal / reference``, the reference being the
    fixed work timed next to it in the same process (see
    ``worker.Reference``): around each op, and just after the first op for
    a set-up sample.  The drift of the shared box's speed cancels.
    """
    nominal = main["ref_nominal_s"]
    if not main["durations"]:
        raise BenchError("no op succeeded in the measured loop")
    raw = [took for took, _ in main["durations"]]
    ops = [took * nominal / ref for took, ref in main["durations"]]
    raw_setups = [r["setup_s"] for r in reports]
    setups = [r["setup_s"] * nominal / r["setup_ref_s"] for r in reports]
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": main["peak_rss_mb"]}
    _, pct, beyond = tail(ops)
    details = {"raw": {}, "op_samples": len(ops), "op_tail_percentile": pct,
               "raw_op_ms": [round(1e3 * t, 3) for t in raw],
               "reference_samples_ms": [round(1e3 * r, 3)
                                        for _, r in main["durations"]],
               "op_tail_samples_beyond": beyond, "setup_samples": setups,
               "reference_ms": 1e3 * statistics.median(
                   ref for _, ref in main["durations"])}
    for samples, out in ((ops, values), (raw, details["raw"])):
        out.update(ops_per_s=len(samples) / sum(samples),
                   op_p50_ms=1e3 * statistics.median(samples),
                   op_tail_ms=1e3 * tail(samples)[0])
    details["raw"]["setup_s"] = statistics.median(raw_setups)
    return values, details


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qgeo" / "__init__.py").is_file():
        print(f"no qgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        counts, values, details = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if not math.isfinite(value):
            print(f"{m['name']} is not finite: {value}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for msg in counts["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    if args.trace:
        details["layer_extras"] = {k: v for k, v in values.items()
                                   if k not in metrics}
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not counts["problems"],
                      "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
