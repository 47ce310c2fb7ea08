"""eigensense benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload roc_known --seed 1 --seconds 20 --trace 0

Runs the workload in a fresh worker process (``bench.py``) with OpenBLAS and
OpenMP pinned to one thread, prints a human-readable report and, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker also replays the run with span wrappers installed and the
metrics are the per-layer ones.  Exits non-zero when an output check fails
or the checkout has no ``src/eigensense``.
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
WORKER = HERE / "bench.py"
WORKLOADS = ("roc_known", "roc_marginal", "detect_mix", "oracles")
# Lines bench.py prints after set-up; run.py does not import bench.py, so the
# parent process stays free of numpy.
SETUP_MARK = "SETUP_DONE"
SLOWDOWN_MARK = "SETUP_SLOWDOWN"
# setup_s is the median of this many fresh worker start-ups.
SETUP_RUNS = 3
# Kills a worker that is still running after this long.
WORKER_TIMEOUT_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_trial"):
        return "us"
    if name.endswith("dps_max"):
        return "digits"
    if name.endswith(("_frac", "_ratio", "_share", "efficiency", "speedup")):
        return "ratio"
    return "count"


def run_worker(args, deadline: float, setup_only: bool):
    """Start one worker.

    Returns (wall seconds until it finished set-up, the slowdown it measured
    right after, its record or None, its exit code).
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **BLAS_PIN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        setup_s = slowdown = last = None
        for line in proc.stdout:
            if setup_s is None and line.strip() == SETUP_MARK:
                setup_s = time.perf_counter() - t0
            elif slowdown is None and line.startswith(SLOWDOWN_MARK):
                slowdown = float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    record = None
    if last is not None and not setup_only:
        try:
            record = json.loads(last)
        except json.JSONDecodeError:
            pass
    if setup_s is None or slowdown is None:
        return None, None, record, code
    return setup_s, slowdown, record, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path,
                    help="append the worker's full record (machine, digests, all metrics) here")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "eigensense" / "__init__.py").is_file():
        print(f"error: no eigensense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    # (wall seconds, slowdown) of each set-up; setup_s is the median of
    # wall / slowdown, the same speed normalisation as the request latencies.
    setups = []
    for _ in range(SETUP_RUNS - 1):
        setup_s, slowdown, _, code = run_worker(args, deadline, setup_only=True)
        if code != 0 or setup_s is None:
            print(f"error: set-up worker exited with code {code}", file=sys.stderr)
            return 1
        setups.append((setup_s, slowdown))
    setup_s, slowdown, record, code = run_worker(args, deadline, setup_only=False)
    if record is None or setup_s is None:
        print(f"error: worker exited with code {code} and no record", file=sys.stderr)
        return 1
    setups.append((setup_s, slowdown))
    record["setup_runs"] = setups
    record["end_to_end"]["setup_s"] = (statistics.median(w / f for w, f in setups), "s")
    record["named"]["setup_s"] = record["end_to_end"]["setup_s"]

    print(f"workload {record['workload']}  seed {args.seed}  passes {record['passes']}  "
          f"digest {record['digest'][:16]}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, (value, unit) in sorted(record["named"].items()):
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print("checks " + json.dumps(record["checks"], sort_keys=True))
    probe = record["probe_ms"]
    print(f"speed probe: {probe['samples']} samples, median {probe['median']:.3f} ms "
          f"(quartiles {probe['q1']:.3f}-{probe['q3']:.3f}); wall-clock figures "
          + json.dumps({k: round(v, 4) for k, v in record["wall_clock"].items()}))
    if args.trace:
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name:<36} {value:>14.6g} {per_layer_unit(name)}")
        print("self_s " + json.dumps({k: round(v, 4) for k, v in
                                      sorted(record["trace"]["self_s"].items())}))
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.record:
        with args.record.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["end_to_end"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
