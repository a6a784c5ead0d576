"""Benchmark of ffe: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Each run sets up the workload five times in
fresh interpreters (setup_s is the median), then runs it in one more
interpreter with one thread, checks every output, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
the metrics are the per-layer ones of a traced run. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalogue-d4-all", "verify-appendix", "query-mix")
SETUP_PROBES = 5
DEADLINE_S = 170


def _env():
    env = dict(os.environ)
    # FFE_THREADS overrides the threads=1 the workloads pass to classify_lfp
    env.pop("FFE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline, extra=()):
    """The last stdout line of one worker process, parsed; exits 1 if it fails."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: worker passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"{args.workload}: worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["ffe"]).resolve().parent.parent != ROOT / "src":
        sys.exit(f"imported ffe from {result['ffe']}, not from {ROOT / 'src'}")
    return result


def _percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_one(args):
    deadline = time.monotonic() + DEADLINE_S
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = [_worker(args, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    extra = ["--spans", str(results_dir / f"spans-{stem}.jsonl")] if args.trace else []
    raw = _worker(args, deadline, extra)
    setups.append(raw["setup_s"])
    rounds = raw["rounds"]
    latencies = [t for r in rounds for t in r["latencies"]]
    if args.trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(r["solve_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MiB"},
            "query_p50_ms": {"value": 1000 * _percentile(latencies, 0.50), "unit": "ms"},
            "query_p99_ms": {"value": 1000 * _percentile(latencies, 0.99), "unit": "ms"},
        }
    result = {
        "correct": not raw["errors"],
        "attempted": len(latencies),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    for err in raw["errors"][:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed, correct={result['correct']}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    (results_dir / f"result-{stem}.json").write_text(line + "\n")
    print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ffe" / "__init__.py").is_file():
        sys.exit(f"no ffe sources at {ROOT / 'src' / 'ffe'}: run from a checkout of the repository")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(argparse.Namespace(**{**vars(args), "workload": workload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
