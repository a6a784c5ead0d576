"""Run one workload in this process and print its raw measurements as one JSON line.

run.py starts this file in a fresh interpreter with one BLAS thread,
FFE_THREADS unset and PYTHONPATH pointing at the checkout's src. With
--setup-only it stops after importing ffe and generating the inputs.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import ffe  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


def measure(workload, inputs, seconds, min_ops, reference=None):
    """Whole rounds until `seconds` have passed and `min_ops` operations ran.

    Returns the per-round records, the first round's output, the errors
    found when a later round's output differs from the first (or from
    `reference`, the output of an earlier measurement), and the peak resident
    memory in MiB at the end of the first round, which does not depend on how
    many rounds fit in the time.
    """
    rounds, errors, peak_rss_mb = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = workload.run_round(inputs)
        solve_s = time.perf_counter() - t0
        if reference is None:
            reference = r.output
        elif r.output != reference:
            errors.append(f"round {len(rounds)} output differs from the first round's")
        rounds.append({"solve_s": solve_s, "latencies": r.latencies, "failed": r.failed})
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if (time.perf_counter() - start >= seconds
                and sum(len(x["latencies"]) for x in rounds) >= min_ops):
            return rounds, reference, errors, peak_rss_mb


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ffe": ffe.__file__}))
        return 0

    # A traced run first measures untraced rounds, for trace.overhead_s, in
    # half its time, then traced rounds in the other half.
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, output, errors, peak_rss_mb = measure(
        workload, inputs, seconds, 1 if args.trace else workload.min_ops)
    layers = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced, _, traced_errors, _ = measure(workload, inputs, seconds, 1, reference=output)
        finally:
            tracer.uninstall()
        errors += traced_errors
        if args.spans:
            tracer.write(args.spans)
        layers = layertrace.layer_metrics(
            tracer, len(traced),
            statistics.median(r["solve_s"] for r in traced),
            statistics.median(r["solve_s"] for r in rounds),
        )
        rounds += traced
    errors += workload.check(inputs, output)
    print(json.dumps({
        "setup_s": setup_s,
        "ffe": ffe.__file__,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
