"""One sample of one workload, in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N [--trace] [--smoke]
    python3 perfbench/sample.py --setup-only

The process imports digitsum with its command-line module, makes its
first special-function call (which builds the Bernoulli table) and prints
``ready``: the sampling process times set-up up to that line.  It then
runs the workload's timed region once and prints one JSON line: wall and
CPU time of the region, the peak resident memory of the process, the
digested outputs and, with --trace, the per-layer spans.  Run it with PYTHONPATH pointing at the package
sources; it refuses to run a digitsum imported from anywhere else.
"""
from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    import digitsum
    import digitsum.cli  # what a `digitsum` command loads
    from digitsum import specfun

    specfun.hurwitz_zeta(2.0, 1.5)
    source = os.path.join(ROOT, "src", "digitsum")
    if os.path.dirname(os.path.abspath(digitsum.__file__)) != source:
        print(f"digitsum imported from {digitsum.__file__}, not {source}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if argv == ["--setup-only"]:
        return 0

    import argparse
    import contextlib
    import json
    import resource
    import time

    import numpy

    import tracer
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, smoke=args.smoke)
    trace = tracer.Tracer() if args.trace else contextlib.nullcontext()
    with trace:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        raw = workload.run(inputs)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": workload.digest(inputs, raw),
        "trace": trace.snapshot() if args.trace else None,
        "leftover_wrappers": tracer.leftover_wrappers(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
