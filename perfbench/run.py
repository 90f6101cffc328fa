"""Benchmark of the digitsum package: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src``.  Every sample runs in a fresh interpreter (perfbench/sample.py)
with BLAS and OpenMP pinned to one thread, one after another, so the
loop is closed with a single caller.  Samples are taken until the next
one would end after S seconds; there is always at least one.

With --trace 0 the run first times interpreter set-up in separate
processes, then takes untraced samples and reports the end-to-end
metrics.  With --trace 1 it alternates untraced and traced samples and
reports the per-layer metrics.  Lines before the last give the machine,
the seed, quartiles and sample counts, and the checks that did not pass;
the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts checks, ``failed`` the checks that failed outright;
``correct`` is false if any did.  The exit code is nonzero, with no
result line, when the package sources are missing or a sample process
crashes or overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")

SETUP_PROBES = 9  # set-up-only processes per run, after one discarded warm-up
RUN_LIMIT_S = 170.0  # a run that would take longer is abandoned
THREAD_PINS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

SPECFUN = (
    "hurwitz_zeta",
    "digamma",
    "polygamma",
    "log_gamma",
    "barnes_zeta2",
    "barnes_psi2_2",
    "alternating_hurwitz",
    "dirichlet_eta",
)
IDENTITIES = (
    "infinite_zeta_diff",
    "infinite_barnes",
    "finite_barnes_closed",
    "j_infinity",
    "infinite_product",
    "digit_zeta_2",
    "direct_digit_zeta",
    "direct_j_infinity",
    "direct_product_log",
    "finite_zeta_diff_direct",
)
LAMBERT = (
    "lambert_gf",
    "eta_dirichlet_bridge_check",
    "mobius_inverse_check",
    "partition_convolution_check",
)
ALTSUM = (
    "alpha_weights",
    "alpha_weights_oracle",
    "zn_pmf",
    "standardized_cumulant",
    "pmf_standardized_cumulant",
    "alternating_sum_via_weights",
)
SOLVER = ("solve_implicit", "weighted_digit_sum")
SUITES = (
    "thm2.1", "cor-eq-zeta", "thm3.1", "jinfty", "j-recurrence", "inf-product",
    "pi-over-2", "thm29-finite", "thm29-infinite", "cor30", "thm4.1",
    "lambert-finite", "rankwise", "thm-2adic", "mobius-inverse", "partition-conv",
    "eta-bridge", "thm5.1", "as1", "as2", "prouhet", "weights", "zn-cumulants",
    "mgf-consistency", "thm6.2", "thm6.6", "thm6.8", "putnam-2log2",
    "base-relation", "recover-jinfty",
)


def per_layer_units():
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    units = {
        "digitseq.digit_sum_range.calls": "count",
        "digitseq.digit_sum_range.self_s": "s",
        "digitseq.digit_sum_range.elements": "count",
    }
    for fn in SOLVER:
        units[f"solver.{fn}.calls"] = "count"
        units[f"solver.{fn}.self_s"] = "s"
    units["solver.SequenceFn.block.calls"] = "count"
    for fn in SPECFUN:
        units[f"specfun.{fn}.calls"] = "count"
        units[f"specfun.{fn}.self_s"] = "s"
        units[f"specfun.{fn}.us_per_call"] = "us"
    for layer, names in (("identities", IDENTITIES), ("lambert", LAMBERT), ("altsum", ALTSUM)):
        for fn in names:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for suite in SUITES:
        units[f"harness.suite.{suite}.s"] = "s"
    units["harness.emit_report.s"] = "s"
    units["harness.points"] = "count"
    units["harness.self_s"] = "s"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# sample processes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_PINS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    # byte-code caches, as an installed package has them; the warm-up
    # process writes them into the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, env, deadline):
    """Run sample.py once; returns (set-up seconds, result dict or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, SAMPLE, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError(f"sample process did not get ready: {' '.join(args)}")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample process overran the run limit: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"sample process exited with {proc.returncode}: {' '.join(args)}")
    lines = rest.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def take_samples(name, seed, seconds, trace, smoke, env, deadline):
    """Untraced (and, with trace, alternating traced) samples for `seconds`."""
    base = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples, costs = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        t0 = time.perf_counter()
        setup, result = spawn(base + (["--trace"] if traced else []), env, deadline)
        if result is None:
            raise BenchError(f"sample process printed no result: {' '.join(base)}")
        costs.append(time.perf_counter() - t0)
        result["setup_s"], result["traced"] = setup, traced
        samples.append(result)
        enough = len(samples) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + statistics.median(costs) > seconds:
            return samples


def measure_setup(env, deadline):
    spawn(["--setup-only"], env, deadline)  # warm-up: byte-compiles, fills the page cache
    return [spawn(["--setup-only"], env, deadline)[0] for _ in range(SETUP_PROBES)]


# ---------------------------------------------------------------------------
# statistics and metrics
# ---------------------------------------------------------------------------


def summary(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "min": min(values),
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def layer_metrics(best, plain):
    """Per-layer metrics from `best`, the fastest traced sample of a run."""
    spans, counters = best["trace"]["spans"], best["trace"]["counters"]
    values = {}
    for name in per_layer_units():
        head, _, field = name.rpartition(".")
        calls, total, own = spans.get(head, (0, 0.0, 0.0))
        if field == "calls":
            values[name] = calls
        elif field == "self_s":
            values[name] = own
        elif field == "us_per_call":
            values[name] = total / calls * 1e6 if calls else 0.0
        elif field == "s":
            values[name] = total
    values["digitseq.digit_sum_range.elements"] = counters.get("digitseq.digit_sum_range.elements", 0)
    values["harness.points"] = counters.get("harness.points", 0)
    values["harness.self_s"] = sum(v[2] for k, v in spans.items() if k.startswith("harness."))
    values["trace.coverage"] = best["trace"]["covered"] / best["wall_s"]
    values["trace.overhead_s"] = best["wall_s"] - min(s["wall_s"] for s in plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def machine(numpy_version):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(name, seed, seconds, trace, smoke=False):
    """Measure one workload; returns (info lines, result dict)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "digitsum", "__init__.py")):
        raise BenchError(f"no package sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[name]
    env = child_env()
    inputs = workload.inputs(seed, smoke=smoke)
    expected = workload.expected(inputs)
    setups = [] if trace else measure_setup(env, deadline)
    samples = take_samples(name, seed, seconds, trace, smoke, env, deadline)

    state, checks = {}, []
    for sample in samples:
        checks += workload.check(inputs, sample["outputs"], expected, state)
    leftovers = sorted({w for s in samples for w in s["leftover_wrappers"]})
    failures = sorted({n for n, status in checks if status == workloads.FAIL})
    misses = sorted({n for n, status in checks if status == workloads.MISS})
    passed = sum(1 for _, status in checks if status == workloads.PASS)
    failed = sum(1 for _, status in checks if status == workloads.FAIL) + len(leftovers)

    plain = [s for s in samples if not s["traced"]]
    best = min((s for s in samples if s["traced"]), key=lambda s: s["wall_s"], default=None)
    stats = {key: summary([s[key] for s in plain]) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = summary(setups + [s["setup_s"] for s in samples])
    if trace:
        metrics = layer_metrics(best, plain)
    else:
        value = {
            "wall_s": stats["wall_s"]["min"],
            "setup_s": stats["setup_s"]["median"],
            "cpu_s": stats["cpu_s"]["min"],
            "peak_rss_mb": stats["peak_rss_mb"]["median"],
            "pass_ratio": passed / len(checks),
        }
        metrics = {key: {"value": value[key], "unit": unit} for key, unit in END_TO_END.items()}
    info = {
        "workload": name,
        "seed": seed if workload.seeded else "unused",
        "trace": trace,
        "machine": machine(samples[0]["numpy"]),
        "samples": len(plain),
        "traced_samples": len(samples) - len(plain),
        "stats": stats,
        "checks": len(checks),
        "fail_ratio": 1.0 - passed / len(checks),
        "missed": misses,
        "failed": failures,
        "leftover_wrappers": leftovers,
    }
    lines = [json.dumps(info)]
    if trace:
        table = sorted(best["trace"]["spans"].items(), key=lambda item: -item[1][2])
        lines.append(json.dumps({"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in table}}))
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps its sample process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
