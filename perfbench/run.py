#!/usr/bin/env python3
"""Run one cliqueops benchmark workload and print its metrics.

    python3 perfbench/run.py --workload operad-laws --seed 0 --seconds 20 --trace 0

A workload is a fixed list of operations (a "pass") built from --seed.
Passes run back to back, one client in one process with threads=1, until
--seconds have elapsed; every operation's output is checked after its
pass, outside the timed region.  End-to-end timings are host-adjusted
(see speed_probe).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones listed in BENCHMARK.json; with
--trace 1 passes alternate untraced and traced, and the metrics are the
per-layer ones, computed from the benchmark's own spans around its calls
into each cliqueops module.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from spans import Tracer, layer_of, summarize

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "operad-laws": "wl_operad_laws",
    "morphisms": "wl_morphisms",
    "combinations": "wl_combinations",
    "census": "wl_census",
}
SETUP_MIN_SAMPLES = 5
# pass 0 runs with cold caches; untraced runs keep at least two warm passes,
# traced runs enough for trace.overhead_share's traced/untraced neighbours
MIN_PASSES = {0: 3, 1: 5}
# lru caches read through cache_info(); a metric reads 0 once a cache is gone
CACHES = {
    "operad.composition_plan": ("cliqueops.operad", "composition_plan"),
    "bases.erasure_downset": ("cliqueops.bases", "_erasure_downset"),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
# median time of speed_probe() on the reference host (2-vCPU Intel Xeon VM)
PROBE_REFERENCE_S = 3.0e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--program-root", default=None,
                        help="checkout whose src/cliqueops is measured (default: this one)")
    parser.add_argument("--out", default=None, help="also write the full run record here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program(program_root):
    """Import cliqueops from <program_root>/src and nowhere else."""
    src = program_root / "src"
    if not (src / "cliqueops" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cliqueops sources under {src}")
    sys.path.insert(0, str(src))
    import cliqueops

    if Path(cliqueops.__file__).resolve().parent != (src / "cliqueops").resolve():
        raise SystemExit(f"perfbench: imported cliqueops from {cliqueops.__file__}")


def host_ref_seconds():
    """A fixed pure-Python plus numpy loop, to expose drift in host speed."""
    import numpy as np

    started = time.perf_counter()
    acc = 0
    for k in range(300_000):
        acc = (acc * 31 + k) % 1_000_003
    values = np.arange(1 << 18, dtype=np.int64)
    for _ in range(6):
        values = (values * 48271 + acc) % 2_147_483_647
        values = np.sort(values)
    return time.perf_counter() - started


def speed_probe():
    """A fixed 2-3 ms pure-Python integer loop, run before every operation.

    Host speed on shared virtual machines drifts by tens of percent over
    seconds to minutes.  A pass's median probe time against
    PROBE_REFERENCE_S gives the pass's speed factor; end-to-end timings
    are multiplied by it, so they read as seconds on the reference host.
    The loop allocates no object the cyclic garbage collector tracks, and
    the collector is off while it runs, so the size of the program's heap
    cannot change the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0
        for k in range(30_000):
            acc = (acc * 31 + k) % 1_000_003
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_sampler(args, program_root):
    """Time from a fresh interpreter's start to its first timed operation.

    Each call starts one interpreter that imports cliqueops, builds the
    workload's inputs and prints the monotonic clock; caches start cold.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--program-root", str(program_root),
    ]

    def sample():
        started = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("perfbench: set-up failed")
        return float(done.stdout.split()[-1]) - started

    return sample


def cache_counts(name):
    module, attr = CACHES[name]
    info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
    if info is None:
        return 0, 0
    current = info()
    return current.hits, current.misses


def run_passes(ops_for_pass, seconds, trace, tracer, between_passes):
    """Run passes until `seconds` elapse; in trace mode odd passes are traced.

    `between_passes(factor)` runs after each pass, outside the timed region,
    with the pass's speed factor (see speed_probe).
    """
    deadline = time.monotonic() + seconds
    passes, failures = [], []
    latencies = defaultdict(list)  # operation name -> host-adjusted warm latencies
    failed_by_layer = Counter()
    cache_delta = {name: [0, 0] for name in CACHES}
    attempted = 0
    index = 0
    while True:
        ops = ops_for_pass(index)
        traced = bool(trace and index % 2)
        tracer.enabled, tracer.pass_index = traced, index
        before = {name: cache_counts(name) for name in CACHES}
        outcomes, probes, elapsed_by_op = [], [], []
        pass_seconds = 0.0
        for op in ops:
            attempted += 1
            probes.append(speed_probe())
            started = time.perf_counter()
            try:
                with tracer.span("bench." + op.name):
                    outcome = (op.run(tracer), None)
            except Exception:
                outcome = (None, traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - started
            pass_seconds += elapsed
            elapsed_by_op.append((op.name, elapsed))
            outcomes.append((op, outcome))
        tracer.enabled = False
        factor = PROBE_REFERENCE_S / statistics.median(probes)
        if index > 0:
            for name, elapsed in elapsed_by_op:
                latencies[name].append(elapsed * factor)
        if traced:
            for name in CACHES:
                hits, misses = cache_counts(name)
                cache_delta[name][0] += hits - before[name][0]
                cache_delta[name][1] += misses - before[name][1]
        for op, (result, error) in outcomes:
            if error is None:
                try:
                    error = op.check(result)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            if error:
                failed_by_layer[op.layer] += 1
                failures.append(f"pass {index} {op.name}: {error}")
        passes.append({"index": index, "s": pass_seconds, "factor": factor,
                       "traced": traced,
                       "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        between_passes(factor)
        index += 1
        if time.monotonic() >= deadline and index >= MIN_PASSES[trace]:
            break
    return {
        "passes": passes, "latencies": latencies, "attempted": attempted,
        "failures": failures, "failed_by_layer": failed_by_layer,
        "cache_delta": cache_delta,
    }


def end_to_end_metrics(run, setup_samples):
    # warm passes only: pass 0 also fills the caches, a one-off cost whose
    # weight in a mean would vary with the number of passes a run fits in.
    # An operation's latency is its median over the warm passes, so the
    # percentiles do not shift with the number of passes a run fits in
    per_op_ms = [1e3 * statistics.median(v) for v in run["latencies"].values()]
    deciles = statistics.quantiles(per_op_ms, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p["s"] * p["factor"] for p in run["passes"][1:]),
        "setup_s": statistics.median(setup_samples),
        # over the passes every run makes: caches that fill with each pass's
        # fresh inputs must not make it grow with the number of passes
        "peak_rss_mib": run["passes"][MIN_PASSES[0] - 1]["max_rss_kib"] / 1024,
        "request_p50_ms": deciles[4],
        "request_p90_ms": deciles[8],
    }


def per_layer_metric(name, run, by_name, self_by_layer, host_ref):
    traced = [p["s"] for p in run["passes"] if p["traced"]]
    if name == "trace.overhead_share":
        # each traced pass against the mean of its untraced neighbours, which
        # cancels caches warming up over the run; pass 0 runs cold and is left out
        times = [p["s"] * p["factor"] for p in run["passes"]]
        return statistics.median(
            times[k] / ((times[k - 1] + times[k + 1]) / 2)
            for k in range(3, len(times) - 1, 2)
        ) - 1.0
    if name == "host.ref_s":
        return host_ref
    base, _, kind = name.rpartition(".")
    if kind == "failed":
        return run["failed_by_layer"][base]
    if kind == "self_share":
        return self_by_layer.get(layer_of(base), 0.0) / sum(traced)
    if kind == "hit_ratio":
        hits, misses = run["cache_delta"][base]
        return hits / (hits + misses) if hits + misses else 0.0
    entry = by_name.get(base)
    if entry is None:
        return 0.0
    if kind == "calls":
        return entry["calls"] / len(traced)
    if kind in SCALE:  # span time per pass
        return entry["s"] / len(traced) * SCALE[kind]
    if kind.endswith("_per_call"):
        return entry["s"] / entry["calls"] * SCALE[kind.split("_")[0]]
    if kind.endswith("_per_s"):
        return entry["items"] / entry["s"]
    if kind == "us_per_item":
        return entry["s"] / entry["items"] * 1e6 if entry["items"] else 0.0
    raise ValueError(f"no rule computes the metric {name!r}")


def main(argv=None):
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "CLIQUEOPS_THREADS"):
        os.environ[var] = "1"
    program_root = Path(args.program_root).resolve() if args.program_root else ROOT
    if args.setup_only:
        load_program(program_root)
        importlib.import_module(WORKLOADS[args.workload]).setup(args.seed)(0)
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program(program_root)  # fail before any measurement if sources are missing
    env = {
        "commit": git_commit(program_root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "cpu": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    ref_start = host_ref_seconds()
    import numpy

    env["numpy"] = numpy.__version__
    ops_for_pass = importlib.import_module(WORKLOADS[args.workload]).setup(args.seed)
    tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
    # set-up samples interleave with the passes so that they see the same
    # host phases; traced runs report no end-to-end metric and take none
    sample_setup = setup_sampler(args, program_root)
    setup_samples = []

    def between_passes(factor):
        if not args.trace:
            setup_samples.append(sample_setup() * factor)

    run = run_passes(ops_for_pass, args.seconds, args.trace, tracer, between_passes)
    while not args.trace and len(setup_samples) < SETUP_MIN_SAMPLES:
        setup_samples.append(sample_setup() * run["passes"][-1]["factor"])
    ref_end = host_ref_seconds()
    env.update(loadavg_end=os.getloadavg(), ref_s_start=ref_start, ref_s_end=ref_end,
               setup_samples_s=setup_samples)
    host_ref = (ref_start + ref_end) / 2

    if args.trace:
        by_name, self_by_layer = summarize(tracer.spans)
        metrics = {
            m["name"]: {"value": per_layer_metric(m["name"], run, by_name,
                                                  self_by_layer, host_ref),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
    else:
        values = end_to_end_metrics(run, setup_samples)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    failed = sum(run["failed_by_layer"].values())
    for line in run["failures"][:10]:
        print("FAILED " + line, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": run["attempted"], "failed": failed,
              "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, env=env,
                      passes=run["passes"], operations=len(run["latencies"]),
                      failures=run["failures"][:50])
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
