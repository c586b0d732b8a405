#!/usr/bin/env python3
"""Run every workload, each in a fresh process, and print one table.

    python3 perfbench/suite.py                 # end-to-end metrics per workload
    python3 perfbench/suite.py --trace         # plus per-layer metrics and shares

The plain table gives wall_s, setup_s, peak_rss_mib, the request
percentiles and failed_share (failed / attempted operations) for each
workload.  --trace adds a traced run of each workload and prints every
layer's self-time share, trace.overhead_share and the non-zero per-layer
metrics.  Full run records go to .perfbench_out/suite/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("operad", "clique", "verify", "bases", "variants", "knownops", "ratfct",
          "enumeration", "cli", "bench")


def run_workload(workload, seed, seconds, trace, out_dir):
    out = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    return json.loads(out.read_text())


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out_dir = ROOT / ".perfbench_out" / "suite"

    metrics = [m["name"] for m in spec["end_to_end"]]
    print("workload      " + "".join(f"{m:>16}" for m in metrics + ["failed_share"]))
    for workload in names:
        record = run_workload(workload, args.seed, spec["run_seconds"], 0, out_dir)
        values = [record["metrics"][m]["value"] for m in metrics]
        values.append(record["failed"] / record["attempted"])
        print(f"{workload:14s}" + "".join(f"{v:16.5g}" for v in values)
              + f"   ({record['attempted']} operations, {len(record['passes'])} passes)")
        for line in record["failures"][:5]:
            print("    FAILED " + line)
    if not args.trace:
        return 0

    traced = {w: run_workload(w, args.seed, spec["run_seconds"], 1, out_dir) for w in names}
    print("\nself-time share of each layer (traced passes)")
    print("layer         " + "".join(f"{w:>14}" for w in names))
    for layer in LAYERS:
        row = [traced[w]["metrics"][f"{layer}.self_share"]["value"] for w in names]
        print(f"{layer:14s}" + "".join(f"{v:14.3f}" for v in row))
    row = [traced[w]["metrics"]["trace.overhead_share"]["value"] for w in names]
    print(f"{'overhead':14s}" + "".join(f"{v:14.3f}" for v in row))
    for workload in names:
        print(f"\n{workload}: per-layer metrics (non-zero)")
        for name, metric in traced[workload]["metrics"].items():
            if metric["value"] and not name.endswith(".self_share"):
                print(f"  {name:56s} {metric['value']:14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
