#!/usr/bin/env python3
"""Compare two commits on every workload from runs made in alternating pairs.

    python3 perfbench/compare.py run --base /path/to/parent --head . --pairs 10 \\
        --out .perfbench_out/compare
    python3 perfbench/compare.py report .perfbench_out/compare

`run` measures both checkouts with this benchmark code (run.py
--program-root), pair by pair, alternating which side goes first, on one
seed per pair.  `report` prints one row per workload and end-to-end
metric with each side's median and quartiles, how many pairs the head
won, and a verdict:

- improved: over at least 10 pairs, the head wins at least nine tenths
  of them and the medians differ by more than the base's own quartile
  spread;
- regressed: the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the base's quartile spread, as a share of its median, is
  wider than the bound, and not every head run beats every base run;
- unchanged: none of the above.

A head that fails more operations than the base on a workload is flagged
on its own row, and no metric of that workload counts as improved: its
verdict reads "not counted (fails more)" instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIDES = ("base", "head")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_run(args, spec):
    roots = {"base": str(Path(args.base).resolve()), "head": str(Path(args.head).resolve())}
    workloads = [w["name"] for w in spec["workloads"]]
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                out = Path(args.out) / workload / f"{pair:02d}-{side}.json"
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(args.seed_base + pair), "--seconds", str(spec["run_seconds"]),
                     "--program-root", roots[side], "--out", str(out)],
                    check=True, stdout=subprocess.DEVNULL, timeout=600,
                )
                print(f"pair {pair} {workload} {side} done", flush=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, head, better, bound, fails_more=False):
    """Classify one workload-metric pair from per-pair base and head values.

    A gain does not count when the head fails more operations than the base.
    """
    sign = 1 if better == "lower" else -1
    q1, median_base, q3 = quartiles(base)
    median_head = statistics.median(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    worse_share = sign * (median_head - median_base) / median_base
    every_run_better = max(sign * h for h in head) < min(sign * b for b in base)
    if (q3 - q1) / median_base > bound and not every_run_better:
        label = "unresolved"
    elif (len(base) >= 10 and wins >= 0.9 * len(base) and worse_share < 0
          and abs(median_head - median_base) > q3 - q1):
        label = "improved"
    elif worse_share > bound:
        label = "regressed"
    else:
        label = "unchanged"
    if label == "improved" and fails_more:
        label = "not counted (fails more)"
    return label, wins, worse_share


def cmd_report(args, spec):
    root = Path(args.results)
    print(f"{'workload':14s} {'metric':16s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'worse by':>8s} {'wins':>6s}  verdict")
    for workload_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        records = {side: {} for side in SIDES}
        for path in workload_dir.glob("*.json"):
            pair, side = path.stem.split("-")
            records[side][int(pair)] = json.loads(path.read_text())
        pairs = sorted(set(records["base"]) & set(records["head"]))
        if not pairs:
            continue
        failed = {side: sum(records[side][p]["failed"] for p in pairs) for side in SIDES}
        fails_more = failed["head"] > failed["base"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [records["base"][p]["metrics"][name]["value"] for p in pairs]
            head = [records["head"][p]["metrics"][name]["value"] for p in pairs]
            label, wins, worse_share = verdict(base, head, metric["better"], metric["bound"],
                                               fails_more)
            sides = ["{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(v)) for v in (base, head)]
            print(f"{workload_dir.name:14s} {name:16s} {sides[0]:>32s} {sides[1]:>32s} "
                  f"{worse_share:+8.1%} {wins:3d}/{len(pairs):<2d}  {label}")
        if fails_more:
            print(f"{workload_dir.name:14s} failed operations: base {failed['base']}, "
                  f"head {failed['head']}  FAILS MORE")
    return 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure two checkouts in alternating pairs")
    run.add_argument("--base", required=True, help="checkout of the parent commit")
    run.add_argument("--head", required=True, help="checkout of the change")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1000,
                     help="pair k runs seed seed-base + k on both sides")
    run.add_argument("--out", required=True)
    report = sub.add_parser("report", help="print the verdict table")
    report.add_argument("results")
    args = parser.parse_args(argv)
    return cmd_run(args, spec) if args.command == "run" else cmd_report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
