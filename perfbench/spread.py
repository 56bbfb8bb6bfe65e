"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 10] [--first-seed 0] [--trace 0|1] [--out results.json]

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  For end-to-end metrics it is compared with the metric's
bound in BENCHMARK.json: a benchmark is steady when every spread but
``setup_s``'s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return {"seed": seed, "env": lines[-3], "named": lines[-2], "result": lines[-1]}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workload:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            bound = bounds.get(name) if not args.trace else None
            ok = bound is None or name == "setup_s" or rel < bound / 3.0
            steady &= ok
            summary[name] = {"median": med, "spread": rel, "bound": bound, "values": values}
            if args.trace == 0 or any(values):
                flag = "" if bound is None else ("ok" if ok else "WIDE")
                print(f"{workload:15s} {name:45s} median {med:14.6g}  spread {rel:7.4f}  "
                      f"{'' if bound is None else f'bound {bound}'} {flag}")
        failed = [r["result"]["failed"] for r in runs]
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:15s} correct {correct}  failed per run {failed}")
        report[workload] = {"metrics": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
