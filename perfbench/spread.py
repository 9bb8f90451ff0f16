"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` once per seed on each workload, one run at a
time, and prints for every metric the median over the runs and the
inter-quartile distance as a share of that median, beside the bound
``BENCHMARK.json`` fixes for the metric. Run from the repository root::

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workload sim-fig8 --seeds 5 --first-seed 100

``--out`` also writes every run's final JSON line to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import measure

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs: Dict[str, List[dict]] = {}
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = [*config["command"], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print(f"{workload} seed {seed}: exit {done.returncode}, "
                  f"correct {result.get('correct')}", flush=True)
            if "metrics" in result:
                runs.setdefault(workload, []).append(result)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    worst = 0.0
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            spread = measure.quartile_spread(values)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<14} median {statistics.median(values):>12.6g}"
                  f"  spread {spread:7.2%}  bound {bound:.0%}"
                  f"  {'ok' if spread < bound / 3 else 'WIDE'}")
    print(f"\nwidest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
