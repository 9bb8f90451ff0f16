"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload live-read-steady --seed 1 \\
        --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``live-read-steady`` - live cluster, 95 % reads, caches hold every
  record, no faults: the per-op hot path.
* ``live-crash-write`` - live cluster, 50 % writes, caches hold half the
  records; ``cache-0`` is SIGKILLed under load, restarted after a fixed
  outage and recovered by Gemini-O+W, repeatedly.
* ``sim-fig8`` - the scaled Figure 8 scenario on the deterministic
  simulator.

``live-crash-write`` is not listed in ``BENCHMARK.json``: from the second
kill of ``cache-0`` on, reads during its recovery return values older
than acknowledged writes, so the run fails its zero-stale-reads check
and exits 1. It stays runnable here to show that defect and to measure
the crash path by hand.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced stretches of the same run; the traced ones wrap the
layers' entry points from this directory and give the per-layer
metrics, and the difference between the two is reported as the tracing
overhead.

Output: header lines with the host facts and fixed settings, a table of
every metric with unit and sample count, the output checks, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Exit status 1 when an output check fails, 2 when the
program's source is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("live-read-steady", "live-crash-write", "sim-fig8")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(rows) -> List[str]:
    lines = [f"{'metric':<34} {'value':>14} {'unit':<8} {'samples':>8}  note"]
    for name, value, unit, samples, note in rows:
        lines.append(f"{name:<34} {value:>14.6g} {unit:<8} {samples:>8}  "
                     f"{note}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import catalog
    import measure

    workroot = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    trace = bool(args.trace)
    try:
        if args.workload == "sim-fig8":
            import sim
            settings = sim.settings()
            report, layers = sim.run(args.seed, args.seconds, trace)
        else:
            import live
            spec = (live.READ_STEADY if args.workload == "live-read-steady"
                    else live.CRASH_WRITE)
            settings = live.settings(spec)
            report, layers = live.run(spec, args.seed, args.seconds, trace,
                                      workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed

    if trace:
        names = [name for name, __, __ in catalog.PER_LAYER]
        values = layers
    else:
        names = [name for name, __, __ in catalog.END_TO_END]
        values = report.values
    missing = [name for name in names if name not in values]
    report.check("every metric measured", not missing,
                 f"missing {missing}" if missing else "")

    facts = json.dumps(measure.host_facts(ROOT), sort_keys=True)
    lines = [f"# perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             f"# host {facts}"]
    lines += [f"# {line}" for line in settings]
    lines += _table(report.rows)
    if trace:
        lines.append("# per-layer (traced stretches)")
        lines += _table([(name, layers.get(name, 0.0), catalog.UNITS[name],
                          "-", "") for name in names])
    lines.append(f"# sessions attempted {report.attempted}, failed "
                 f"{report.failed}")
    for name, passed, detail in report.checks:
        lines.append(f"# check {'ok  ' if passed else 'FAIL'} {name}"
                     + (f": {detail}" if detail else ""))
    print("\n".join(lines))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name],
                           "unit": catalog.UNITS[name]}
                    for name in names if name in values},
    }), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
