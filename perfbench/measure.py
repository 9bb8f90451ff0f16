"""Pure measurement helpers for the repository benchmark.

Percentiles with a tail-sample rule, run-to-run spread, readers for
``/proc/<pid>`` and for the files a live cluster leaves in its workdir
(journals, the coordinator's event stream), and the host facts stored
with every result. Nothing here starts a process or touches the network.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is only reported where at least this many samples lie
#: beyond it; otherwise the highest percentile that has them is used.
MIN_TAIL_SAMPLES = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def tail_percentile(samples: Iterable[float], want: float = 99.0,
                    min_beyond: int = MIN_TAIL_SAMPLES
                    ) -> Tuple[float, float, int]:
    """``(percentile used, value, samples beyond it)`` for a tail.

    Returns ``want`` when at least ``min_beyond`` samples lie beyond it,
    else the highest percentile that leaves ``min_beyond`` above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    used = max(0.0, min(want, 100.0 * (1.0 - min_beyond / n)))
    rank = max(1, math.ceil(used / 100.0 * n))
    return used, ordered[rank - 1], n - rank


def median_rate(ends: Sequence[float],
                windows: Sequence[Tuple[float, float]],
                bin_s: float = 1.0) -> Tuple[float, int]:
    """``(median events per second, bins)`` over the whole ``bin_s`` bins
    of ``windows``; ``ends`` are sorted event times.

    A slow stretch of a run moves a median of bins less than it moves
    the mean rate. A window shorter than one bin counts as one bin of
    its own length.
    """
    rates: List[float] = []
    for start, end in windows:
        bins = max(1, int((end - start) / bin_s))
        width = min(bin_s, end - start)
        for index in range(bins):
            lo = start + index * width
            count = (bisect_left(ends, lo + width) - bisect_left(ends, lo))
            rates.append(count / width)
    if not rates:
        raise ValueError("rate over no windows")
    return statistics.median(rates), len(rates)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


@dataclass
class Report:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value, for the final JSON line
    values: Dict[str, float] = field(default_factory=dict)
    #: (name, value, unit, samples, note) rows of the printed table,
    #: including workload-specific metrics the JSON line does not carry
    rows: List[Tuple[str, float, str, int, str]] = field(default_factory=list)
    #: (check, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int = 1,
            note: str = "") -> None:
        self.values[name] = value
        self.rows.append((name, value, unit, samples, note))

    def add_latency(self, prefix: str, seconds: Sequence[float],
                    unit_note: str = "") -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` over every sample."""
        n = len(seconds)
        if not n:
            self.check(f"{prefix} sessions completed", False, "no samples")
            return
        ordered = sorted(seconds)
        self.add(f"{prefix}_p50_ms", percentile(ordered, 50) * 1e3, "ms", n,
                 unit_note)
        used, value, beyond = tail_percentile(ordered)
        self.add(f"{prefix}_p99_ms", value * 1e3, "ms", n,
                 f"p{used:g} ({beyond} beyond) {unit_note}".strip())

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for __, passed, __ in self.checks)


# -- /proc ------------------------------------------------------------------

def proc_cpu_seconds(pid: int) -> Optional[float]:
    """utime + stime of ``pid`` in seconds, or None once it has exited."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mib(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB, or None."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# -- cluster workdir --------------------------------------------------------

def journal_sizes(workdir: Path, addresses: Iterable[str]) -> Dict[str, int]:
    """Bytes in each cache node's journal (0 before it exists)."""
    sizes = {}
    for address in addresses:
        try:
            sizes[address] = (workdir / f"{address}.journal").stat().st_size
        except FileNotFoundError:
            sizes[address] = 0
    return sizes


@dataclass(frozen=True)
class ConfigCommit:
    """One configuration the coordinator committed, with its wall stamp."""

    wall: float
    config_id: int
    #: (fragment id, primary, mode value, working-set transfer active)
    fragments: Tuple[Tuple[int, str, str, bool], ...]

    @property
    def all_normal(self) -> bool:
        return all(mode == "normal" for __, __, mode, __ in self.fragments)

    @property
    def settled(self) -> bool:
        """Every fragment NORMAL and no working-set transfer running."""
        return self.all_normal and not any(
            wst for __, __, __, wst in self.fragments)

    def victim_transient(self, victim: str) -> bool:
        return any(primary == victim and mode == "transient"
                   for __, primary, mode, __ in self.fragments)


def config_commits(events_path: Path) -> List[ConfigCommit]:
    """Every ``config_commit`` in a node's ``*.events.jsonl`` stream."""
    from repro.live.wire import decode

    commits = []
    with open(events_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            event = decode(json.dumps(record["event"]).encode("utf-8"))
            if event.kind != "config_commit":
                continue
            config = event.data["config"]
            commits.append(ConfigCommit(
                wall=float(record["wall"]), config_id=config.config_id,
                fragments=tuple(
                    (f.fragment_id, f.primary, f.mode.value, f.wst_active)
                    for f in config.fragments)))
    return commits


@dataclass(frozen=True)
class CrashClock:
    """Recovery phases of one kill/restart, from commit wall stamps."""

    detect_s: float    # kill -> first commit moving the victim to TRANSIENT
    recovery_s: float  # restart -> every fragment NORMAL
    wst_s: float       # restart -> working-set transfer off everywhere
    normal_wall: float


def crash_clock(commits: Sequence[ConfigCommit], victim: str,
                kill_wall: float, restart_wall: float) -> CrashClock:
    """Time one crash from the coordinator's committed configurations."""
    def first(after: float, test, what: str) -> float:
        for commit in commits:
            if commit.wall >= after and test(commit):
                return commit.wall
        raise ValueError(f"no committed configuration {what}")

    detected = first(kill_wall, lambda c: c.victim_transient(victim),
                     f"moved {victim} to TRANSIENT after the kill")
    normal = first(restart_wall, lambda c: c.all_normal,
                   "had every fragment NORMAL after the restart")
    settled = first(restart_wall, lambda c: c.settled,
                    "ended working-set transfer after the restart")
    return CrashClock(detect_s=detected - kill_wall,
                      recovery_s=normal - restart_wall,
                      wst_s=settled - restart_wall, normal_wall=normal)


# -- host facts -------------------------------------------------------------

def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(
                encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_facts(root: Path) -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(root),
    }
