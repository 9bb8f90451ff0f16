"""Live workloads: ``live-read-steady`` and ``live-crash-write``.

A real localhost cluster, :class:`repro.live.harness.LiveCluster` with
3 cache instances, the coordinator and the data store each in its own
OS process, serves closed-loop YCSB sessions that this process drives
through ``GeminiClient.read``/``write``. There is one session per core,
split across the cluster's two clients, and each session draws from its
own ``RngRegistry(seed)`` stream. ``LiveCluster.run_load`` is not used:
it builds every generator on ``client.rng``, so all sessions would draw
the same key sequence.

Timers that quantize the recovery clock: heartbeat every
:data:`HEARTBEAT_S`, coordinator monitor every :data:`MONITOR_S`,
harness configuration poll every :data:`POLL_S`.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.live.transport as live_transport
from repro.cache.eviction import make_policy
from repro.cache.instance import CacheOp
from repro.harness.cluster import ClusterSpec
from repro.live.harness import LiveCluster
from repro.live.node import PersistentCacheInstance
from repro.metrics.recorder import OpRecorder
from repro.recovery.policies import GEMINI_O_W
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.types import FragmentMode
from repro.workload.keyspace import KeySpace
from repro.workload.ycsb import WorkloadSpec, YcsbWorkload

import catalog
import measure
from tracing import LayerTracer, role_of

RECORDS = 2_000
RECORD_SIZE = 1024
ZIPF_THETA = 0.99
#: Bytes each cached entry is charged beyond its value (key, metadata),
#: as in the simulated scenarios' cache sizing.
ENTRY_OVERHEAD = 100
NUM_INSTANCES = 3
HEARTBEAT_S = 0.05
MONITOR_S = 0.1
POLL_S = 0.05
#: Working-set transfer ends at the latest this long after a restart.
WST_MAX_S = 2.0
SETUP_REPEATS = 3
WARMUP_S = 1.0
OUTAGE_S = 1.0
#: Load before the next kill, so the restarted instance serves again.
SETTLE_S = 0.3
SETTLE_TIMEOUT_S = 30.0
VICTIM = "cache-0"


@dataclass(frozen=True)
class LiveSpec:
    name: str
    read_fraction: float
    #: Share of the data the cluster's caches hold together (None: all).
    cache_share: Optional[float]
    crash: bool


READ_STEADY = LiveSpec("live-read-steady", 0.95, None, crash=False)
CRASH_WRITE = LiveSpec("live-crash-write", 0.50, 0.5, crash=True)


def settings(spec: LiveSpec) -> List[str]:
    """The fixed settings, for the header of the printed result."""
    lines = [
        f"load: closed loop, {session_count()} sessions (one per core) over "
        f"2 clients, {spec.read_fraction:.0%} reads; {RECORDS} records of "
        f"{RECORD_SIZE} B, Zipfian theta {ZIPF_THETA}; caches hold "
        f"{'all' if spec.cache_share is None else f'{spec.cache_share:.0%} of'}"
        " the data",
        "journal: every record flushed, never fsynced (the program's fixed "
        "policy)",
        f"timers: heartbeat {HEARTBEAT_S:g} s, coordinator monitor "
        f"{MONITOR_S:g} s, harness config poll {POLL_S:g} s, working-set "
        f"transfer at most {WST_MAX_S:g} s",
        "rng: sessions draw from RngRegistry(seed) streams; client backoff "
        "jitter and LiveCluster's own OpRecorder still use the "
        "random.Random(0) fallback"]
    if spec.crash:
        lines.append(f"crash: SIGKILL {VICTIM}, {OUTAGE_S:g} s outage, "
                     "restart, wait for NORMAL and transfer end, repeat "
                     "until the run time is spent")
    return lines


def session_count() -> int:
    return len(os.sched_getaffinity(0))


def _memory_bytes(spec: LiveSpec) -> Optional[int]:
    if spec.cache_share is None:
        return None
    return int(RECORDS * (RECORD_SIZE + ENTRY_OVERHEAD) * spec.cache_share
               / NUM_INSTANCES)


def _make_cluster(spec: LiveSpec, workdir: Path) -> LiveCluster:
    cluster_spec = ClusterSpec(
        num_instances=NUM_INSTANCES, fragments_per_instance=4,
        num_clients=2, num_workers=2, policy=GEMINI_O_W,
        monitor_interval=MONITOR_S, memory_bytes=_memory_bytes(spec))
    return LiveCluster(cluster_spec, str(workdir), record_count=RECORDS,
                       record_size=RECORD_SIZE, poll_interval=POLL_S,
                       heartbeat_interval=HEARTBEAT_S,
                       wst_max_duration=WST_MAX_S)


def _pids(cluster: LiveCluster) -> Dict[str, int]:
    # LiveCluster has no public accessor for its node processes.
    return {address: proc.pid for address, proc in cluster._procs.items()
            if proc.returncode is None}


def _read_keys(client: Any, keys: Sequence[str]):
    for key in keys:
        yield from client.read(key)


async def _boot(spec: LiveSpec, workdir: Path) -> Tuple[LiveCluster, float]:
    """Start a cluster and read every record once; returns the set-up time."""
    started = time.perf_counter()
    cluster = _make_cluster(spec, workdir)
    try:
        await cluster.start()
        keys = KeySpace(RECORDS).all_keys()
        count = session_count()
        kernel = cluster.kernel
        await asyncio.gather(*(
            kernel.wait(kernel.process(
                _read_keys(cluster.clients[i % len(cluster.clients)],
                           keys[i::count]), name=f"preload-{i}"))
            for i in range(count)))
    except BaseException:
        await cluster.stop()
        raise
    return cluster, time.perf_counter() - started


class HitLog(OpRecorder):
    """An OpRecorder that also keeps ``(end, hit)`` of every cache lookup,
    so hit ratios can be cut to any window after the fact."""

    def __init__(self, rng_registry: RngRegistry) -> None:
        super().__init__(rng_registry=rng_registry)
        self.lookup_ends: List[float] = []
        self.lookup_hits: List[bool] = []

    def record_read(self, start: float, end: float, hit: bool,
                    instance: Optional[str],
                    store_direct: bool = False) -> None:
        if not store_direct:
            self.lookup_ends.append(end)
            self.lookup_hits.append(hit)
        super().record_read(start, end, hit, instance,
                            store_direct=store_direct)


class Sessions:
    """Closed-loop YCSB sessions; every completed one is kept with its
    end time, so any window can be cut out afterwards."""

    def __init__(self, cluster: LiveCluster, spec: LiveSpec,
                 seed: int) -> None:
        registry = RngRegistry(seed)
        self.kernel = cluster.kernel
        self.recorder = HitLog(registry)
        cluster.recorder = self.recorder
        for client in cluster.clients:
            client.recorder = self.recorder
        workload_spec = WorkloadSpec(
            name=spec.name, read_fraction=spec.read_fraction,
            record_count=RECORDS, record_size=RECORD_SIZE,
            zipf_theta=ZIPF_THETA)
        keyspace = KeySpace(RECORDS)
        count = session_count()
        self.workloads = [
            YcsbWorkload(workload_spec, registry.stream(f"session-{i}"),
                         keyspace=keyspace) for i in range(count)]
        self.clients = [cluster.clients[i % len(cluster.clients)]
                        for i in range(count)]
        self.ends: List[float] = []
        self.is_read: List[bool] = []
        self.latency: List[float] = []
        self.failure_ends: List[float] = []
        self.errors: Counter[str] = Counter()
        self._stopping = False
        self._waits: List[Any] = []

    def start(self) -> None:
        for index, (client, workload) in enumerate(
                zip(self.clients, self.workloads)):
            process = self.kernel.process(self._loop(client, workload),
                                          name=f"session-{index}")
            self._waits.append(self.kernel.wait(process))

    async def stop(self) -> None:
        self._stopping = True
        await asyncio.gather(*self._waits)

    def _loop(self, client: Any, workload: YcsbWorkload):
        kernel = self.kernel
        while not self._stopping:
            op, key = workload.next_op()
            started = kernel.now
            try:
                if op == "read":
                    yield from client.read(key)
                else:
                    yield from client.write(key, size=RECORD_SIZE)
            except Exception as exc:  # noqa: BLE001 - a failed session is
                # counted against the attempted ones; the loop goes on.
                self.failure_ends.append(kernel.now)
                self.errors[type(exc).__name__] += 1
                yield 0.001
                continue
            end = kernel.now
            self.ends.append(end)
            self.is_read.append(op == "read")
            self.latency.append(end - started)

    # -- windows -------------------------------------------------------------
    def completed(self, windows: Sequence[Tuple[float, float]]) -> List[int]:
        """Indices of the sessions that completed inside any window."""
        out: List[int] = []
        for start, end in windows:
            out.extend(range(bisect_left(self.ends, start),
                             bisect_left(self.ends, end)))
        return out

    def failed(self, windows: Sequence[Tuple[float, float]]) -> int:
        return sum(bisect_left(self.failure_ends, end)
                   - bisect_left(self.failure_ends, start)
                   for start, end in windows)

    def hit_ratio(self, windows: Sequence[Tuple[float, float]]) -> float:
        ends, hits = self.recorder.lookup_ends, self.recorder.lookup_hits
        lookups = hit_count = 0
        for start, end in windows:
            lo, hi = bisect_left(ends, start), bisect_left(ends, end)
            lookups += hi - lo
            hit_count += sum(hits[lo:hi])
        return hit_count / lookups if lookups else 0.0


@dataclass
class Probe:
    """Cumulative counters read at a segment boundary."""

    harness_cpu: float
    steps: int
    backoffs: int
    refreshes: int
    direct_reads: int
    repaired: int
    batches: int
    config_id: int
    node_cpu: Dict[int, Tuple[str, float]]
    cache_stats: Dict[Tuple[str, int], Dict[str, int]]
    journals: Dict[str, int]


async def _probe(cluster: LiveCluster) -> Probe:
    pids = _pids(cluster)
    node_cpu = {}
    for address, pid in pids.items():
        cpu = measure.proc_cpu_seconds(pid)
        if cpu is not None:
            node_cpu[pid] = (role_of(address), cpu)
    cache_stats = {}
    for address in cluster.instance_addresses:
        if address in pids:
            cache_stats[(address, pids[address])] = await cluster.kernel.wait(
                cluster.transport.call(address, CacheOp(op="stats"),
                                       timeout=2.0))
    recovery = cluster.recovery_recorder.summary()
    recorder = cluster.recorder
    config = await cluster.get_config()
    return Probe(
        harness_cpu=time.process_time(), steps=cluster.kernel.counters.steps,
        backoffs=recorder.lease_backoffs, refreshes=recorder.config_refreshes,
        direct_reads=recorder.store_direct_reads,
        repaired=recovery["keys_repaired"], batches=recovery["batches"],
        config_id=config.config_id, node_cpu=node_cpu,
        cache_stats=cache_stats,
        journals=measure.journal_sizes(cluster.workdir,
                                       cluster.instance_addresses))


def _install(tracer: LayerTracer, cluster: LiveCluster,
             sessions: Sessions) -> None:
    tracer.watch_rpcs(cluster.transport, cluster.kernel)
    tracer.time_calls(live_transport, "encode_envelope", "wire.encode",
                      lambda args, frame: len(frame))
    tracer.time_calls(live_transport, "decode_envelope", "wire.decode",
                      lambda args, envelope: len(args[0]))
    tracer.time_calls(sessions.recorder, "record_read", "metrics")
    tracer.time_calls(sessions.recorder, "record_write", "metrics")
    tracer.time_calls(cluster.oracle, "record_read", "verify")
    tracer.time_calls(cluster.oracle, "record_commit", "verify")
    for workload in sessions.workloads:
        tracer.time_calls(workload, "next_op", "workload")


@dataclass
class LayerTotals:
    """Per-layer deltas summed over the traced segments."""

    harness_cpu: float = 0.0
    steps: int = 0
    backoffs: int = 0
    refreshes: int = 0
    direct_reads: int = 0
    repaired: int = 0
    batches: int = 0
    config_commits: int = 0
    node_cpu: Counter = field(default_factory=Counter)
    cache_hits: Counter = field(default_factory=Counter)
    cache_gets: Counter = field(default_factory=Counter)
    evictions: int = 0

    def add(self, before: Probe, after: Probe) -> None:
        self.harness_cpu += after.harness_cpu - before.harness_cpu
        self.steps += after.steps - before.steps
        self.backoffs += after.backoffs - before.backoffs
        self.refreshes += after.refreshes - before.refreshes
        self.direct_reads += after.direct_reads - before.direct_reads
        self.repaired += after.repaired - before.repaired
        self.batches += after.batches - before.batches
        self.config_commits += after.config_id - before.config_id
        for pid, (role, cpu) in after.node_cpu.items():
            # A process started inside the segment counts from zero.
            self.node_cpu[role] += cpu - before.node_cpu.get(pid, (role, 0.0))[1]
        for key, stats in after.cache_stats.items():
            prior = before.cache_stats.get(key, {})
            self.cache_hits[key[0]] += stats["hits"] - prior.get("hits", 0)
            self.cache_gets[key[0]] += stats["gets"] - prior.get("gets", 0)
            self.evictions += stats["evictions"] - prior.get("evictions", 0)


@dataclass
class Crash:
    """One kill / outage / restart / recovery cycle."""

    window: Tuple[float, float]   # kernel time, kill -> every fragment NORMAL
    clock: measure.CrashClock
    restart_s: float
    repair_s: float               # victim READY -> every fragment NORMAL
    outage_bytes: int             # survivors' journal growth while down
    journal_bytes: int            # all journals, kill -> settled
    span: Tuple[float, float]     # kernel time, kill -> settled


class RecoveryStalled(Exception):
    """The cluster did not return to NORMAL within the settle timeout."""


class LiveRun:
    """One run of a live workload, from boot to teardown."""

    def __init__(self, spec: LiveSpec, seed: int, seconds: float,
                 trace: bool, workroot: Path, setups: List[float]) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workroot = workroot
        self.report = measure.Report()
        #: Set-up times of earlier boots; this run's boot is appended.
        self.setups = list(setups)
        self.layers: Dict[str, float] = {}
        self.peak_rss: Dict[int, float] = {}
        self.cluster: Optional[LiveCluster] = None
        self.sessions: Optional[Sessions] = None

    async def run(self) -> measure.Report:
        try:
            await self._setup()
            assert self.sessions is not None
            self.sessions.start()
            await asyncio.sleep(WARMUP_S)
            if self.spec.crash:
                await self._measure_crashes()
            else:
                await self._measure_steady()
            await self.sessions.stop()
            self._final_checks()
        finally:
            if self.cluster is not None:
                await self.cluster.stop()
        if self.trace:
            self._replay_journals()
        return self.report

    async def _setup(self) -> None:
        index = len(self.setups)
        self.cluster, seconds = await _boot(
            self.spec, self.workroot / f"boot-{index}")
        self.setups.append(seconds)
        self.report.add("setup_s", statistics.median(self.setups), "s",
                        len(self.setups),
                        f"median of {len(self.setups)} set-ups")
        self.sessions = Sessions(self.cluster, self.spec, self.seed)

    def _read_rss(self) -> None:
        assert self.cluster is not None
        for address, pid in _pids(self.cluster).items():
            if address.startswith("cache-"):
                rss = measure.proc_peak_rss_mib(pid)
                if rss is not None:
                    self.peak_rss[pid] = rss

    # -- live-read-steady ------------------------------------------------------
    async def _measure_steady(self) -> None:
        cluster, sessions = self.cluster, self.sessions
        assert cluster is not None and sessions is not None
        plan = [False, True, False, True] if self.trace else [False]
        length = self.seconds / 2 if self.trace else self.seconds
        windows: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
        totals = LayerTotals()
        tracer = LayerTracer()
        journal_growth = 0
        for traced in plan:
            before = await _probe(cluster)
            if traced:
                _install(tracer, cluster, sessions)
            start = cluster.kernel.now
            await asyncio.sleep(length)
            end = cluster.kernel.now
            tracer.remove()
            after = await _probe(cluster)
            windows[traced].append((start, end))
            if traced:
                totals.add(before, after)
            else:
                journal_growth += (sum(after.journals.values())
                                   - sum(before.journals.values()))
        self._report_e2e(windows[False], journal_growth)
        if self.trace:
            self._report_layers(tracer, totals, windows, crashes=[])

    # -- live-crash-write ------------------------------------------------------
    async def _measure_crashes(self) -> None:
        cluster = self.cluster
        assert cluster is not None
        crashes: Dict[bool, List[Crash]] = {False: [], True: []}
        totals = LayerTotals()
        tracer = LayerTracer()
        budget = self.seconds * (2 if self.trace else 1)
        started = time.perf_counter()
        cycle = 0
        while True:
            traced = self.trace and cycle % 2 == 1
            before = await _probe(cluster)
            if traced:
                _install(tracer, cluster, self.sessions)
            try:
                crash = await self._crash_once()
            except RecoveryStalled as stalled:
                self.report.check("every fragment NORMAL after each crash",
                                  False, str(stalled))
                return
            finally:
                tracer.remove()
            after = await _probe(cluster)
            crashes[traced].append(crash)
            if traced:
                totals.add(before, after)
            cycle += 1
            if (time.perf_counter() - started >= budget
                    and (not self.trace or cycle >= 2)):
                break
            await asyncio.sleep(SETTLE_S)
        self.report.check("every fragment NORMAL after each crash", True,
                          f"{cycle} crashes")
        untraced = crashes[False]
        self._report_e2e([c.window for c in untraced],
                         sum(c.journal_bytes for c in untraced),
                         growth_windows=[c.span for c in untraced])
        self.report.add(
            "recovery_s", statistics.median(c.clock.recovery_s
                                            for c in untraced),
            "s", len(untraced),
            "median over crashes; restart -> every fragment NORMAL")
        self.report.add(
            "wst_end_s", statistics.median(c.clock.wst_s for c in untraced),
            "s", len(untraced),
            "median over crashes; restart -> working-set transfer off")
        if self.trace:
            self._report_layers(
                tracer, totals,
                {flag: [c.window for c in crashes[flag]] for flag in crashes},
                crashes=crashes[True])

    async def _crash_once(self) -> Crash:
        cluster = self.cluster
        assert cluster is not None and cluster.kernel is not None
        kernel = cluster.kernel
        addresses = cluster.instance_addresses
        self._read_rss()
        sizes_at_kill = measure.journal_sizes(cluster.workdir, addresses)
        cluster.kill_instance(VICTIM)
        kill_wall, kill_at = time.time(), kernel.now
        await asyncio.sleep(OUTAGE_S)
        sizes_down = measure.journal_sizes(cluster.workdir, addresses)
        restart_wall = time.time()
        began = time.perf_counter()
        await cluster.restart_instance(VICTIM)
        restart_s = time.perf_counter() - began
        ready_wall = time.time()
        await self._wait_settled()
        settled_at = kernel.now
        sizes_settled = measure.journal_sizes(cluster.workdir, addresses)
        clock = measure.crash_clock(
            measure.config_commits(cluster.workdir / "coordinator.events.jsonl"),
            VICTIM, kill_wall, restart_wall)
        return Crash(
            window=(kill_at, kill_at + clock.normal_wall - kill_wall),
            clock=clock, restart_s=restart_s,
            repair_s=clock.normal_wall - ready_wall,
            outage_bytes=sum(sizes_down[a] - sizes_at_kill[a]
                             for a in addresses if a != VICTIM),
            journal_bytes=(sum(sizes_settled.values())
                           - sum(sizes_at_kill.values())),
            span=(kill_at, settled_at))

    async def _wait_settled(self) -> None:
        """Poll until every fragment is NORMAL with no transfer running.

        Only decides when the next step may start: recovery is timed
        from the coordinator's commit stamps, not from this poll.
        """
        cluster = self.cluster
        assert cluster is not None
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while True:
            config = await cluster.get_config()
            if all(f.mode is FragmentMode.NORMAL and not f.wst_active
                   for f in config.fragments):
                return
            if time.perf_counter() > deadline:
                modes = Counter(f.mode.value for f in config.fragments)
                raise RecoveryStalled(
                    f"recovery incomplete after {SETTLE_TIMEOUT_S}s: "
                    f"{dict(modes)}")
            await asyncio.sleep(0.01)

    # -- reporting -------------------------------------------------------------
    def _report_e2e(self, windows: List[Tuple[float, float]],
                    journal_growth: int,
                    growth_windows: Optional[List[Tuple[float, float]]] = None
                    ) -> None:
        sessions, report = self.sessions, self.report
        assert sessions is not None
        self._read_rss()
        done = sessions.completed(windows)
        failed = sessions.failed(windows)
        report.attempted, report.failed = len(done) + failed, failed
        duration = sum(end - start for start, end in windows)
        if self.spec.crash:
            # Each window (kill -> all NORMAL) is one disturbance; its
            # rate is meant to include every part of it.
            report.add("ops_per_s", len(done) / duration, "ops/s",
                       len(done), f"over {duration:.2f} s of window")
        else:
            rate, bins = measure.median_rate(sessions.ends, windows)
            report.add("ops_per_s", rate, "ops/s", len(done),
                       f"median of {bins} 1 s bins in {duration:.2f} s "
                       "of window")
        report.add_latency("read", [sessions.latency[i] for i in done
                                    if sessions.is_read[i]])
        report.add_latency("write", [sessions.latency[i] for i in done
                                     if not sessions.is_read[i]])
        report.add("hit_ratio", sessions.hit_ratio(windows), "ratio",
                   len(done))
        report.add("peak_rss_mib", max(self.peak_rss.values()), "MiB",
                   len(self.peak_rss), "highest VmHWM of a cache node")
        writes = sum(1 for i in sessions.completed(growth_windows or windows)
                     if not sessions.is_read[i])
        report.add("journal_bytes_per_write",
                   journal_growth / writes if writes else 0.0, "B", writes,
                   f"{journal_growth / max(1, writes) / RECORD_SIZE:.2f} "
                   "B stored per B of user data")

    def _report_layers(self, tracer: LayerTracer, totals: LayerTotals,
                       windows: Dict[bool, List[Tuple[float, float]]],
                       crashes: List[Crash]) -> None:
        sessions = self.sessions
        assert sessions is not None
        ops = len(sessions.completed(windows[True]))
        traced_s = sum(end - start for start, end in windows[True])
        plain_ops = len(sessions.completed(windows[False]))
        plain_s = sum(end - start for start, end in windows[False])
        per_op = 1.0 / ops if ops else 0.0
        layers = catalog.empty_layers()
        layers["harness.cpu_us_per_op"] = totals.harness_cpu * 1e6 * per_op
        layers["client.backoffs_per_op"] = totals.backoffs * per_op
        layers["client.config_refreshes"] = totals.refreshes
        for role in ("cache", "datastore", "coordinator"):
            layers[f"transport.rpcs_per_op.{role}"] = (
                tracer.calls[f"rpc.{role}"] * per_op)
            rtts = sorted(tracer.rtt.get(role, []))
            if rtts:
                layers[f"transport.rtt_p50_ms.{role}"] = (
                    measure.percentile(rtts, 50) * 1e3)
                layers[f"transport.rtt_p99_ms.{role}"] = (
                    measure.tail_percentile(rtts)[1] * 1e3)
            layers[f"node.{role}.cpu_us_per_op"] = (
                totals.node_cpu[role] * 1e6 * per_op)
        layers["wire.encode_us_per_frame"] = tracer.mean_us("wire.encode")
        layers["wire.decode_us_per_frame"] = tracer.mean_us("wire.decode")
        layers["wire.bytes_per_op"] = (
            (tracer.bytes["wire.encode"] + tracer.bytes["wire.decode"])
            * per_op)
        layers["kernel.steps_per_op"] = totals.steps * per_op
        if crashes:
            crash_layers = {
                "client.store_direct_reads": totals.direct_reads,
                "transport.failed_rpcs": tracer.failed_rpcs,
                "journal.outage_bytes": statistics.median(
                    c.outage_bytes for c in crashes),
                "journal.restart_s": statistics.median(
                    c.restart_s for c in crashes),
                "coordinator.detect_s": statistics.median(
                    c.clock.detect_s for c in crashes)}
            for name, __, __ in catalog.CRASH_LAYERS:
                self.report.add(name, crash_layers[name],
                                catalog.UNITS[name], len(crashes),
                                "traced crashes; table only")
            layers["coordinator.wst_s"] = statistics.median(
                c.clock.wst_s for c in crashes)
            layers["recovery.repair_s"] = statistics.median(
                c.repair_s for c in crashes)
        layers["coordinator.config_commits"] = totals.config_commits
        layers["recovery.keys_repaired"] = totals.repaired
        layers["recovery.batches"] = totals.batches
        for address, gets in totals.cache_gets.items():
            if gets:
                layers[f"cache.hit_ratio.{address}"] = (
                    totals.cache_hits[address] / gets)
        layers["cache.evictions"] = totals.evictions
        layers["metrics.record_us_per_op"] = (
            tracer.seconds["metrics"] * 1e6 * per_op)
        layers["verify.oracle_us_per_op"] = (
            tracer.seconds["verify"] * 1e6 * per_op)
        layers["workload.next_op_us"] = tracer.mean_us("workload")
        traced_rate = ops / traced_s if traced_s else 0.0
        plain_rate = plain_ops / plain_s if plain_s else 0.0
        layers["trace.ops_per_s_delta"] = traced_rate - plain_rate
        if traced_rate and plain_rate:
            layers["trace.us_per_op_delta"] = 1e6 / traced_rate - 1e6 / plain_rate
        self.layers = layers
        self.report.add("traced_ops", ops, "count", ops,
                        f"sessions in {traced_s:.2f} s of traced window")

    # -- checks ----------------------------------------------------------------
    def _final_checks(self) -> None:
        cluster = self.cluster
        assert cluster is not None
        oracle = cluster.oracle
        self.report.check("zero stale reads", oracle.stale_reads == 0,
                          f"{oracle.stale_reads} of {oracle.reads_checked} "
                          "reads stale")
        if self.spec.crash:
            repaired = cluster.recovery_recorder.summary()["keys_repaired"]
            self.report.check("recovery repaired dirty keys", repaired > 0,
                              f"keys_repaired={repaired}")

    def _replay_journals(self) -> None:
        """Time ``PersistentCacheInstance.recover()`` on copies of the
        final cluster's journals."""
        assert self.cluster is not None
        source = self.cluster.workdir
        target = self.workroot / "replay"
        target.mkdir(parents=True, exist_ok=True)
        total_bytes = records = 0
        seconds = 0.0
        for address in self.cluster.instance_addresses:
            journal = source / f"{address}.journal"
            if not journal.exists():
                continue
            copy = target / journal.name
            shutil.copyfile(journal, copy)
            with open(copy, "rb") as handle:
                records += sum(1 for __ in handle)
            total_bytes += copy.stat().st_size
            instance = PersistentCacheInstance(
                Simulator(), address,
                memory_bytes=_memory_bytes(self.spec) or 1 << 30,
                policy=make_policy("lru"), journal_path=copy)
            began = time.perf_counter()
            instance.recover()
            seconds += time.perf_counter() - began
            # recover() leaves the journal open for appending and the
            # instance has no close method.
            instance._journal.close()
        if total_bytes:
            self.layers["journal.replay_s_per_mib"] = (
                seconds / (total_bytes / (1 << 20)))
            self.layers["journal.bytes_per_record"] = total_bytes / records


async def _boot_and_stop(spec: LiveSpec, workdir: Path) -> float:
    cluster, seconds = await _boot(spec, workdir)
    await cluster.stop()
    return seconds


def run(spec: LiveSpec, seed: int, seconds: float, trace: bool,
        workroot: Path) -> Tuple[measure.Report, Dict[str, float]]:
    """Run one live workload; returns its report and per-layer values.

    Set-up is repeated :data:`SETUP_REPEATS` times; each earlier boot
    gets an event loop of its own, so its harness-side processes
    (configuration poller, recovery workers) end with that loop instead
    of competing with the measured cluster.
    """
    setups = [asyncio.run(_boot_and_stop(spec, workroot / f"boot-{i}"))
              for i in range(SETUP_REPEATS - 1)]
    live = LiveRun(spec, seed, seconds, trace, workroot, setups)
    return asyncio.run(live.run()), live.layers
