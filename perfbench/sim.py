"""``sim-fig8``: the scaled Figure 8 scenario on the deterministic simulator.

``YcsbScenario`` with Gemini-O+W, ``HIGH_LOAD_THREADS`` closed-loop
threads and one outage of ``cache-0``, built by
``repro.harness.scenarios.build_ycsb_experiment``. No sockets, no
processes: the cost measured is the host time to regenerate the
paper's figures (sim kernel, Zipf draw, recorder, oracle, protocol).

One seed fixes the whole schedule, so a run repeats the same scenario
until ``--seconds`` have passed (at least twice) and checks that every
repeat simulated the same sessions, stale reads and kernel steps.
Latencies and ``hit_ratio`` are simulated quantities; ``ops_per_s`` is
simulated sessions per host second.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.scenarios import (HIGH_LOAD_THREADS, YcsbScenario,
                                     build_ycsb_experiment)
from repro.metrics.recorder import OpRecorder
from repro.recovery.policies import GEMINI_O_W

import catalog
import measure
from tracing import LayerTracer

RECORDS = 2_000
RECORD_SIZE = 1024
ZIPF_THETA = 0.99
UPDATE_FRACTION = 0.05
FAIL_AT = 2.0
OUTAGE = 2.0
TAIL = 6.0
VICTIM = "cache-0"
MIN_REPEATS = 2
#: Set-up is timed on builds of its own, this many before every repeat:
#: the host's speed shifts in phases of seconds, and builds spread over
#: the whole run sample more of them than builds made all at once.
SETUP_BUILDS = 10


class LatencyLog(OpRecorder):
    """An OpRecorder that keeps every session latency, not a reservoir."""

    def __init__(self, rng_registry) -> None:
        super().__init__(rng_registry=rng_registry)
        self.read_s: List[float] = []
        self.write_s: List[float] = []

    def record_read(self, start, end, hit, instance, store_direct=False):
        self.read_s.append(end - start)
        super().record_read(start, end, hit, instance,
                            store_direct=store_direct)

    def record_write(self, start, end, suspended_for=0.0):
        self.write_s.append(end - start)
        super().record_write(start, end, suspended_for=suspended_for)


@dataclass
class Repeat:
    """One build-and-run of the scenario."""

    run_s: float
    cpu_s: float
    sessions: int
    attempted: int
    failed: int
    stale_reads: int
    counters: Dict[str, int]
    #: Kept for the first repeat only: every repeat of a seed is the same
    #: schedule, and retaining all would make peak RSS grow with repeats.
    recorder: Optional[LatencyLog]
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def fingerprint(self) -> Tuple[int, int, int]:
        return (self.sessions, self.stale_reads, self.counters["steps"])


def scenario(seed: int) -> YcsbScenario:
    return YcsbScenario(
        policy=GEMINI_O_W, update_fraction=UPDATE_FRACTION,
        threads=HIGH_LOAD_THREADS, records=RECORDS, record_size=RECORD_SIZE,
        zipf_theta=ZIPF_THETA, fail_at=FAIL_AT, outage=OUTAGE, tail=TAIL,
        targets=(VICTIM,), seed=seed)


def settings() -> List[str]:
    """The fixed settings, for the header of the printed result."""
    return [f"scenario: YcsbScenario Gemini-O+W, {HIGH_LOAD_THREADS} "
            f"closed-loop threads, {RECORDS} records of {RECORD_SIZE} B, "
            f"Zipfian theta {ZIPF_THETA}, {UPDATE_FRACTION:.0%} updates, "
            f"{VICTIM} down at {FAIL_AT:g} s for {OUTAGE:g} s, {TAIL:g} s "
            "tail (simulated time)"]


def _busy_group(process_name: str) -> str:
    for group in catalog.SIM_BUSY_GROUPS:
        if process_name.startswith(group):
            return group
    return "other"


def _build_seconds(seed: int) -> float:
    began = time.perf_counter()
    build_ycsb_experiment(scenario(seed))
    return time.perf_counter() - began


def _repeat(seed: int, traced: bool) -> Repeat:
    # The previous repeat's cluster holds reference cycles; free it now so
    # peak RSS never counts two clusters.
    gc.collect()
    cluster, workload, experiment = build_ycsb_experiment(scenario(seed))
    recorder = LatencyLog(cluster.rng)
    cluster.recorder = recorder
    for client in cluster.clients:
        client.recorder = recorder
    tracer = LayerTracer()
    if traced:
        tracer.time_calls(recorder, "record_read", "metrics")
        tracer.time_calls(recorder, "record_write", "metrics")
        tracer.time_calls(cluster.oracle, "record_read", "verify")
        tracer.time_calls(cluster.oracle, "record_commit", "verify")
        tracer.time_calls(workload, "next_op", "workload")
    config_before = cluster.coordinator.current.config_id
    cpu = time.process_time()
    began = time.perf_counter()
    result = experiment.run()
    run_s = time.perf_counter() - began
    cpu_s = time.process_time() - cpu
    tracer.remove()
    # Experiment keeps its load threads privately; their counts are the
    # only record of sessions that failed.
    threads = experiment._load_threads
    sessions = recorder.reads + recorder.writes
    repeat = Repeat(
        run_s=run_s, cpu_s=cpu_s, sessions=sessions,
        attempted=sum(t.ops_issued for t in threads),
        failed=sum(t.errors for t in threads),
        stale_reads=result.oracle.stale_reads,
        counters=cluster.sim.counters.to_dict(), recorder=recorder)
    if traced:
        repeat.layers = _layers(cluster, result, tracer, repeat,
                                config_before)
    return repeat


def _layers(cluster, result, tracer: LayerTracer, repeat: Repeat,
            config_before: int) -> Dict[str, float]:
    per_op = 1.0 / repeat.sessions
    recorder = repeat.recorder
    layers = catalog.empty_layers()
    layers["harness.cpu_us_per_op"] = repeat.cpu_s * 1e6 * per_op
    layers["client.backoffs_per_op"] = recorder.lease_backoffs * per_op
    layers["client.config_refreshes"] = recorder.config_refreshes
    transitions = cluster.coordinator.transitions
    recovered_at = [t[0] for t in transitions if t[1] == "recover-gemini"]
    wst_done_at = [t[0] for t in transitions if t[1] == "wst-done"]
    if recovered_at and wst_done_at:
        layers["coordinator.wst_s"] = wst_done_at[-1] - recovered_at[0]
    layers["coordinator.config_commits"] = (
        cluster.coordinator.current.config_id - config_before)
    summary = cluster.recovery_recorder.summary()
    layers["recovery.keys_repaired"] = summary["keys_repaired"]
    layers["recovery.batches"] = summary["batches"]
    layers["recovery.repair_s"] = result.recovery_time(VICTIM) or 0.0
    evictions = 0
    for address, instance in cluster.instances.items():
        stats = instance.stats
        evictions += stats.evictions
        name = f"cache.hit_ratio.{address}"
        if name in layers and stats.gets:
            layers[name] = stats.hits / stats.gets
    layers["cache.evictions"] = evictions
    layers["metrics.record_us_per_op"] = (
        tracer.seconds["metrics"] * 1e6 * per_op)
    layers["verify.oracle_us_per_op"] = tracer.seconds["verify"] * 1e6 * per_op
    layers["workload.next_op_us"] = tracer.mean_us("workload")
    counters = repeat.counters
    layers["sim.steps_per_op"] = counters["steps"] * per_op
    layers["sim.events_per_op"] = counters["events_created"] * per_op
    layers["sim.heap_pushes_per_op"] = counters["heap_pushes"] * per_op
    layers["sim.messages_per_op"] = cluster.network.messages_sent * per_op
    for name, seconds in cluster.sim.busy_profile().items():
        layers[f"sim.busy_s.{_busy_group(name)}"] += seconds
    return layers


def run(seed: int, seconds: float, trace: bool
        ) -> Tuple[measure.Report, Dict[str, float]]:
    """Repeat the scenario for ``seconds`` (twice that, alternating
    untraced and traced repeats, with ``trace``)."""
    setups: List[float] = []
    budget = seconds * (2 if trace else 1)
    repeats: List[Repeat] = []
    traced: List[Repeat] = []
    started = time.perf_counter()
    while True:
        is_traced = trace and (len(repeats) + len(traced)) % 2 == 1
        gc.collect()
        setups += [_build_seconds(seed) for __ in range(SETUP_BUILDS)]
        repeat = _repeat(seed, is_traced)
        if repeats:
            repeat.recorder = None
        else:
            # Later repeats fragment the heap a little more each time, so
            # peak RSS is read after a fixed amount of work.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        (traced if is_traced else repeats).append(repeat)
        if (time.perf_counter() - started >= budget
                and len(repeats) >= MIN_REPEATS and (traced or not trace)):
            break
    report = measure.Report()
    everything = repeats + traced
    fingerprints = {r.fingerprint for r in everything}
    report.check(
        "sim repeats identical (sessions, stale reads, kernel steps)",
        len(fingerprints) == 1,
        f"{len(everything)} repeats: {sorted(fingerprints)}")
    stale = repeats[0].stale_reads
    report.check("zero stale reads", stale == 0, f"{stale} stale reads")
    report.attempted = sum(r.attempted for r in repeats)
    report.failed = sum(r.failed for r in repeats)

    report.add("setup_s", statistics.median(setups), "s", len(setups),
               f"median of {len(setups)} builds (cluster built, warmed)")
    us_per_op = statistics.median(r.run_s / r.sessions * 1e6 for r in repeats)
    sessions = repeats[0].sessions
    report.add("ops_per_s", 1e6 / us_per_op, "ops/s", sessions,
               f"simulated sessions per host second, median of "
               f"{len(repeats)} repeats")
    first = repeats[0].recorder
    report.add_latency("read", first.read_s, "simulated")
    report.add_latency("write", first.write_s, "simulated")
    report.add("hit_ratio", first.overall_hit_ratio(), "ratio",
               first.cache_hits + first.datastore_reads, "simulated")
    report.add("peak_rss_mib", peak_rss / 1024.0, "MiB", 1,
               "benchmark process, through the first repeat")
    report.add("sim_us_per_op", us_per_op, "us", sessions,
               f"median of {len(repeats)} repeats")
    layers: Dict[str, float] = {}
    if traced:
        layers = {name: statistics.median(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        traced_us = statistics.median(r.run_s / r.sessions * 1e6
                                      for r in traced)
        layers["trace.us_per_op_delta"] = traced_us - us_per_op
        layers["trace.ops_per_s_delta"] = 1e6 / traced_us - 1e6 / us_per_op
    return report, layers
