"""The benchmark's metric catalogue: names, units, direction.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree. Every workload reports every metric: with
``--trace 0`` the end-to-end set, with ``--trace 1`` the per-layer set.
A per-layer metric of a layer a workload does not exercise reads 0
(the sim has no sockets or journal; ``live-read-steady`` no crash).
:data:`CRASH_LAYERS` are only printed in the table of
``live-crash-write``, the one workload that moves them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better) of the end-to-end metrics. The p99 latencies are
#: printed with their sample counts but not listed: on a shared 2-core
#: host they moved 40-100 % between runs of one commit, far past the
#: largest bound a listed metric may have (25 %).
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("hit_ratio", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
]

_ROLES = ("cache", "datastore", "coordinator")
CACHE_ADDRESSES = tuple(f"cache-{i}" for i in range(5))
SIM_BUSY_GROUPS = ("ycsb", "client", "worker", "coord", "other")

#: (name, unit, better) of the per-layer metrics. Units ``count`` and
#: ``count/op`` mark counts that repeat exactly for one seed where the
#: schedule is deterministic (sim); everything else is a measurement.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("harness.cpu_us_per_op", "us", "lower"),
    ("client.backoffs_per_op", "count/op", "lower"),
    ("client.config_refreshes", "count", "lower"),
    *[(f"transport.rpcs_per_op.{r}", "count/op", "lower") for r in _ROLES],
    *[(f"transport.rtt_p50_ms.{r}", "ms", "lower") for r in _ROLES],
    *[(f"transport.rtt_p99_ms.{r}", "ms", "lower") for r in _ROLES],
    ("wire.encode_us_per_frame", "us", "lower"),
    ("wire.decode_us_per_frame", "us", "lower"),
    ("wire.bytes_per_op", "B", "lower"),
    ("kernel.steps_per_op", "count/op", "lower"),
    *[(f"node.{r}.cpu_us_per_op", "us", "lower") for r in _ROLES],
    ("journal.replay_s_per_mib", "s/MiB", "lower"),
    ("journal.bytes_per_record", "B", "lower"),
    ("coordinator.config_commits", "count", "lower"),
    ("coordinator.wst_s", "s", "lower"),
    ("recovery.keys_repaired", "count", "lower"),
    ("recovery.batches", "count", "lower"),
    ("recovery.repair_s", "s", "lower"),
    *[(f"cache.hit_ratio.{a}", "ratio", "higher") for a in CACHE_ADDRESSES],
    ("cache.evictions", "count", "lower"),
    ("metrics.record_us_per_op", "us", "lower"),
    ("verify.oracle_us_per_op", "us", "lower"),
    ("workload.next_op_us", "us", "lower"),
    ("sim.steps_per_op", "count/op", "lower"),
    ("sim.events_per_op", "count/op", "lower"),
    ("sim.heap_pushes_per_op", "count/op", "lower"),
    ("sim.messages_per_op", "count/op", "lower"),
    *[(f"sim.busy_s.{g}", "s", "lower") for g in SIM_BUSY_GROUPS],
    # Traced minus untraced: the cost of tracing itself.
    ("trace.ops_per_s_delta", "ops/s", "higher"),
    ("trace.us_per_op_delta", "us", "lower"),
]

#: (name, unit, better) of the per-layer metrics that only a live crash
#: moves; the sim's scheduled outage tells the coordinator at once, so
#: its detection time is 0 by construction. ``live-crash-write`` is not
#: in ``BENCHMARK.json`` (its stale-read check fails on the program as it
#: stands), so these are printed in its table and kept out of the JSON
#: line of the listed workloads, where they would always read 0.
CRASH_LAYERS: List[Tuple[str, str, str]] = [
    ("client.store_direct_reads", "count", "lower"),
    ("transport.failed_rpcs", "count", "lower"),
    ("journal.outage_bytes", "B", "lower"),
    ("journal.restart_s", "s", "lower"),
    ("coordinator.detect_s", "s", "lower"),
]

UNITS: Dict[str, str] = {
    name: unit for name, unit, __ in END_TO_END + PER_LAYER + CRASH_LAYERS}


def empty_layers() -> Dict[str, float]:
    """Every per-layer metric at 0, for a workload to fill in."""
    return {name: 0.0 for name, __, __ in PER_LAYER}
