"""LiveCluster draws every client, worker and load thread from its own
named stream of one seeded RngRegistry, as GeminiCluster does."""

import asyncio
import copy

from repro.harness.cluster import ClusterSpec
from repro.live.harness import LiveCluster
from repro.workload.ycsb import WorkloadSpec

RECORDS = 200


def test_clients_and_workers_draw_decorrelated_streams(tmp_path):
    spec = ClusterSpec(num_instances=1, fragments_per_instance=2,
                       num_clients=2, num_workers=1)
    cluster = LiveCluster(spec, str(tmp_path), record_count=RECORDS,
                          record_size=64)

    async def scenario():
        try:
            await cluster.start()
            streams = ([client.rng for client in cluster.clients]
                       + [worker.rng for worker in cluster.workers])
            # Copies, so the check does not consume the live streams.
            first = [copy.deepcopy(stream).random() for stream in streams]
            load = await cluster.run_load(0.5, workload=WorkloadSpec(
                name="rng-check", read_fraction=0.8, record_count=RECORDS,
                record_size=64))
        finally:
            await cluster.stop()
        return first, load

    first, load = asyncio.run(scenario())
    assert len(set(first)) == 3
    assert cluster.clients[0].rng is cluster.rng.stream("client-0")
    assert cluster.workers[0].rng is cluster.rng.stream("worker-0")
    assert load.ops > 0
    summary = cluster.oracle.summary()
    assert summary["reads_checked"] > 0
    assert summary["stale_reads"] == 0
