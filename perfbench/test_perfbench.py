"""Tests of the benchmark's pure parts (no cluster, no simulation run).

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import measure  # noqa: E402
from tracing import LayerTracer, role_of  # noqa: E402


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert measure.percentile(ordered, 50) == 50
    assert measure.percentile(ordered, 99) == 99
    assert measure.percentile(ordered, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0


def test_tail_percentile_keeps_ten_samples_beyond():
    used, value, beyond = measure.tail_percentile(range(1000))
    assert (used, value, beyond) == (99.0, 989, 10)
    # 500 samples: p99 would leave 5 beyond, so p98 is the highest with 10.
    used, value, beyond = measure.tail_percentile(range(500))
    assert used == pytest.approx(98.0)
    assert beyond == 10 and value == 489


def test_quartile_spread_is_relative_to_median():
    assert measure.quartile_spread([10.0] * 10) == 0.0
    values = [8, 9, 10, 11, 12]
    q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert measure.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_median_rate_takes_the_median_of_whole_bins():
    # 10/s for three seconds, then a stalled second: the median ignores it.
    ends = [i / 10 for i in range(30)]
    rate, bins = measure.median_rate(ends, [(0.0, 4.0)])
    assert (rate, bins) == (10.0, 4)
    # A window shorter than a bin is one bin of its own length.
    assert measure.median_rate(ends, [(0.0, 0.5)]) == (10.0, 1)
    with pytest.raises(ValueError):
        measure.median_rate(ends, [])


def test_report_latency_rows_carry_sample_counts():
    report = measure.Report()
    report.add_latency("read", [0.001] * 990 + [0.010] * 10)
    assert report.values["read_p50_ms"] == pytest.approx(1.0)
    assert report.values["read_p99_ms"] == pytest.approx(1.0)
    assert [row[3] for row in report.rows] == [1000, 1000]
    assert report.correct
    report.add_latency("write", [])
    assert not report.correct


def _commit(wall, modes, victim="cache-0", wst=False):
    return measure.ConfigCommit(
        wall=wall, config_id=int(wall),
        fragments=tuple((i, victim if i == 0 else "cache-1", mode,
                         wst and mode == "normal")
                        for i, mode in enumerate(modes)))


def test_crash_clock_reads_phases_from_commits():
    commits = [
        _commit(1.0, ["normal", "normal"]),
        _commit(10.2, ["transient", "normal"]),
        _commit(12.1, ["recovery", "normal"]),
        _commit(12.8, ["normal", "normal"], wst=True),
        _commit(13.5, ["normal", "normal"]),
    ]
    clock = measure.crash_clock(commits, "cache-0", kill_wall=10.0,
                                restart_wall=12.0)
    assert clock.detect_s == pytest.approx(0.2)
    assert clock.recovery_s == pytest.approx(0.8)
    assert clock.wst_s == pytest.approx(1.5)
    assert clock.normal_wall == 12.8
    with pytest.raises(ValueError):
        measure.crash_clock(commits[:3], "cache-0", 10.0, 12.0)


def test_config_commits_decodes_a_node_event_stream(tmp_path):
    from repro.config.configuration import Configuration, FragmentInfo
    from repro.live.wire import encode
    from repro.types import FragmentMode
    from repro.verify.events import ProtocolEvent

    config = Configuration(3, [
        FragmentInfo(fragment_id=0, primary="cache-0", secondary="cache-1",
                     mode=FragmentMode.TRANSIENT, cfg_id=3),
        FragmentInfo(fragment_id=1, primary="cache-1", secondary=None,
                     mode=FragmentMode.NORMAL, cfg_id=1)])
    lines = []
    for wall, event in (
            (5.0, ProtocolEvent(1.0, "transient_begin", {"fragment_id": 0})),
            (5.5, ProtocolEvent(1.5, "config_commit", {"config": config}))):
        lines.append(json.dumps({"wall": wall, "event": json.loads(
            encode(event).decode("utf-8"))}))
    path = tmp_path / "coordinator.events.jsonl"
    path.write_text("\n".join(lines) + "\n")
    (commit,) = measure.config_commits(path)
    assert commit.wall == 5.5 and commit.config_id == 3
    assert commit.victim_transient("cache-0")
    assert not commit.all_normal


def test_proc_readers_see_this_process():
    assert measure.proc_cpu_seconds(os.getpid()) >= 0.0
    assert measure.proc_peak_rss_mib(os.getpid()) > 1.0
    assert measure.proc_cpu_seconds(2 ** 22 + 1) is None


def test_journal_sizes_and_git_commit(tmp_path):
    (tmp_path / "cache-0.journal").write_bytes(b"x" * 7)
    assert measure.journal_sizes(tmp_path, ["cache-0", "cache-1"]) == {
        "cache-0": 7, "cache-1": 0}
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("abc123 refs/heads/main\n")
    assert measure.git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert measure.git_commit(tmp_path) == "def456"
    assert "unknown" in measure.git_commit(tmp_path / "nowhere")


class _Thing:
    def work(self, x):
        return x * 2


def test_tracer_times_calls_and_restores_originals():
    thing = _Thing()
    tracer = LayerTracer()
    tracer.time_calls(thing, "work", "layer")
    assert thing.work(3) == 6 and thing.work(4) == 8
    assert tracer.calls["layer"] == 2 and tracer.seconds["layer"] > 0
    tracer.remove()
    assert "work" not in vars(thing)
    module = SimpleNamespace(encode=lambda payload: b"abcd")
    original = module.encode
    tracer.time_calls(module, "encode", "wire", lambda args, out: len(out))
    module.encode("p")
    assert tracer.bytes["wire"] == 4
    tracer.remove()
    assert module.encode is original


def test_tracer_times_rpcs_to_their_reply():
    from repro.sim.core import Simulator

    sim = Simulator()

    class Transport:
        def call(self, address, request, timeout=None):
            event = sim.event()
            sim.schedule(0.25, event.succeed, "ok")
            return event

    transport = Transport()
    tracer = LayerTracer()
    tracer.watch_rpcs(transport, sim)
    transport.call("cache-2", "get")
    transport.call("datastore", "read")
    sim.run()
    tracer.remove()
    assert tracer.calls["rpc.cache"] == 1 and tracer.calls["rpc.datastore"] == 1
    assert tracer.rtt["cache"] == [pytest.approx(0.25)]
    assert tracer.failed_rpcs == 0
    assert role_of("coordinator") == "coordinator"


def test_benchmark_json_matches_the_catalogue():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in config["end_to_end"]] == catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in config["per_layer"]] == catalog.PER_LAYER
    assert {w["name"] for w in config["workloads"]} == {
        "live-read-steady", "sim-fig8"}
    assert not {name for name, __, __ in catalog.CRASH_LAYERS} & {
        m["name"] for m in config["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
