"""Tests for the threaded execution engine."""

from __future__ import annotations

import os

import pytest

from repro.data import Compressibility, RepeatingSource
from repro.nephele import execution
from repro.nephele.channels import build_channel
from repro.nephele import (
    ChannelSpec,
    ChannelType,
    CollectTask,
    CompressionMode,
    FunctionTask,
    JobExecutionError,
    JobGraph,
    MapTask,
    SourceTask,
    run_job,
)

from ..conftest import ThreadBaseline

PAYLOAD = b"execution engine payload " * 8  # 200 bytes


def sender_receiver(channel_type, compression=CompressionMode.OFF, total=100_000):
    g = JobGraph("t")
    collector = CollectTask()
    g.add_vertex(
        "send",
        SourceTask(
            lambda: RepeatingSource(PAYLOAD, total, Compressibility.MODERATE),
            record_bytes=1000,
        ),
    )
    g.add_vertex("recv", collector)
    spec = ChannelSpec(channel_type, compression=compression, block_size=4096)
    g.connect("send", "recv", channel_type, spec)
    return g, collector


class TestEndToEnd:
    @pytest.mark.parametrize(
        "channel_type",
        [ChannelType.IN_MEMORY, ChannelType.FILE, ChannelType.NETWORK],
        ids=lambda t: t.value,
    )
    def test_all_bytes_arrive(self, channel_type):
        compression = (
            CompressionMode.ADAPTIVE
            if channel_type is not ChannelType.IN_MEMORY
            else CompressionMode.OFF
        )
        g, collector = sender_receiver(channel_type, compression)
        result = run_job(g, timeout=60)
        assert collector.bytes_received == 100_000
        assert result.wall_seconds > 0

    def test_static_compression_stats(self):
        g, collector = sender_receiver(ChannelType.FILE, CompressionMode.STATIC)
        # static_level defaults to 0; use level 2 via explicit spec
        g2 = JobGraph("t2")
        collector2 = CollectTask()
        g2.add_vertex(
            "send",
            SourceTask(
                lambda: RepeatingSource(PAYLOAD, 100_000, Compressibility.MODERATE),
                record_bytes=1000,
            ),
        )
        g2.add_vertex("recv", collector2)
        g2.connect(
            "send",
            "recv",
            ChannelType.FILE,
            ChannelSpec(
                ChannelType.FILE,
                compression=CompressionMode.STATIC,
                static_level=2,
                block_size=4096,
            ),
        )
        result = run_job(g2, timeout=60)
        (stats,) = result.channel_stats
        assert stats.bytes_in == pytest.approx(100_000, rel=0.01)
        assert stats.compression_ratio < 0.3  # repeated text compresses well
        assert collector2.bytes_received == 100_000

    def test_pipeline_with_map(self):
        g = JobGraph("map")
        collector = CollectTask(keep_data=True)
        g.add_vertex(
            "send",
            SourceTask(
                lambda: RepeatingSource(b"abc", 9, Compressibility.LOW), record_bytes=3
            ),
        )
        g.add_vertex("upper", MapTask(lambda r: r.upper()))
        g.add_vertex("recv", collector)
        g.connect("send", "upper")
        g.connect("upper", "recv")
        run_job(g)
        assert collector.collected == [b"ABC"] * 3

    def test_fan_out_to_two_receivers(self):
        g = JobGraph("fanout")
        c1, c2 = CollectTask(), CollectTask()
        g.add_vertex(
            "send",
            SourceTask(
                lambda: RepeatingSource(b"z", 50, Compressibility.LOW), record_bytes=10
            ),
        )
        g.add_vertex("r1", c1)
        g.add_vertex("r2", c2)
        g.connect("send", "r1")
        g.connect("send", "r2")
        run_job(g)
        assert c1.bytes_received == 50
        assert c2.bytes_received == 50

    def test_multi_stage_mixed_channels(self):
        g = JobGraph("mixed")
        collector = CollectTask()
        g.add_vertex(
            "send",
            SourceTask(
                lambda: RepeatingSource(PAYLOAD, 50_000, Compressibility.MODERATE),
                record_bytes=500,
            ),
        )
        g.add_vertex("relay", MapTask(lambda r: r))
        g.add_vertex("recv", collector)
        g.connect(
            "send",
            "relay",
            ChannelType.NETWORK,
            ChannelSpec(ChannelType.NETWORK, compression=CompressionMode.ADAPTIVE, block_size=2048),
        )
        g.connect(
            "relay",
            "recv",
            ChannelType.FILE,
            ChannelSpec(ChannelType.FILE, compression=CompressionMode.STATIC, static_level=1, block_size=2048),
        )
        run_job(g, timeout=60)
        assert collector.bytes_received == 50_000


class TestFailureHandling:
    def test_task_exception_propagates(self):
        g = JobGraph("bad")

        def boom(ctx):
            raise RuntimeError("task exploded")

        g.add_vertex("bad", FunctionTask(boom))
        with pytest.raises(JobExecutionError) as exc_info:
            run_job(g)
        assert "bad" in exc_info.value.failures
        assert "task exploded" in repr(exc_info.value.failures["bad"])

    def test_downstream_unblocked_by_failed_upstream(self):
        """A failing sender must still close its channels so the
        receiver terminates instead of hanging."""
        g = JobGraph("failchain")
        collector = CollectTask()

        def partial_then_boom(ctx):
            ctx.emit(b"one")
            raise RuntimeError("mid-stream failure")

        g.add_vertex("send", FunctionTask(partial_then_boom))
        g.add_vertex("recv", collector)
        g.connect("send", "recv")
        with pytest.raises(JobExecutionError):
            run_job(g, timeout=30)
        assert collector.records_received == 1

    @pytest.mark.parametrize(
        "channel_type", [ChannelType.FILE, ChannelType.NETWORK], ids=lambda t: t.value
    )
    def test_failed_consumer_leaves_no_open_channel(self, monkeypatch, channel_type):
        """A consumer that fails before reading to the end still leaves
        no socket or file object open, and no spill file behind."""
        built = []

        def build(spec, **kwargs):
            built.append(build_channel(spec, **kwargs))
            return built[-1]

        monkeypatch.setattr(execution, "build_channel", build)

        def boom(ctx):
            ctx.read()
            raise RuntimeError("consumer exploded")

        g = JobGraph("failed-consumer")
        g.add_vertex(
            "send",
            SourceTask(
                lambda: RepeatingSource(PAYLOAD, 10_000, Compressibility.MODERATE),
                record_bytes=1000,
            ),
        )
        g.add_vertex("recv", FunctionTask(boom))
        spec = ChannelSpec(channel_type, compression=CompressionMode.ADAPTIVE)
        g.connect("send", "recv", channel_type, spec)
        with pytest.raises(JobExecutionError) as exc_info:
            run_job(g, timeout=30)
        assert list(exc_info.value.failures) == ["recv"]
        (channel,) = built
        assert channel._source.closed and channel._sink.closed
        if channel_type is ChannelType.NETWORK:
            assert channel._read_sock.fileno() == channel._write_sock.fileno() == -1
        else:
            assert not os.path.exists(channel.path)

    @pytest.mark.parametrize(
        "channel_type",
        [ChannelType.NETWORK, ChannelType.IN_MEMORY],
        ids=lambda t: t.value,
    )
    def test_failed_consumer_fails_its_blocked_producer_at_once(self, channel_type):
        """A consumer that fails before reading closes its input for
        reading: the producer, blocked with 64 MiB still to send, fails
        at once instead of at the job timeout, the consumer's error is
        reported, and no task thread is left behind."""
        import threading
        import time

        def boom(ctx):
            raise RuntimeError("consumer exploded")

        g = JobGraph("stranded-producer")
        g.add_vertex(
            "send",
            SourceTask(
                lambda: RepeatingSource(PAYLOAD, 64 << 20, Compressibility.MODERATE),
                record_bytes=1000,
            ),
        )
        g.add_vertex("recv", FunctionTask(boom))
        g.connect("send", "recv", channel_type, ChannelSpec(channel_type))
        t0 = time.monotonic()
        with pytest.raises(JobExecutionError) as exc_info:
            run_job(g, timeout=30)
        assert time.monotonic() - t0 < 5.0
        failures = exc_info.value.failures
        assert isinstance(failures["recv"], RuntimeError)
        assert "send" in failures
        assert not [
            t.name for t in threading.enumerate() if t.name.startswith("nephele-")
        ]

    def test_timeout(self):
        """The job times out while its task still runs; once released,
        the task thread exits and leaves nothing behind."""
        import threading

        before = ThreadBaseline()
        release = threading.Event()
        g = JobGraph("slow")
        g.add_vertex("sleepy", FunctionTask(lambda ctx: release.wait(10)))
        try:
            with pytest.raises(JobExecutionError):
                run_job(g, timeout=0.2)
        finally:
            release.set()
        assert not [
            t.name for t in before.new(settle=5.0) if t.name.startswith("nephele-")
        ]
