"""Tests for the built-in tasks."""

from __future__ import annotations

import pytest

from repro.data import Compressibility, RepeatingSource
from repro.nephele import (
    CollectTask,
    FunctionTask,
    InMemoryChannel,
    JobGraph,
    MapTask,
    SourceTask,
    TaskContext,
    run_job,
)


def run_task(task, records, n_outputs=1):
    """Drive a task directly with in-memory channels."""
    inp = InMemoryChannel()
    for record in records:
        inp.write_record(record)
    inp.close_write()
    outs = [InMemoryChannel() for _ in range(n_outputs)]
    task.run(TaskContext("t", [inp], outs))
    for out in outs:
        out.close_write()
    return [list(out) for out in outs]


class TestSourceTask:
    def test_emits_in_record_sized_chunks(self):
        task = SourceTask(
            lambda: RepeatingSource(b"abcd", 10, Compressibility.LOW), record_bytes=4
        )
        out = InMemoryChannel()
        task.run(TaskContext("s", [], [out]))
        out.close_write()
        assert list(out) == [b"abcd", b"abcd", b"ab"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceTask(lambda: None, record_bytes=0)


def merge(ctx):
    """Drain every input, in input order, onto the outputs."""
    for index in range(ctx.n_inputs):
        for record in ctx.records(index):
            ctx.emit_all(record)


class TestFanIn:
    def test_fan_in_job(self):
        graph = JobGraph("fanin")
        collector = CollectTask(keep_data=True)
        graph.add_vertex(
            "s1",
            SourceTask(lambda: RepeatingSource(b"x", 4, Compressibility.LOW), record_bytes=2),
        )
        graph.add_vertex(
            "s2",
            SourceTask(lambda: RepeatingSource(b"y", 4, Compressibility.LOW), record_bytes=2),
        )
        graph.add_vertex("merge", FunctionTask(merge))
        graph.add_vertex("sink", collector)
        graph.connect("s1", "merge")
        graph.connect("s2", "merge")
        graph.connect("merge", "sink")
        run_job(graph, timeout=30)
        assert sorted(collector.collected) == [b"xx", b"xx", b"yy", b"yy"]


class TestMapTask:
    def test_none_drops_record(self):
        task = MapTask(lambda r: r if r != b"skip" else None)
        (out,) = run_task(task, [b"a", b"skip", b"b"])
        assert out == [b"a", b"b"]
