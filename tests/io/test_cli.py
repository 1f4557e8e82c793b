"""Tests for the repro-compress CLI."""

from __future__ import annotations

import pytest

from repro.data import Compressibility, SyntheticCorpus
from repro.io.cli import main


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(file_size=64 * 1024, seed=31)


@pytest.fixture()
def sample_file(tmp_path, corpus):
    path = tmp_path / "sample.bin"
    path.write_bytes(corpus.payload(Compressibility.MODERATE) * 6)
    return path


class TestPackUnpack:
    def test_adaptive_roundtrip(self, tmp_path, sample_file, capsys):
        packed = tmp_path / "out.abc"
        restored = tmp_path / "back.bin"
        assert main(["pack", str(sample_file), str(packed)]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert main(["unpack", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == sample_file.read_bytes()

    @pytest.mark.parametrize("level", ["NO", "LIGHT", "MEDIUM", "HEAVY"])
    def test_static_levels(self, tmp_path, sample_file, level):
        packed = tmp_path / f"{level}.abc"
        restored = tmp_path / f"{level}.bin"
        assert main(["pack", str(sample_file), str(packed), "--level", level]) == 0
        assert main(["unpack", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == sample_file.read_bytes()

    def test_heavier_level_smaller_output(self, tmp_path, sample_file):
        import os

        sizes = {}
        for level in ("LIGHT", "HEAVY"):
            packed = tmp_path / f"{level}.abc"
            main(["pack", str(sample_file), str(packed), "--level", level])
            sizes[level] = os.path.getsize(packed)
        assert sizes["HEAVY"] < sizes["LIGHT"]

    def test_block_size_option(self, tmp_path, sample_file):
        packed = tmp_path / "small-blocks.abc"
        assert (
            main(
                ["pack", str(sample_file), str(packed), "--block-size", "4096"]
            )
            == 0
        )

    @pytest.mark.parametrize("block_size", ["0", "2097153"])
    def test_block_size_out_of_range_exits_2(
        self, tmp_path, sample_file, capsys, block_size
    ):
        """A block size no reader accepts is refused up front, not
        written as a stream ``unpack`` cannot read."""
        packed = tmp_path / "out.abc"
        argv = ["pack", str(sample_file), str(packed), "--block-size", block_size]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "block_size" in err

    @pytest.mark.parametrize("block_size", ["0", "2097153"])
    def test_refused_pack_leaves_no_output_file(
        self, tmp_path, sample_file, block_size
    ):
        """The writer checks its arguments before the destination is
        created, so a refused pack neither creates nor truncates it."""
        packed = tmp_path / "out.abc"
        argv = ["pack", str(sample_file), str(packed), "--block-size", block_size]
        assert main(argv) == 2
        assert not packed.exists()
        packed.write_bytes(b"an earlier archive")
        assert main(argv) == 2
        assert packed.read_bytes() == b"an earlier archive"

    def test_failed_pack_removes_partial_output(
        self, tmp_path, sample_file, monkeypatch
    ):
        """A pack that fails after the destination exists (here the disk
        fills on the second write) removes the partial file."""
        import errno

        from repro.core.stream import StaticBlockWriter

        write = StaticBlockWriter.write
        calls = []

        def filling_disk(self, data):
            calls.append(len(data))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(self, data)

        monkeypatch.setattr(StaticBlockWriter, "write", filling_disk)
        packed = tmp_path / "out.abc"
        argv = ["pack", str(sample_file), str(packed), "--block-size", "4096"]
        with pytest.raises(OSError, match="No space left"):
            main(argv + ["--level", "LIGHT"])
        assert len(calls) == 2
        assert not packed.exists()

    def test_workers_option_same_bytes(self, tmp_path, sample_file):
        """--workers changes scheduling, never the packed bytes."""
        serial = tmp_path / "serial.abc"
        parallel = tmp_path / "parallel.abc"
        base = ["pack", str(sample_file), "--level", "MEDIUM", "--block-size", "8192"]
        assert main(base[:2] + [str(serial)] + base[2:]) == 0
        assert main(base[:2] + [str(parallel)] + base[2:] + ["--workers", "4"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        restored = tmp_path / "back.bin"
        assert main(["unpack", str(parallel), str(restored)]) == 0
        assert restored.read_bytes() == sample_file.read_bytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_unpack_workers_identical_output(
        self, tmp_path, sample_file, workers
    ):
        """unpack --workers parallelises decode without changing a byte."""
        packed = tmp_path / "out.abc"
        restored = tmp_path / f"back{workers}.bin"
        assert main(["pack", str(sample_file), str(packed)]) == 0
        assert (
            main(
                [
                    "unpack",
                    str(packed),
                    str(restored),
                    "--workers",
                    str(workers),
                ]
            )
            == 0
        )
        assert restored.read_bytes() == sample_file.read_bytes()

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["pack", str(tmp_path / "ghost"), str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestInfo:
    def test_info_reports_codecs(self, tmp_path, sample_file, capsys):
        packed = tmp_path / "out.abc"
        main(["pack", str(sample_file), str(packed), "--level", "MEDIUM"])
        capsys.readouterr()
        assert main(["info", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "blocks" in out
        assert "zlib-6" in out
        assert "ratio" in out

    def test_info_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.abc"
        empty.write_bytes(b"")
        assert main(["info", str(empty)]) == 0
        assert "empty stream" in capsys.readouterr().out

    def test_adaptive_on_fast_sink_prefers_no_compression(
        self, tmp_path, sample_file, capsys
    ):
        """With an unthrottled local sink there is no bottleneck to
        relieve, so the adaptive packer correctly stays at NO — the
        scheme optimizes throughput, not size."""
        packed = tmp_path / "fast.abc"
        main(["pack", str(sample_file), str(packed), "--epoch-seconds", "0.01"])
        capsys.readouterr()
        main(["info", str(packed)])
        out = capsys.readouterr().out
        assert "null" in out

    def test_info_shows_codec_mix(self, tmp_path, corpus, capsys):
        """A stream whose blocks used different codecs (exactly what an
        adaptive transfer produces) is itemized per codec."""
        from repro.codecs import BlockWriter, LightZlibCodec, LzmaCodec, NullCodec

        packed = tmp_path / "mixed.abc"
        payload = corpus.payload(Compressibility.MODERATE)
        with open(packed, "wb") as fp:
            writer = BlockWriter(fp)
            for codec in (NullCodec(), LightZlibCodec(), LzmaCodec(preset=4)):
                for _ in range(3):
                    writer.write_block(payload, codec)
        assert main(["info", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "null" in out
        assert "zlib-1" in out
        assert "lzma-4" in out
        codec_lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(codec_lines) == 3


class TestExitCodes:
    """Top-level conventions: Ctrl-C exits 130, dead pipe exits 0."""

    def test_keyboard_interrupt_exits_130(self, capsys):
        from repro.io.cli import _run

        def boom(ns):
            raise KeyboardInterrupt

        assert _run(boom, None) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_broken_pipe_exits_0(self, monkeypatch):
        import os as os_mod

        from repro.io.cli import _run

        monkeypatch.setattr(os_mod, "dup2", lambda *a: None)

        def pipe(ns):
            raise BrokenPipeError

        assert _run(pipe, None) == 0

    def test_missing_file_still_exits_1(self, capsys):
        assert main(["info", "/no/such/file.abc"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_telemetry_main_shares_exit_codes(self, monkeypatch, capsys):
        from repro.io import cli

        def boom(ns):
            raise KeyboardInterrupt

        monkeypatch.setitem(
            cli.telemetry_main.__globals__, "cmd_telemetry_report", boom
        )
        assert cli.telemetry_main(["report", "whatever.jsonl"]) == 130


class TestServeCommand:
    """The `repro-compress serve` daemon, driven as a real subprocess."""

    def test_daemon_serves_and_drains_on_sigterm(self, sample_file):
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.serve import ServeClient

        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.io.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--max-flows",
                "4",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=os.environ.copy(),
        )
        try:
            banner = proc.stdout.readline().strip()
            match = re.match(r"serving on (\S+):(\d+)$", banner)
            assert match, f"unexpected banner {banner!r}"
            host, port = match.group(1), int(match.group(2))
            payload = sample_file.read_bytes()
            result = ServeClient(host, port, timeout=30.0).upload(payload)
            assert result.trailer["app_bytes"] == len(payload)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
            assert proc.returncode == 0
            assert "drained: 1 completed" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    @pytest.mark.parametrize(
        "flags,config,message",
        [
            (["--epoch-seconds", "0"], None, "epoch_seconds must be positive"),
            (["--idle-timeout", "-1"], None, "idle_timeout must be >= 0"),
            ([], {"max_queued_jobs": -1}, "max_queued_jobs must be >= 0"),
        ],
        ids=["epoch-seconds-0", "idle-timeout-negative", "config-max-queued-jobs"],
    )
    def test_bad_setting_exits_2_before_binding(self, tmp_path, flags, config, message):
        """A bad flag or --config value is one stderr line and exit 2, no
        traceback and no listener; the timeout turns a daemon that starts
        anyway into a failure instead of a hang."""
        import json
        import os
        import subprocess
        import sys

        if config is not None:
            path = tmp_path / "serve.json"
            path.write_text(json.dumps(config))
            flags = [*flags, "--config", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.io.cli", "serve", "--port", "0", *flags],
            capture_output=True,
            text=True,
            timeout=30.0,
            env=os.environ.copy(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""  # no "serving on" banner: nothing bound
        assert proc.stderr == f"error: {message}\n"
