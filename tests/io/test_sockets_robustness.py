"""Robustness tests for the socket transfer path.

Covers the failure contract of :func:`repro.io.run_socket_transfer`:
well-attributed errors, guaranteed teardown (no leaked threads), bounded
waits, connect retries, and resync-mode damage accounting over a real
TCP connection.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.recovery import RetryPolicy, retry_call
from repro.data import Compressibility, RepeatingSource, SyntheticCorpus
from repro.io import (
    FaultPlan,
    FaultyWriter,
    ReceiverError,
    Reset,
    Truncate,
    run_socket_transfer,
)
from repro.io.sockets import ReceiverThread

from ..conftest import ThreadBaseline


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(file_size=64 * 1024, seed=31)


class TestTeardown:
    def test_clean_transfer_leaves_no_threads(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 400_000, corpus)
        before = ThreadBaseline()
        run_socket_transfer(src, static_level=1, block_size=32 * 1024)
        assert before.new(settle=5.0) == []

    def test_reset_fault_leaves_no_threads(self, corpus):
        before = ThreadBaseline()
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 600_000, corpus)
        with pytest.raises((ConnectionResetError, ReceiverError)):
            run_socket_transfer(
                src,
                static_level=1,
                block_size=32 * 1024,
                wrap_sink=lambda sink: FaultyWriter(
                    sink, FaultPlan([Reset(40_000)])
                ),
            )
        assert before.new(settle=5.0) == []

    def test_truncation_strict_mode_raises_with_teardown(self, corpus):
        """A mid-frame truncation must fail the strict receiver (it sees
        EOF inside a frame) and still reclaim every resource."""
        before = ThreadBaseline()
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 600_000, corpus)
        with pytest.raises(ReceiverError) as info:
            run_socket_transfer(
                src,
                static_level=1,
                block_size=32 * 1024,
                wrap_sink=lambda sink: FaultyWriter(
                    sink, FaultPlan([Truncate(30_010)])
                ),
            )
        assert info.value.__cause__ is not None
        assert info.value.blocks_received >= 0
        assert before.new(settle=5.0) == []

    def test_workers_pipeline_teardown_on_fault(self, corpus):
        """The parallel encoder's workers must also be reclaimed when
        the sink dies mid-transfer."""
        before = ThreadBaseline()
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 900_000, corpus)
        with pytest.raises((ConnectionResetError, ReceiverError)):
            run_socket_transfer(
                src,
                static_level=1,
                block_size=32 * 1024,
                workers=2,
                wrap_sink=lambda sink: FaultyWriter(
                    sink, FaultPlan([Reset(50_000)])
                ),
            )
        assert before.new(settle=5.0) == []


class TestTimeoutsAndRetries:
    def test_accept_timeout_unblocks_receiver(self):
        receiver = ReceiverThread(accept_timeout=0.2)
        receiver.start()
        receiver.join(timeout=5)
        assert not receiver.is_alive()
        assert isinstance(receiver.error, socket.timeout)

    def test_stop_aborts_pending_accept(self):
        """stop() must wake a parked accept immediately, not after
        accept_timeout (30 s here) expires."""
        receiver = ReceiverThread(accept_timeout=30)
        receiver.start()
        time.sleep(0.05)
        t0 = time.monotonic()
        receiver.stop()
        receiver.join(timeout=5)
        assert not receiver.is_alive()
        assert time.monotonic() - t0 < 5
        assert receiver.error is None
        assert receiver.blocks_received == 0

    def test_connect_retries_until_listener_appears(self, corpus):
        """retry_call + RetryPolicy is the connect path's backbone:
        verify it rides out ConnectionRefusedError."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()
        probe.close()  # nothing listening on addr now

        listener = {}

        def open_after_two_failures(attempt=[0]):
            attempt[0] += 1
            if attempt[0] >= 3:
                srv = socket.create_server(addr)
                listener["srv"] = srv
            return socket.create_connection(addr, timeout=1)

        sock = retry_call(
            open_after_two_failures,
            policy=RetryPolicy(attempts=5, base=0.01),
            retry_on=(OSError,),
        )
        sock.close()
        listener["srv"].close()

    def test_connect_policy_exhaustion_joins_receiver(self, corpus):
        """Kill the listener before the sender connects: the transfer
        must fail with the connect error, not hang."""
        before = ThreadBaseline()
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 100_000, corpus)

        real_create = socket.create_connection

        def refuse(address, *a, **kw):
            raise ConnectionRefusedError("injected refusal")

        socket.create_connection = refuse
        try:
            with pytest.raises(ConnectionRefusedError):
                run_socket_transfer(
                    src,
                    static_level=1,
                    connect_policy=RetryPolicy(attempts=2, base=0.01),
                    accept_timeout=5,
                )
        finally:
            socket.create_connection = real_create
        assert before.new(settle=5.0) == []


class TestResyncOverSockets:
    def test_bitflips_skip_bounded_blocks(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 1_000_000, corpus)
        # Keep fault offsets well inside the compressed wire (HIGH data
        # compresses far below the 1 MB application volume).
        plan = FaultPlan.seeded(5, 25_000, bitflips=2)
        res = run_socket_transfer(
            src,
            static_level=1,
            block_size=32 * 1024,
            resync=True,
            wrap_sink=lambda sink: FaultyWriter(sink, plan),
        )
        assert 1 <= res.blocks_skipped <= 2
        assert res.bytes_skipped > 0
        # Each fault costs at most one block of application bytes.
        assert res.receiver_bytes >= res.app_bytes - 2 * 32 * 1024

    def test_resync_without_faults_is_lossless(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.MODERATE, 500_000, corpus)
        res = run_socket_transfer(
            src, static_level=1, block_size=32 * 1024, resync=True
        )
        assert res.receiver_bytes == res.app_bytes
        assert res.blocks_skipped == 0
        assert res.bytes_skipped == 0

    def test_truncation_resync_counts_tail(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 800_000, corpus)
        res = run_socket_transfer(
            src,
            static_level=1,
            block_size=32 * 1024,
            resync=True,
            wrap_sink=lambda sink: FaultyWriter(
                sink, FaultPlan([Truncate(25_000)])
            ),
        )
        # Everything after the cut is lost but the call still returns.
        assert res.receiver_bytes < res.app_bytes
        assert res.receiver_bytes >= 0
