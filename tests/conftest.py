"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import pytest

from repro.codecs import (
    Bz2Codec,
    LightZlibCodec,
    LzmaCodec,
    MediumZlibCodec,
    NullCodec,
    RleCodec,
)
from repro.data import Compressibility, SyntheticCorpus


@pytest.fixture(scope="session")
def corpus() -> SyntheticCorpus:
    """One shared synthetic corpus (generation is not free)."""
    return SyntheticCorpus(file_size=64 * 1024, seed=7)


@pytest.fixture(scope="session")
def high_payload(corpus) -> bytes:
    return corpus.payload(Compressibility.HIGH)


@pytest.fixture(scope="session")
def moderate_payload(corpus) -> bytes:
    return corpus.payload(Compressibility.MODERATE)


@pytest.fixture(scope="session")
def low_payload(corpus) -> bytes:
    return corpus.payload(Compressibility.LOW)


def all_codecs():
    """Every codec family at one representative setting."""
    return [
        NullCodec(),
        LightZlibCodec(),
        MediumZlibCodec(),
        LzmaCodec(preset=0),
        Bz2Codec(level=1),
        RleCodec(),
    ]


@pytest.fixture(params=all_codecs(), ids=lambda c: c.name)
def codec(request):
    return request.param


class ThreadBaseline:
    """The threads alive when it was made; :meth:`new` lists the rest.

    Threads are compared by identity, not counted: a count also holds
    when one thread leaks while an unrelated one exits, and fails when
    a thread an earlier test left behind exits meanwhile.
    """

    def __init__(self) -> None:
        self._threads = frozenset(threading.enumerate())

    def new(self, *, settle: float = 0.0) -> list:
        """Live threads started since the baseline.

        With ``settle`` it first waits up to that many seconds for them
        to exit, so threads already on their way out do not count.
        """
        deadline = time.monotonic() + settle
        while True:
            started = [t for t in threading.enumerate() if t not in self._threads]
            if not started or time.monotonic() >= deadline:
                return started
            time.sleep(0.02)
