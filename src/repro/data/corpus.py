"""Synthetic stand-ins for the paper's three test files.

The evaluation (Section IV-A) uses three inputs chosen purely for their
compressibility class:

* ``ptt5`` (Canterbury corpus) — **HIGH**: a CCITT fax bitmap that
  common libraries compress to 10–15 % of its size.
* ``alice29.txt`` (Canterbury corpus) — **MODERATE**: English prose,
  ratio 30–50 % depending on the algorithm.
* ``image.jpg`` (a ~250 KB JPEG) — **LOW**: already-compressed data,
  ratio 90–95 %.

We cannot ship the corpus, so this module generates synthetic payloads
engineered to land in the same ratio bands (asserted by
``tests/data/test_corpus.py``).  The generators model *why* each class
compresses the way it does:

* HIGH: scanlines of a bilevel image — long runs with row-to-row
  correlated edges (run lengths jitter slightly between rows).
* MODERATE: order-2 Markov English text (letter statistics of prose).
* LOW: pseudo-random bytes (JPEG entropy-coded payload) sprinkled with
  small structured segments (headers / marker tables) to leave a few
  percent of redundancy.

Determinism: a payload is a pure function of its class, size and seed
*for one value of* ``PYTHONHASHSEED``.  The generators seed their RNG
from ``hash((name, seed))``, and Python salts ``str`` hashes per
process unless ``PYTHONHASHSEED`` is set, so the bytes — though not
the ratio bands — differ between interpreter runs (the default LOW
payload compresses to 0.916 of its size under zlib level 6 with
``PYTHONHASHSEED=0`` and to 0.925 with ``1``).  Pin the variable where
bytes must repeat across processes, as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import enum
import random
from typing import Dict

from .markov import MarkovTextModel


class Compressibility(enum.Enum):
    """The paper's three compressibility classes."""

    HIGH = "HIGH"
    MODERATE = "MODERATE"
    LOW = "LOW"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Size of the paper's third test file (a "standard JPG image of about
#: 250 KB"); we default all synthetic files to roughly this size.
DEFAULT_FILE_SIZE = 250 * 1024


def generate_high(n_bytes: int, seed: int = 0) -> bytes:
    """Bilevel-image-like payload (ptt5 stand-in), zlib ratio ~10-15 %.

    Rows of ``row_width`` bytes contain a handful of black runs whose
    boundaries drift a little from row to row, like scanned line art:
    highly redundant, but not trivially constant.
    """
    rng = random.Random(("high", seed).__hash__() & 0xFFFFFFFF)
    row_width = 216  # bytes per scanline (1728 pixels / 8, the fax standard)
    out = bytearray()
    # Current black runs: list of (start, length) in byte units.
    runs = [(rng.randrange(row_width), rng.randint(2, 12)) for _ in range(3)]
    while len(out) < n_bytes:
        row = bytearray(row_width)
        new_runs = []
        for start, length in runs:
            # Edges drift by -1..1 bytes per row; runs occasionally die.
            if rng.random() < 0.02:
                continue
            start = max(0, min(row_width - 1, start + rng.randint(-1, 1)))
            length = max(1, min(row_width - start, length + rng.randint(-1, 1)))
            for i in range(start, start + length):
                row[i] = 0xFF
            new_runs.append((start, length))
        # Occasionally a new feature begins.
        if rng.random() < 0.08 or not new_runs:
            new_runs.append((rng.randrange(row_width), rng.randint(2, 12)))
        runs = new_runs
        # Sparse salt-and-pepper noise keeps the data from being *too*
        # compressible (real scans have specks); density tuned so zlib
        # lands in the paper's 10-15 % band for ptt5.
        for _ in range(rng.randint(3, 8)):
            row[rng.randrange(row_width)] ^= 0xFF >> rng.randint(0, 7)
        out.extend(row)
    return bytes(out[:n_bytes])


_MARKOV_MODEL: MarkovTextModel | None = None


def _markov_model() -> MarkovTextModel:
    global _MARKOV_MODEL
    if _MARKOV_MODEL is None:
        _MARKOV_MODEL = MarkovTextModel(order=2)
    return _MARKOV_MODEL


def generate_moderate(n_bytes: int, seed: int = 0) -> bytes:
    """English-prose-like payload (alice29.txt stand-in), ratio ~30-50 %."""
    rng = random.Random(("moderate", seed).__hash__() & 0xFFFFFFFF)
    return _markov_model().generate_bytes(n_bytes, rng)


def generate_low(n_bytes: int, seed: int = 0) -> bytes:
    """JPEG-like payload (image.jpg stand-in), ratio ~90-95 %.

    Mostly incompressible entropy-coded noise with small structured
    segments standing in for JPEG markers, quantization tables and
    restart-interval redundancy.
    """
    rng = random.Random(("low", seed).__hash__() & 0xFFFFFFFF)
    out = bytearray()
    while len(out) < n_bytes:
        # ~90 % noise segment.
        noise_len = rng.randint(5000, 9000)
        out.extend(rng.randbytes(noise_len))
        # ~10 % structured segment: a repeated short pattern (tables,
        # zero padding, marker runs).
        pattern = rng.randbytes(rng.randint(2, 8))
        reps = rng.randint(80, 200)
        out.extend(pattern * reps)
    return bytes(out[:n_bytes])


_GENERATORS = {
    Compressibility.HIGH: generate_high,
    Compressibility.MODERATE: generate_moderate,
    Compressibility.LOW: generate_low,
}


def generate(
    compressibility: Compressibility,
    n_bytes: int = DEFAULT_FILE_SIZE,
    seed: int = 0,
) -> bytes:
    """Generate a synthetic payload of the requested class.

    Repeatable within a process; across processes only under one
    ``PYTHONHASHSEED`` (see the module docstring).
    """
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
    return _GENERATORS[compressibility](n_bytes, seed)


def write_corpus_files(
    directory: str,
    file_size: int = DEFAULT_FILE_SIZE,
    seed: int = 0,
) -> Dict[Compressibility, str]:
    """Materialize the synthetic corpus to disk.

    Writes one file per compressibility class (``high.bin``,
    ``moderate.txt``, ``low.jpg-like``) into ``directory`` so the
    payloads can be fed to external tools (or to ``repro-compress``).
    Returns the written paths by class.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    names = {
        Compressibility.HIGH: "high.bin",
        Compressibility.MODERATE: "moderate.txt",
        Compressibility.LOW: "low.jpg-like",
    }
    paths: Dict[Compressibility, str] = {}
    for compressibility, filename in names.items():
        path = os.path.join(directory, filename)
        with open(path, "wb") as fp:
            fp.write(generate(compressibility, file_size, seed))
        paths[compressibility] = path
    return paths


class SyntheticCorpus:
    """Cached access to one payload per compressibility class.

    The evaluation jobs re-send the *same* file until 50 GB have been
    generated (Section IV-A), so a single cached payload per class is
    the faithful workload shape.
    """

    def __init__(self, file_size: int = DEFAULT_FILE_SIZE, seed: int = 0) -> None:
        self.file_size = file_size
        self.seed = seed
        self._cache: Dict[Compressibility, bytes] = {}

    def payload(self, compressibility: Compressibility) -> bytes:
        if compressibility not in self._cache:
            self._cache[compressibility] = generate(
                compressibility, self.file_size, self.seed
            )
        return self._cache[compressibility]

    def __iter__(self):
        return iter(Compressibility)
