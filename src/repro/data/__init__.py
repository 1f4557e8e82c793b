"""Workload substrate: synthetic corpus, compressibility tools, data sources."""

from .compressibility import mean_measured_ratio, measured_ratio, shannon_entropy
from .corpus import (
    DEFAULT_FILE_SIZE,
    Compressibility,
    SyntheticCorpus,
    generate,
    generate_high,
    generate_low,
    generate_moderate,
)
from .datasource import DataSource, RepeatingSource, Segment, SwitchingSource
from .markov import MarkovTextModel

__all__ = [
    "Compressibility",
    "SyntheticCorpus",
    "DEFAULT_FILE_SIZE",
    "generate",
    "generate_high",
    "generate_moderate",
    "generate_low",
    "shannon_entropy",
    "measured_ratio",
    "mean_measured_ratio",
    "MarkovTextModel",
    "DataSource",
    "RepeatingSource",
    "SwitchingSource",
    "Segment",
]
