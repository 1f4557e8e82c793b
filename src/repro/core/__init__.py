"""The paper's primary contribution: rate-based adaptive compression.

Algorithm 1 (:func:`get_next_compression_level` / :class:`DecisionModel`),
the epoch-driven :class:`AdaptiveController`, compression level tables,
and adaptive block-stream writers.
"""

from .backoff import BackoffTable
from .controller import AdaptiveController, EpochRecord
from .decision import (
    DEFAULT_ALPHA,
    DEFAULT_EPOCH_SECONDS,
    DecisionModel,
    DecisionState,
    get_next_compression_level,
)
from .levels import (
    PAPER_LEVEL_NAMES,
    CompressionLevel,
    CompressionLevelTable,
    default_level_table,
)
from .buffers import DEFAULT_SLAB_SIZE, BufferPool, PooledBuffer
from .flowview import FlowDecision, FlowView
from .pipeline import (
    ParallelBlockDecoder,
    ParallelBlockEncoder,
    make_block_decoder,
    make_block_encoder,
)
from .rate import EpochSample, RateMeter, RateWindow
from .recovery import ResyncBlockReader, ResyncFrameScanner, RetryPolicy, retry_call
from .stream import AdaptiveBlockWriter, StaticBlockWriter

__all__ = [
    "get_next_compression_level",
    "DecisionModel",
    "DecisionState",
    "DEFAULT_ALPHA",
    "DEFAULT_EPOCH_SECONDS",
    "BackoffTable",
    "AdaptiveController",
    "EpochRecord",
    "FlowView",
    "FlowDecision",
    "RateMeter",
    "RateWindow",
    "EpochSample",
    "CompressionLevel",
    "CompressionLevelTable",
    "default_level_table",
    "PAPER_LEVEL_NAMES",
    "AdaptiveBlockWriter",
    "StaticBlockWriter",
    "ParallelBlockEncoder",
    "ParallelBlockDecoder",
    "make_block_encoder",
    "make_block_decoder",
    "BufferPool",
    "PooledBuffer",
    "DEFAULT_SLAB_SIZE",
    "ResyncBlockReader",
    "ResyncFrameScanner",
    "RetryPolicy",
    "retry_call",
]
