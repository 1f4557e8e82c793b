"""Real-mode I/O: throttles, faults, localhost TCP transfer, file tools."""

from .faults import (
    BitFlip,
    FaultPlan,
    FaultyReader,
    FaultyWriter,
    Reset,
    Stall,
    Truncate,
)
from .sockets import (
    DEFAULT_BACKLOG,
    ReceiverError,
    ReceiverThread,
    SocketTransferResult,
    open_listener,
    run_socket_transfer,
)
from .streams import FileCompressionResult, compress_file, decompress_file
from .throttle import ThrottledWriter, TokenBucket

__all__ = [
    "TokenBucket",
    "ThrottledWriter",
    "BitFlip",
    "Truncate",
    "Stall",
    "Reset",
    "FaultPlan",
    "FaultyWriter",
    "FaultyReader",
    "run_socket_transfer",
    "SocketTransferResult",
    "ReceiverThread",
    "ReceiverError",
    "open_listener",
    "DEFAULT_BACKLOG",
    "compress_file",
    "decompress_file",
    "FileCompressionResult",
]
