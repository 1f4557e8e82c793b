"""Mini Nephele: DAG jobs, tasks, and (compressing) channels.

The integration substrate of Section III-B — a small dataflow framework
whose file and network channels route transparently through the
adaptive compression module.
"""

from .channels import (
    Channel,
    ChannelClosedError,
    ChannelSpec,
    ChannelType,
    CompressionMode,
    FileChannel,
    InMemoryChannel,
    NetworkChannel,
    build_channel,
)
from .execution import (
    ChannelStats,
    ExecutionEngine,
    JobExecutionError,
    JobResult,
    run_job,
)
from .graph import Edge, JobGraph, JobGraphError, Vertex
from .records import (
    MAX_RECORD_BYTES,
    RecordDecoder,
    RecordSerializationError,
    encode_record,
)
from .tasks import (
    CollectTask,
    FunctionTask,
    MapTask,
    SourceTask,
    Task,
    TaskContext,
)

__all__ = [
    "JobGraph",
    "JobGraphError",
    "Vertex",
    "Edge",
    "Task",
    "TaskContext",
    "SourceTask",
    "CollectTask",
    "MapTask",
    "FunctionTask",
    "Channel",
    "ChannelSpec",
    "ChannelType",
    "CompressionMode",
    "InMemoryChannel",
    "FileChannel",
    "NetworkChannel",
    "build_channel",
    "ChannelClosedError",
    "ExecutionEngine",
    "JobResult",
    "JobExecutionError",
    "ChannelStats",
    "run_job",
    "encode_record",
    "RecordDecoder",
    "RecordSerializationError",
    "MAX_RECORD_BYTES",
]
