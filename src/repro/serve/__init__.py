"""repro.serve — high-concurrency transfer service for adaptive flows.

The paper's scenario is many tenants pushing compressed streams through
one shared, fluctuating I/O bottleneck.  ``run_socket_transfer`` serves
exactly one flow with dedicated threads; this package is the *many
flows, one daemon* counterpart:

* :mod:`~repro.serve.server` — :class:`TransferServer`, a
  selector-based event loop that accepts, reads and writes every
  concurrent flow on one thread, with admission control, per-flow
  fairness and graceful drain.  All flows share one
  :class:`~repro.core.pipeline.CodecThreadPool` and one
  :class:`~repro.core.buffers.BufferPool`; accepting another flow
  never creates another thread.
* :mod:`~repro.serve.flow` — :class:`Flow`, the per-connection state
  machine (handshaking → streaming → draining → closed), each with its
  own :class:`~repro.core.controller.AdaptiveController` instance in
  echo mode.  A flow submits its codec jobs to the shared pool through
  its typed calls (see :mod:`repro.core.pipeline`).
* :mod:`~repro.serve.protocol` — the hello/control wire framing around
  the stock block frames of :mod:`repro.codecs.block`.
* :mod:`~repro.serve.client` — :class:`ServeClient`, which uploads (or
  round-trips) data through a daemon and verifies per-flow byte
  identity via the trailer's plaintext CRC32.
* :mod:`~repro.serve.admin` — :class:`AdminServer`, the embedded
  observability endpoint (``/metrics``, ``/healthz``, ``/flows``,
  ``POST /reload``) on a separate port; see ``docs/operations.md``.

Start a daemon with ``repro-compress serve`` or in-process::

    from repro.serve import ServeClient, ServeConfig, TransferServer

    with TransferServer(ServeConfig(port=0)) as server:
        host, port = server.address
        result = ServeClient(host, port).upload(b"x" * 10_000_000)
        assert result.trailer["ok"]
"""

from .admin import AdminServer
from .client import (
    FlowRejectedError,
    FlowResult,
    ServeClient,
    ServeError,
    ServeProtocolError,
)
from .flow import Flow, FlowState
from .protocol import (
    MODE_ECHO,
    MODE_SINK,
    PROTOCOL_VERSION,
    Hello,
    ProtocolError,
    encode_control,
    encode_hello,
    parse_control,
    parse_hello,
)
from .server import RELOADABLE_KEYS, ServeConfig, TransferServer

__all__ = [
    "TransferServer",
    "ServeConfig",
    "AdminServer",
    "RELOADABLE_KEYS",
    "ServeClient",
    "FlowResult",
    "ServeError",
    "FlowRejectedError",
    "ServeProtocolError",
    "Flow",
    "FlowState",
    "Hello",
    "ProtocolError",
    "MODE_SINK",
    "MODE_ECHO",
    "PROTOCOL_VERSION",
    "encode_hello",
    "parse_hello",
    "encode_control",
    "parse_control",
]
