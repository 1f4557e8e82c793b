"""Wire protocol of the transfer service.

A served flow speaks three frame kinds on one TCP connection:

* **Hello** (client → server, once): fixed 8-byte header followed by a
  small JSON parameter blob — ``<4sBBH`` packing magic ``b"RSRV"``,
  protocol version, mode id and the JSON length.  Parameters configure
  the *server* side of the flow: ``level``, the echo re-encode level.
  A ``block_size`` is range checked and has no effect, since the server
  echoes each inbound frame as one frame.  The client's own compression
  choices never need announcing because every block frame names its
  codec.
* **Control** (server → client): ``<4sI`` packing magic ``b"RCTL"``
  and a JSON body length.  Sent twice per flow: the admission ack
  right after the hello (``{"ok": true, "flow_id": n}`` or ``{"ok":
  false, "error": ...}``) and the final trailer carrying the server's
  byte/block counters and the CRC32 of the decoded plaintext — the
  client checks that CRC against its own to prove per-flow byte
  identity end to end.
* **Block frames**: the stock self-contained block format of
  :mod:`repro.codecs.block`, unchanged — the serve layer adds no
  per-block overhead, so a packed file, a ``run_socket_transfer``
  stream and a served flow all carry identical wire bytes for the same
  data and level schedule.

Frame parsers here are *incremental*: they take whatever bytes have
arrived, return ``None`` while the frame is incomplete, and
``(value, consumed)`` once it is — the shape an event-loop reader
needs.  Malformed input raises :class:`ProtocolError` immediately; a
server must be able to reject garbage without waiting for more of it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "HELLO_MAGIC",
    "CONTROL_MAGIC",
    "PROTOCOL_VERSION",
    "MODE_SINK",
    "MODE_ECHO",
    "HELLO",
    "CONTROL",
    "MAX_CONTROL_LEN",
    "Hello",
    "ProtocolError",
    "encode_hello",
    "parse_hello",
    "encode_control",
    "parse_control",
]

HELLO_MAGIC = b"RSRV"
CONTROL_MAGIC = b"RCTL"
PROTOCOL_VERSION = 1

#: The client streams blocks, the server decodes, counts and discards.
MODE_SINK = "sink"
#: The server re-encodes every decoded block (through the flow's own
#: adaptive scheme) and streams the frames back.
MODE_ECHO = "echo"

_MODE_IDS = {MODE_SINK: 1, MODE_ECHO: 2}
_MODE_NAMES = {v: k for k, v in _MODE_IDS.items()}

HELLO = struct.Struct("<4sBBH")
CONTROL = struct.Struct("<4sI")

#: Sanity bound on control-frame bodies; trailers are a few hundred
#: bytes, so anything bigger is a corrupt or hostile length field.
MAX_CONTROL_LEN = 1 << 20

Buf = Union[bytes, bytearray, memoryview]


class ProtocolError(RuntimeError):
    """The peer sent bytes that cannot be part of a valid frame."""


@dataclass(frozen=True)
class Hello:
    """A parsed client hello."""

    mode: str
    params: Dict[str, object] = field(default_factory=dict)


def encode_hello(mode: str, params: Optional[Dict[str, object]] = None) -> bytes:
    """Serialize a hello frame for ``mode`` with optional parameters."""
    if mode not in _MODE_IDS:
        raise ValueError(f"unknown mode {mode!r}")
    body = json.dumps(params or {}, separators=(",", ":")).encode()
    if len(body) > 0xFFFF:
        raise ValueError("hello parameters exceed 64 KiB")
    return HELLO.pack(HELLO_MAGIC, PROTOCOL_VERSION, _MODE_IDS[mode], len(body)) + body


def parse_hello(buf: Buf) -> Optional[Tuple[Hello, int]]:
    """Parse a hello from the head of ``buf``.

    Returns ``None`` while more bytes are needed, ``(hello,
    bytes_consumed)`` once complete; raises :class:`ProtocolError` for
    anything that can never become a valid hello.
    """
    view = memoryview(buf)
    if view.nbytes < HELLO.size:
        _check_magic_prefix(view, HELLO_MAGIC)
        return None
    magic, version, mode_id, body_len = HELLO.unpack_from(view, 0)
    if magic != HELLO_MAGIC:
        raise ProtocolError(f"bad hello magic {bytes(magic)!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    mode = _MODE_NAMES.get(mode_id)
    if mode is None:
        raise ProtocolError(f"unknown mode id {mode_id}")
    if view.nbytes < HELLO.size + body_len:
        return None
    params = _parse_json(view[HELLO.size : HELLO.size + body_len], "hello parameters")
    if not isinstance(params, dict):
        raise ProtocolError("hello parameters must be a JSON object")
    return Hello(mode=mode, params=params), HELLO.size + body_len


def encode_control(body: Dict[str, object]) -> bytes:
    """Serialize a control frame (admission ack or final trailer)."""
    payload = json.dumps(body, separators=(",", ":")).encode()
    if len(payload) > MAX_CONTROL_LEN:
        raise ValueError("control body too large")
    return CONTROL.pack(CONTROL_MAGIC, len(payload)) + payload


def parse_control(buf: Buf) -> Optional[Tuple[Dict[str, object], int]]:
    """Incremental counterpart of :func:`encode_control`.

    Same contract as :func:`parse_hello`: ``None`` while incomplete,
    ``(body, consumed)`` once whole, :class:`ProtocolError` on garbage.
    """
    view = memoryview(buf)
    if view.nbytes < CONTROL.size:
        _check_magic_prefix(view, CONTROL_MAGIC)
        return None
    magic, body_len = CONTROL.unpack_from(view, 0)
    if magic != CONTROL_MAGIC:
        raise ProtocolError(f"bad control magic {bytes(magic)!r}")
    if body_len > MAX_CONTROL_LEN:
        raise ProtocolError(f"control body claims {body_len} bytes")
    if view.nbytes < CONTROL.size + body_len:
        return None
    body = _parse_json(view[CONTROL.size : CONTROL.size + body_len], "control body")
    if not isinstance(body, dict):
        raise ProtocolError("control body must be a JSON object")
    return body, CONTROL.size + body_len


def _check_magic_prefix(view: memoryview, magic: bytes) -> None:
    """Fail fast on a partial frame whose first bytes already disagree.

    Without this, a peer that opens with garbage shorter than a header
    would park the connection in "need more bytes" forever.
    """
    prefix = view[: len(magic)].tobytes()
    if prefix and not magic.startswith(prefix):
        raise ProtocolError(f"bad frame prefix {prefix!r}")


def _parse_json(view: memoryview, what: str):
    try:
        return json.loads(view.tobytes().decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable {what}: {exc}") from exc
