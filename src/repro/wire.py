"""Shared newline-delimited-JSON wire framing.

One message per line, UTF-8 JSON objects, ``\\n`` terminated — trivially
debuggable with ``nc`` and language-agnostic on the peer side.  Both network
layers of the repository speak this framing:

* :mod:`repro.service` — the client-facing sweep service
  (``python -m repro serve``);
* :mod:`repro.cluster` — the coordinator/worker links of the distributed
  executor (``python -m repro worker``).

The framing is deliberately schema-light: :func:`read_message` enforces only
line length, valid JSON and a top-level object; per-op field validation
lives with each protocol's server, which answers violations with error
events instead of dropping the connection.

Binary frames
-------------
Large array payloads would suffer 4/3 inflation (plus two full copies) as
base64 text inside a JSON line, so the framing also supports
**length-prefixed binary frames**: a normal JSON header line that carries
the reserved key ``{"binary": N}``, followed immediately by exactly ``N``
raw payload bytes.  :func:`read_message` validates ``N`` against
:data:`MAX_BINARY_BYTES` *before* buffering a single payload byte, reads
the payload with ``readexactly`` (which is not subject to the line
``limit``), and attaches it to the decoded message under
:data:`PAYLOAD_KEY`.  A torn payload — the peer dies mid-transfer — raises
:class:`ProtocolError` promptly instead of hanging the reader.  The payload
bound is deliberately separate from :data:`MAX_MESSAGE_BYTES`: headers stay
small and debuggable while chunked NumPy results ride behind them.
:func:`pack_arrays` / :func:`unpack_arrays` are the canonical payload
codec — dtype/shape-tagged contiguous buffers, reconstructed zero-copy
with ``np.frombuffer`` (this module is the only place allowed to do that;
the ``REPRO-WIRE01`` lint rule enforces it).  The artifact cache stores
its arrays in the same codec.

Everything here used to live in :mod:`repro.service.protocol`; it was
extracted so the service and the cluster share one tested implementation.
``repro.service.protocol`` re-exports these names for backwards
compatibility.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Hard bound on one framed message.  Generous enough for corner tables and
#: pickled job chunks (the fast DSE payload is ~10 kB), small enough to stop
#: a rogue peer from ballooning server memory.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

#: Hard bound on one binary payload (separate from the JSON-line bound:
#: headers stay small, bulk array data rides behind them).  Large enough
#: for any full-scale PVT / characterisation chunk, small enough that a
#: rogue peer cannot balloon memory with one declared length.
MAX_BINARY_BYTES = 256 * 1024 * 1024

#: Reserved header key announcing a binary frame: ``{"binary": N}`` means
#: "exactly N raw payload bytes follow this line".
BINARY_KEY = "binary"

#: Reserved key under which :func:`read_message` attaches a binary frame's
#: payload bytes to the decoded header.  Never travels inside the JSON
#: line itself — a peer that sends it literally is violating the framing.
PAYLOAD_KEY = "_payload"


class ProtocolError(ValueError):
    """A peer violated the framing rules (oversized line, bad JSON, ...)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire form (JSON + newline)."""
    data = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {MAX_MESSAGE_BYTES} byte limit"
        )
    return data + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"message is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def encode_binary(message: Dict[str, Any], payload: bytes) -> bytes:
    """Serialise one binary frame: header line + raw payload bytes.

    ``message`` must not already carry the reserved :data:`BINARY_KEY` /
    :data:`PAYLOAD_KEY` keys; the payload length is declared for the
    reader.  The header line obeys :data:`MAX_MESSAGE_BYTES`, the payload
    obeys the separate :data:`MAX_BINARY_BYTES` bound.
    """
    if BINARY_KEY in message or PAYLOAD_KEY in message:
        raise ProtocolError(
            f"message must not carry the reserved {BINARY_KEY!r}/{PAYLOAD_KEY!r} keys"
        )
    payload = bytes(payload)
    if len(payload) > MAX_BINARY_BYTES:
        raise ProtocolError(
            f"binary payload of {len(payload)} bytes exceeds the "
            f"{MAX_BINARY_BYTES} byte limit"
        )
    header = encode_message({**message, BINARY_KEY: len(payload)})
    return header + payload


def _declared_payload_length(message: Dict[str, Any]) -> Optional[int]:
    """Validate and return a header's declared payload length (or None)."""
    if PAYLOAD_KEY in message:
        raise ProtocolError(f"reserved key {PAYLOAD_KEY!r} inside a wire message")
    if BINARY_KEY not in message:
        return None
    declared = message[BINARY_KEY]
    if isinstance(declared, bool) or not isinstance(declared, int):
        raise ProtocolError(f"binary length must be an integer, got {declared!r}")
    if declared < 0:
        raise ProtocolError(f"binary length must be non-negative, got {declared}")
    if declared > MAX_BINARY_BYTES:
        raise ProtocolError(
            f"binary payload of {declared} bytes exceeds the "
            f"{MAX_BINARY_BYTES} byte limit"
        )
    return declared


async def read_message(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` on clean end-of-stream.

    The caller must have opened the stream with ``limit=MAX_MESSAGE_BYTES``
    (:func:`open_connection` and every server in the repository do), so an
    oversized line surfaces here as a :class:`ProtocolError` rather than
    unbounded buffering.

    A header declaring ``{"binary": N}`` is followed by exactly ``N`` raw
    payload bytes, attached to the returned message under
    :data:`PAYLOAD_KEY`.  The declared length is validated against
    :data:`MAX_BINARY_BYTES` *before* any payload byte is buffered, and a
    payload cut short by a dying peer raises :class:`ProtocolError`
    immediately — malformed binary frames can never hang the reader.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-message") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(
            f"message exceeds the {MAX_MESSAGE_BYTES} byte limit"
        ) from None
    message = decode_message(line)
    declared = _declared_payload_length(message)
    if declared is None:
        return message
    try:
        payload = await reader.readexactly(declared)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-payload") from None
    message[PAYLOAD_KEY] = payload
    return message


# ----------------------------------------------------------------------
# Array payload codec (the canonical binary-frame payload)
# ----------------------------------------------------------------------
def pack_arrays(arrays: Sequence[np.ndarray]) -> Tuple[List[Dict[str, Any]], bytes]:
    """Pack NumPy arrays into dtype/shape specs plus one contiguous payload.

    Returns ``(specs, payload)`` where ``specs`` is a JSON-safe list of
    ``{"dtype": ..., "shape": [...]}`` entries (rides in the binary-frame
    header) and ``payload`` is the arrays' raw bytes, concatenated in
    order.  Object dtypes are rejected — they would smuggle pickles past
    the framing's trust boundary.
    """
    specs: List[Dict[str, Any]] = []
    buffers: List[bytes] = []
    for array in arrays:
        if not isinstance(array, np.ndarray):
            raise ProtocolError(f"pack_arrays expects ndarrays, got {type(array).__name__}")
        if array.dtype.hasobject:
            raise ProtocolError("object dtypes cannot cross the wire as raw buffers")
        # tobytes() is C-ordered for any layout and, unlike
        # np.ascontiguousarray, keeps a 0-d array 0-d.
        specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
        buffers.append(array.tobytes())
    return specs, b"".join(buffers)


def unpack_arrays(
    specs: Sequence[Dict[str, Any]], payload: Union[bytes, bytearray]
) -> List[np.ndarray]:
    """Reconstruct :func:`pack_arrays` output zero-copy from the payload.

    The returned arrays are views over ``payload``: read-only over
    ``bytes``, writable over a ``bytearray``.  Any
    inconsistency — bad dtype string, negative shape, payload length not
    matching the specs — raises :class:`ProtocolError`.
    """
    arrays: List[np.ndarray] = []
    offset = 0
    for spec in specs:
        if not isinstance(spec, dict):
            raise ProtocolError("array spec must be an object")
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(n) for n in spec["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"bad array spec {spec!r}: {error}") from None
        if dtype.hasobject:
            raise ProtocolError("object dtypes cannot cross the wire as raw buffers")
        if any(n < 0 for n in shape):
            raise ProtocolError(f"bad array shape {shape}")
        count = 1
        for n in shape:
            count *= n
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"array payload of {len(payload)} bytes is shorter than its specs declare"
            )
        arrays.append(
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(shape)
        )
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"array payload carries {len(payload) - offset} undeclared trailing bytes"
        )
    return arrays


async def open_connection(
    host: str,
    port: int,
    timeout: Optional[float] = None,
    limit: int = MAX_MESSAGE_BYTES,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a framed stream, retrying with backoff while ``timeout`` lasts.

    With ``timeout=None`` this is a single connection attempt.  With a
    timeout, connection failures (typically ``ConnectionRefusedError`` from
    a server that is still binding its socket) are retried with exponential
    backoff until the deadline, then the last error propagates.  This is
    what lets a client start concurrently with the server it talks to —
    cluster workers racing their coordinator, test clients racing a
    subprocess ``python -m repro serve`` — without a flaky first connect.
    """
    if timeout is None:
        return await asyncio.open_connection(host, port, limit=limit)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    delay = 0.05
    while True:
        try:
            return await asyncio.open_connection(host, port, limit=limit)
        except OSError:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise
            await asyncio.sleep(min(delay, remaining))
            delay = min(delay * 2.0, 1.0)
