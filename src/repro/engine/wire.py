"""The shard wire's codec: framing, restricted unpickling, resident partitions.

What both ends of a shard delivery share, whichever transport carries it:
the coordinator (:mod:`repro.engine.shardrpc`, :mod:`repro.engine.exchange`)
and the worker process (:mod:`repro.server.transport`) import it from here.

Framing
-------

Every message is one frame::

    !2sBBII  =  magic b"RX" | wire version | flags | payload length | crc32

followed by exactly ``length`` payload bytes.  The payload is a dict
serialized with pickle at the **pinned** :data:`WIRE_PICKLE_PROTOCOL`
(not ``HIGHEST_PROTOCOL``: both ends must agree byte-for-byte across
interpreter versions, and the checksum is computed over the exact
bytes).  Bad magic, an unknown version, a checksum mismatch (garbled
bytes in transit), or an oversized frame all raise the typed
:class:`~repro.errors.WireFormatError` — the framing layer never lets a
corrupt payload reach the unpickler.

Restricted unpickling
---------------------

The receive path **never** calls raw ``pickle.loads``: payloads go
through :class:`RestrictedUnpickler`, which resolves only allow-listed
classes — anything under ``repro.`` (plan nodes, expression ASTs,
tables, SQL values) plus the standard value types SQL data lives in
(``decimal``, ``datetime``, ``uuid``) and a small set of builtins.  A
forged payload naming ``os.system`` (or any class outside the list) is
rejected with :class:`~repro.errors.WireFormatError` before its reduce
hook can run.  The same loader guards the in-memory Exchange wire
(:mod:`repro.engine.exchange`), so the trusted-codec discipline does not
depend on which transport is configured — and the column block a shard
response carries as bytes (pickled once, by the worker) passes it a second
time when the coordinator opens it: being inside an accepted frame exempts
nothing.

Resident partitions
-------------------

A worker's only state between requests is its bounded
:class:`PartitionStore`: frozen partition twins keyed by an id that names
immutable content.  A request names its partition by id; a worker that does
not hold it says ``missing`` and is sent the twin.  That is what keeps
retry-elsewhere failover sound: any worker can serve any delivery,
bit-identically, and none can serve it from the wrong rows.
"""

from __future__ import annotations

import io
import pickle
import struct
import threading
import zlib
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.errors import WireFormatError

#: Pinned framing version; bumped on any incompatible frame/payload change.
WIRE_VERSION = 3

#: What a worker prints once it listens (``<prefix> port=<p> pid=<p>``); the
#: pool parses the line to learn an ephemeral port.
READY_PREFIX = "SHARD-WORKER READY"

#: Pinned pickle protocol for every payload on the wire.  Protocol 4 is
#: supported by every interpreter this project targets; pinning (rather
#: than HIGHEST_PROTOCOL) keeps mixed-version coordinator/worker pairs
#: byte-compatible and makes the checksum meaningful across hosts.
WIRE_PICKLE_PROTOCOL = 4

#: Frame header: magic, version, flags, payload length, payload crc32.
_HEADER = struct.Struct("!2sBBII")
_MAGIC = b"RX"

#: Hard cap on one frame's payload (a forged length cannot OOM the peer).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Builtins a payload may reference (pickle resolves classes, not
#: instances of the primitive types, which need no lookup at all).
_SAFE_BUILTINS = frozenset({
    "set", "frozenset", "complex", "bytearray", "range", "slice",
})

#: Module prefixes whose classes may travel on the wire.
_SAFE_MODULE_PREFIXES = ("repro.",)

#: Exact stdlib modules whose classes may travel on the wire (the types
#: SQL values are made of).
_SAFE_MODULES = frozenset({"decimal", "datetime", "uuid", "collections"})


class RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that resolves allow-listed classes only (see module doc)."""

    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins":
            if name in _SAFE_BUILTINS:
                return super().find_class(module, name)
        elif module in _SAFE_MODULES or module.startswith(
            _SAFE_MODULE_PREFIXES
        ):
            return super().find_class(module, name)
        raise WireFormatError(
            f"wire payload references forbidden class {module}.{name}; "
            "only repro plan/value classes may cross the shard wire"
        )


def restricted_loads(blob: bytes) -> Any:
    """Deserialize ``blob`` through the allow-listed unpickler.

    Any unpickling failure — forged classes, truncated or corrupt bytes —
    surfaces as the typed :class:`~repro.errors.WireFormatError`.
    """
    try:
        return RestrictedUnpickler(io.BytesIO(blob)).load()
    except WireFormatError:
        raise
    except Exception as error:
        raise WireFormatError(f"wire payload failed to decode: {error}") from error


def wire_dumps(payload: Any) -> bytes:
    """Serialize ``payload`` at the pinned wire pickle protocol."""
    return pickle.dumps(payload, protocol=WIRE_PICKLE_PROTOCOL)


def pack_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: header + pickled payload (pinned protocol)."""
    blob = wire_dumps(payload)
    if len(blob) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame payload of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    header = _HEADER.pack(
        _MAGIC, WIRE_VERSION, 0, len(blob), zlib.crc32(blob) & 0xFFFFFFFF
    )
    return header + blob


def send_frame(stream: BinaryIO, payload: Dict[str, Any]) -> int:
    """Write one frame; returns the bytes put on the wire."""
    frame = pack_frame(payload)
    stream.write(frame)
    stream.flush()
    return len(frame)


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError("peer closed the shard wire mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(stream: BinaryIO) -> Tuple[Dict[str, Any], int]:
    """Read one frame; returns ``(payload, bytes_read)``.

    Raises :class:`~repro.errors.WireFormatError` on bad magic, an
    unknown wire version, an oversized length, a checksum mismatch, or a
    payload outside the unpickling allow-list; raises :class:`EOFError`
    when the peer hangs up cleanly between frames.
    """
    header = _read_exact(stream, _HEADER.size)
    magic, version, _flags, length, crc = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version mismatch: peer speaks v{version}, "
            f"this process v{WIRE_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    blob = _read_exact(stream, length)
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise WireFormatError("frame checksum mismatch (garbled in transit)")
    payload = restricted_loads(blob)
    if not isinstance(payload, dict) or "op" not in payload:
        raise WireFormatError("frame payload is not an op message")
    return payload, _HEADER.size + length


#: Partition twins a worker keeps resident.  A worker serves one partition
#: per live (table, version, spec); the rest is room for several sharded
#: tables, readers pinned to older epochs and a dead peer's deliveries.  A
#: twin holds its rows and whatever the engine derived from them (columnar
#: batches), so the bound is what caps a long-lived worker under writes.
PARTITION_STORE_SIZE = 8


class PartitionStore:
    """The resident partitions of one worker: id → frozen twin, at most
    :data:`PARTITION_STORE_SIZE` of them, the oldest evicted first.

    An id names immutable content (see :mod:`repro.storage.partition`), so
    an entry is never stale, only absent — and an absent one is re-sent.
    The in-process store is shared by every server session's thread:
    :meth:`get` is one atomic ``dict.get``, insertion and eviction hold the
    lock.
    """

    def __init__(self) -> None:
        self._twins: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._twins)

    def get(self, partition_id: str) -> Optional[Any]:
        return self._twins.get(partition_id)

    def put(self, partition_id: str, twin: Any) -> None:
        with self._lock:
            if partition_id not in self._twins:
                while len(self._twins) >= PARTITION_STORE_SIZE:
                    del self._twins[next(iter(self._twins))]  # the oldest
            self._twins[partition_id] = twin
