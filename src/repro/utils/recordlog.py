"""Checksummed record framing shared by the write-ahead log and the journal.

Both logs are append-only files of records framed the same way
(little-endian)::

    record  := magic(4s) | length(u32) | crc32(u32) | payload
    payload := UTF-8 JSON object

Each log has its own magic (``RWAL`` for :mod:`repro.mutation.wal`,
``REVJ`` for :mod:`repro.obs.journal`), so one is never mistaken for the
other.  This module frames and unframes single records only; what a reader
does at a record that fails to unframe is the log's own policy — the WAL
stops there, the journal resynchronizes on the next magic.
"""

from __future__ import annotations

import json
import struct
import zlib

#: Per-record frame: magic, payload length, payload crc32.
_FRAME = struct.Struct("<4sII")


def frame(magic: bytes, payload: dict, sort_keys: bool = False) -> bytes:
    """One framed record for ``payload`` under ``magic``."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=sort_keys).encode("utf-8")
    return _FRAME.pack(magic, len(body), zlib.crc32(body)) + body


def unframe(magic: bytes, data: bytes, offset: int) -> tuple[dict, int] | None:
    """``(payload, end_offset)`` of the record at ``offset``, or None when the
    bytes there are not one intact record (short, bad magic, bad checksum,
    or not a JSON object)."""
    frame_end = offset + _FRAME.size
    if frame_end > len(data):
        return None
    found, length, crc = _FRAME.unpack_from(data, offset)
    if found != magic:
        return None
    end = frame_end + length
    if end > len(data):
        return None
    body = data[frame_end:end]
    if zlib.crc32(body) != crc:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload, end
