"""Log addresses and record layout.

The hybrid log is one logical byte-addressable sequence starting at 0.
Records are fixed-shape for a given store: an 8-byte header (key and
value lengths packed), an 8-byte key, and the value.  The paper's 8-byte
key / 8-byte value database is thus 24 bytes per record -- which is how
250 M records come to "~6 GB in total in FASTER".
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "NULL_ADDRESS",
    "RECORD_HEADER_BYTES",
    "KEY_BYTES",
    "pack_key_records",
    "pack_record",
    "record_bytes",
    "unpack_record",
]

#: Sentinel for "key not present".
NULL_ADDRESS = -1

#: Fixed record-header size (packed key/value lengths + flags).
RECORD_HEADER_BYTES = 8

#: Keys are 64-bit integers, as in the paper's YCSB setup.
KEY_BYTES = 8

_HEADER = struct.Struct("<II")
_KEY = struct.Struct("<q")


def record_bytes(value_bytes: int) -> int:
    """On-log footprint of one record with a ``value_bytes`` value."""
    if value_bytes < 0:
        raise ValueError("value size must be >= 0")
    return RECORD_HEADER_BYTES + KEY_BYTES + value_bytes


def pack_record(key: int, value: bytes) -> bytes:
    """Serialize one record."""
    return _HEADER.pack(KEY_BYTES, len(value)) + _KEY.pack(key) + value


def pack_key_records(first_key: int, count: int, value_bytes: int) -> bytes:
    """Serialize keys ``first_key..first_key+count-1`` end to end, each
    with its key's 8 little-endian bytes, repeated and zero-padded to
    ``value_bytes``, as its value: the records a bulk load writes.

    Byte for byte what :func:`pack_record` gives for the same records.
    """
    header = np.frombuffer(_HEADER.pack(KEY_BYTES, value_bytes), np.uint8)
    keys = np.arange(first_key, first_key + count, dtype="<i8")
    key_bytes = keys.view(np.uint8).reshape(count, KEY_BYTES)
    body = RECORD_HEADER_BYTES + KEY_BYTES
    words = value_bytes // KEY_BYTES
    out = np.zeros((count, record_bytes(value_bytes)), np.uint8)
    out[:, :RECORD_HEADER_BYTES] = header
    out[:, RECORD_HEADER_BYTES:body] = key_bytes
    out[:, body:body + words * KEY_BYTES] = np.tile(key_bytes, words)
    return out.tobytes()


def unpack_record(blob: bytes) -> tuple[int, bytes]:
    """Deserialize one record; returns (key, value)."""
    key_len, value_len = _HEADER.unpack_from(blob, 0)
    if key_len != KEY_BYTES:
        raise ValueError(f"corrupt record header: key_len={key_len}")
    (key,) = _KEY.unpack_from(blob, RECORD_HEADER_BYTES)
    start = RECORD_HEADER_BYTES + KEY_BYTES
    value = blob[start:start + value_len]
    if len(value) != value_len:
        raise ValueError("corrupt record: truncated value")
    return key, value
