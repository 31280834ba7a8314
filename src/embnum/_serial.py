"""Framed binary container used by model checkpoints and feature stores.

Layout: 4 magic bytes, u32 LE format version, u32 LE manifest length, UTF-8
JSON manifest, the float32 little-endian array payloads concatenated in
manifest order, then a u32 LE CRC-32 over every preceding byte.  The manifest
carries array names and shapes plus arbitrary caller metadata, so the file is
readable without this library.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
import zlib
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, FormatVersionMismatch


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write via a temp file in the same directory so readers never see a
    half-written file.  The temp name is unique per call, so concurrent
    writers of one path never share it, and it is removed if the write fails."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(Path(path), text.encode("utf-8"))


def _dtype_tag(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "<f4"
    if arr.dtype == np.float64:
        return "<f8"
    raise ValueError(f"only float32/float64 arrays are serializable, got {arr.dtype}")


def pack_framed(magic: bytes, version: int, meta: dict,
                arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize named float arrays plus a JSON metadata dict."""
    assert len(magic) == 4
    manifest = dict(meta)
    manifest["arrays"] = [
        {"name": name, "shape": list(arr.shape), "dtype": _dtype_tag(arr)}
        for name, arr in arrays.items()
    ]
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [magic, struct.pack("<I", version), struct.pack("<I", len(mbytes)), mbytes]
    for arr in arrays.values():
        parts.append(np.ascontiguousarray(arr, dtype=_dtype_tag(arr)).tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def unpack_framed(blob: bytes, magic: bytes, version: int
                  ) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of pack_framed; validates magic, version, checksum and the
    manifest's array list.  Any unreadable frame is ChecksumMismatch."""
    if len(blob) < 16 or blob[:4] != magic:
        raise ChecksumMismatch(f"not a {magic.decode('ascii', 'replace')} file")
    body, crc_bytes = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise ChecksumMismatch("CRC-32 mismatch; file is corrupt or truncated")
    got_version = struct.unpack("<I", blob[4:8])[0]
    if got_version != version:
        raise FormatVersionMismatch(f"format version {got_version}, expected {version}")
    mlen = struct.unpack("<I", blob[8:12])[0]
    arrays: dict[str, np.ndarray] = {}
    offset = 12 + mlen
    try:
        manifest = json.loads(blob[12 : 12 + mlen].decode("utf-8"))
        for entry in manifest["arrays"]:
            shape = tuple(entry["shape"])
            tag = entry.get("dtype", "<f4")
            if tag not in ("<f4", "<f8"):
                raise ValueError(f"unknown dtype {tag!r}")
            dtype = np.dtype(tag)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = dtype.itemsize * count
            raw = blob[offset : offset + nbytes]
            if len(raw) != nbytes:
                raise ChecksumMismatch("array payload shorter than manifest declares")
            arrays[entry["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            offset += nbytes
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ChecksumMismatch(f"malformed manifest: {exc!r}") from None
    return manifest, arrays

