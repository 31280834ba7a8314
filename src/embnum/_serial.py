"""Framed binary container used by model checkpoints and feature stores.

Layout: 4 magic bytes, u32 LE format version, u32 LE manifest length, UTF-8
JSON manifest, the little-endian array payloads (float32 "<f4", or float64
"<f8" such as a raw-value store's values) concatenated in manifest order,
then a u32 LE CRC-32 over every preceding byte.  The manifest carries array
names, shapes and dtypes plus arbitrary caller metadata, so the file is
readable without this library.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import uuid
import zlib
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, FormatVersionMismatch


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write via a temp file in the same directory so readers never see a
    half-written file.  The temp name is unique per call, so concurrent
    writers of one path never share it, and it is removed if the write
    fails; an OSError is raised again with path, not the temp file, as its
    filename."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(Path(path), text.encode("utf-8"))


def check(doc, schema, error: type[Exception], where: str) -> None:
    """Raise error, naming the first bad field under where, unless doc matches
    schema: a type (int and float never take a bool; float also takes an int,
    and only a finite number that a float64 holds),
    a list ([s] takes any length, a longer list one entry per item) or a dict
    (every key, bar those ending in "?", and no other)."""
    if isinstance(schema, dict):
        ok = isinstance(doc, dict)
        fields = {key.rstrip("?"): key for key in schema}
        extra = sorted(doc.keys() - fields.keys()) if ok else []
        if extra:
            raise error(f"{where}.{extra[0]} is not a field")
        for name, key in fields.items() if ok else ():
            if name in doc:
                check(doc[name], schema[key], error, f"{where}.{name}")
            elif name == key:
                raise error(f"{where}.{name} is missing")
    elif isinstance(schema, list):
        ok = isinstance(doc, list) and len(schema) in (1, len(doc))
        for i, item in enumerate(doc if ok else ()):
            check(item, schema[min(i, len(schema) - 1)], error, f"{where}[{i}]")
    else:
        ok = (isinstance(doc, (int, float) if schema is float else schema)
              and not isinstance(doc, bool)
              and (schema is not float or abs(doc) <= sys.float_info.max))
    if not ok:
        raise error(f"{where} is malformed: {doc!r:.80}")


def check_finite(arrays: dict[str, np.ndarray], error: type[Exception],
                 where: str) -> None:
    """Raise error, naming the first array that holds a NaN or an infinity;
    one array's mask is held at a time."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise error(f"{where}: array {name!r} holds a NaN or an infinity")


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
    parts = [magic, struct.pack("<II", version, len(mbytes)), mbytes, *(
        memoryview(np.ascontiguousarray(arr, dtype=_dtype_tag(arr))) for arr in arrays.values())]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack("<I", crc)])


def unpack_framed(blob: bytes, magic: bytes, version: int
                  ) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of pack_framed; validates magic, version, checksum and the
    manifest's array list, whose payloads must end exactly at the CRC
    trailer.  Any unreadable frame is ChecksumMismatch."""
    if len(blob) < 16 or blob[:4] != magic:
        raise ChecksumMismatch(f"not a {magic.decode('ascii', 'replace')} file")
    if struct.unpack("<I", blob[-4:])[0] != zlib.crc32(memoryview(blob)[:-4]):
        raise ChecksumMismatch("CRC-32 mismatch; file is corrupt or truncated")
    got_version = struct.unpack("<I", blob[4:8])[0]
    if got_version != version:
        raise FormatVersionMismatch(f"format version {got_version}, expected {version}")
    mlen = struct.unpack("<I", blob[8:12])[0]
    arrays: dict[str, np.ndarray] = {}
    offset = 12 + mlen
    try:
        manifest = json.loads(blob[12 : 12 + mlen].decode("utf-8"))
        check(manifest["arrays"], [{"name": str, "shape": [int], "dtype": str}],
              ChecksumMismatch, "manifest.arrays")
        for entry in manifest["arrays"]:
            shape = tuple(entry["shape"])
            tag = entry["dtype"]
            if tag not in ("<f4", "<f8"):
                raise ValueError(f"unknown dtype {tag!r}")
            dtype = np.dtype(tag)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = dtype.itemsize * count
            if not 0 <= nbytes <= len(blob) - 4 - offset:
                raise ChecksumMismatch("array payload shorter than manifest declares")
            arrays[entry["name"]] = np.frombuffer(blob, dtype, count, offset).reshape(shape).copy()
            offset += nbytes
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ChecksumMismatch(f"malformed manifest: {exc!r}") from None
    if offset != len(blob) - 4:
        raise ChecksumMismatch("array payloads do not end at the CRC trailer")
    return manifest, arrays

