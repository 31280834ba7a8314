import json
import struct
import sys
import threading
import zlib

import numpy as np
import pytest

from embnum._serial import atomic_write_bytes, check, pack_framed, unpack_framed
from embnum.errors import ChecksumMismatch

MAGIC = b"TEST"


def frame(shape: list[int], payload: bytes, dtype: str | None = "<f4") -> bytes:
    """A version-1 frame with one array "x" declared as shape and dtype (no
    dtype field when None), over payload, with a valid CRC."""
    entry = {"name": "x", "shape": shape, **({"dtype": dtype} if dtype else {})}
    text = json.dumps({"arrays": [entry]}).encode()
    body = MAGIC + struct.pack("<II", 1, len(text)) + text + payload
    return body + struct.pack("<I", zlib.crc32(body))


def test_pack_framed_writes_the_documented_layout():
    a = np.array([[1.5, -2.0]], dtype=np.float32)
    b = np.arange(3, dtype=np.float64)[::-1]  # not contiguous
    manifest = json.dumps({"arrays": [{"dtype": "<f4", "name": "a", "shape": [1, 2]},
                                      {"dtype": "<f8", "name": "b", "shape": [3]}],
                           "kind": "k"}, sort_keys=True, separators=(",", ":")).encode()
    body = (MAGIC + struct.pack("<II", 7, len(manifest)) + manifest
            + a.tobytes() + np.ascontiguousarray(b).tobytes())
    blob = pack_framed(MAGIC, 7, {"kind": "k"}, {"a": a, "b": b})
    assert blob == body + struct.pack("<I", zlib.crc32(body))
    meta, arrays = unpack_framed(blob, MAGIC, 7)
    assert meta["kind"] == "k"
    assert arrays["a"].tolist() == a.tolist() and arrays["b"].tolist() == [2.0, 1.0, 0.0]


@pytest.mark.parametrize("shape", [(1, 1), (3, 200), (64, 64), (65, 130, 1), (130, 9, 3)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_transposed_array_is_copied_in_c_order(shape, dtype):
    # a transposed matrix, as a wide conv weight is stored, and an array in
    # neither C nor F order must be framed with np.ascontiguousarray's bytes
    rng = np.random.default_rng(0)
    rows = np.ascontiguousarray(rng.standard_normal((np.prod(shape[1:]), shape[0])), dtype=dtype)
    arrays = {"t": rows.T.reshape(shape),
              "s": rng.standard_normal((6, 4))[::2, ::3].astype(dtype)}
    blob = pack_framed(MAGIC, 1, {}, arrays)
    payload = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays.values())
    assert blob[-4 - len(payload) : -4] == payload
    got = unpack_framed(blob, MAGIC, 1)[1]
    for name, arr in arrays.items():
        assert got[name].dtype == dtype
        assert got[name].tobytes() == np.ascontiguousarray(arr).tobytes()


def test_frame_round_trips():
    [x] = unpack_framed(frame([1], struct.pack("<f", 1.5)), MAGIC, 1)[1].values()
    assert x.tolist() == [1.5] and x.flags.writeable


# A CRC-valid frame whose last array runs into the trailer once read the
# CRC as data; bytes left before the trailer were once ignored.
@pytest.mark.parametrize("shape, payload", [
    ([2], struct.pack("<f", 1.5)),
    ([1], struct.pack("<ff", 1.5, 2.5)),
], ids=["runs-into-trailer", "unread-bytes"])
def test_arrays_must_end_at_the_trailer(shape, payload):
    with pytest.raises(ChecksumMismatch):
        unpack_framed(frame(shape, payload), MAGIC, 1)


# A float field takes an int or a float that a float64 holds finitely; a
# NaN or an infinity once passed, and an int past the float64 range reached
# float() as a raw OverflowError.
@pytest.mark.parametrize("value, ok", [
    (1.5, True), (-3, True), (sys.float_info.max, True), (-sys.float_info.max, True),
    (float("nan"), False), (float("inf"), False), (float("-inf"), False), (10**400, False),
])
def test_a_float_field_must_be_finite(value, ok):
    if ok:
        check({"x": value}, {"x": float}, ValueError, "doc")
    else:
        with pytest.raises(ValueError, match=r"doc\.x is malformed"):
            check({"x": value}, {"x": float}, ValueError, "doc")


# pack_framed names every array's dtype; an entry without one was once read
# as float32.
def test_an_entry_without_a_dtype_is_malformed():
    with pytest.raises(ChecksumMismatch):
        unpack_framed(frame([1], struct.pack("<f", 1.5), dtype=None), MAGIC, 1)


def test_concurrent_writers_of_one_path_do_not_collide(tmp_path):
    target = tmp_path / "out.bin"
    blobs = [bytes([i]) * 65536 for i in range(4)]
    errors = []

    def writer(blob):
        try:
            for _ in range(100):
                atomic_write_bytes(target, blob)
        except Exception as exc:  # collected so the main thread can report it
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(b,)) for b in blobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_bytes() in blobs
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # replacing a directory with a file fails
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []
