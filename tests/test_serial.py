import sys
import threading

import pytest

from embnum._serial import atomic_write_bytes


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
