"""Hostile artifacts reach the CLI user as named errors, never as tracebacks.

Each case edits one or two values of a valid checkpoint, store, DSL weights
file or spec (recomputing the CRC of a framed file) and runs one command on
it in a child process whose address space is capped, so a file that asks for
a huge allocation fails there instead of exhausting the host.  Children run
one at a time.
"""

import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embnum
from embnum import errors
from embnum.baselines import LogisticModel, PackedColumns, save_dsl_model
from embnum.dataset import SyntheticSpec, generate_synthetic, write_dataset
from embnum.embnet import (MODEL_MAGIC, MODEL_VERSION, ArchConfig, build_model, load_model,
                           save_model)
from embnum.labeling import STORE_MAGIC, STORE_VERSION, index_labeled, load_store, save_store
from embnum.metric import TrainConfig
from embnum.sampling import sample_inverse_transform

ADDRESS_SPACE = 1536 * 2**20
CLI = "import sys; from embnum.cli import main; sys.exit(main(sys.argv[1:]))"
NAMED_ERRORS = {name for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.EmbnumError)} | {
                    "IoError", "OutOfMemory"}
DATA_SPEC = {"label_count": 3, "source_count": 3, "rows_min": 6, "rows_max": 10, "seed": 11}
FRAMES = {"model.bin": (MODEL_MAGIC, MODEL_VERSION), "embnum.bin": (STORE_MAGIC, STORE_VERSION),
          "semantictyper.bin": (STORE_MAGIC, STORE_VERSION),
          "dsl.bin": (STORE_MAGIC, STORE_VERSION)}

# artifact file -> the commands that read it; {out} is a fresh path per run
COMMANDS = {
    "model.bin": [["export-embeddings", "{artifact}", "{base}/data"],
                  ["index", "{base}/data", "--method", "embnum", "--model", "{artifact}",
                   "--out", "{out}"]],
    "embnum.bin": [["label", "{artifact}", "{base}/query.csv"]],
    "semantictyper.bin": [["label", "{artifact}", "{base}/query.csv"]],
    "dsl.bin": [["label", "{artifact}", "{base}/query.csv"]],
    "weights.json": [["index", "{base}/data", "--method", "dsl", "--dsl-model", "{artifact}",
                      "--out", "{out}"]],
    "spec.json": [["gen", "{artifact}", "{out}"]],
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid artifact of every kind, from a tiny dataset and network."""
    base = tmp_path_factory.mktemp("artifacts")
    ds = generate_synthetic(SyntheticSpec(**DATA_SPEC))
    write_dataset(ds, base / "data")
    model = build_model(ArchConfig(h=8, k=4, stem_channels=1), seed=0)
    save_model(model, base / "model.bin")
    dsl_model = LogisticModel(weights=np.array([1.5, -0.5, 2.0]), bias=0.25)
    for method in ("embnum", "semantictyper", "dsl"):
        save_store(index_labeled(ds, method, model=model, dsl_model=dsl_model),
                   base / f"{method}.bin")
    save_dsl_model(dsl_model, base / "weights.json")
    pool = [{"family": "normal", "scale": 2.0}, {"family": "lognormal", "shape": 0.5},
            {"family": "counts", "location": 3.0}]
    (base / "spec.json").write_text(json.dumps({**DATA_SPEC, "family_pool": pool}))
    (base / "query.csv").write_text("1.5\n2\n7.25\n")
    return base


def read_doc(base: Path, name: str):
    """The artifact's editable JSON document, a framed file's manifest or
    the whole file, and the framed payload that follows the manifest."""
    blob = (base / name).read_bytes()
    if name not in FRAMES:
        return json.loads(blob), None
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    return json.loads(blob[12:end]), blob[end:-4]


def write_doc(path: Path, name: str, doc, payload) -> None:
    """Write the edited document; a framed file keeps its payload and gets
    the CRC of its new bytes."""
    text = json.dumps(doc).encode()
    if name in FRAMES:
        magic, version = FRAMES[name]
        body = magic + struct.pack("<II", version, len(text)) + text + payload
        text = body + struct.pack("<I", zlib.crc32(body))
    path.write_bytes(text)


def paths(doc, prefix=()):
    """Key paths of a JSON document's values, the root excluded, and of a
    manifest's array entries only the first two."""
    if isinstance(doc, list):
        items = enumerate(doc[:2] if prefix == ("arrays",) else doc)
    else:
        items = doc.items() if isinstance(doc, dict) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    """doc with the value at path set; the last key of path may be new."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = replaced(doc[path[0]], path[1:], value) if path[1:] else value
    return out


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(argv: list[str]):
    """Run one command in a child whose address space is capped."""
    env = {**os.environ, "PYTHONPATH": str(Path(embnum.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_cap_address_space)


def run_capped(base: Path, name: str, doc, payload, command: list[str]):
    """Write the edited artifact and run one command on it in a capped child."""
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        artifact = Path(tmp) / name
        write_doc(artifact, name, doc, payload)
        return run_cli([a.format(artifact=artifact, base=base, out=Path(tmp) / "out")
                        for a in command])


def assert_named_outcome(proc) -> None:
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode in (0, 1, 2), proc.stderr
    if proc.returncode == 1:
        assert proc.stderr.split(":", 1)[0] in NAMED_ERRORS, proc.stderr


# Each probe once escaped as a raw TypeError, as a MemoryError after
# allocating a 10**9-wide grid, as numpy's ValueError for a Poisson mean or a
# row count past int64 that it cannot draw, or as an OverflowError from an int
# past the float64 range; a source count past int64, or one of 10**12 that
# int64 holds, generated columns until memory ran out; a NaN or an infinity in a float field once loaded and
# ranked with nan scores, and an unknown method was InvalidSpec.  The two block_counts probes stand
# for files written while the network's depth was a field; the depth is
# fixed, so they are refused.
@pytest.mark.parametrize("name, path, value, error", [
    ("model.bin", ("arch", "stem_channels"), 1.5, "MalformedCheckpoint"),
    ("model.bin", ("arch", "k"), 8.0, "MalformedCheckpoint"),
    ("model.bin", ("arch", "block_counts"), [2, 2, 2, 2], "MalformedCheckpoint"),
    ("embnum.bin", ("model", "arch", "block_counts"), [2, 2, 2, 2], "MalformedStore"),
    ("embnum.bin", ("record_meta", 0, "label"), None, "MalformedStore"),
    ("semantictyper.bin", ("record_meta", 0, "source"), {}, "MalformedStore"),
    ("dsl.bin", ("record_meta", 2, "label"), {"a": 1}, "MalformedStore"),
    ("model.bin", ("arch", "h"), 10**9, "InvalidWidth"),
    ("spec.json", ("family_pool", 2, "scale"), 1e300, "InvalidSpec"),
    ("spec.json", ("family_pool", 0, "location"), float("nan"), "InvalidSpec"),
    ("weights.json", (0,), float("nan"), "MalformedDslModel"),
    pytest.param("weights.json", (1,), 10**400, "MalformedDslModel", id="weights-int-past-float64"),
    ("dsl.bin", ("dsl_model", 3), float("inf"), "MalformedStore"),
    ("semantictyper.bin", ("method",), "bogus", "MalformedStore"),
    ("spec.json", ("rows_max",), 10**30, "InvalidSpec"),
    ("spec.json", ("source_count",), 2**63, "InvalidSpec"),
    pytest.param("spec.json", ("source_count",), 10**12, "InvalidSpec", id="spec-values-past-the-cap"),
])
def test_known_escapes_are_named_errors(base, name, path, value, error):
    doc, payload = read_doc(base, name)
    proc = run_capped(base, name, replaced(doc, path, value), payload, COMMANDS[name][0])
    assert proc.returncode == 1 and proc.stderr.startswith(f"{error}: "), proc.stderr
    assert str(path[-1]) in proc.stderr


def with_element(doc, payload: bytes, array: str, value: float) -> bytes:
    """A framed file's payload with the first element of one array set."""
    offset = 0
    for entry in doc["arrays"]:
        dtype = np.dtype(entry["dtype"])
        if entry["name"] == array:
            return (payload[:offset] + np.array(value, dtype).tobytes()
                    + payload[offset + dtype.itemsize:])
        offset += dtype.itemsize * math.prod(entry["shape"])
    raise KeyError(array)


# A CRC-valid frame whose arrays hold a NaN or an infinity once loaded, and
# gave nan embeddings or nan scores in tie order.
@pytest.mark.parametrize("name, array, value, error", [
    ("model.bin", "fc.bias", float("nan"), "MalformedCheckpoint"),
    ("embnum.bin", "embeddings", float("inf"), "MalformedStore"),
    ("semantictyper.bin", "values", float("nan"), "MalformedStore"),
    ("dsl.bin", "values", float("-inf"), "MalformedStore"),
])
def test_non_finite_payloads_are_named_errors(base, name, array, value, error):
    doc, payload = read_doc(base, name)
    proc = run_capped(base, name, doc, with_element(doc, payload, array, value),
                      COMMANDS[name][0])
    assert proc.returncode == 1 and proc.stderr.startswith(f"{error}: "), proc.stderr
    assert array in proc.stderr


# A fault of an embnum store's embedded checkpoint was MalformedCheckpoint
# or InvalidArch, without the store's path.
@pytest.mark.parametrize("fault", ["non-finite array", "arrays unlike the arch"])
def test_embedded_checkpoint_faults_are_store_errors(base, fault):
    doc, payload = read_doc(base, "embnum.bin")
    if fault == "non-finite array":
        payload = with_element(doc, payload, "model.fc.bias", float("nan"))
    else:
        doc = replaced(doc, ("model", "arch", "k"), 8)
    proc = run_capped(base, "embnum.bin", doc, payload, COMMANDS["embnum.bin"][0])
    assert proc.returncode == 1 and proc.stderr.startswith("MalformedStore: "), proc.stderr
    assert "embnum.bin: checkpoint" in proc.stderr, proc.stderr


def test_non_finite_arrays_are_refused_before_writing(base, tmp_path):
    model = load_model(base / "model.bin")
    model.net.fc.bias.data[0] = np.nan
    path = tmp_path / "model.bin"
    with pytest.raises(errors.MalformedCheckpoint, match=re.escape(f"{path}: array 'fc.bias'")):
        save_model(model, path)
    store, raw = load_store(base / "embnum.bin"), load_store(base / "semantictyper.bin")
    embeddings = store.features.copy()
    embeddings[0, 0] = np.inf
    columns = np.split(raw.features.values.copy(), raw.features.starts[1:])
    columns[0][0] = np.nan
    stores = {"nan-model.bin": dataclasses.replace(store, model=model),
              "inf-embedding.bin": dataclasses.replace(store, features=embeddings),
              "nan-values.bin": dataclasses.replace(raw, features=PackedColumns(columns))}
    for name, bad in stores.items():
        with pytest.raises(errors.MalformedStore, match=re.escape(f"{tmp_path / name}: array")):
            save_store(bad, tmp_path / name)
    assert list(tmp_path.iterdir()) == []


def test_an_allocation_past_the_cap_is_out_of_memory(base, tmp_path):
    # one training batch of 3 labels x 10**9 samples asks for far more
    # than the child may map
    proc = run_cli(["train", str(base / "data"), "--out", str(tmp_path / "m.bin"),
                    "--samples-per-label", "1000000000", "--h", "16", "--k", "4",
                    "--stem-channels", "1", "--epochs", "1"])
    assert proc.returncode == 1 and proc.stderr.startswith("OutOfMemory: "), proc.stderr
    assert proc.stderr.removeprefix("OutOfMemory: ").strip(), proc.stderr


# A non-integer config field, a bool included, was accepted and ended in a raw
# TypeError once a model was built or trained, or was never refused at all;
# a bool width sampled a 1-wide vector.
@pytest.mark.parametrize("make, error, field", [
    (lambda: ArchConfig(stem_channels=2.5), errors.InvalidArch, "stem_channels"),
    (lambda: ArchConfig(k=True), errors.InvalidArch, "k"),
    (lambda: ArchConfig(h="100"), errors.InvalidArch, "h"),
    (lambda: TrainConfig(epochs=2.0), errors.InvalidSpec, "epochs"),
    (lambda: TrainConfig(batch_labels="8"), errors.InvalidSpec, "batch_labels"),
    (lambda: TrainConfig(samples_per_label=4.0), errors.InvalidSpec, "samples_per_label"),
    (lambda: TrainConfig(seed=True), errors.InvalidSpec, "seed"),
    (lambda: sample_inverse_transform([[1.0, 2.0]], True), errors.InvalidWidth, "h"),
], ids=["arch-stem-float", "arch-k-bool", "arch-h-str", "train-epochs-float",
        "train-batch-labels-str", "train-samples-float", "train-seed-bool", "sample-h-bool"])
def test_non_integer_config_fields_are_named_errors(make, error, field):
    with pytest.raises(error, match=field):
        make()


SMALL_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 16), st.floats(-4, 4),
    st.sampled_from([float("nan"), "", "x", "embnum", "dsl", [], {}, [1, 2, 3, 4]]),
    st.lists(st.integers(0, 3), max_size=4), st.dictionaries(st.sampled_from("ab"),
                                                              st.integers(0, 3), max_size=2))


@given(data=st.data(), name=st.sampled_from(sorted(COMMANDS)))
@settings(max_examples=20, deadline=None)
def test_edited_artifacts_fail_with_named_errors(base, data, name):
    doc, payload = read_doc(base, name)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        path = data.draw(st.sampled_from(list(paths(doc))), label="path")
        doc = replaced(doc, path, data.draw(SMALL_VALUES, label="value"))
    command = data.draw(st.sampled_from(COMMANDS[name]), label="command")
    assert_named_outcome(run_capped(base, name, doc, payload, command))
