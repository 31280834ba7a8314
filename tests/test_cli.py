import argparse
import csv
import io
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import embnum
from embnum.cli import _add_model_flags, _configs, build_parser, main
from embnum.dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from embnum.embnet import ArchConfig, build_model, save_model
from embnum.fixtures import desk_arch, desk_train_config
from embnum.metric import TrainConfig

SPEC_DOC = {
    "label_count": 3,
    "source_count": 3,
    "rows_min": 6,
    "rows_max": 10,
    "seed": 11,
}

TRAIN_FLAGS = [
    "--h", "16", "--k", "8", "--stem-channels", "2",
    "--epochs", "2", "--batch-labels", "2", "--samples-per-label", "2",
]


@pytest.fixture()
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC_DOC))
    return p


@pytest.fixture()
def data_dir(tmp_path):
    d = tmp_path / "data"
    write_dataset(generate_synthetic(SyntheticSpec(**SPEC_DOC)), d)
    return d


class TestGen:
    def test_writes_expected_dataset(self, spec_file, tmp_path, capsys):
        out = tmp_path / "gen_out"
        assert main(["gen", str(spec_file), str(out)]) == 0
        assert "9 attributes" in capsys.readouterr().out
        assert load_dataset(out) == generate_synthetic(SyntheticSpec(**SPEC_DOC))

    def test_refuses_non_empty_directory(self, spec_file, tmp_path, capsys):
        out = tmp_path / "gen_out"
        assert main(["gen", str(spec_file), str(out)]) == 0
        capsys.readouterr()
        assert main(["gen", str(spec_file), str(out)]) == 1
        assert "MissingDirectory" in capsys.readouterr().err

    def test_bad_spec_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["gen", str(bad), str(tmp_path / "o")]) == 1
        assert "InvalidSpec" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        b'{"label_count": 3, "source_count": 3, "rows_min": 6, "rows_max": 10, "seed": "\xff"}',
        json.dumps({**SPEC_DOC, "label_count": None}).encode(),
        json.dumps({**SPEC_DOC, "family_pool": [{"family": "normal", "location": "x"}] * 3}
                   ).encode(),
        json.dumps({**SPEC_DOC, "label_count": 2.7}).encode(),
        json.dumps({**SPEC_DOC, "source_count": True}).encode(),
        json.dumps({**SPEC_DOC, "rows_min": "3"}).encode(),
        json.dumps({**SPEC_DOC, "seed": 1.9}).encode(),
    ], ids=["not-utf8", "null-count", "string-location", "fractional-count", "boolean-count",
            "string-count", "fractional-seed"])
    def test_malformed_spec_is_invalid_spec(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        assert main(["gen", str(bad), str(tmp_path / "o")]) == 1
        assert "InvalidSpec" in capsys.readouterr().err


class TestSample:
    def test_inverse_quantiles(self, tmp_path, capsys):
        f = tmp_path / "col.csv"
        f.write_text("1\n2\n3\n4\n")
        assert main(["sample", str(f), "--h", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1,2,3,4"

    def test_malformed_value_reported(self, tmp_path, capsys):
        f = tmp_path / "col.csv"
        f.write_text("1\nbanana\n")
        assert main(["sample", str(f)]) == 1
        err = capsys.readouterr().err
        assert "MalformedValue" in err and "col.csv:2" in err


class TestTrain:
    def test_writes_checkpoint_and_history(self, data_dir, tmp_path, capsys):
        out = tmp_path / "model.bin"
        assert main(["train", str(data_dir), "--out", str(out)] + TRAIN_FLAGS) == 0
        assert out.exists()
        history = tmp_path / "model.bin.history.csv"
        assert history.exists()
        assert history.read_text().startswith("epoch,mean_loss,train_mrr,lr")
        assert "best train MRR" in capsys.readouterr().out

    def test_custom_history_path(self, data_dir, tmp_path):
        out = tmp_path / "model.bin"
        hist = tmp_path / "h.csv"
        main(["train", str(data_dir), "--out", str(out), "--history", str(hist)]
             + TRAIN_FLAGS)
        assert hist.exists()

    def test_reruns_are_byte_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        main(["train", str(data_dir), "--out", str(out1)] + TRAIN_FLAGS)
        main(["train", str(data_dir), "--out", str(out2)] + TRAIN_FLAGS)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "m1.bin.history.csv").read_text() == (
            tmp_path / "m2.bin.history.csv"
        ).read_text()

    def test_negative_seed_is_invalid_spec(self, data_dir, tmp_path, capsys):
        assert main(["train", str(data_dir), "--out", str(tmp_path / "m.bin"),
                     "--seed", "-1"]) == 1
        assert "InvalidSpec" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, error", [("--samples-per-label", "InvalidSpec"),
                                             ("--k", "InvalidArch"),
                                             ("--stem-channels", "InvalidArch")])
    def test_a_size_numpy_cannot_address_is_a_named_error(self, data_dir, tmp_path, capsys,
                                                          flag, error):
        # 10**20 int64 draws, or a weight of 10**20 rows, are more bytes than
        # numpy can size; the configs refuse them before anything is built
        out = tmp_path / "m.bin"
        assert main(["train", str(data_dir), "--out", str(out), flag, str(10**20)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and "Traceback" not in err
        assert not out.exists()

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "m.bin")] + TRAIN_FLAGS)
        assert code == 1
        assert "MissingDirectory" in capsys.readouterr().err

    def test_dataset_root_that_is_a_file(self, tmp_path, capsys):
        root = tmp_path / "data.csv"
        root.write_text("1\n")
        assert main(["train", str(root), "--out", str(tmp_path / "m.bin")] + TRAIN_FLAGS) == 1
        assert (f"MissingDirectory: dataset root {root} is not a directory\n"
                == capsys.readouterr().err)
        assert main(["train", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "m.bin")] + TRAIN_FLAGS) == 1
        assert f"dataset root {tmp_path / 'nope'} does not exist" in capsys.readouterr().err

    def test_a_history_path_that_is_a_directory_is_named_in_the_io_error(
            self, data_dir, tmp_path, capsys):
        # the history is written through a temp file beside it; the error
        # names the path asked for and the temp file is removed
        hist = tmp_path / "hist"
        hist.mkdir()
        assert main(["train", str(data_dir), "--out", str(tmp_path / "m.bin"),
                     "--history", str(hist)] + TRAIN_FLAGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("IoError: ") and repr(str(hist)) in err and ".tmp" not in err, err
        assert list(tmp_path.rglob("*.tmp")) == [] and list(hist.iterdir()) == []

    def test_a_memory_error_without_a_message_still_says_what_failed(
            self, data_dir, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise MemoryError

        monkeypatch.setattr(embnum.metric, "train", refuse)
        assert main(["train", str(data_dir), "--out", str(tmp_path / "m.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("OutOfMemory: ") and err.removeprefix("OutOfMemory: ").strip(), err


@pytest.fixture()
def trained_paths(data_dir, tmp_path):
    model = tmp_path / "model.bin"
    main(["train", str(data_dir), "--out", str(model)] + TRAIN_FLAGS)
    store = tmp_path / "store.bin"
    main(["index", str(data_dir), "--method", "embnum",
          "--model", str(model), "--out", str(store)])
    return data_dir, model, store


class TestIndexAndLabel:
    def test_self_query_ranks_first_with_zero_distance(self, trained_paths,
                                                       tmp_path, capsys):
        data_dir, _, store = trained_paths
        capsys.readouterr()
        ds = load_dataset(data_dir)
        attr = ds.attributes[0]
        q = tmp_path / "query.csv"
        from embnum.dataset import format_values

        q.write_text("\n".join(format_values(attr.values)) + "\n")
        assert main(["label", str(store), str(q), "--top", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        label, source, score = lines[0].split(",")
        assert (label, source) == (attr.label, attr.source)
        assert float(score) == 0.0

    def test_index_requires_model_for_embnum(self, data_dir, tmp_path, capsys):
        code = main(["index", str(data_dir), "--method", "embnum",
                     "--out", str(tmp_path / "s.bin")])
        assert code == 1
        assert "MissingModel" in capsys.readouterr().err

    def test_index_dsl_autotrains(self, data_dir, tmp_path, capsys):
        store = tmp_path / "dsl_store.bin"
        assert main(["index", str(data_dir), "--method", "dsl",
                     "--out", str(store)]) == 0
        from embnum.labeling import load_store

        loaded = load_store(store)
        assert loaded.dsl_model is not None

    def test_index_dsl_accepts_saved_weights(self, data_dir, tmp_path):
        from embnum.baselines import LogisticModel, save_dsl_model
        from embnum.labeling import load_store

        weights = tmp_path / "w.json"
        save_dsl_model(LogisticModel(weights=np.array([1.0, 2.0, 3.0]),
                                     bias=-0.5), weights)
        store = tmp_path / "dsl_store.bin"
        main(["index", str(data_dir), "--method", "dsl",
              "--dsl-model", str(weights), "--out", str(store)])
        assert load_store(store).dsl_model.bias == -0.5

    @pytest.mark.parametrize("text", ["[1.0, 2.0, 3.0]", "{"])
    def test_index_malformed_dsl_weights_is_named_error(self, data_dir, tmp_path,
                                                        text, capsys):
        weights = tmp_path / "w.json"
        weights.write_text(text)
        assert main(["index", str(data_dir), "--method", "dsl",
                     "--dsl-model", str(weights), "--out", str(tmp_path / "s.bin")]) == 1
        assert "MalformedDslModel" in capsys.readouterr().err

    def test_label_malformed_dsl_weights_in_store_is_named_error(self, data_dir,
                                                                 tmp_path, capsys):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC, STORE_VERSION

        store = tmp_path / "dsl_store.bin"
        main(["index", str(data_dir), "--method", "dsl", "--out", str(store)])
        manifest, arrays = _serial.unpack_framed(store.read_bytes(), STORE_MAGIC,
                                                 STORE_VERSION)
        manifest["dsl_model"] = [1.0, 2.0, 3.0]
        store.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        capsys.readouterr()
        assert main(["label", str(store), str(q)]) == 1
        assert "MalformedStore" in capsys.readouterr().err

    def test_label_wrong_embedding_width_is_named_error(self, trained_paths,
                                                        tmp_path, capsys):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC, STORE_VERSION

        _, _, store = trained_paths
        manifest, arrays = _serial.unpack_framed(store.read_bytes(), STORE_MAGIC,
                                                 STORE_VERSION)
        arrays["embeddings"] = arrays["embeddings"][:, :-1]
        store.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        capsys.readouterr()
        assert main(["label", str(store), str(q)]) == 1
        assert "MalformedStore" in capsys.readouterr().err

    def test_label_non_utf8_query_is_malformed_value(self, data_dir, tmp_path, capsys):
        store = tmp_path / "s.bin"
        assert main(["index", str(data_dir), "--method", "semantictyper",
                     "--out", str(store)]) == 0
        q = tmp_path / "q.csv"
        q.write_bytes(b"1\n\xff2\n")
        assert main(["label", str(store), str(q)]) == 1
        assert "MalformedValue" in capsys.readouterr().err

    def test_index_non_utf8_dataset_file_is_malformed_value(self, data_dir, tmp_path,
                                                           capsys):
        next(data_dir.glob("*/*.csv")).write_bytes(b"\xfe\xff1\n")
        assert main(["index", str(data_dir), "--method", "semantictyper",
                     "--out", str(tmp_path / "s.bin")]) == 1
        assert "MalformedValue" in capsys.readouterr().err

    def test_label_directory_query_is_not_a_file(self, data_dir, tmp_path, capsys):
        store = tmp_path / "s.bin"
        assert main(["index", str(data_dir), "--method", "semantictyper",
                     "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["label", str(store), str(data_dir)]) == 1
        assert (f"MissingDirectory: attribute file {data_dir} is not a file\n"
                == capsys.readouterr().err)
        assert main(["label", str(store), str(tmp_path / "ghost.csv")]) == 1
        assert "ghost.csv does not exist" in capsys.readouterr().err

    def test_label_missing_store_is_io_error(self, tmp_path, capsys):
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        assert main(["label", str(tmp_path / "ghost.bin"), str(q)]) == 1
        assert "IoError" in capsys.readouterr().err


    def test_label_malformed_store_is_named_error(self, tmp_path, capsys):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC, STORE_VERSION

        store = tmp_path / "bad.bin"
        store.write_bytes(_serial.pack_framed(
            STORE_MAGIC, STORE_VERSION, {"kind": "feature-store", "method": "semantictyper"}, {}))
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        assert main(["label", str(store), str(q)]) == 1
        assert "MalformedStore" in capsys.readouterr().err

    def test_label_short_store_is_named_error(self, trained_paths, tmp_path, capsys):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC, STORE_VERSION

        _, _, store = trained_paths
        manifest, arrays = _serial.unpack_framed(store.read_bytes(), STORE_MAGIC,
                                                 STORE_VERSION)
        manifest["record_meta"].append({"label": "extra", "source": "s9"})
        del manifest["arrays"]
        store.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        capsys.readouterr()
        assert main(["label", str(store), str(q)]) == 1
        assert "MalformedStore" in capsys.readouterr().err

    @pytest.mark.parametrize("record_meta", [
        7,
        [1, 2, 3],
        "rows-as-string",
    ], ids=["int", "list-of-ints", "string-rows"])
    def test_label_malformed_record_meta_is_named_error(self, data_dir, tmp_path, capsys,
                                                        record_meta):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC, STORE_VERSION

        store = tmp_path / "s.bin"
        assert main(["index", str(data_dir), "--method", "semantictyper",
                     "--out", str(store)]) == 0
        manifest, arrays = _serial.unpack_framed(store.read_bytes(), STORE_MAGIC,
                                                 STORE_VERSION)
        if record_meta == "rows-as-string":
            manifest["record_meta"][0]["rows"] = str(manifest["record_meta"][0]["rows"])
        else:
            manifest["record_meta"] = record_meta
        store.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        capsys.readouterr()
        assert main(["label", str(store), str(q)]) == 1
        assert capsys.readouterr().err.startswith("MalformedStore: ")

    def test_label_version_1_store_is_refused(self, tmp_path, capsys):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC

        store = tmp_path / "v1.bin"
        store.write_bytes(_serial.pack_framed(
            STORE_MAGIC, 1, {"kind": "feature-store", "method": "semantictyper",
                             "record_meta": []}, {}))
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        assert main(["label", str(store), str(q)]) == 1
        assert "FormatVersionMismatch" in capsys.readouterr().err


class TestBenchmark:
    def test_stdout_report(self, data_dir, capsys):
        assert main(["benchmark", str(data_dir), "--method", "semantictyper"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "semantictyper"
        assert doc["total_experiments"] == 9  # 3 sources
        assert len(doc["per_count"]) == 2

    def test_file_report(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["benchmark", str(data_dir), "--method", "dsl",
                     "--out", str(out)]) == 0
        assert "9 experiments" in capsys.readouterr().out
        assert json.loads(out.read_text())["method"] == "dsl"


class TestExport:
    def test_stdout_csv(self, trained_paths, capsys):
        data_dir, model, _ = trained_paths
        capsys.readouterr()
        assert main(["export-embeddings", str(model), str(data_dir)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("label,source,e0,")
        assert len(lines) == 10  # header + 9 attributes

    def test_file_csv(self, trained_paths, tmp_path, capsys):
        data_dir, model, _ = trained_paths
        out = tmp_path / "emb.csv"
        assert main(["export-embeddings", str(model), str(data_dir),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("label,source,e0,")

    def test_an_out_path_in_a_missing_directory_is_named_in_the_io_error(
            self, trained_paths, tmp_path, capsys):
        data_dir, model, _ = trained_paths
        out = tmp_path / "nonexistent" / "x.csv"
        capsys.readouterr()
        assert main(["export-embeddings", str(model), str(data_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IoError: ") and repr(str(out)) in err and ".tmp" not in err, err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("missing", ["arch", "training_meta"])
    def test_malformed_checkpoint_is_named_error(self, trained_paths, missing, capsys):
        from embnum import _serial
        from embnum.embnet import MODEL_MAGIC, MODEL_VERSION

        data_dir, model, _ = trained_paths
        manifest, arrays = _serial.unpack_framed(model.read_bytes(), MODEL_MAGIC,
                                                 MODEL_VERSION)
        del manifest[missing]
        model.write_bytes(_serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays))
        capsys.readouterr()
        assert main(["export-embeddings", str(model), str(data_dir)]) == 1
        assert "MalformedCheckpoint" in capsys.readouterr().err


    # width_multiplier and input_norm were fields of older checkpoints
    @pytest.mark.parametrize("field, value", [("depth", 3), ("width_multiplier", 1.0),
                                              ("input_norm", "signed_log")])
    def test_unknown_arch_field_is_named_error(self, trained_paths, capsys, field, value):
        from embnum import _serial
        from embnum.embnet import MODEL_MAGIC, MODEL_VERSION

        data_dir, model, _ = trained_paths
        manifest, arrays = _serial.unpack_framed(model.read_bytes(), MODEL_MAGIC,
                                                 MODEL_VERSION)
        manifest["arch"][field] = value
        model.write_bytes(_serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays))
        capsys.readouterr()
        assert main(["export-embeddings", str(model), str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert "MalformedCheckpoint" in err and field in err

    @pytest.mark.parametrize("command", ["export-embeddings", "index"])
    def test_mis_shaped_checkpoint_array_is_invalid_arch(self, trained_paths, tmp_path,
                                                         capsys, command):
        from embnum import _serial
        from embnum.embnet import MODEL_MAGIC, MODEL_VERSION

        data_dir, model, _ = trained_paths
        manifest, arrays = _serial.unpack_framed(model.read_bytes(), MODEL_MAGIC,
                                                 MODEL_VERSION)
        arrays["stem_conv.weight"] = arrays["stem_conv.weight"].reshape(-1)
        model.write_bytes(_serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays))
        argv = {"export-embeddings": ["export-embeddings", str(model), str(data_dir)],
                "index": ["index", str(data_dir), "--method", "embnum", "--model",
                          str(model), "--out", str(tmp_path / "s.bin")]}[command]
        capsys.readouterr()
        assert main(argv) == 1
        assert "InvalidArch" in capsys.readouterr().err


MALFORMED_MANIFESTS = {
    "invalid-json": b"{",
    "non-object": b"[1, 2]",
    "no-arrays": b'{"kind": "feature-store"}',
    "entry-without-shape": b'{"arrays": [{"name": "values", "dtype": "<f8"}]}',
    "unknown-dtype": b'{"arrays": [{"name": "values", "shape": [1], "dtype": "<q9"}]}',
}


def replace_manifest(path, manifest: bytes) -> None:
    """Give a framed file another manifest, keeping its payload and a valid CRC."""
    blob = path.read_bytes()
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    body = blob[:8] + struct.pack("<I", len(manifest)) + manifest + blob[end:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


class TestMalformedManifest:
    @pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
    @pytest.mark.parametrize("command", ["label", "export-embeddings"])
    def test_crc_valid_frame_with_bad_manifest_is_named_error(self, trained_paths, tmp_path,
                                                             capsys, command, manifest):
        data_dir, model, store = trained_paths
        query = tmp_path / "q.csv"
        query.write_text("1\n")
        if command == "label":
            target, argv = store, ["label", str(store), str(query)]
        else:
            target, argv = model, ["export-embeddings", str(model), str(data_dir)]
        replace_manifest(target, manifest)
        capsys.readouterr()
        assert main(argv) == 1
        assert "ChecksumMismatch" in capsys.readouterr().err


class TestConfigs:
    @staticmethod
    def configs(*flags):
        return _configs(build_parser().parse_args(["train", "data", "--out", "m.bin", *flags]))

    def test_defaults_are_the_dataclass_defaults(self):
        assert self.configs() == (ArchConfig(), TrainConfig())

    def test_desk_preset_is_the_desk_fixture(self):
        assert self.configs("--preset", "desk") == (desk_arch(), desk_train_config())

    def test_explicit_flags_override_the_preset(self):
        arch, cfg = self.configs("--preset", "desk", "--k", "16", "--epochs", "5",
                                 "--seed", "3")
        assert arch == replace(desk_arch(), k=16)
        assert cfg == replace(desk_train_config(), epochs=5, seed=3)

    def test_sample_width_defaults_to_the_arch(self):
        assert build_parser().parse_args(["sample", "col.csv"]).h == ArchConfig().h

    def test_model_flags_are_the_config_fields(self):
        # _configs skips a flag that names no field, so a stale flag would
        # be accepted and silently ignored
        p = argparse.ArgumentParser()
        _add_model_flags(p)
        flags = set(vars(p.parse_args([]))) - {"preset"}
        names = {f.name for c in (ArchConfig, TrainConfig) for f in fields(c)}
        assert flags == names


class TestCsvOutputs:
    def test_names_with_commas_and_quotes_read_back(self, tmp_path, capsys):
        labels = ["a,b", 'say "hi"']
        data = tmp_path / "data"
        for source in ("s0", "s1"):
            (data / source).mkdir(parents=True)
            for label, body in zip(labels, ("1\n2\n3\n", "40\n50\n")):
                (data / source / f"{label}.csv").write_text(body)
        model, store, query = tmp_path / "m.bin", tmp_path / "s.bin", tmp_path / "q.csv"
        save_model(build_model(ArchConfig(h=8, k=4, stem_channels=1), seed=0), model)
        query.write_text("2\n3\n")
        assert main(["index", str(data), "--method", "semantictyper", "--out", str(store)]) == 0
        capsys.readouterr()

        assert main(["export-embeddings", str(model), str(data)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["label", "source", "e0", "e1", "e2", "e3"]
        assert [row[:2] for row in rows[1:]] == [[lab, src] for lab in labels
                                                 for src in ("s0", "s1")]
        assert all(len(row) == 6 for row in rows)

        assert main(["label", str(store), str(query), "--top", "4"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[:2] for row in rows] == [["a,b", "s0"], ["a,b", "s1"],
                                             ['say "hi"', "s0"], ['say "hi"', "s1"]]
        assert all(len(row) == 3 for row in rows)


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["index", str(data_dir)])  # --method and --out required
        assert exc.value.code == 2

    def test_training_hyperparameter_flag_exits_2(self, data_dir, tmp_path):
        # the margin and SGD schedule are metric constants, not TrainConfig fields
        with pytest.raises(SystemExit) as exc:
            main(["train", str(data_dir), "--out", str(tmp_path / "m.bin"), "--lr0", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_label_top_below_one_exits_2(self, tmp_path, capsys, top):
        with pytest.raises(SystemExit) as exc:
            main(["label", str(tmp_path / "s.bin"), str(tmp_path / "q.csv"), "--top", top])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_preset_flag_accepted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "desk" in capsys.readouterr().out

    def test_module_run_writes_nothing_to_stderr(self):
        """`python -m embnum.cli` runs the module once: the package does not
        import it first, which would make runpy warn on every run."""
        env = {**os.environ, "PYTHONPATH": str(Path(embnum.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "embnum.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "usage" in proc.stdout
        assert proc.stderr == ""
