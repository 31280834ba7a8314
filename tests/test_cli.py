import json

import numpy as np
import pytest

from embnum.cli import main
from embnum.dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    write_dataset,
)

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


class TestSample:
    def test_inverse_quantiles(self, tmp_path, capsys):
        f = tmp_path / "col.csv"
        f.write_text("1\n2\n3\n4\n")
        assert main(["sample", str(f), "--h", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1,2,3,4"

    def test_random_method_is_seeded(self, tmp_path, capsys):
        f = tmp_path / "col.csv"
        f.write_text("\n".join(str(v) for v in range(50)) + "\n")
        main(["sample", str(f), "--h", "10", "--method", "random", "--seed", "3"])
        first = capsys.readouterr().out
        main(["sample", str(f), "--h", "10", "--method", "random", "--seed", "3"])
        assert capsys.readouterr().out == first

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

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "m.bin")] + TRAIN_FLAGS)
        assert code == 1
        assert "MissingDirectory" in capsys.readouterr().err


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
        from embnum.dataset import format_value

        q.write_text("\n".join(format_value(v) for v in attr.values) + "\n")
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

    def test_label_missing_store_is_io_error(self, tmp_path, capsys):
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        assert main(["label", str(tmp_path / "ghost.bin"), str(q)]) == 1
        assert "IoError" in capsys.readouterr().err


    def test_label_malformed_store_is_named_error(self, tmp_path, capsys):
        from embnum import _serial
        from embnum.labeling import STORE_MAGIC, STORE_VERSION

        store = tmp_path / "bad.bin"
        _serial.write_framed(store, STORE_MAGIC, STORE_VERSION,
                             {"kind": "feature-store", "method": "semantictyper"}, {})
        q = tmp_path / "q.csv"
        q.write_text("1\n")
        assert main(["label", str(store), str(q)]) == 1
        assert "MalformedStore" in capsys.readouterr().err


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


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["index", str(data_dir)])  # --method and --out required
        assert exc.value.code == 2

    def test_help_mentions_thread_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "EMBNUM_THREADS" in capsys.readouterr().out

    def test_preset_flag_accepted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "desk" in capsys.readouterr().out
