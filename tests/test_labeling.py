import dataclasses
import importlib.util
import sys
import time
from dataclasses import FrozenInstanceError
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import embnum.baselines as baselines_mod
import embnum.labeling as labeling_mod
from embnum import _serial
from embnum.baselines import (LogisticModel, PackedColumns, dsl_model_to_doc, dsl_train,
                              make_training_pairs)
from embnum.dataset import Dataset, NumericAttribute, SyntheticSpec, generate_synthetic
from embnum.embnet import ArchConfig, build_model, model_frame, model_to_bytes
from embnum.errors import (
    ChecksumMismatch,
    EmptyInput,
    EmptyLabeledData,
    EmptyStore,
    InvalidSpec,
    MalformedStore,
    MissingModel,
    NoQueries,
    TooFewSources,
)
from embnum.labeling import (
    METHODS,
    STORE_MAGIC,
    STORE_VERSION,
    FeatureStore,
    RankEntry,
    RankingList,
    StoreRecord,
    assign_label,
    expected_experiments,
    export_embeddings_csv,
    index_labeled,
    label_queries,
    load_store,
    mrr,
    rank,
    rank_of_first_correct,
    report_to_json,
    run_benchmark,
    save_store,
)
from oracles import (count_experiments_oracle, dsl_logit, dsl_score, ks_pairwise,
                     mrr_oracle, report_from_json)

TINY = ArchConfig(h=16, k=8, stem_channels=4)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SyntheticSpec(
        label_count=5, source_count=4, rows_min=8, rows_max=14, seed=0))


@pytest.fixture(scope="module")
def tiny_model():
    return build_model(TINY, seed=0)


def pairwise_ranking(store: FeatureStore, values) -> tuple[RankEntry, ...]:
    """The ranking entries the pairwise scorers give, one stored column at a time."""
    if store.method == "semantictyper":
        keys = [ks_pairwise(values, r.feature) for r in store.records]
        shown = [1.0 - k for k in keys]
    else:
        keys = [-dsl_logit(store.dsl_model, values, r.feature) for r in store.records]
        shown = [dsl_score(store.dsl_model, values, r.feature) for r in store.records]
    recs = store.records
    order = sorted(range(len(recs)), key=lambda i: (keys[i], recs[i].label, recs[i].source))
    return tuple(RankEntry(recs[i].label, recs[i].source, shown[i]) for i in order)


def two_record_store(method="semantictyper", **kwargs) -> FeatureStore:
    records = [
        StoreRecord("near", "s0", np.array([0.0, 1.0])),
        StoreRecord("far", "s0", np.array([10.0, 11.0])),
    ]
    return FeatureStore(method=method, records=records, **kwargs)


class TestIndexing:
    def test_one_record_per_attribute(self, tiny_dataset, tiny_model):
        store = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        assert len(store.records) == 20  # 5 labels x 4 sources
        for rec in store.records:
            assert rec.feature.shape == (TINY.k,)
            assert rec.feature.dtype == np.float32

    def test_baseline_store_keeps_raw_values(self, tiny_dataset):
        store = index_labeled(tiny_dataset, "semantictyper")
        by_key = {(a.source, a.label): a for a in tiny_dataset.attributes}
        for rec in store.records:
            assert np.array_equal(rec.feature, by_key[(rec.source, rec.label)].values)

    def test_indexing_is_repeatable(self, tiny_dataset, tiny_model):
        s1 = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        s2 = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        for r1, r2 in zip(s1.records, s2.records):
            assert r1.feature.tobytes() == r2.feature.tobytes()

    def test_empty_dataset_rejected(self):
        empty = Dataset([])
        with pytest.raises(EmptyLabeledData):
            index_labeled(empty, "semantictyper")

    def test_missing_models_rejected(self, tiny_dataset):
        with pytest.raises(MissingModel):
            index_labeled(tiny_dataset, "embnum")

    def test_dsl_store_without_weights_fits_them_on_the_labeled_pairs(self, tiny_dataset):
        fitted = index_labeled(tiny_dataset, "dsl").dsl_model
        want = dsl_train(make_training_pairs(tiny_dataset))
        assert dsl_model_to_doc(fitted) == dsl_model_to_doc(want)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidSpec):
            FeatureStore(method="cosine", records=[])


class TestRank:
    def test_self_match_has_distance_zero(self, tiny_dataset, tiny_model):
        store = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        query = tiny_dataset.attributes[3]
        ranking = rank(store, query)
        top = ranking.entries[0]
        assert top.score == 0.0
        assert (top.label, top.source) == (query.label, query.source)

    def test_statistical_toy_ordering(self):
        store = two_record_store()
        ranking = rank(store, np.array([0.0, 1.0]))
        assert [e.label for e in ranking.entries] == ["near", "far"]
        assert ranking.entries[0].score == 1.0   # identical -> 1 - KS = 1
        assert ranking.entries[1].score == 0.0   # disjoint  -> 1 - KS = 0

    def test_embedding_toy_ordering(self, tiny_model, monkeypatch):
        # plant 1-d embeddings so the expected distances are hand-computable
        monkeypatch.setattr(labeling_mod, "preprocess",
                            lambda values, arch: np.asarray(values, dtype=np.float32))
        monkeypatch.setattr(labeling_mod, "embed",
                            lambda model, x: np.asarray(x, dtype=np.float32))
        store = FeatureStore(method="embnum", records=[
            StoreRecord("a", "s0", np.array([0.0], dtype=np.float32)),
            StoreRecord("b", "s0", np.array([1.0], dtype=np.float32)),
        ], model=tiny_model)
        ranking = rank(store, np.array([0.2]))
        assert [e.label for e in ranking.entries] == ["a", "b"]
        assert ranking.entries[0].score == pytest.approx(0.2)
        assert ranking.entries[1].score == pytest.approx(0.8)

    def test_ties_break_by_label_then_source(self):
        vals = np.array([1.0, 2.0])
        store = FeatureStore(method="semantictyper", records=[
            StoreRecord("y2", "s1", vals),
            StoreRecord("y1", "s9", vals),
            StoreRecord("y1", "s0", vals),
        ])
        ranking = rank(store, vals)  # every record ties at KS = 0
        assert [(e.label, e.source) for e in ranking.entries] == [
            ("y1", "s0"), ("y1", "s9"), ("y2", "s1"),
        ]

    def test_single_record_store(self):
        store = FeatureStore(method="semantictyper",
                             records=[StoreRecord("x", "s0", np.array([1.0]))])
        ranking = rank(store, np.array([5.0]))
        assert len(ranking.entries) == 1

    def test_empty_store_rejected(self):
        store = FeatureStore(method="semantictyper", records=[])
        with pytest.raises(EmptyStore):
            rank(store, np.array([1.0]))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("query", [[np.nan, 1.0], [np.inf, 2.0], [1.0, -np.inf]],
                             ids=["nan", "inf", "neg-inf"])
    def test_non_finite_query_rejected(self, tiny_dataset, tiny_model, method, query):
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        with pytest.raises(EmptyInput, match="non-finite"):
            rank(store, np.array(query))

    @pytest.mark.parametrize("method", ["embnum", "semantictyper", "dsl"])
    def test_reassigned_records_rank_like_a_fresh_store(self, tiny_dataset, tiny_model,
                                                        method):
        # rank caches the embedding matrix / packed columns; a store whose
        # records are replaced must not see them, whether the count changes or not
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        records = list(store.records)
        query = tiny_dataset.attributes[0]
        rank(store, query)
        for replacement in (records[10:] + records[:10], records[3:4], records[5:12]):
            store = dataclasses.replace(store, records=replacement)
            fresh = FeatureStore(method=method, records=list(replacement),
                                 model=store.model, dsl_model=store.dsl_model)
            assert rank(store, query).entries == rank(fresh, query).entries

    def test_records_cannot_be_reassigned(self):
        # rank caches arrays derived from the records, so they are fixed
        store = two_record_store()
        rank(store, np.array([1.0]))
        with pytest.raises(FrozenInstanceError):
            store.records = []

    def test_total_order_and_repeatability(self, tiny_dataset, tiny_model):
        store = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        q = tiny_dataset.attributes[7]
        r1, r2 = rank(store, q), rank(store, q)
        assert "entries" not in vars(r1)   # rows are built only when read
        assert r1.entries == r2.entries
        assert len(r1.entries) == len(store.records)
        assert len({(e.label, e.source) for e in r1.entries}) == len(store.records)


class TestAssignment:
    def test_assign_takes_top_label(self):
        store = FeatureStore("semantictyper", [StoreRecord(label, "s0", np.array([1.0]))
                                               for label in ("y1", "y2", "y3")])
        ranking = RankingList(store, np.array([1, 0, 2]), np.array([0.9, 0.5, 0.1]))
        assert ranking.entries == (RankEntry("y2", "s0", 0.9), RankEntry("y1", "s0", 0.5),
                                   RankEntry("y3", "s0", 0.1))
        assert assign_label(ranking) == "y2"
        assert rank_of_first_correct(ranking, "y3") == 3
        assert rank_of_first_correct(ranking, "missing") is None


class TestMrr:
    def test_hand_cases(self):
        assert mrr([1]) == 1.0
        assert mrr([2, 2]) == 0.5
        assert mrr([1, 4]) == 0.625
        assert mrr([1, 2, 3]) == pytest.approx(mrr_oracle([1, 2, 3]))

    def test_errors(self):
        with pytest.raises(NoQueries):
            mrr([])
        with pytest.raises(ValueError):
            mrr([1, 0])


class TestLabelQueries:
    def test_agrees_with_single_query_rank(self, tiny_dataset, tiny_model):
        for method, kwargs in [
            ("embnum", {"model": tiny_model}),
            ("semantictyper", {}),
            ("dsl", {"dsl_model": dsl_train(make_training_pairs(tiny_dataset))}),
        ]:
            store = index_labeled(tiny_dataset, method, **kwargs)
            queries = tiny_dataset.by_source("s0")
            result = label_queries(store, queries)
            expected = [rank_of_first_correct(rank(store, q), q.label)
                        for q in queries]
            assert result.ranks == expected
            assert result.excluded == 0
            assert result.seconds >= 0.0

    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_batches_spanning_several_chunks_agree_with_rank(self, tiny_dataset, chunk,
                                                             monkeypatch):
        """A chunk of a few stored values splits the batch between queries
        and inside one query's columns; every rank stays rank()'s."""
        monkeypatch.setattr(baselines_mod, "SCORE_CHUNK", chunk)
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        queries = tiny_dataset.by_source("s0") + tiny_dataset.by_source("s2")
        for method in ("semantictyper", "dsl"):
            store = index_labeled(tiny_dataset, method, dsl_model=dsl_model)
            assert store.packed_columns.values.size > 3 * chunk
            result = label_queries(store, queries)
            assert result.ranks == [rank_of_first_correct(rank(store, q), q.label)
                                    for q in queries]

    @pytest.mark.parametrize("method", METHODS)
    def test_a_tied_batch_follows_label_then_source(self, tiny_model, method, monkeypatch):
        """Every record ties for every query of the batch, so each query's
        order is the (label, source) tie-break alone, in label_queries as in
        rank."""
        if method == "embnum":  # plant 1-d embeddings, as in test_embedding_toy_ordering
            monkeypatch.setattr(labeling_mod, "preprocess",
                                lambda values, arch: np.asarray(values, dtype=np.float32))
            monkeypatch.setattr(labeling_mod, "embed",
                                lambda model, x: np.asarray(x, dtype=np.float32))
            feature = np.array([0.0], dtype=np.float32)
        else:
            feature = np.array([1.0, 2.0])
        names = [("b", "s1"), ("c", "s0"), ("a", "s2"), ("b", "s0"), ("a", "s1")]
        store = FeatureStore(method, [StoreRecord(label, source, feature)
                                      for label, source in names], model=tiny_model,
                             dsl_model=LogisticModel(weights=np.array([-4.0, 0.5, 1.0]),
                                                     bias=0.25))
        queries = [NumericAttribute(values=[v], label=label, source="q")
                   for v, label in [(0.5, "b"), (1.5, "c"), (7.0, "a")]]
        for q in queries:
            assert [(e.label, e.source) for e in rank(store, q).entries] == sorted(names)
        assert label_queries(store, queries).ranks == [3, 5, 1]

    def test_unknown_label_is_excluded(self, tiny_model):
        store = two_record_store()
        queries = [
            NumericAttribute(values=[0.0, 1.0], label="near", source="q"),
            NumericAttribute(values=[3.0], label="alien", source="q"),
        ]
        result = label_queries(store, queries)
        assert result.excluded == 1
        assert result.ranks == [1]

    @pytest.mark.parametrize("method", METHODS)
    def test_batch_of_absent_labels_is_all_excluded(self, tiny_dataset, tiny_model, method):
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        queries = [NumericAttribute(values=a.values, label="alien", source=a.source)
                   for a in tiny_dataset.by_source("s0")]
        result = label_queries(store, queries)
        assert result.ranks == []
        assert result.excluded == len(queries)

    @pytest.mark.parametrize("method", METHODS)
    def test_store_side_arrays_are_built_before_the_clock(self, tiny_dataset, tiny_model,
                                                          method, monkeypatch):
        """A fresh store's presort or embedding stack is store construction,
        which the labeling time leaves out."""
        def slowly(build):
            def slow(*args):
                time.sleep(0.2)
                return build(*args)
            return slow

        if method == "embnum":
            slow = cached_property(slowly(FeatureStore.embedding_matrix.func))
            slow.__set_name__(FeatureStore, "embedding_matrix")
            monkeypatch.setattr(FeatureStore, "embedding_matrix", slow)
        else:
            monkeypatch.setattr(PackedColumns, "__init__", slowly(PackedColumns.__init__))
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        t0 = time.perf_counter()
        result = label_queries(store, tiny_dataset.by_source("s0"))
        assert time.perf_counter() - t0 >= 0.2   # the slow build did run
        assert result.seconds < 0.2

    def test_empty_inputs_rejected(self, tiny_dataset, tiny_model):
        store = index_labeled(tiny_dataset, "semantictyper")
        with pytest.raises(NoQueries):
            label_queries(store, [])
        with pytest.raises(EmptyStore):
            label_queries(FeatureStore(method="semantictyper", records=[]),
                          tiny_dataset.by_source("s0"))


class TestBenchmark:
    def test_expected_experiment_counts(self):
        for d in range(2, 11):
            assert expected_experiments(d) == count_experiments_oracle(d)
        assert expected_experiments(5) == 75
        assert expected_experiments(10) == 5110

    def test_two_source_benchmark(self):
        ds = generate_synthetic(SyntheticSpec(
            label_count=3, source_count=2, rows_min=5, rows_max=8, seed=1))
        report = run_benchmark(ds, "semantictyper")
        assert report.total_experiments == 2
        assert len(report.per_count) == 1
        assert report.per_count[0].labeled_sources == 1
        assert report.per_count[0].experiments == 2

    def test_three_source_structure(self):
        ds = generate_synthetic(SyntheticSpec(
            label_count=3, source_count=3, rows_min=5, rows_max=8, seed=2))
        report = run_benchmark(ds, "semantictyper")
        assert report.total_experiments == 9
        assert [pc.experiments for pc in report.per_count] == [6, 3]
        for pc in report.per_count:
            assert 0.0 <= pc.mean_mrr <= 1.0
            assert pc.mean_seconds >= 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_sources_with_different_label_sets(self, tiny_model, method):
        # a = {x, y}, b = {x}, c = {y, z}: held-out b against {c} and held-out
        # c against {b} share no label, so 7 of the 9 experiments are scored
        def attr(label, source):
            return NumericAttribute(values=[1.0 + len(label + source), 2.0],
                                    label=label, source=source)

        ds = Dataset([attr("x", "a"), attr("y", "a"), attr("x", "b"),
                      attr("y", "c"), attr("z", "c")])
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        report = run_benchmark(ds, method, model=tiny_model, dsl_model=dsl_model)
        assert report.total_experiments == 7
        assert [pc.labeled_sources for pc in report.per_count] == [1, 2]
        assert [pc.experiments for pc in report.per_count] == [4, 3]
        disjoint = Dataset([attr("x", "a"), attr("y", "b")])
        with pytest.raises(NoQueries):
            run_benchmark(disjoint, method, model=tiny_model, dsl_model=dsl_model)

    @pytest.mark.parametrize("method", ["semantictyper", "dsl"])
    def test_subset_stores_slice_the_full_stores_sorted_columns(self, method,
                                                                 monkeypatch):
        # one sort per call, and every per-count result a store that sorts
        # its own columns gives
        ds = generate_synthetic(SyntheticSpec(
            label_count=4, source_count=4, rows_min=5, rows_max=30, seed=6))
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        packs = []
        init = PackedColumns.__init__
        monkeypatch.setattr(PackedColumns, "__init__",
                            lambda self, columns: packs.append(init(self, columns)))
        sliced = run_benchmark(ds, method, dsl_model=dsl_model)
        assert len(packs) == 1

        def fresh(self, keep):
            return FeatureStore(self.method, [r for r, k in zip(self.records, keep) if k],
                                self.model, self.dsl_model)

        monkeypatch.setattr(FeatureStore, "subset", fresh)
        sorted_again = run_benchmark(ds, method, dsl_model=dsl_model)
        assert len(packs) == 1 + sorted_again.total_experiments
        strip = lambda r: [(pc.labeled_sources, pc.mean_mrr, pc.experiments)
                           for pc in r.per_count]
        assert strip(sliced) == strip(sorted_again)

    def test_a_subset_breaks_ties_as_a_fresh_store(self):
        """Equal keys everywhere: the order is the tie-break alone, and a
        subset's inherited tie keys give the order its own would."""
        names = [("b", "s2"), ("a", "s3"), ("c", "s0"), ("a", "s1"), ("b", "s0"), ("a", "s0")]
        store = FeatureStore("semantictyper", [StoreRecord(label, source, np.array([1.0, 2.0]))
                                               for label, source in names])
        keep = np.array([True, True, False, True, True, False])
        fresh = FeatureStore("semantictyper", [r for r, k in zip(store.records, keep) if k])
        want = rank(fresh, [1.0, 2.0]).entries
        assert [(e.label, e.source) for e in want] == [("a", "s1"), ("a", "s3"), ("b", "s0"),
                                                      ("b", "s2")]
        assert rank(store.subset(keep), [1.0, 2.0]).entries == want

    def test_too_few_sources(self):
        ds = generate_synthetic(SyntheticSpec(
            label_count=2, source_count=1, rows_min=5, rows_max=8, seed=3))
        with pytest.raises(TooFewSources):
            run_benchmark(ds, "semantictyper")

    def test_embnum_requires_model(self, tiny_dataset):
        with pytest.raises(MissingModel):
            run_benchmark(tiny_dataset, "embnum")

    def test_dsl_accepts_or_fits_model(self):
        ds = generate_synthetic(SyntheticSpec(
            label_count=3, source_count=2, rows_min=5, rows_max=8, seed=4))
        fitted = run_benchmark(ds, "dsl")
        given = run_benchmark(ds, "dsl",
                              dsl_model=dsl_train(make_training_pairs(ds)))
        # the fallback fits on the same pairs, so the reports agree
        assert [pc.mean_mrr for pc in fitted.per_count] == [
            pc.mean_mrr for pc in given.per_count
        ]

    def test_desk_mrr_grows_with_labeled_sources(self, desk_reports):
        # adding labeled sources must not hurt retrieval beyond slack
        for report in desk_reports.values():
            mrrs = [pc.mean_mrr for pc in report.per_count]
            for prev, cur in zip(mrrs, mrrs[1:]):
                assert cur >= prev - 0.02

    def test_desk_report_counts(self, desk_reports):
        report = desk_reports["embnum"]
        assert report.total_experiments == expected_experiments(6)
        assert [pc.labeled_sources for pc in report.per_count] == [1, 2, 3, 4, 5]


class TestReportJson:
    def test_schema_and_round_trip(self, desk_reports):
        import json

        report = desk_reports["semantictyper"]
        text = report_to_json(report)
        doc = json.loads(text)
        assert set(doc) == {"method", "dataset_sha256", "per_count",
                            "total_experiments"}
        for pc in doc["per_count"]:
            assert set(pc) == {"labeled_sources", "mean_mrr", "mean_seconds",
                               "experiments"}
        assert report_from_json(text) == report


def test_overall_mrr_matches_the_benchmark_copy(desk_reports, monkeypatch):
    """perfbench keeps its own overall MRR; it must not drift from the report's."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # workloads imports its sibling pace
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    report = desk_reports["semantictyper"]
    uneven = dataclasses.replace(report, per_count=tuple(  # desk MRRs are all 1.0
        dataclasses.replace(pc, mean_mrr=1.0 / (pc.labeled_sources + 2))
        for pc in report.per_count))
    for report in [*desk_reports.values(), uneven]:
        assert report.overall_mrr == workloads.overall_mrr(report)


class TestStorePersistence:
    def test_embnum_round_trip(self, tiny_dataset, tiny_model, tmp_path):
        store = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        p = tmp_path / "store.bin"
        save_store(store, p)
        loaded = load_store(p)
        assert loaded.method == "embnum"
        assert model_to_bytes(loaded.model) == model_to_bytes(store.model)
        assert len(loaded.records) == len(store.records)
        for a, b in zip(store.records, loaded.records):
            assert (a.label, a.source) == (b.label, b.source)
            assert a.feature.tobytes() == b.feature.tobytes()

    def test_semantictyper_round_trip(self, tiny_dataset, tmp_path):
        store = index_labeled(tiny_dataset, "semantictyper")
        p = tmp_path / "store.bin"
        save_store(store, p)
        loaded = load_store(p)
        for a, b in zip(store.records, loaded.records):
            assert b.feature.dtype == np.float64
            assert np.array_equal(a.feature, b.feature)

    def test_dsl_round_trip_keeps_weights(self, tiny_dataset, tmp_path):
        dsl_model = LogisticModel(weights=np.array([1.5, -0.5, 2.0]), bias=0.25)
        store = index_labeled(tiny_dataset, "dsl", dsl_model=dsl_model)
        p = tmp_path / "store.bin"
        save_store(store, p)
        loaded = load_store(p)
        assert loaded.dsl_model.weights.tolist() == [1.5, -0.5, 2.0]
        assert loaded.dsl_model.bias == 0.25

    def test_corruption_detected(self, tiny_dataset, tmp_path):
        store = index_labeled(tiny_dataset, "semantictyper")
        p = tmp_path / "store.bin"
        save_store(store, p)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_store(p)

    def test_loaded_store_ranks_identically(self, tiny_dataset, tiny_model, tmp_path):
        store = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        p = tmp_path / "store.bin"
        save_store(store, p)
        loaded = load_store(p)
        q = tiny_dataset.attributes[0]
        assert rank(loaded, q).entries == rank(store, q).entries


    @pytest.mark.parametrize("method", ["semantictyper", "dsl"])
    @pytest.mark.parametrize("tied", [False, True])
    def test_loaded_statistical_store_ranks_like_pairwise_scoring(
            self, tiny_dataset, tmp_path, method, tied):
        ds = tiny_dataset
        if tied:  # whole numbers: heavy ties within and across columns
            ds = Dataset([
                NumericAttribute(values=np.round(a.values), label=a.label, source=a.source)
                for a in ds.attributes])
        dsl_model = LogisticModel(weights=np.array([1.5, -0.5, 2.0]), bias=0.25)
        store = index_labeled(ds, method, dsl_model=dsl_model)
        p = tmp_path / "store.bin"
        save_store(store, p)
        loaded = load_store(p)
        for q in ds.attributes:
            assert rank(loaded, q).entries == pairwise_ranking(store, q.values)

    @pytest.mark.parametrize("missing", ["method", "record_meta", "values"])
    def test_missing_manifest_key_is_malformed_store(self, tiny_dataset, tmp_path, missing):
        store = index_labeled(tiny_dataset, "semantictyper")
        p = tmp_path / "store.bin"
        save_store(store, p)
        manifest, arrays = _serial.unpack_framed(p.read_bytes(), STORE_MAGIC, STORE_VERSION)
        manifest.pop(missing, None)
        arrays.pop(missing, None)
        del manifest["arrays"]
        p.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        with pytest.raises(MalformedStore, match=missing):
            load_store(p)


    @pytest.mark.parametrize("method", METHODS)
    def test_record_count_must_match_the_arrays(self, tiny_dataset, tiny_model, tmp_path,
                                                method):
        dsl_model = LogisticModel(weights=np.array([1.5, -0.5, 2.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        p = tmp_path / "store.bin"
        save_store(store, p)
        manifest, arrays = _serial.unpack_framed(p.read_bytes(), STORE_MAGIC, STORE_VERSION)
        manifest["record_meta"].append({"label": "extra", "source": "s9", "rows": 1})
        del manifest["arrays"]
        p.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        with pytest.raises(MalformedStore):
            load_store(p)

    def test_file_layout(self, tiny_dataset, tiny_model, tmp_path):
        # one manifest: the model's checkpoint manifest and "model."-prefixed
        # arrays for embnum, one values array plus per-record row counts otherwise
        p = tmp_path / "store.bin"
        save_store(index_labeled(tiny_dataset, "embnum", model=tiny_model), p)
        manifest, arrays = _serial.unpack_framed(p.read_bytes(), STORE_MAGIC, STORE_VERSION)
        meta, state = model_frame(tiny_model)
        assert manifest["model"]["training_meta"] == meta["training_meta"]
        assert set(arrays) == {"embeddings"} | {f"model.{name}" for name in state}
        assert arrays["embeddings"].shape == (len(tiny_dataset.attributes), TINY.k)

        save_store(index_labeled(tiny_dataset, "semantictyper"), p)
        manifest, arrays = _serial.unpack_framed(p.read_bytes(), STORE_MAGIC, STORE_VERSION)
        assert set(arrays) == {"values"}
        assert [m["rows"] for m in manifest["record_meta"]] == [
            a.values.size for a in tiny_dataset.attributes]
        assert np.array_equal(arrays["values"],
                              np.concatenate([a.values for a in tiny_dataset.attributes]))


class TestEmbeddingExport:
    def test_csv_shape_and_exact_values(self, tiny_dataset, tiny_model):
        text = export_embeddings_csv(tiny_model, tiny_dataset)
        lines = text.strip().split("\n")
        k = tiny_model.arch.k
        assert lines[0] == "label,source," + ",".join(f"e{i}" for i in range(k))
        assert len(lines) == 1 + len(tiny_dataset.attributes)
        keys = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
        assert keys == sorted(keys)
        # parsed floats reproduce the embeddings bit for bit
        from embnum.embnet import embed, preprocess

        first = lines[1].split(",")
        attr = next(a for a in tiny_dataset.attributes
                    if (a.label, a.source) == (first[0], first[1]))
        want = embed(tiny_model, preprocess(attr.values, tiny_model.arch))
        got = np.array([float(v) for v in first[2:]], dtype=np.float32)
        assert got.tobytes() == want.tobytes()
