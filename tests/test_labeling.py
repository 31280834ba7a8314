import ast
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import embnum.labeling as labeling_mod
from embnum import _serial, sampling
from embnum.baselines import (LogisticModel, PackedColumns, dsl_model_to_doc, dsl_train,
                              make_training_pairs)
from embnum.dataset import Dataset, NumericAttribute, SyntheticSpec, generate_synthetic
from embnum.embnet import ArchConfig, build_model, model_frame, model_to_bytes
from embnum.fixtures import desk_arch, desk_train_config, overlapping_spec
from embnum.metric import history_to_csv, train
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
from oracles import (chunk_budget, count_experiments_oracle, dsl_logit, dsl_score,
                     ks_pairwise, mrr_oracle, report_from_json, store_of)

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
    return store_of(method, [("near", "s0", np.array([0.0, 1.0])),
                             ("far", "s0", np.array([10.0, 11.0]))], **kwargs)


class TestIndexing:
    def test_one_record_per_attribute(self, tiny_dataset, tiny_model):
        store = index_labeled(tiny_dataset, "embnum", model=tiny_model)
        assert len(store.records) == 20  # 5 labels x 4 sources
        for rec in store.records:
            assert rec.feature.shape == (TINY.k,)
            assert rec.feature.dtype == np.float32

    def test_baseline_store_keeps_raw_values(self, tiny_dataset):
        # each column's values, sorted ascending as the pack holds them
        store = index_labeled(tiny_dataset, "semantictyper")
        by_key = {(a.source, a.label): a for a in tiny_dataset.attributes}
        for rec in store.records:
            assert np.array_equal(rec.feature, np.sort(by_key[(rec.source, rec.label)].values))

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
            store_of("cosine", [])


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
                            lambda columns, arch: np.asarray(columns, dtype=np.float32))
        monkeypatch.setattr(labeling_mod, "embed",
                            lambda model, x: np.asarray(x, dtype=np.float32))
        store = store_of("embnum", [
            ("a", "s0", np.array([0.0], dtype=np.float32)),
            ("b", "s0", np.array([1.0], dtype=np.float32)),
        ], model=tiny_model)
        ranking = rank(store, np.array([0.2]))
        assert [e.label for e in ranking.entries] == ["a", "b"]
        assert ranking.entries[0].score == pytest.approx(0.2)
        assert ranking.entries[1].score == pytest.approx(0.8)

    def test_ties_break_by_label_then_source(self):
        vals = np.array([1.0, 2.0])
        store = store_of("semantictyper", [
            ("y2", "s1", vals),
            ("y1", "s9", vals),
            ("y1", "s0", vals),
        ])
        ranking = rank(store, vals)  # every record ties at KS = 0
        assert [(e.label, e.source) for e in ranking.entries] == [
            ("y1", "s0"), ("y1", "s9"), ("y2", "s1"),
        ]

    def test_single_record_store(self):
        store = store_of("semantictyper", [("x", "s0", np.array([1.0]))])
        ranking = rank(store, np.array([5.0]))
        assert len(ranking.entries) == 1

    def test_empty_store_rejected(self):
        # refused as it is built, so rank and label_queries never see one
        for method in METHODS:
            with pytest.raises(EmptyStore):
                store_of(method, [])

    def test_embnum_store_without_a_model_rejected(self):
        with pytest.raises(MissingModel):
            store_of("embnum", [("x", "s0", np.array([1.0], dtype=np.float32))])

    def test_dsl_store_without_weights_rejected(self):
        with pytest.raises(MissingModel):
            store_of("dsl", [("x", "s0", np.array([1.0]))])

    def test_labels_must_match_the_feature_rows(self):
        with pytest.raises(InvalidSpec, match="3 labels"):
            FeatureStore("semantictyper", np.array(["a", "b", "c"], dtype=object),
                         np.array(["s0", "s0", "s0"], dtype=object),
                         PackedColumns([[1.0], [2.0]]))

    def test_a_dsl_store_ranks_a_copy_of_a_range_wider_than_float64_first(self):
        wide = np.array([-1e308, 0.0, 1e308])   # its width overflows to inf
        store = store_of("dsl", [("narrow", "s0", np.array([0.0, 1.0, 2.0])),
                                 ("wide", "s1", wide)],
                         dsl_model=LogisticModel(weights=np.ones(3), bias=0.0))
        top = rank(store, wide).entries[0]
        assert (top.label, top.score) == ("wide", pytest.approx(1.0 / (1.0 + np.exp(-3.0))))

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
        # a store builds its tie and label codes, and its pack its CDF, once;
        # a store whose arrays are replaced must not see the old ones, whether
        # the count changes or not
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        records = list(store.records)
        query = tiny_dataset.attributes[0]
        rank(store, query)
        for replacement in (records[10:] + records[:10], records[3:4], records[5:12]):
            fresh = store_of(method, replacement, model=store.model, dsl_model=store.dsl_model)
            store = dataclasses.replace(store, labels=fresh.labels, sources=fresh.sources,
                                        features=fresh.features)
            assert rank(store, query).entries == rank(fresh, query).entries

    def test_records_cannot_be_reassigned(self):
        # the tie and label codes are derived from the arrays, so they are fixed
        store = two_record_store()
        rank(store, np.array([1.0]))
        for name in ("labels", "sources", "features", "records"):
            with pytest.raises(FrozenInstanceError):
                setattr(store, name, getattr(two_record_store(), name))

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
        store = store_of("semantictyper", [(label, "s0", np.array([1.0]))
                                           for label in ("y1", "y2", "y3")])
        ranking = RankingList(store, np.array([1, 0, 2]), np.array([0.9, 0.5, 0.1]))
        assert ranking.entries == (RankEntry("y2", "s0", 0.9), RankEntry("y1", "s0", 0.5),
                                   RankEntry("y3", "s0", 0.1))
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

    @pytest.mark.parametrize("per_block", [2, 3, 7])
    def test_batches_spanning_several_chunks_agree_with_rank(self, per_block):
        """A budget of a few queries' (query, record) pairs ranks the batch in
        blocks of several queries, each one statistics call; a full block
        gathers more than two scoring chunks' values, so chunks split blocks
        between their queries and inside one query's columns.  Every rank
        stays rank()'s at the default budget."""
        spec = SyntheticSpec(label_count=10, source_count=4, rows_min=50, rows_max=100, seed=1)
        dataset = generate_synthetic(spec)
        queries = generate_synthetic(dataclasses.replace(spec, seed=2)).attributes
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        columns = [np.sort(a.values) for a in dataset.attributes]
        gathered = [sum(min(r.searchsorted(q.values.max(), "right"), r.size - 1)
                        - max(r.searchsorted(q.values.min(), "left") - 1, 0) + 1
                        for r in columns) for q in queries]
        calls, statistics = [], PackedColumns.statistics

        def spy(pack, block):
            calls.append(len(block))
            return statistics(pack, block)

        for method in ("semantictyper", "dsl"):
            store = index_labeled(dataset, method, dsl_model=dsl_model)
            want = [rank_of_first_correct(rank(store, q), q.label) for q in queries]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampling, "CHUNK_BYTES",
                           chunk_budget("raw_pair", per_block, len(store.labels)))
                mp.setattr(PackedColumns, "statistics", spy)
                assert all(sum(gathered[lo : lo + per_block]) > 2 * sampling.per_chunk("score")
                           for lo in range(0, len(queries) - per_block + 1, per_block))
                calls.clear()
                result = label_queries(store, queries)
            assert calls == [len(queries[lo : lo + per_block])
                             for lo in range(0, len(queries), per_block)]
            assert result.ranks == want

    @pytest.mark.parametrize("method", METHODS)
    def test_a_tied_batch_follows_label_then_source(self, tiny_model, method, monkeypatch):
        """Every record ties for every query of the batch, so each query's
        order is the (label, source) tie-break alone, in label_queries as in
        rank."""
        if method == "embnum":  # plant 1-d embeddings, as in test_embedding_toy_ordering
            monkeypatch.setattr(labeling_mod, "preprocess",
                                lambda columns, arch: np.asarray(columns, dtype=np.float32))
            monkeypatch.setattr(labeling_mod, "embed",
                                lambda model, x: np.asarray(x, dtype=np.float32))
            feature = np.array([0.0], dtype=np.float32)
        else:
            feature = np.array([1.0, 2.0])
        names = [("b", "s1"), ("c", "s0"), ("a", "s2"), ("b", "s0"), ("a", "s1")]
        store = store_of(method, [(label, source, feature) for label, source in names],
                         model=tiny_model,
                         dsl_model=LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25))
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

    @pytest.mark.parametrize("method", ["semantictyper", "dsl"])
    def test_store_side_arrays_are_built_before_the_clock(self, tiny_dataset, tiny_model,
                                                          method, monkeypatch):
        """A fresh raw-value store's column CDF, which its pack builds on
        first use, is store construction, which the labeling time leaves out."""
        build = PackedColumns.cdf.func

        def slow(pack):
            time.sleep(0.2)
            return build(pack)

        cdf = cached_property(slow)
        cdf.__set_name__(PackedColumns, "cdf")
        monkeypatch.setattr(PackedColumns, "cdf", cdf)
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        t0 = time.perf_counter()
        result = label_queries(store, tiny_dataset.by_source("s0"))
        assert time.perf_counter() - t0 >= 0.2   # the slow build did run
        assert result.seconds < 0.2

    @pytest.mark.parametrize("method", ["semantictyper", "dsl"])
    def test_a_batch_peaks_within_the_budget(self, method, monkeypatch):
        """300 queries against 300 raw-value records: 90,000 pairs would take
        22 MB at the 256 bytes a pair that PackedColumns.statistics states.
        Ranked in blocks, a batch peaks within the budget for a block's pairs
        and as much again for statistics' own chunk of stored values, and
        ranks as the default budget's blocks of 109 queries do."""
        spec = SyntheticSpec(label_count=30, source_count=10, rows_min=50, rows_max=100,
                             seed=1)
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        store = index_labeled(generate_synthetic(spec), method, dsl_model=dsl_model)
        queries = generate_synthetic(dataclasses.replace(spec, seed=2)).attributes
        store.features.cdf   # store construction, outside the measured call
        whole = label_queries(store, queries)
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            result = label_queries(store, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.ranks) == len(queries) == len(store.labels) == 300
        assert result.ranks == whole.ranks and peak <= 2 * sampling.CHUNK_BYTES, peak

    def test_empty_inputs_rejected(self, tiny_dataset, tiny_model):
        store = index_labeled(tiny_dataset, "semantictyper")
        with pytest.raises(NoQueries):
            label_queries(store, [])
        with pytest.raises(EmptyStore):
            label_queries(store_of("semantictyper", []), tiny_dataset.by_source("s0"))


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
        # its own columns gives; sorting again packs the full store and then
        # every subset afresh
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
            return store_of(self.method, [r for r, k in zip(self.records, keep) if k],
                            self.model, self.dsl_model)

        monkeypatch.setattr(FeatureStore, "subset", fresh)
        sorted_again = run_benchmark(ds, method, dsl_model=dsl_model)
        assert len(packs) == 1 + 1 + sorted_again.total_experiments
        strip = lambda r: [(pc.labeled_sources, pc.mean_mrr, pc.experiments)
                           for pc in r.per_count]
        assert strip(sliced) == strip(sorted_again)

    def test_a_subset_breaks_ties_as_a_fresh_store(self):
        """Equal keys everywhere: the order is the tie-break alone, and a
        subset's tie keys give the order a fresh store's would."""
        names = [("b", "s2"), ("a", "s3"), ("c", "s0"), ("a", "s1"), ("b", "s0"), ("a", "s0")]
        store = store_of("semantictyper", [(label, source, np.array([1.0, 2.0]))
                                           for label, source in names])
        keep = np.array([True, True, False, True, True, False])
        fresh = store_of("semantictyper", [r for r, k in zip(store.records, keep) if k])
        want = rank(fresh, [1.0, 2.0]).entries
        assert [(e.label, e.source) for e in want] == [("a", "s1"), ("a", "s3"), ("b", "s0"),
                                                      ("b", "s2")]
        assert rank(store.subset(keep), [1.0, 2.0]).entries == want

    @pytest.mark.parametrize("method", METHODS)
    def test_every_source_subset_ranks_as_a_store_indexed_on_it(self, tiny_dataset,
                                                                 tiny_model, method):
        """A subset inherits its tie keys and label codes from the full store;
        under every non-empty source mask it must rank as index_labeled does
        on the same records.  Some labels are missing from some sources, so
        a mask drops whole labels; one source's columns copy another label's
        column of another source, so scores tie across labels; and the
        records run against (label, source) order, so only the tie keys
        can order a tie."""
        dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
        sources, labels = tiny_dataset.sources, tiny_dataset.labels
        column = {(a.label, a.source): a.values for a in tiny_dataset.attributes}
        attrs = []
        for a in reversed(tiny_dataset.attributes):
            i, j = sources.index(a.source), labels.index(a.label)
            if (i + j) % 3 == 0:
                continue
            if i == 1:
                a = dataclasses.replace(a, values=column[labels[(j + 1) % len(labels)], sources[0]])
            attrs.append(a)
        full = index_labeled(Dataset(attrs), method, model=tiny_model, dsl_model=dsl_model)
        queries = [dataclasses.replace(a, source="q") for a in attrs[::2]]
        for mask in range(1, 2 ** len(sources)):
            chosen = {s for i, s in enumerate(sources) if mask >> i & 1}
            kept = [a for a in attrs if a.source in chosen]
            sub = full.subset(np.array([a.source in chosen for a in attrs]))
            fresh = index_labeled(Dataset(kept), method, model=tiny_model, dsl_model=dsl_model)
            assert set(sub.label_codes[0]) == {a.label for a in kept}
            got, want = label_queries(sub, queries), label_queries(fresh, queries)
            assert (got.ranks, got.excluded) == (want.ranks, want.excluded)
            for q in queries:
                a, b = rank(sub, q), rank(fresh, q)
                assert a.order.tolist() == b.order.tolist()
                assert a.scores.tobytes() == b.scores.tobytes()
        with pytest.raises(EmptyStore):
            full.subset(np.zeros(len(attrs), dtype=bool))

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


    @pytest.mark.parametrize("method, edit, error", [
        *(pytest.param(m, "extra-record", MalformedStore, id=m) for m in METHODS),
        # a raw record of no values, its rows moved to the next: the arrays
        # still fit, but the record cannot be scored
        *(pytest.param(m, "zero-rows", MalformedStore, id=f"{m}-zero-rows")
          for m in ("semantictyper", "dsl")),
        # no records, and arrays of no rows to fit them
        *(pytest.param(m, "no-records", EmptyStore, id=f"{m}-no-records") for m in METHODS),
    ])
    def test_record_count_must_match_the_arrays(self, tiny_dataset, tiny_model, tmp_path,
                                                method, edit, error):
        dsl_model = LogisticModel(weights=np.array([1.5, -0.5, 2.0]), bias=0.25)
        store = index_labeled(tiny_dataset, method, model=tiny_model, dsl_model=dsl_model)
        p = tmp_path / "store.bin"
        save_store(store, p)
        manifest, arrays = _serial.unpack_framed(p.read_bytes(), STORE_MAGIC, STORE_VERSION)
        meta = manifest["record_meta"]
        if edit == "extra-record":
            meta.append({"label": "extra", "source": "s9", "rows": 1})
        elif edit == "zero-rows":
            meta[0]["rows"], meta[1]["rows"] = 0, meta[0]["rows"] + meta[1]["rows"]
        else:
            meta.clear()
            name = "embeddings" if method == "embnum" else "values"
            arrays[name] = arrays[name][:0]
        del manifest["arrays"]
        p.write_bytes(_serial.pack_framed(STORE_MAGIC, STORE_VERSION, manifest, arrays))
        with pytest.raises(error):
            load_store(p)

    @pytest.mark.parametrize("method", METHODS)
    def test_labels_and_sources_keep_every_character(self, tiny_model, tmp_path, method):
        # "a" and "a\0" are two labels, which a numpy str array would merge
        ds = Dataset([NumericAttribute(values=[1.0, 2.0], label="a", source="s0"),
                      NumericAttribute(values=[5.0, 9.0], label="a\0", source="s0\0")])
        dsl_model = LogisticModel(weights=np.array([1.5, -0.5, 2.0]), bias=0.25)
        store = index_labeled(ds, method, model=tiny_model, dsl_model=dsl_model)
        save_store(store, tmp_path / "store.bin")
        for s in (store, load_store(tmp_path / "store.bin")):
            top = rank(s, [5.0, 9.0]).entries[0]
            assert (top.label, top.source) == ("a\0", "s0\0")
            assert [(r.label, r.source) for r in s.records] == [("a", "s0"), ("a\0", "s0\0")]
            assert label_queries(s, ds.attributes[::-1]).ranks == [1, 1]

    def test_file_layout(self, tiny_dataset, tiny_model, tmp_path):
        # one manifest: the model's checkpoint manifest and "model."-prefixed
        # arrays for embnum, one values array plus per-record row counts
        # otherwise, each record's values sorted ascending
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
                              np.concatenate([np.sort(a.values) for a in tiny_dataset.attributes]))


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
        want = embed(tiny_model, preprocess([attr.values], tiny_model.arch))[0]
        got = np.array([float(v) for v in first[2:]], dtype=np.float32)
        assert got.tobytes() == want.tobytes()


def test_a_few_kib_budget_splits_every_site_with_the_same_output(monkeypatch):
    """With sampling.CHUNK_BYTES at 4 KiB every chunked pass splits at once:
    sampling passes of one column, scoring chunks of 62 gathered values,
    one desk-width row per embed chunk, distance blocks of one row, and
    training_mrr's and label_queries' blocks of one or a few rows.  Every output
    on the overlapping fixture must be the default budget's, bit for bit."""
    dataset = generate_synthetic(overlapping_spec())
    queries = dataset.by_source(dataset.sources[0])

    def outputs():
        model, history = train(dataset, desk_arch(),
                               dataclasses.replace(desk_train_config(), epochs=3))
        out = [model_to_bytes(model), history_to_csv(history),
               export_embeddings_csv(model, dataset)]
        for method in METHODS:
            store = index_labeled(dataset, method, model=model)
            out.append([(r.order.tobytes(), r.scores.tobytes())
                        for r in (rank(store, q) for q in dataset.attributes)])
            out.append(label_queries(store, queries).ranks)
            out.append([(pc.labeled_sources, pc.mean_mrr, pc.experiments) for pc in
                        run_benchmark(dataset, method, model=model).per_count])
        return out

    default = outputs()
    monkeypatch.setattr(sampling, "CHUNK_BYTES", 4 << 10)
    assert outputs() == default


def test_the_store_imports_nothing_from_the_trainer():
    """labeling must not depend on metric, so that training can later rank
    through labeling without an import cycle."""
    tree = ast.parse(Path(labeling_mod.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert [name for name in sorted(imported) if "metric" in name.split(".")] == []


def test_imports_load_only_the_modules_they_need():
    """In a fresh interpreter, the package root loads no submodule, and the
    store loads neither the trainer nor the CLI; the AST check above cannot
    see imports that the package root makes."""
    code = ("import json, sys, embnum\n"
            "root = sorted(m for m in sys.modules if m.startswith('embnum.'))\n"
            "import embnum.labeling\n"
            "print(json.dumps([root, 'embnum.metric' in sys.modules, 'embnum.cli' in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(Path(labeling_mod.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], False, False]
