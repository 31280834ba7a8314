import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from embnum.dataset import Dataset, NumericAttribute, generate_synthetic
from embnum.embnet import ArchConfig, build_model, distances, model_to_bytes, preprocess
from embnum.errors import (
    DegenerateBatch,
    InsufficientSamples,
    InvalidSpec,
    NonFiniteLoss,
)
from embnum.fixtures import desk_arch, desk_train_config, overlapping_spec
from embnum.labeling import rank, rank_of_first_correct, run_benchmark
from embnum.metric import (
    TrainConfig,
    history_to_csv,
    lr_at,
    mine_batch_hard,
    train,
    training_mrr,
)
import embnum.embnet as embnet_mod
import embnum.labeling as labeling_mod
import embnum.metric as metric_mod
from embnum.nn import ops
from oracles import (conv1d_reference, distance_oracle, distances_reference,
                     maxpool1d_reference, parse_history_csv, relu_reference,
                     sample_unique_reference, store_of, training_mrr_reference)

TINY_ARCH = ArchConfig(h=16, k=8, stem_channels=4)
TINY_CFG = TrainConfig(epochs=2, batch_labels=2, samples_per_label=2, seed=0)
QUARTER_GRID = st.integers(-20, 20).map(lambda v: v / 4)
COORDS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1e200])


def tiny_training_set(labels=4, sources=3, seed=0) -> Dataset:
    from embnum.dataset import SyntheticSpec

    return generate_synthetic(SyntheticSpec(
        label_count=labels, source_count=sources,
        rows_min=8, rows_max=12, seed=seed,
    ))


class TestDistances:
    def test_euclidean_hand_cases(self):
        got = distances(np.array([[3.0, 4.0], [2.0, 2.0], [0.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert got.tolist() == [[5.0, np.sqrt(8.0), 0.0]]
        assert distances(np.array([[1.0, 0.0]]),
                         np.array([[0.0, 1.0]]))[0, 0] == pytest.approx(np.sqrt(2))
        assert distances(np.array([[2.0]]), np.array([[2.0]])).tolist() == [[0.0]]

    def test_pairwise_matches_pointwise(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((5, 3))
        d = distances(e, e)
        assert d.shape == (5, 5)
        assert d.tobytes() == np.concatenate([distances(e, e[i : i + 1])
                                              for i in range(5)]).tobytes()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for i in range(5):
            for j in range(5):
                assert d[i, j] == pytest.approx(distance_oracle(e[i], e[j]))

    def test_a_query_block_gives_one_row_per_query(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
        assert distances(points, np.zeros((0, 2))).shape == (0, 2)
        got = distances(points, [[0.0, 4.0], [3.0, 0.0]])
        assert got.tolist() == [[4.0, 3.0], [3.0, 4.0]]

    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        st.lists(st.lists(COORDS, min_size=k, max_size=k), max_size=6),
        st.lists(st.lists(COORDS, min_size=k, max_size=k), max_size=6),
        st.just(k))), st.floats(0.0, 4.0))
    @settings(max_examples=300, deadline=None)
    @example(([], [[1.0] * 3] * 2, 3), 0.5)  # no points: (2, 0)
    @example(([[1.0] * 3] * 4, [], 3), 2.0)  # no queries: (0, 4)
    def test_blocks_equal_the_row_at_a_time_distances(self, case, rows):
        # few distinct coordinates, so points tie and queries equal points;
        # 1e200 gives inf distances; either side may hold no rows
        points, queries, k = case
        points = np.array(points, dtype=np.float64).reshape(-1, k)
        queries = np.array(queries, dtype=np.float64).reshape(-1, k)
        # a budget from below one row's n * k differences up to four rows
        budget = max(1, int(rows * points.size))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embnet_mod, "DISTANCE_BUDGET", budget)
            got = distances(points, queries)
        want = distances_reference(points, queries)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestMining:
    def test_two_cluster_example(self):
        emb = np.array([[0.0], [0.1], [1.0], [1.05]])
        labels = ["A", "A", "B", "B"]
        anchors, positives, negatives = mine_batch_hard(emb, labels)
        assert anchors.tolist() == [0, 1, 2, 3]
        assert positives.tolist() == [1, 0, 3, 2]
        # hardest negative is the nearest other-label point
        assert negatives.tolist() == [2, 2, 1, 1]

    def test_all_same_label_degenerate(self):
        with pytest.raises(DegenerateBatch):
            mine_batch_hard(np.zeros((3, 2)), ["A", "A", "A"])

    def test_all_distinct_labels_degenerate(self):
        with pytest.raises(DegenerateBatch):
            mine_batch_hard(np.zeros((3, 2)), ["A", "B", "C"])

    def test_equidistant_negatives_take_lowest_index(self):
        emb = np.array([[0.0], [0.0], [-1.0], [1.0]])
        anchors, _, negatives = mine_batch_hard(emb, ["A", "A", "B", "C"])
        a0 = anchors.tolist().index(0)
        assert negatives[a0] == 2

    def test_tied_positives_take_lowest_index(self):
        emb = np.array([[0.0], [0.0], [0.0], [5.0]])
        anchors, positives, _ = mine_batch_hard(emb, ["A", "A", "A", "B"])
        a0 = anchors.tolist().index(0)
        assert positives[a0] == 1

    def test_infinite_distances_keep_the_masks(self):
        # 1e200 squared overflows, so every distance to row 2 is inf
        _, positives, negatives = mine_batch_hard([[0.0], [0.0], [1e200]], ["A", "A", "B"])
        assert positives.tolist() == [1, 0]
        assert negatives.tolist() == [2, 2]

    def test_labels_keep_trailing_nuls(self):
        # "a" and "a\0" are two labels, as every store keeps them
        with pytest.raises(DegenerateBatch):
            mine_batch_hard([[0.0], [1.0], [5.0]], ["a", "a\0", "b"])
        anchors, _, _ = mine_batch_hard([[0.0], [1.0], [5.0], [6.0]], ["a", "a\0", "b", "b"])
        assert anchors.tolist() == [2, 3]

    def test_singleton_label_is_skipped_not_fatal(self):
        emb = np.array([[0.0], [0.2], [9.0]])
        anchors, _, _ = mine_batch_hard(emb, ["A", "A", "B"])
        # index 2 has no positive, so only the two A rows anchor
        assert anchors.tolist() == [0, 1]

    # Points lie on a quarter grid in [-5, 5]: every difference and square is
    # exact there, so math.dist and the sum of squares round each distance
    # to the same bits and a tie is a tie in both.  Off the grid they differ
    # in the last bit, and below 1e-154 the squares underflow to 0.
    @given(
        st.integers(3, 7).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(QUARTER_GRID, QUARTER_GRID), min_size=n, max_size=n),
                st.lists(st.sampled_from("ABC"), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, case):
        points, labels = case
        emb = np.array(points)
        lab = np.array(labels)
        n = len(lab)
        dist = [[distance_oracle(p, q) for q in emb] for p in emb]
        expected = []
        for i in range(n):
            pos = [j for j in range(n) if j != i and lab[j] == lab[i]]
            neg = [j for j in range(n) if lab[j] != lab[i]]
            if not pos or not neg:
                continue
            hardest_pos = max(pos, key=lambda j: (dist[i][j], -j))
            hardest_neg = min(neg, key=lambda j: (dist[i][j], j))
            expected.append((i, hardest_pos, hardest_neg))
        assume(expected)
        got = list(zip(*(rows.tolist() for rows in mine_batch_hard(emb, lab))))
        assert got == expected


class TestTrainingMrr:
    def test_perfectly_separated(self):
        emb = np.array([[0.0], [0.01], [5.0], [5.01]])
        assert training_mrr(emb, ["A", "A", "B", "B"]) == 1.0

    def test_interleaved_hand_case(self):
        emb = np.array([[0.0], [1.0], [2.0]])
        # A's nearest is B (rank-2 hit each side); B has no same-label match
        assert training_mrr(emb, ["A", "B", "A"]) == pytest.approx(1.0 / 3.0)

    def test_singleton_label_scores_zero(self):
        emb = np.array([[0.0], [9.0]])
        assert training_mrr(emb, ["A", "B"]) == 0.0

    def test_labels_keep_trailing_nuls(self):
        # no row has another of its label once "a\0" differs from "a"
        assert training_mrr([[0.0], [1.0], [5.0]], ["a", "a\0", "b"]) == 0.0

    def test_distance_ties_break_by_label(self):
        emb = np.array([[0.0], [1.0], [-1.0]])
        # row 0 is 1 away from B and from A; A ranks first, as labeling ranks it
        assert training_mrr(emb, ["A", "B", "A"]) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("emb, labels, rr", [
        ([[0.0]], ["A"], [0.0]),  # one row: nothing else to rank
        ([[0.0], [0.0], [0.0]], ["A", "B", "A"], [1.0, 0.0, 1.0]),  # B ties self at 0
        ([[0.0], [1e200], [-1e200]], ["A", "B", "A"], [1.0, 0.0, 1.0]),  # and at inf
    ], ids=["one-row", "ties-at-zero", "ties-at-inf"])
    def test_a_row_whose_only_record_of_its_label_is_itself_scores_zero(self, emb, labels, rr):
        assert training_mrr(emb, labels) == np.mean(rr)

    def test_infinite_distances_never_rank_the_query_itself(self):
        # every distance is inf; no row has another of its label
        assert training_mrr([[0.0], [1e200], [-1e200]], ["B", "A", "C"]) == 0.0

    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         min_size=n, max_size=n),
                st.lists(st.sampled_from("ABC"), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_rank_with_own_record_left_out(self, case):
        points, labels = case
        emb = np.array(points, dtype=np.float32)  # a small grid, so distances tie often
        model = build_model(TINY_ARCH, seed=0)
        rr = []
        with pytest.MonkeyPatch.context() as mp:
            # plant the embeddings: each query and record is its own point
            mp.setattr(labeling_mod, "preprocess",
                       lambda columns, arch: np.asarray(columns, dtype=np.float32))
            mp.setattr(labeling_mod, "embed",
                       lambda model, x: np.asarray(x, dtype=np.float32))
            for i, label in enumerate(labels):
                store = store_of("embnum", [(labels[j], f"s{j}", emb[j])
                                            for j in range(len(labels)) if j != i], model=model)
                first = rank_of_first_correct(rank(store, emb[i]), label)
                rr.append(1.0 / first if first else 0.0)
        assert training_mrr(emb, labels) == np.mean(rr)

    @given(
        st.integers(1, 4),
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 1e200]),
                                   st.sampled_from([-1.0, 0.0, 0.5])),
                         min_size=n, max_size=n),
                st.lists(st.sampled_from("ABCDE"), min_size=n, max_size=n),
            )
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_equal_the_row_at_a_time_ranking(self, block, case):
        # few distinct points, so duplicates tie with self at distance 0;
        # 1e200 gives inf distances; five labels over few rows leave singletons
        points, labels = case
        emb = np.array(points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embnet_mod, "DISTANCE_BUDGET", block * len(emb))  # `block` rows a block
            got = training_mrr(emb, labels)
        assert got.hex() == training_mrr_reference(emb, labels).hex()

    def test_rows_past_one_block_equal_the_row_at_a_time_ranking(self):
        rng = np.random.default_rng(3)
        n = 2 * 256 + 3
        emb = np.round(rng.standard_normal((n, 2)) * 2) / 2  # duplicates on a grid
        labels = [f"l{i}" for i in rng.integers(0, n // 3, size=n)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embnet_mod, "DISTANCE_BUDGET", 256 * n)  # blocks of 256 rows
            got = training_mrr(emb, labels)
        assert got.hex() == training_mrr_reference(emb, labels).hex()

    def test_memory_grows_with_rows_not_pairs(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((600, 100))
        labels = [f"l{i % 60}" for i in range(600)]
        tracemalloc.start()
        try:
            training_mrr(emb, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.0f} MB"


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_labels, cfg.samples_per_label, cfg.seed) == (100, 8, 4, 0)
        assert (metric_mod.ALPHA, metric_mod.LR0, metric_mod.LR_STEP) == (0.2, 0.01, 10)
        assert (metric_mod.LR_DECAY, metric_mod.MOMENTUM, metric_mod.WEIGHT_DECAY) == (0.1, 0.9, 1e-5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_labels": 1},
            {"batch_labels": 0},
            {"samples_per_label": 1},
            {"samples_per_label": 0},
            {"epochs": 0},
            {"epochs": -1},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidSpec):
            TrainConfig(**kwargs)

    def test_lr_schedule_steps_at_boundaries(self):
        assert lr_at(0) == 0.01
        assert lr_at(9) == 0.01
        assert lr_at(10) == pytest.approx(0.001)
        assert lr_at(19) == pytest.approx(0.001)
        assert lr_at(20) == pytest.approx(0.0001)


class TestTrainValidation:
    def test_too_few_labels(self):
        ds = Dataset([
            NumericAttribute(values=[1.0], label="x", source="s0"),
            NumericAttribute(values=[2.0], label="x", source="s1"),
        ])
        with pytest.raises(InsufficientSamples):
            train(ds, TINY_ARCH, TINY_CFG)

    def test_thin_label_rejected(self):
        ds = Dataset([
            NumericAttribute(values=[1.0], label="x", source="s0"),
            NumericAttribute(values=[2.0], label="x", source="s1"),
            NumericAttribute(values=[3.0], label="y", source="s0"),
        ])
        with pytest.raises(InsufficientSamples) as exc:
            train(ds, TINY_ARCH, TINY_CFG)
        assert "y" in str(exc.value)


class TestTrainLoop:
    def test_history_shape_and_schedule(self):
        ds = tiny_training_set()
        model, history = train(ds, TINY_ARCH, TINY_CFG)
        assert len(history) == TINY_CFG.epochs
        for epoch, row in enumerate(history):
            assert row["epoch"] == epoch
            assert np.isfinite(row["mean_loss"])
            assert 0.0 <= row["train_mrr"] <= 1.0
            assert row["lr"] == lr_at(epoch)

    def test_deterministic_rerun(self):
        ds = tiny_training_set()
        m1, h1 = train(ds, TINY_ARCH, TINY_CFG)
        m2, h2 = train(ds, TINY_ARCH, TINY_CFG)
        assert h1 == h2
        assert model_to_bytes(m1) == model_to_bytes(m2)

    def test_desk_training_matches_the_reference_ops_bytewise(self, desk_dataset,
                                                              monkeypatch):
        """Three desk epochs give the same checkpoint and history bytes with
        the np.pad / sliding_window_view ops and the np.unique sampler."""
        cfg = replace(desk_train_config(), epochs=3)
        runs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(ops, "conv1d", conv1d_reference)
                monkeypatch.setattr(ops, "maxpool1d", maxpool1d_reference)
                monkeypatch.setattr(ops, "relu", relu_reference)
                monkeypatch.setattr(embnet_mod, "sample_inverse_transform",
                                    lambda columns, h: np.stack([sample_unique_reference(c, h)
                                                                 for c in columns]))
            model, history = train(desk_dataset, desk_arch(), cfg)
            runs.append((model_to_bytes(model), history_to_csv(history)))
        assert runs[0] == runs[1]

    def test_returned_model_is_earliest_best(self):
        ds = tiny_training_set()
        cfg = TrainConfig(epochs=3, batch_labels=2, samples_per_label=2, seed=1)
        model, history = train(ds, TINY_ARCH, cfg)
        mrrs = [row["train_mrr"] for row in history]
        best_epoch = int(np.argmax(mrrs))  # argmax keeps the earliest max
        assert model.training_meta["best_mrr"] == mrrs[best_epoch]
        assert model.training_meta["epochs_seen"] == best_epoch + 1

    def test_returned_model_reproduces_best_mrr(self):
        ds = tiny_training_set()
        model, history = train(ds, TINY_ARCH, TINY_CFG)
        vectors = preprocess([a.values for a in ds.attributes], TINY_ARCH)
        labels = [a.label for a in ds.attributes]
        from embnum.embnet import embed

        got = training_mrr(embed(model, vectors), labels)
        assert got == model.training_meta["best_mrr"]

    def test_non_finite_model_raises(self, monkeypatch):
        ds = tiny_training_set()

        def poisoned(arch, seed):
            model = build_model(arch, seed)
            model.net.fc.bias.data[:] = np.nan  # no relu after fc to launder it
            return model

        monkeypatch.setattr(metric_mod, "build_model", poisoned)
        with pytest.raises(NonFiniteLoss):
            train(ds, TINY_ARCH, TINY_CFG)


class TestHistoryCsv:
    def test_round_trip_is_exact(self):
        history = [
            {"epoch": 0, "mean_loss": 0.123456789012345, "train_mrr": 1 / 3, "lr": 0.01},
            {"epoch": 1, "mean_loss": 0.0, "train_mrr": 1.0, "lr": 0.001},
        ]
        text = history_to_csv(history)
        assert text.splitlines()[0] == "epoch,mean_loss,train_mrr,lr"
        assert parse_history_csv(text) == history


@pytest.fixture(scope="module")
def overlapping():
    """A dataset whose label distributions genuinely overlap, so the
    untrained network cannot already separate them."""
    dataset = generate_synthetic(overlapping_spec())
    trained, _ = train(dataset, desk_arch(), desk_train_config())
    untrained = build_model(desk_arch(), seed=desk_train_config().seed)
    return dataset, trained, untrained


class TestTrainingImprovesRetrieval:
    def test_trained_beats_untrained_at_every_count(self, overlapping):
        dataset, trained, untrained = overlapping
        before = run_benchmark(dataset, "embnum", model=untrained)
        after = run_benchmark(dataset, "embnum", model=trained)
        for b, a in zip(before.per_count, after.per_count):
            assert a.mean_mrr >= b.mean_mrr + 0.05, (
                f"count {a.labeled_sources}: trained {a.mean_mrr:.4f} "
                f"vs untrained {b.mean_mrr:.4f}"
            )

    def test_in_sample_retrieval_improves(self, overlapping):
        dataset, trained, untrained = overlapping
        arch = trained.arch
        from embnum.embnet import embed

        vectors = preprocess([a.values for a in dataset.attributes], arch)
        labels = [a.label for a in dataset.attributes]
        before = training_mrr(embed(untrained, vectors), labels)
        after = training_mrr(embed(trained, vectors), labels)
        assert after >= before + 0.05
