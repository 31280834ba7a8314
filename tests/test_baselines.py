import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embnum.baselines import (
    LogisticModel,
    PackedColumns,
    dsl_model_to_doc,
    dsl_train,
    features_from_statistics,
    ks_statistic,
    load_dsl_model,
    make_training_pairs,
    mw_statistic,
    numeric_jaccard,
    pair_features,
    save_dsl_model,
)
from embnum import baselines, fixtures
from embnum.dataset import Dataset, NumericAttribute, generate_synthetic
from embnum.errors import EmptyInput, SingleClassTraining
from oracles import (dsl_logit, dsl_score, features_pairwise, jaccard_oracle,
                     jaccard_pairwise, ks_oracle, ks_pairwise, mw_oracle, mw_pairwise,
                     semantictyper_score)

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=30,
)
# duplicate-heavy samples exercise the tie handling
gridded = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=30)
# few distinct values, both signed zeros among them, so ties cross columns
signed = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.5])
# one repeated value: a single-point range
point = st.tuples(signed, st.integers(1, 4)).map(lambda vk: [vk[0]] * vk[1])
column = st.one_of(samples, gridded, point,
                   st.lists(signed, min_size=1, max_size=12))
# ragged stores; sizes from 1 upward
stores = st.lists(column, min_size=1, max_size=8)
weights = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=4)


def _other_zero(v: float) -> float:
    """The zero of the other sign for a zero, else v itself."""
    return -v if v == 0.0 else v


@st.composite
def ranged_batches(draw):
    """(store, queries): a batch of queries, and a store whose columns lie
    wholly below the first query's range, wholly above it, or on both sides
    with no value inside, tying its min and max (of either zero sign)."""
    queries = draw(st.lists(column, min_size=1, max_size=4))
    lo, hi = min(queries[0]), max(queries[0])
    below = st.lists(st.sampled_from([lo, _other_zero(lo), lo - 1.0, lo - 2.5]),
                     min_size=1, max_size=6)
    above = st.lists(st.sampled_from([hi, _other_zero(hi), hi + 1.0, hi + 2.5]),
                     min_size=1, max_size=6)
    around = st.tuples(below, above).map(lambda ba: ba[0] + ba[1])
    store = draw(st.lists(st.one_of(below, above, around, column), min_size=1, max_size=8))
    return store, queries


def same_bits(got, want) -> bool:
    """np.array_equal and more: equal float64 bit patterns, so even the sign
    of zero must agree."""
    want = np.asarray(want, dtype=np.float64)
    return got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestKolmogorovSmirnov:
    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_samples(self):
        assert ks_statistic([0.0, 1.0], [10.0, 11.0]) == 1.0

    def test_half_overlap(self):
        assert ks_statistic([1.0, 2.0], [1.0, 3.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            ks_statistic([], [1.0])

    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, a, b):
        assert ks_statistic(a, b) == pytest.approx(ks_oracle(a, b), abs=1e-12)

    @given(gridded, gridded)
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_with_heavy_ties(self, a, b):
        assert ks_statistic(a, b) == pytest.approx(ks_oracle(a, b), abs=1e-12)

    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_bounded_and_self_zero(self, a, b):
        d = ks_statistic(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ks_statistic(b, a)
        assert ks_statistic(a, a) == 0.0


class TestMannWhitney:
    def test_balanced(self):
        assert mw_statistic([1.0, 2.0], [1.0, 2.0]) == 0.5

    def test_all_below(self):
        assert mw_statistic([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_all_above(self):
        assert mw_statistic([5.0, 6.0], [0.0, 1.0]) == 0.0

    def test_ties_count_half(self):
        # a=1 vs b={1,2}: tie contributes 0.5, the win contributes 1
        assert mw_statistic([1.0], [1.0, 2.0]) == 0.75

    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, a, b):
        assert mw_statistic(a, b) == mw_oracle(a, b)

    @given(gridded, gridded)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry_is_exact_even_with_ties(self, a, b):
        assert mw_statistic(a, b) + mw_statistic(b, a) == 1.0

    @given(samples)
    @settings(max_examples=50, deadline=None)
    def test_self_comparison_is_half(self, a):
        assert mw_statistic(a, a) == 0.5


class TestNumericJaccard:
    def test_partial_overlap(self):
        assert numeric_jaccard([1.0, 5.0], [3.0, 7.0]) == pytest.approx(1.0 / 3.0)

    def test_identical_ranges(self):
        assert numeric_jaccard([1.0, 5.0], [5.0, 1.0]) == 1.0

    def test_disjoint_ranges(self):
        assert numeric_jaccard([0.0, 1.0], [2.0, 3.0]) == 0.0

    def test_single_point_rules(self):
        assert numeric_jaccard([2.0], [2.0, 2.0]) == 1.0
        assert numeric_jaccard([2.0], [3.0]) == 0.0

    def test_point_inside_interval_scores_zero_overlap_width(self):
        assert numeric_jaccard([2.0], [1.0, 3.0]) == 0.0

    def test_ranges_wider_than_the_float64_maximum(self):
        # the union's width overflows; the widths' ratio does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numeric_jaccard([-1e308, 1e308], [-1e308, 1e308]) == 1.0
            assert numeric_jaccard([-1e308, 0.0], [-1e308, 1e308]) == 0.5
            assert numeric_jaccard([-1e308, 0.0], [1e308]) == 0.0
        for a, b in [([-1e308, 1e308], [-1e308, 1e308]), ([-1e308, 0.0], [-1e308, 1e308])]:
            assert numeric_jaccard(a, b) == jaccard_oracle(a, b)

    def test_subnormal_bounds_keep_their_width(self):
        assert numeric_jaccard([0.0], [5e-324]) == 0.0
        assert numeric_jaccard([0.0, 5e-324], [5e-324, 1e-323]) == 0.0
        assert numeric_jaccard([0.0, 1e-323], [5e-324, 1e-323]) == 0.5

    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_matches_interval_oracle(self, a, b):
        assert numeric_jaccard(a, b) == pytest.approx(jaccard_oracle(a, b), abs=1e-12)

    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_bounded_self_one(self, a, b):
        j = numeric_jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == numeric_jaccard(b, a)
        assert numeric_jaccard(a, a) == 1.0


class TestPairFeatures:
    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_unit_cube_and_similarity_orientation(self, a, b):
        f = pair_features(a, b)
        assert f.shape == (3,)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        assert np.array_equal(pair_features(a, a), [1.0, 1.0, 1.0])

    def test_semantictyper_is_one_minus_ks(self):
        a, b = [1.0, 2.0], [1.0, 3.0]
        assert semantictyper_score(a, b) == 1.0 - ks_statistic(a, b)
        assert semantictyper_score(a, a) == 1.0


class TestPackedColumns:
    @given(stores, column)
    @settings(max_examples=300, deadline=None)
    def test_every_statistic_equals_the_pairwise_one(self, columns, query):
        got = PackedColumns(columns).statistics([query])
        for stat, fn in zip(got, (ks_pairwise, mw_pairwise, jaccard_pairwise)):
            assert same_bits(stat[0], [fn(query, c) for c in columns])

    @given(stores, column, weights)
    @settings(max_examples=200, deadline=None)
    def test_dsl_logits_equal_the_pairwise_logit(self, columns, query, wb):
        model = LogisticModel(weights=np.array(wb[:3]), bias=wb[3])
        stats = PackedColumns(columns).statistics([query])
        feats = features_from_statistics(*(s[0] for s in stats))
        want = [dsl_logit(model, query, c) for c in columns]
        assert same_bits(feats, [features_pairwise(query, c) for c in columns])
        assert same_bits(model.logits(feats), want)

    @given(stores, st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_taken_subset_holds_the_arrays_of_a_fresh_pack(self, columns, data):
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(columns),
                                           max_size=len(columns))))
        if not keep.any():
            keep[data.draw(st.integers(0, len(columns) - 1))] = True
        got = PackedColumns(columns)[keep]
        want = PackedColumns([c for c, k in zip(columns, keep) if k])
        for name in ("sizes", "starts", "values", "cdf"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    @given(stores, st.data())
    @settings(max_examples=200, deadline=None)
    def test_length_rows_and_mask_read_the_packed_arrays(self, columns, data):
        # a pack answers len, iteration and a mask as the embedding matrix
        # does; the mask slices sizes, values and CDF as they are stored
        pack = PackedColumns(columns)
        assert len(pack) == pack.sizes.size == len(columns)
        rows = list(pack)
        assert [r.size for r in rows] == pack.sizes.tolist()
        for row, c in zip(rows, columns):
            want = np.sort(np.asarray(c, dtype=np.float64))
            assert (row.dtype, row.tobytes()) == (want.dtype, want.tobytes())
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(columns),
                                           max_size=len(columns))))
        if not keep.any():
            keep[:] = True
        got = pack[keep]
        kept_rows = np.repeat(keep, pack.sizes)
        sizes = pack.sizes[keep]
        want = {"sizes": sizes, "starts": np.concatenate([[0], np.cumsum(sizes)[:-1]]),
                "values": pack.values[kept_rows], "cdf": pack.cdf[kept_rows]}
        assert len(got) == int(keep.sum())
        for name, b in want.items():
            a = getattr(got, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg-inf"])
    def test_non_finite_query_rejected(self, bad):
        pack, query = PackedColumns([[1.0, 2.0], [3.0]]), [0.5, bad, 2.0]
        for score in (lambda: pack.statistics([[1.0], query]),
                      lambda: ks_statistic(query, [1.0, 2.0]),
                      lambda: pair_features(query, [1.0, 2.0])):
            with pytest.raises(EmptyInput, match="^value list contains non-finite entries$"):
                score()

    @given(ranged_batches(), st.sampled_from([1, 3, 1 << 17]))
    @settings(max_examples=300, deadline=None)
    def test_every_row_of_a_batch_equals_the_pairwise_statistics(self, batch, chunk):
        columns, queries = batch
        pack = PackedColumns(columns)
        saved = baselines.SCORE_CHUNK
        baselines.SCORE_CHUNK = chunk   # 1 and 3 split runs across chunks
        try:
            got = pack.statistics(queries)
        finally:
            baselines.SCORE_CHUNK = saved
        for stat, fn in zip(got, (ks_pairwise, mw_pairwise, jaccard_pairwise)):
            assert stat.shape == (len(queries), len(columns))
            for row, query in zip(stat, queries):
                assert same_bits(row, [fn(query, c) for c in columns])
        for row, query in enumerate(queries):
            for stat, single in zip(got, pack.statistics([query])):
                assert same_bits(single[0], stat[row]) and single.shape == (1, len(columns))

    def test_hand_cases(self):
        ks, mw, jac = PackedColumns([[1.0, 2.0], [10.0, 11.0], [2.0]]).statistics([[1.0, 2.0]])
        assert ks.tolist() == [[0.0, 1.0, 0.5]]
        assert mw.tolist() == [[0.5, 1.0, 0.75]]
        assert jac.tolist() == [[1.0, 0.0, 0.0]]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            PackedColumns([[1.0], []])
        with pytest.raises(EmptyInput):
            PackedColumns([])
        with pytest.raises(EmptyInput):
            PackedColumns([[1.0]]).statistics([])


def separable_pairs():
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(20):
        base = rng.normal(0.0, 1.0, size=10)
        pairs.append(((base, base + rng.normal(0, 0.01, size=10)), True))
        pairs.append(((base, base + 50.0), False))
    return pairs


# dsl_model_to_doc(dsl_train(make_training_pairs(...))) on the frozen fixtures;
# neither the feature arithmetic nor the order of the pairs may move a bit
PINNED_DSL_DOCS = {
    "desk_spec": [3.2619040845960128, 3.4258238994891412, 2.037118503204196,
                  -5.213763887389984],
    "overlapping_spec": [0.4511343638393534, 0.41647789798199414, 2.8282044020860417,
                         -4.213753313553445],
}


class TestDslTraining:
    @pytest.mark.parametrize("spec", sorted(PINNED_DSL_DOCS))
    def test_frozen_fixture_weights_are_pinned(self, spec):
        ds = generate_synthetic(getattr(fixtures, spec)())
        assert dsl_model_to_doc(dsl_train(make_training_pairs(ds))) == PINNED_DSL_DOCS[spec]

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-300])
    def test_dsl_logits_sum_each_row_as_np_dot_does(self, scale):
        # labeling scores a whole block at once; each logit must keep the
        # bits of np.dot on its row alone, signs mixed and magnitudes spread
        rng = np.random.default_rng(3)
        model = LogisticModel(weights=rng.standard_normal(3),
                              bias=float(rng.standard_normal()) * scale)
        feats = rng.standard_normal((4096, 3)) * scale
        want = [np.dot(model.weights, row) + model.bias for row in feats]
        assert same_bits(model.logits(feats), want)

    def test_learns_separable_pairs(self):
        model = dsl_train(separable_pairs())
        for (a, b), same in separable_pairs():
            assert (dsl_score(model, a, b) > 0.5) == same

    def test_deterministic(self):
        m1 = dsl_train(separable_pairs())
        m2 = dsl_train(separable_pairs())
        assert m1.weights.tolist() == m2.weights.tolist()
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassTraining):
            dsl_train([])
        only_same = [(([1.0, 2.0], [1.0, 2.0]), True)]
        with pytest.raises(SingleClassTraining):
            dsl_train(only_same)

    def test_identical_attributes_score_above_half(self):
        model = dsl_train(separable_pairs())
        x = [3.0, 4.0, 5.0]
        assert dsl_score(model, x, x) > 0.5

    def test_logit_orders_like_probability(self):
        model = dsl_train(separable_pairs())
        near = dsl_logit(model, [1.0, 2.0], [1.0, 2.1])
        far = dsl_logit(model, [1.0, 2.0], [80.0, 90.0])
        assert near > far
        assert dsl_score(model, [1.0, 2.0], [1.0, 2.1]) > dsl_score(
            model, [1.0, 2.0], [80.0, 90.0]
        )


class TestDslSerialization:
    def test_round_trip_exact(self, tmp_path):
        model = dsl_train(separable_pairs())
        p = tmp_path / "dsl.json"
        save_dsl_model(model, p)
        loaded = load_dsl_model(p)
        assert loaded.weights.tolist() == model.weights.tolist()
        assert loaded.bias == model.bias

    def test_document_is_four_numbers(self, tmp_path):
        import json

        model = LogisticModel(weights=np.array([0.5, -1.5, 2.0]), bias=0.25)
        p = tmp_path / "dsl.json"
        save_dsl_model(model, p)
        doc = json.loads(p.read_text())
        assert doc == [0.5, -1.5, 2.0, 0.25]


class TestTrainingPairs:
    def test_counts_and_flags(self):
        attrs = [
            NumericAttribute(values=[1.0], label="x", source="s0"),
            NumericAttribute(values=[2.0], label="x", source="s1"),
            NumericAttribute(values=[3.0], label="y", source="s0"),
            NumericAttribute(values=[4.0], label="y", source="s1"),
        ]
        ds = Dataset(attrs)
        pairs = make_training_pairs(ds)
        assert len(pairs) == 6  # C(4, 2)
        assert sum(1 for _, same in pairs if same) == 2
