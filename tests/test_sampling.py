import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embnum.errors import EmptyInput, InvalidWidth, ProbabilityOutOfRange
from embnum.sampling import (
    empirical_cdf,
    inverse_cdf,
    sample_inverse_transform,
    sample_random_choice,
)
from oracles import cum_prob, inverse_transform_oracle

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_floats, min_size=1, max_size=60)
widths = st.integers(min_value=1, max_value=50)


class TestFrozenExamples:
    def test_step_boundaries_hit_exactly(self):
        out = sample_inverse_transform([1.0, 2.0, 2.0, 3.0], 4)
        assert out.tolist() == [1.0, 2.0, 2.0, 3.0]

    def test_skewed_duplicates(self):
        out = sample_inverse_transform([1.0, 1.0, 1.0, 9.0], 4)
        assert out.tolist() == [1.0, 1.0, 1.0, 9.0]

    def test_inverse_cdf_on_and_past_a_step(self):
        cdf = empirical_cdf([1.0, 2.0, 2.0, 3.0])
        assert inverse_cdf(cdf, 0.75) == 2.0
        assert inverse_cdf(cdf, 0.76) == 3.0
        assert inverse_cdf(cdf, 1.0) == 3.0

    def test_single_value_column(self):
        out = sample_inverse_transform([7.5], 5)
        assert out.tolist() == [7.5] * 5

    def test_width_one_returns_maximum(self):
        assert sample_inverse_transform([3.0, -2.0, 11.0], 1).tolist() == [11.0]

    def test_upsampling_shorter_column(self):
        out = sample_inverse_transform([10.0, 20.0], 4)
        assert out.tolist() == [10.0, 10.0, 20.0, 20.0]


class TestCdfTable:
    def test_cumulative_counts_end_at_n(self):
        cdf = empirical_cdf([5.0, 1.0, 5.0, 2.0])
        assert cdf.support.tolist() == [1.0, 2.0, 5.0]
        assert cdf.cum_count.tolist() == [1, 2, 4]
        assert cdf.n == 4
        assert cum_prob(cdf).tolist() == [0.25, 0.5, 1.0]


class TestErrors:
    @pytest.mark.parametrize("h", [0, -1, 2.5, "3"])
    def test_bad_width(self, h):
        with pytest.raises(InvalidWidth):
            sample_inverse_transform([1.0], h)

    def test_empty_values(self):
        with pytest.raises(EmptyInput):
            sample_inverse_transform([], 4)

    def test_non_finite_values(self):
        with pytest.raises(EmptyInput):
            sample_inverse_transform([1.0, float("nan")], 4)
        with pytest.raises(EmptyInput):
            empirical_cdf([float("inf")])

    @pytest.mark.parametrize("p", [0.0, -0.25, 1.0000001, 2.0])
    def test_probability_out_of_range(self, p):
        cdf = empirical_cdf([1.0, 2.0])
        with pytest.raises(ProbabilityOutOfRange):
            inverse_cdf(cdf, p)


class TestProperties:
    @given(value_lists, widths)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, values, h):
        got = sample_inverse_transform(values, h)
        assert got.tolist() == inverse_transform_oracle(values, h)

    @given(value_lists, widths)
    @settings(max_examples=100, deadline=None)
    def test_shape_order_and_membership(self, values, h):
        out = sample_inverse_transform(values, h)
        assert out.shape == (h,)
        assert np.all(np.diff(out) >= 0)
        assert set(out.tolist()) <= set(float(v) for v in values)
        assert out[-1] == max(values)

    @given(value_lists, widths, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values, h, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = sample_inverse_transform(values, h)
        b = sample_inverse_transform(shuffled, h)
        assert np.array_equal(a, b)

    @given(st.lists(finite_floats, min_size=1, max_size=40, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_width_n_on_distinct_values_is_sorted_identity(self, values):
        out = sample_inverse_transform(values, len(values))
        assert out.tolist() == sorted(values)

    @given(value_lists)
    @settings(max_examples=50, deadline=None)
    def test_inverse_cdf_agrees_with_vector_path(self, values):
        # h = 8 keeps every grid point i/8 exactly representable as a float
        h = 8
        cdf = empirical_cdf(values)
        vec = sample_inverse_transform(values, h)
        single = [inverse_cdf(cdf, (i + 1) / h) for i in range(h)]
        assert single == vec.tolist()


class TestRandomChoice:
    def test_seeded_determinism(self):
        values = list(range(100))
        a = sample_random_choice(values, 50, seed=3)
        b = sample_random_choice(values, 50, seed=3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        values = [float(v) for v in range(100)]
        a = sample_random_choice(values, 50, seed=1)
        b = sample_random_choice(values, 50, seed=2)
        assert not np.array_equal(a, b)

    @given(value_lists, widths)
    @settings(max_examples=50, deadline=None)
    def test_sorted_subset_of_inputs(self, values, h):
        out = sample_random_choice(values, h, seed=0)
        assert out.shape == (h,)
        assert np.all(np.diff(out) >= 0)
        assert set(out.tolist()) <= set(float(v) for v in values)

    def test_width_validation(self):
        with pytest.raises(InvalidWidth):
            sample_random_choice([1.0], 0, seed=0)
