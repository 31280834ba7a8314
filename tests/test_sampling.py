import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embnum.errors import EmptyInput, InvalidWidth
from embnum.sampling import MAX_H, sample_inverse_transform
from oracles import inverse_transform_oracle, sample_unique_reference

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_floats, min_size=1, max_size=60)
# signed zeros beside repeated values: == cannot tell -0.0 from 0.0
zero_heavy_lists = st.lists(
    st.sampled_from([-0.0, 0.0, -0.0, 0.0, 1.5, -2.0]) | finite_floats,
    min_size=1, max_size=60)
widths = st.integers(min_value=1, max_value=50)


class TestFrozenExamples:
    def test_step_boundaries_hit_exactly(self):
        out = sample_inverse_transform([1.0, 2.0, 2.0, 3.0], 4)
        assert out.tolist() == [1.0, 2.0, 2.0, 3.0]

    def test_skewed_duplicates(self):
        out = sample_inverse_transform([1.0, 1.0, 1.0, 9.0], 4)
        assert out.tolist() == [1.0, 1.0, 1.0, 9.0]

    def test_inverse_cdf_on_and_past_a_step(self):
        # F(2) = 3/4: grid point 75/100 lands on the step, 76/100 just past it
        out = sample_inverse_transform([1.0, 2.0, 2.0, 3.0], 100)
        assert (out[74], out[75], out[99]) == (2.0, 3.0, 3.0)

    def test_single_value_column(self):
        out = sample_inverse_transform([7.5], 5)
        assert out.tolist() == [7.5] * 5

    def test_width_one_returns_maximum(self):
        assert sample_inverse_transform([3.0, -2.0, 11.0], 1).tolist() == [11.0]

    def test_upsampling_shorter_column(self):
        out = sample_inverse_transform([10.0, 20.0], 4)
        assert out.tolist() == [10.0, 10.0, 20.0, 20.0]


class TestErrors:
    @pytest.mark.parametrize("h", [0, -1, 2.5, "3", MAX_H + 1, 10**9])
    def test_bad_width(self, h):
        with pytest.raises(InvalidWidth):
            sample_inverse_transform([1.0], h)

    def test_widest_grid(self):
        assert sample_inverse_transform([2.0, 1.0], MAX_H).tolist() == [1.0] * 2048 + [2.0] * 2048

    def test_empty_values(self):
        with pytest.raises(EmptyInput):
            sample_inverse_transform([], 4)

    def test_non_finite_values(self):
        # first, middle, last and alone: the sorted copy's ends decide, as
        # NaN and +inf sort last and -inf first
        for bad in (np.nan, -np.inf, np.inf):
            for column in ([bad, 2.0, -1.0, 0.5], [2.0, -1.0, bad, 0.5, 3.0],
                           [2.0, -1.0, 0.5, bad], [bad]):
                with pytest.raises(EmptyInput,
                                   match="^value list contains non-finite entries$"):
                    sample_inverse_transform(column, 4)


class TestProperties:
    @given(value_lists, widths)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, values, h):
        got = sample_inverse_transform(values, h)
        assert got.tolist() == inverse_transform_oracle(values, h)

    @given(zero_heavy_lists, widths)
    @settings(max_examples=300, deadline=None)
    @example([0.0, -0.0, 1.5, -0.0, 0.0], 50)  # h above the column length
    @example([-0.0, 0.0] * 20 + [1.5, -2.0, 0.0], 7)  # h below it
    def test_matches_unique_reference_bitwise(self, values, h):
        got = sample_inverse_transform(values, h)
        want = sample_unique_reference(values, h)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

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
