import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embnum import sampling
from embnum.baselines import PackedColumns
from embnum.errors import EmptyInput, InvalidWidth
from embnum.sampling import MAX_H, sample_inverse_transform
from oracles import chunk_budget, inverse_transform_oracle, sample_unique_reference

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
        out = sample_inverse_transform([[1.0, 2.0, 2.0, 3.0]], 4)[0]
        assert out.tolist() == [1.0, 2.0, 2.0, 3.0]

    def test_skewed_duplicates(self):
        out = sample_inverse_transform([[1.0, 1.0, 1.0, 9.0]], 4)[0]
        assert out.tolist() == [1.0, 1.0, 1.0, 9.0]

    def test_inverse_cdf_on_and_past_a_step(self):
        # F(2) = 3/4: grid point 75/100 lands on the step, 76/100 just past it
        out = sample_inverse_transform([[1.0, 2.0, 2.0, 3.0]], 100)[0]
        assert (out[74], out[75], out[99]) == (2.0, 3.0, 3.0)

    def test_single_value_column(self):
        out = sample_inverse_transform([[7.5]], 5)[0]
        assert out.tolist() == [7.5] * 5

    def test_width_one_returns_maximum(self):
        assert sample_inverse_transform([[3.0, -2.0, 11.0]], 1)[0].tolist() == [11.0]

    def test_upsampling_shorter_column(self):
        out = sample_inverse_transform([[10.0, 20.0]], 4)[0]
        assert out.tolist() == [10.0, 10.0, 20.0, 20.0]


class TestErrors:
    @pytest.mark.parametrize("h", [0, -1, 2.5, "3", True, MAX_H + 1, 10**9])
    def test_bad_width(self, h):
        with pytest.raises(InvalidWidth):
            sample_inverse_transform([[1.0]], h)

    def test_widest_grid(self):
        assert sample_inverse_transform([[2.0, 1.0]], MAX_H)[0].tolist() == [1.0] * 2048 + [2.0] * 2048

    def test_empty_values(self):
        with pytest.raises(EmptyInput):
            sample_inverse_transform([[]], 4)

    def test_empty_batch(self):
        with pytest.raises(EmptyInput, match="^no value lists to sample$"):
            sample_inverse_transform([], 4)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad, message", [
        ([], "value list is empty"), ([1.0, np.nan], "value list contains non-finite entries"),
        ([np.inf], "value list contains non-finite entries"),
        ([-np.inf, 0.0], "value list contains non-finite entries")])
    def test_a_bad_column_anywhere_in_a_batch(self, position, bad, message):
        batch = [[1.0, 2.0], [-0.0, 3.5, 0.0]]
        batch.insert(position, bad)
        with pytest.raises(EmptyInput, match=f"^{message}$"):
            sample_inverse_transform(batch, 4)

    def test_the_first_bad_column_names_the_error(self):
        with pytest.raises(EmptyInput, match="non-finite"):
            sample_inverse_transform([[1.0], [np.nan], []], 4)
        with pytest.raises(EmptyInput, match="empty"):
            sample_inverse_transform([[1.0], [], [np.nan]], 4)

    def test_non_finite_values(self):
        # first, middle, last and alone in the column
        for bad in (np.nan, -np.inf, np.inf):
            for column in ([bad, 2.0, -1.0, 0.5], [2.0, -1.0, bad, 0.5, 3.0],
                           [2.0, -1.0, 0.5, bad], [bad]):
                with pytest.raises(EmptyInput,
                                   match="^value list contains non-finite entries$"):
                    sample_inverse_transform([column], 4)


class TestProperties:
    @given(value_lists, widths)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, values, h):
        got = sample_inverse_transform([values], h)[0]
        assert got.tolist() == inverse_transform_oracle(values, h)

    @given(zero_heavy_lists, widths)
    @settings(max_examples=300, deadline=None)
    @example([0.0, -0.0, 1.5, -0.0, 0.0], 50)  # h above the column length
    @example([-0.0, 0.0] * 20 + [1.5, -2.0, 0.0], 7)  # h below it
    def test_matches_unique_reference_bitwise(self, values, h):
        got = sample_inverse_transform([values], h)[0]
        want = sample_unique_reference(values, h)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @given(st.lists(zero_heavy_lists | value_lists, min_size=1, max_size=6), widths,
           st.sampled_from([None, 3, 2, 1]))
    @settings(max_examples=200, deadline=None)
    # each column its own zero; a run of equal values never crosses a column
    @example([[0.0, -0.0], [-0.0, 0.0, 1.5], [-2.0]], 5, 1)
    @example([[-0.0], [0.0]], 3, 1)
    def test_each_row_of_a_batch_is_its_columns_own_sample(self, columns, h, passes):
        # a pass closes once it holds per_chunk("sample") bytes, 16 a listed
        # value and 17 * h a column: a 1-byte budget samples every column in
        # its own pass, and a budget of 1 / passes of the batch's bytes packs
        # its columns into at most that many passes
        held = sum(16 * len(c) + 17 * h for c in columns)
        budget = 1 if passes is None else chunk_budget("sample", -(-held // passes))
        with mock.patch.object(sampling, "CHUNK_BYTES", budget):
            got = sample_inverse_transform(columns, h)
        want = np.stack([sample_unique_reference(c, h) for c in columns])
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_a_batch_copies_a_chunk_at_a_time(self, monkeypatch):
        # 40 columns of 20,000 values: one copy of the batch would be 6.4 MB.
        # A pass closes past per_chunk("sample") bytes, so it may hold one
        # more column, and its finiteness check allocates a byte per value
        columns = list(np.random.default_rng(0).standard_normal((40, 20_000)))
        sample_inverse_transform(columns[:1], 100)
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 8 << 20)
        tracemalloc.start()
        try:
            out = sample_inverse_transform(columns, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = 8 * 20_000 + 17 * 100
        held = sampling.per_chunk("sample") + column
        bound = held + out.nbytes + held // 8
        assert 8 * 40 * 20_000 > bound and peak <= bound, peak

    def test_a_batch_of_lists_converts_a_pass_at_a_time(self, monkeypatch):
        # the same 40 columns as Python lists.  A value's float64 conversion
        # is alive only while its pass is sampled, beside the pass's sorted
        # copy, so a pass counts 16 bytes a value, and the peak stays within
        # the sample share, one more column, the output, and an eighth of
        # share and column for the finiteness mask and objects.  Converting
        # every list before the first pass peaked at 7.7 MB traced
        columns = np.random.default_rng(0).standard_normal((40, 20_000)).tolist()
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 8 << 20)
        tracemalloc.start()
        try:
            out = sample_inverse_transform(columns, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sampling.per_chunk("sample") + 16 * 20_000 + 17 * 100
        bound = held + out.nbytes + held // 8
        assert 8 * 40 * 20_000 > bound and peak <= bound, peak

    def test_one_array_is_a_batch_of_one(self):
        column = np.array([3.0, -0.0, 1.0, 0.0])
        got = sample_inverse_transform(column, 6)
        assert got.shape == (1, 6)
        assert got.tobytes() == sample_unique_reference(column, 6).tobytes()

    @pytest.mark.parametrize("pack", [lambda cols: sample_inverse_transform(cols, 5),
                                      PackedColumns], ids=["sample", "PackedColumns"])
    @pytest.mark.parametrize("make", [
        lambda: [np.array([3.0, -0.0, 1.0, 0.0, -2.0])],
        lambda: [np.array([2.0, 1.0]), np.array([9.0, -1.0, 4.0], dtype=np.float32),
                 np.arange(10.0)[::-3], np.array([5, 3, 4])],
        lambda: np.array([3.0, -0.0, 1.0, 0.0, -2.0])], ids=["one", "several", "bare-array"])
    def test_inputs_are_never_written(self, pack, make):
        # sort_columns sorts its packed copy in place, never an input: a
        # float64 contiguous column reaches it through np.asarray uncopied
        columns = make()
        arrays = [columns] if isinstance(columns, np.ndarray) else columns
        assert np.asarray(arrays[0], dtype=np.float64) is arrays[0]
        before = [a.tobytes() for a in arrays]
        pack(columns)
        assert [a.tobytes() for a in arrays] == before

    @given(value_lists, widths)
    @settings(max_examples=100, deadline=None)
    def test_shape_order_and_membership(self, values, h):
        out = sample_inverse_transform([values], h)[0]
        assert out.shape == (h,)
        assert np.all(np.diff(out) >= 0)
        assert set(out.tolist()) <= set(float(v) for v in values)
        assert out[-1] == max(values)

    @given(value_lists, widths, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values, h, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = sample_inverse_transform([values], h)[0]
        b = sample_inverse_transform([shuffled], h)[0]
        assert np.array_equal(a, b)

    @given(st.lists(finite_floats, min_size=1, max_size=40, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_width_n_on_distinct_values_is_sorted_identity(self, values):
        out = sample_inverse_transform([values], len(values))[0]
        assert out.tolist() == sorted(values)
