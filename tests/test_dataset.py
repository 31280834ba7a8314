import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from embnum.dataset import (
    Dataset,
    FamilySpec,
    NumericAttribute,
    SyntheticSpec,
    dataset_fingerprint,
    default_family_pool,
    format_values,
    generate_synthetic,
    load_attribute_csv,
    load_dataset,
    spec_from_json,
    split_half,
    write_dataset,
)
from embnum.errors import EmptyAttribute, InvalidSpec, MalformedValue, MissingDirectory
from oracles import format_value


def tiny_dataset() -> Dataset:
    attrs = [
        NumericAttribute(values=[1.0, 2.0], label="height", source="s0"),
        NumericAttribute(values=[3.5], label="weight", source="s0"),
        NumericAttribute(values=[2.0, 2.0, 9.0], label="height", source="s1"),
        NumericAttribute(values=[-4.25, 0.125], label="weight", source="s1"),
    ]
    return Dataset(attrs)


class TestNumericAttribute:
    def test_validates_on_construction(self):
        with pytest.raises(EmptyAttribute):
            NumericAttribute(values=[], label="a", source="s")
        with pytest.raises(MalformedValue):
            NumericAttribute(values=[1.0, float("nan")], label="a", source="s")
        with pytest.raises(MalformedValue):
            NumericAttribute(values=[1.0], label="", source="s")

    def test_equality_covers_values_and_identity(self):
        a = NumericAttribute(values=[1.0, 2.0], label="x", source="s")
        b = NumericAttribute(values=[1.0, 2.0], label="x", source="s")
        c = NumericAttribute(values=[1.0, 2.5], label="x", source="s")
        assert a == b
        assert a != c
        assert a != NumericAttribute(values=[1.0, 2.0], label="x", source="t")


class TestDatasetInvariants:
    def test_duplicate_source_label_rejected(self):
        a = NumericAttribute(values=[1.0], label="x", source="s")
        b = NumericAttribute(values=[2.0], label="x", source="s")
        with pytest.raises(MalformedValue):
            Dataset([a, b])

    def test_sources_and_labels_are_sorted_and_derived(self):
        d = Dataset(list(reversed(tiny_dataset().attributes)))
        assert d.sources == ["s0", "s1"]
        assert d.labels == ["height", "weight"]

    def test_equality_is_order_insensitive(self):
        d1 = tiny_dataset()
        d2 = Dataset(list(reversed(d1.attributes)))
        assert d1 == d2

    def test_by_source(self):
        d = tiny_dataset()
        got = d.by_source("s1")
        assert sorted(a.label for a in got) == ["height", "weight"]


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        d = tiny_dataset()
        write_dataset(d, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert loaded == d

    def test_the_sign_of_a_zero_survives(self, tmp_path):
        values = np.array([-0.0, 0.0, -0.0, 1.5, -2.0])
        d = Dataset([NumericAttribute(values=values, label="a", source="s")])
        loaded = load_dataset(write_dataset(d, tmp_path / "data")).attributes[0].values
        assert np.signbit(loaded).tolist() == np.signbit(values).tolist()
        assert loaded.tobytes() == values.tobytes()

    def test_layout_one_csv_per_attribute(self, tmp_path):
        write_dataset(tiny_dataset(), tmp_path / "data")
        files = sorted(p.relative_to(tmp_path / "data").as_posix()
                       for p in (tmp_path / "data").rglob("*.csv"))
        assert files == [
            "s0/height.csv", "s0/weight.csv", "s1/height.csv", "s1/weight.csv",
        ]

    @pytest.mark.parametrize("source, label", [
        ("../../out", "x"), ("s", "../esc"), ("s", "a/b"), ("s", "n\0ul"), (".", "x"),
        ("..", "x"), ("s", "."), ("s", ".."), ("a/b", "x"), ("n\0ul", "x"),
        pytest.param("s", "x" * 300, id="label-300-bytes"),
        pytest.param("s", "x" * 215, id="label-temp-name-256-bytes"),
        pytest.param("\u00e9" * 128, "x", id="source-256-bytes")])
    def test_a_name_the_layout_cannot_hold_is_refused_before_any_write(
            self, tmp_path, source, label):
        attrs = [*tiny_dataset().attributes,
                 NumericAttribute(values=[1.0], label=label, source=source)]
        with pytest.raises(MalformedValue, match="is not a file name"):
            write_dataset(Dataset(attrs), tmp_path / "deep" / "er" / "data")
        assert list(tmp_path.iterdir()) == []

    def test_odd_names_the_layout_can_hold_round_trip(self, tmp_path):
        names = [(".hid", "a.csv"), (" sp ", "x\\y"), ("x\\y", ".hid"), ("s", " sp "),
                 ("\u00e9" * 127 + "a", "x" * 214)]  # 255 bytes: the source, the label's temp file
        d = Dataset([NumericAttribute(values=[float(i)], label=label, source=source)
                     for i, (source, label) in enumerate(names)])
        assert load_dataset(write_dataset(d, tmp_path / "data")) == d

    def test_fingerprint_stable_under_attribute_order(self, tmp_path):
        d1 = tiny_dataset()
        d2 = Dataset(list(reversed(d1.attributes)))
        assert dataset_fingerprint(d1) == dataset_fingerprint(d2)

    def test_fingerprint_sensitive_to_values(self):
        d1 = tiny_dataset()
        attrs = [NumericAttribute(values=a.values.copy(), label=a.label, source=a.source)
                 for a in d1.attributes]
        attrs[0].values[0] += 1e-9
        d2 = Dataset(attrs)
        assert dataset_fingerprint(d1) != dataset_fingerprint(d2)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    @example([-0.0, 0.0])
    def test_format_value_parses_back_exactly(self, values):
        for v, text in zip(values, format_values(values)):
            assert np.float64(text).tobytes() == np.float64(v).tobytes()

    def test_format_value_prefers_integer_form(self):
        assert format_values([3.0, -17.0, 0.1, -0.0, 0.0]) == ["3", "-17", "0.1", "-0", "0"]

    @given(values=st.lists(st.one_of(
        st.floats(),
        st.integers(-2**60, 2**60).map(float),
        st.sampled_from([-0.0, 0.0, 2.0**53 + 1, 1e16, -1e16, np.nextafter(1e16, 0.0),
                         np.nextafter(-1e16, 0.0), np.nextafter(1e16, np.inf),
                         np.nextafter(-1e16, -np.inf)])), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_written_body_is_the_per_value_format(self, values, tmp_path_factory):
        """write_dataset's file body is the per-value oracle's, byte for byte."""
        want = "\n".join(map(format_value, values)) + "\n"
        assert "\n".join(format_values(values)) + "\n" == want
        if values and all(np.isfinite(values)):
            root = write_dataset(Dataset([NumericAttribute(values=values, label="a",
                                                           source="s")]),
                                 tmp_path_factory.mktemp("body"))
            assert (root / "s" / "a.csv").read_text() == want


class TestParsing:
    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingDirectory):
            load_dataset(tmp_path / "nope")

    def test_root_without_sources(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(MissingDirectory):
            load_dataset(tmp_path / "empty")

    def test_sources_without_files(self, tmp_path):
        (tmp_path / "d" / "s0").mkdir(parents=True)
        with pytest.raises(MissingDirectory):
            load_dataset(tmp_path / "d")

    def test_malformed_token_reports_path_and_line(self, tmp_path):
        src = tmp_path / "d" / "s0"
        src.mkdir(parents=True)
        (src / "x.csv").write_text("1.5\nbanana\n2.0\n")
        with pytest.raises(MalformedValue) as exc:
            load_dataset(tmp_path / "d")
        assert "x.csv:2" in str(exc.value)
        assert "banana" in str(exc.value)

    def test_non_finite_token_rejected(self, tmp_path):
        src = tmp_path / "d" / "s0"
        src.mkdir(parents=True)
        (src / "x.csv").write_text("inf\n")
        with pytest.raises(MalformedValue) as exc:
            load_dataset(tmp_path / "d")
        assert "x.csv:1" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        src = tmp_path / "d" / "s0"
        src.mkdir(parents=True)
        (src / "x.csv").write_text("\n1.5\n\n  \n2.5\n\n")
        d = load_dataset(tmp_path / "d")
        assert d.attributes[0].values.tolist() == [1.5, 2.5]

    def test_all_blank_file_is_empty_attribute(self, tmp_path):
        src = tmp_path / "d" / "s0"
        src.mkdir(parents=True)
        (src / "x.csv").write_text("\n\n")
        with pytest.raises(EmptyAttribute):
            load_dataset(tmp_path / "d")

    def test_scientific_notation_accepted(self, tmp_path):
        src = tmp_path / "d" / "s0"
        src.mkdir(parents=True)
        (src / "x.csv").write_text("1e3\n-2.5E-4\n+7.0\n")
        d = load_dataset(tmp_path / "d")
        assert d.attributes[0].values.tolist() == [1000.0, -0.00025, 7.0]

    def test_load_attribute_csv(self, tmp_path):
        p = tmp_path / "col.csv"
        p.write_text("4\n5\n")
        attr = load_attribute_csv(p)
        assert attr.values.tolist() == [4.0, 5.0]
        assert attr.label == "col"
        assert attr.source == "query"
        with pytest.raises(MissingDirectory):
            load_attribute_csv(tmp_path / "absent.csv")


def text_mode_values(data: bytes) -> list[float]:
    """The line loop's reading: text-mode lines, a leading byte-order mark
    dropped, stripped, blank ones skipped, float() per token; raises
    ValueError where it would fail."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    return [float(t) for t in (line.strip() for line in lines) if t]


tokens = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(format_value),
    st.sampled_from(["1_000", "1__0", "_1", "0x10", "1,5", "\u0661\u0662", "Infinity",
                     "-0", "1e400", "1e-400", "+.5", "5.", "nan", "\ufeff1", "1\x00",
                     " 7 ", "\t3\x0c", "1 2", "1\t2", "\u20281", "1\u20282", "1\x0b2",
                     "\x85", "\x1c", "", "  "]),
    st.text(alphabet="0123456789.eE+-_ \t\x0c\u2028", max_size=8),
)


@st.composite
def csv_bytes(draw):
    lines = draw(st.lists(tokens, max_size=12))
    text = "".join(t + draw(st.sampled_from(["\n", "\r", "\r\n"])) for t in lines)
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:   # now and then, bytes that are not UTF-8
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]
    return data


def load_bytes(tmp_path, data: bytes):
    p = tmp_path / "x.csv"
    p.write_bytes(data)
    return load_attribute_csv(p).values


class TestVectorizedParse:
    """load_attribute_csv's one-call parse accepts exactly the files the line
    loop accepts, with float()'s bits for every token."""

    @given(csv_bytes())
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_accepts_what_the_line_loop_accepts_with_float_bits(self, tmp_path, data):
        try:
            want = np.array(text_mode_values(data))
        except ValueError:   # UnicodeDecodeError included
            want = None
        if want is not None and not (want.size and np.isfinite(want).all()):
            want = None
        if want is None:
            with pytest.raises((MalformedValue, EmptyAttribute)):
                load_bytes(tmp_path, data)
        else:
            assert load_bytes(tmp_path, data).tobytes() == want.tobytes()

    def test_line_breaks_are_text_mode_ones(self, tmp_path):
        # \x0b, \x0c, \x1c and \u2028 end a line for str.splitlines, not here
        assert load_bytes(tmp_path, b"1\r2\r\n3\n\r\n4").tolist() == [1.0, 2.0, 3.0, 4.0]
        for sep in ("\x0b", "\x0c", "\x1c", "\u2028", " "):
            with pytest.raises(MalformedValue):
                load_bytes(tmp_path, f"1{sep}2\n".encode())

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # as spreadsheet programs write it; anywhere else it is not a number
        assert load_bytes(tmp_path, b"\xef\xbb\xbf1.5\r\n2\r\n").tolist() == [1.5, 2.0]
        with pytest.raises(MalformedValue, match=r"x.csv:2: not a number: '\\ufeff2'"):
            load_bytes(tmp_path, b"1.5\n\xef\xbb\xbf2\n")

    @pytest.mark.parametrize("text, line, message", [
        ("1.5\n2.5\n1 2\n", 3, "not a number: '1 2'"),
        ("1.5\r\n\r\nbanana\r\n", 3, "not a number: 'banana'"),
        ("1\r1\u20282\n", 2, "not a number: '1\\u20282'"),
        ("1e5\n  nan \n", 2, "non-finite value: 'nan'"),
    ])
    def test_a_failing_file_is_named_at_its_line(self, tmp_path, text, line, message):
        p = tmp_path / "x.csv"
        p.write_bytes(text.encode())
        with pytest.raises(MalformedValue) as exc:
            load_attribute_csv(p)
        assert str(exc.value) == f"{p}:{line}: {message}"

    def test_undecodable_and_empty_files_keep_their_messages(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"1\n\xff\n")
        with pytest.raises(MalformedValue) as exc:
            load_attribute_csv(p)
        assert str(exc.value) == (f"{p}: not UTF-8 text ('utf-8' codec can't decode byte "
                                  "0xff in position 2: invalid start byte)")
        p.write_bytes(b" \r\n\t\n")
        with pytest.raises(EmptyAttribute) as exc:
            load_attribute_csv(p)
        assert str(exc.value) == f"{p}: no parsable rows"


class TestSynthetic:
    def test_shape_and_names(self):
        spec = SyntheticSpec(label_count=3, source_count=2, rows_min=5,
                             rows_max=9, seed=1)
        d = generate_synthetic(spec)
        assert d.labels == ["y00", "y01", "y02"]
        assert d.sources == ["s0", "s1"]
        assert len(d.attributes) == 6
        for a in d.attributes:
            assert 5 <= a.values.size <= 9

    def test_determinism_and_seed_sensitivity(self):
        spec = SyntheticSpec(label_count=2, source_count=2, rows_min=4,
                             rows_max=4, seed=5)
        assert generate_synthetic(spec) == generate_synthetic(spec)
        other = SyntheticSpec(label_count=2, source_count=2, rows_min=4,
                              rows_max=4, seed=6)
        assert generate_synthetic(spec) != generate_synthetic(other)

    def test_default_pool_covers_labels(self):
        pool = default_family_pool(12)
        assert len(pool) == 12
        assert len({(f.family, f.location) for f in pool}) == 12

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(label_count=0, source_count=1, rows_min=1, rows_max=1)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(label_count=1, source_count=1, rows_min=5, rows_max=4)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(label_count=3, source_count=1, rows_min=1, rows_max=1,
                          family_pool=(FamilySpec(family="normal"),))
        with pytest.raises(InvalidSpec):
            FamilySpec(family="zeta")
        with pytest.raises(InvalidSpec):
            FamilySpec(family="normal", scale=0.0)

    @pytest.mark.parametrize("scale", [1e18, 1e300, float("inf")])
    def test_counts_mean_stays_drawable(self, scale):
        FamilySpec(family="normal", scale=scale)
        FamilySpec(family="counts", scale=1e17)
        with pytest.raises(InvalidSpec):
            FamilySpec(family="counts", scale=scale)

    def test_spec_from_json_round_trip(self):
        text = """
        {"label_count": 2, "source_count": 3, "rows_min": 4, "rows_max": 8,
         "seed": 9,
         "family_pool": [{"family": "normal", "scale": 2.0},
                          {"family": "uniform", "location": 5.0}]}
        """
        spec = spec_from_json(text)
        assert spec.label_count == 2
        assert spec.source_count == 3
        assert spec.seed == 9
        assert spec.family_pool[0] == FamilySpec(family="normal", scale=2.0)
        assert spec.family_pool[1].location == 5.0

    def test_spec_from_json_errors(self):
        with pytest.raises(InvalidSpec):
            spec_from_json("not json")
        with pytest.raises(InvalidSpec):
            spec_from_json("[1,2]")
        with pytest.raises(InvalidSpec):
            spec_from_json('{"label_count": 1}')
        with pytest.raises(InvalidSpec):
            spec_from_json(
                '{"label_count": 1, "source_count": 1, "rows_min": 1,'
                ' "rows_max": 1, "family_pool": [{"famly": "normal"}]}'
            )


class TestSplits:
    def test_half_split_is_a_partition(self):
        spec = SyntheticSpec(label_count=4, source_count=6, rows_min=3,
                             rows_max=5, seed=2)
        d = generate_synthetic(spec)
        a, b = split_half(d, axis="source", seed=3)
        assert set(a.sources).isdisjoint(b.sources)
        assert set(a.sources) | set(b.sources) == set(d.sources)
        assert len(a.attributes) + len(b.attributes) == len(d.attributes)
        a2, b2 = split_half(d, axis="source", seed=3)
        assert a == a2 and b == b2

    def test_half_split_by_label(self):
        d = tiny_dataset()
        a, b = split_half(d, axis="label", seed=0)
        assert set(a.labels).isdisjoint(b.labels)
        assert set(a.labels) | set(b.labels) == {"height", "weight"}

    def test_half_split_axis_validation(self):
        with pytest.raises(InvalidSpec):
            split_half(tiny_dataset(), axis="rows")
