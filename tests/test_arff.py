import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mullab import cli
from mullab.arff import (
    ArffParseError,
    _split_quoted,
    LabelSpec,
    SplitSpec,
    bind_labels,
    dump_arff,
    load_arff,
    parse_arff,
    read_label_names,
    split_dataset,
)
from mullab.core import dataset_stats, labelsets_of

from golden_arff import BAD_FIXTURES, GOOD_FIXTURES
from oracles import split_quoted_bf


@pytest.mark.parametrize(
    "name,text,expected", GOOD_FIXTURES, ids=[f[0] for f in GOOD_FIXTURES]
)
def test_golden_parse(name, text, expected):
    assert parse_arff(text) == expected


@pytest.mark.parametrize(
    "name,text,line,fragment", BAD_FIXTURES, ids=[f[0] for f in BAD_FIXTURES]
)
def test_golden_errors(name, text, line, fragment):
    with pytest.raises(ArffParseError) as err:
        parse_arff(text)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert f"line {line}:" in str(err.value)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.text(alphabet="'\",ab xyZ", max_size=40))
def test_split_quoted_matches_character_reference(text):
    # covers both the quote-free fast path and the quoted character loop
    assert _split_quoted(text) == split_quoted_bf(text)


def test_parse_dump_parse_fixed_point():
    for name, text, _ in GOOD_FIXTURES:
        once = parse_arff(text)
        again = parse_arff(dump_arff(once))
        assert again == once, name


def test_missing_data_at_eof():
    with pytest.raises(ArffParseError) as err:
        parse_arff("@relation r\n@attribute a numeric\n")
    assert "missing @data" in str(err.value)


def test_duplicate_attribute_rejected():
    text = "@relation r\n@attribute a numeric\n@attribute a numeric\n@data\n"
    with pytest.raises(ArffParseError) as err:
        parse_arff(text)
    assert err.value.line == 3


def test_empty_data_section_is_parseable():
    raw = parse_arff("@relation r\n@attribute a numeric\n@data\n")
    assert raw.rows == ()


@pytest.mark.parametrize("row", ["3,inf", "3,-Infinity", "3,nan", "3,1e999",
                                 "{1 NaN}"])
def test_non_finite_numeric_rejected(row):
    text = ("@relation r\n@attribute a numeric\n@attribute b numeric\n"
            f"@data\n1,2\n{row}\n")
    with pytest.raises(ArffParseError) as err:
        parse_arff(text)
    assert err.value.line == 6
    assert "non-finite numeric value" in str(err.value)


MULTILABEL_TEXT = (
    "@relation fake\n"
    "@attribute f1 numeric\n"
    "@attribute f2 numeric\n"
    "@attribute tag_a {0,1}\n"
    "@attribute tag_b {1,0}\n"  # reversed declaration order still binds by name
    "@attribute tag_c numeric\n"
    "@data\n"
    "0.1,0.2,1,0,0\n"
    "0.3,0.4,0,1,1\n"
    "0.5,0.6,1,1,0\n"
    "0.7,0.8,0,0,0\n"
)


class TestBindLabels:
    def test_bind_by_names(self):
        raw = parse_arff(MULTILABEL_TEXT)
        ds = bind_labels(raw, LabelSpec.from_names(["tag_a", "tag_b", "tag_c"]))
        assert ds.schema.label_names == ("tag_a", "tag_b", "tag_c")
        assert [a.name for a in ds.schema.attributes] == ["f1", "f2"]
        assert [ls.indices() for ls in labelsets_of(ds.Y)] == [
            (0,), (1, 2), (0, 1), ()
        ]
        assert ds.X[0].tolist() == [0.1, 0.2]
        assert ds.features[0] == (0.1, 0.2)

    def test_bind_trailing(self):
        raw = parse_arff(MULTILABEL_TEXT)
        ds = bind_labels(raw, LabelSpec.trailing(3))
        assert ds.schema.label_names == ("tag_a", "tag_b", "tag_c")
        assert ds.n_labels == 3

    def test_trailing_all_but_one(self):
        text = (
            "@relation r\n"
            "@attribute f numeric\n"
            "@attribute t1 {0,1}\n"
            "@attribute t2 {0,1}\n"
            "@data\n"
            "0.5,1,0\n"
        )
        ds = bind_labels(parse_arff(text), LabelSpec.trailing(2))
        assert len(ds.schema.attributes) == 1
        assert ds.schema.label_names == ("t1", "t2")

    def test_trailing_too_large(self):
        raw = parse_arff(MULTILABEL_TEXT)
        with pytest.raises(ValueError):
            bind_labels(raw, LabelSpec.trailing(5))

    def test_label_order_follows_spec_names(self):
        raw = parse_arff(MULTILABEL_TEXT)
        ds = bind_labels(raw, LabelSpec.from_names(["tag_c", "tag_a"]))
        assert ds.schema.label_names == ("tag_c", "tag_a")
        # row 1: tag_c=1 tag_a=0 -> bit 0 set only
        assert ds.Y[1].tolist() == [True, False]

    def test_unknown_label_name(self):
        raw = parse_arff(MULTILABEL_TEXT)
        with pytest.raises(ValueError, match="not found"):
            bind_labels(raw, LabelSpec.from_names(["nope"]))

    def test_non_binary_nominal_label(self):
        text = (
            "@relation r\n@attribute f numeric\n@attribute t {a,b}\n@data\n1.0,a\n"
        )
        with pytest.raises(ValueError, match="not binary"):
            bind_labels(parse_arff(text), LabelSpec.from_names(["t"]))

    def test_non_binary_numeric_label_value(self):
        text = "@relation r\n@attribute f numeric\n@attribute t numeric\n@data\n1.0,2.0\n"
        with pytest.raises(ValueError, match="non-binary"):
            bind_labels(parse_arff(text), LabelSpec.trailing(1))

    def test_missing_label_value_rejected(self):
        text = "@relation r\n@attribute f numeric\n@attribute t {0,1}\n@data\n1.0,?\n"
        with pytest.raises(ValueError, match="missing"):
            bind_labels(parse_arff(text), LabelSpec.trailing(1))

    def test_labelspec_validation(self):
        with pytest.raises(ValueError):
            LabelSpec()
        with pytest.raises(ValueError):
            LabelSpec(names=("a",), trailing_count=1)
        with pytest.raises(ValueError):
            LabelSpec.trailing(0)


class TestLabelFiles:
    def test_plain_text(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("alpha\n\n beta \n", encoding="utf-8")
        assert read_label_names(p) == ("alpha", "beta")

    def test_mulan_xml(self, tmp_path):
        p = tmp_path / "labels.xml"
        p.write_text(
            '<?xml version="1.0" encoding="utf-8"?>\n'
            '<labels xmlns="http://mulan.sourceforge.net/labels">\n'
            '  <label name="Beach"></label>\n'
            '  <label name="Sunset"/>\n'
            "</labels>\n",
            encoding="utf-8",
        )
        assert read_label_names(p) == ("Beach", "Sunset")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_label_names(p)


# (id, loader, file text, the line its parse error names or None)
BOM_CASES = (
    ("arff", load_arff, "@relation r\n@attribute a numeric\n"
     "@attribute L0 {0,1}\n@data\n1.5,1\n-2,0\n", None),
    ("arff-bad-line-3", load_arff,
     "@relation r\n@attribute a numeric\n@bogus\n@data\n", 3),
    ("labels-text", read_label_names, "alpha\nbeta\n", None),
    ("labels-xml", read_label_names,
     '<labels xmlns="http://mulan.sourceforge.net/labels">'
     '<label name="Beach"/></labels>\n', None),
    ("config", cli._load_config, '{"seed": 3}\n', None),
)


@pytest.mark.parametrize("load, text, bad_line", [c[1:] for c in BOM_CASES],
                         ids=[c[0] for c in BOM_CASES])
def test_byte_order_mark_is_not_part_of_line_1(load, text, bad_line,
                                               tmp_path):
    # some Windows editors start a UTF-8 file with a byte-order mark
    def outcome(encoding):
        path = tmp_path / encoding
        path.write_text(text, encoding=encoding)
        try:
            return load(path)
        except ArffParseError as e:
            return e.line, str(e)

    plain = outcome("utf-8")
    assert outcome("utf-8-sig") == plain
    assert (plain[0] if bad_line else None) == bad_line


def bound_fixture():
    return bind_labels(parse_arff(MULTILABEL_TEXT), LabelSpec.trailing(3))


class TestSplit:
    def test_counts(self):
        ds = bound_fixture()
        train, test = split_dataset(ds, SplitSpec(counts=(3, 1), seed=0))
        assert len(train) == 3 and len(test) == 1

    def test_counts_must_sum(self):
        ds = bound_fixture()
        with pytest.raises(ValueError):
            split_dataset(ds, SplitSpec(counts=(3, 2), seed=0))

    def test_ratio_floor(self):
        ds = bound_fixture()
        train, test = split_dataset(ds, SplitSpec(ratio=0.7, seed=0))
        assert len(train) == 2  # floor(4 * 0.7)
        assert len(test) == 2

    def test_same_seed_identical(self):
        ds = bound_fixture()
        a = split_dataset(ds, SplitSpec(ratio=0.5, seed=11))
        b = split_dataset(ds, SplitSpec(ratio=0.5, seed=11))
        for x, y in zip(a, b):
            assert np.array_equal(x.X, y.X, equal_nan=True)
            assert np.array_equal(x.Y, y.Y)

    def test_different_seed_differs(self):
        ds = bound_fixture()
        seen = {
            split_dataset(ds, SplitSpec(ratio=0.5, seed=s))[0].X.tobytes()
            for s in range(10)
        }
        assert len(seen) > 1

    def test_disjoint_and_exhaustive(self):
        ds = bound_fixture()
        train, test = split_dataset(ds, SplitSpec(ratio=0.5, seed=3))
        def rows(d):  # one repr per (features, labels) row
            return [repr(r) for r in np.hstack([d.X, d.Y]).tolist()]

        assert sorted(rows(train) + rows(test)) == sorted(rows(ds))
        assert dataset_stats(train).n_labels == dataset_stats(test).n_labels == 3

    def test_split_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec()
        with pytest.raises(ValueError):
            SplitSpec(ratio=1.5)
        with pytest.raises(ValueError):
            SplitSpec(counts=(1, 1), ratio=0.5)
