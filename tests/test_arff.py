import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mullab import arff, cli
from mullab.arff import (
    ArffParseError,
    _split_quoted,
    LabelSpec,
    RawTable,
    SplitSpec,
    bind_labels,
    load_arff,
    parse_arff,
    read_label_names,
    split_dataset,
)
from mullab.core import dataset_stats

from golden_arff import BAD_FIXTURES, GOOD_FIXTURES, same_table
from oracles import split_quoted_bf
from synth import arff_text, random_dataset, to_arff_text


@pytest.mark.parametrize(
    "name,text,expected", GOOD_FIXTURES, ids=[f[0] for f in GOOD_FIXTURES]
)
def test_golden_parse(name, text, expected):
    got = parse_arff(text)
    assert same_table(got, expected)
    assert got.X.dtype == np.float64 and not got.X.flags.writeable


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
        again = parse_arff(arff_text(once))
        assert same_table(again, once), name


def test_missing_data_at_eof():
    with pytest.raises(ArffParseError) as err:
        parse_arff("@relation r\n@attribute a numeric\n")
    assert "missing @data" in str(err.value)


def test_duplicate_attribute_rejected():
    text = "@relation r\n@attribute a numeric\n@attribute a numeric\n@data\n"
    with pytest.raises(ArffParseError) as err:
        parse_arff(text)
    assert err.value.line == 3


def test_duplicate_attribute_named_at_its_line_among_many():
    names = [f"f{i}" for i in range(3000)] + ["f1500"]
    with pytest.raises(ArffParseError) as err:
        parse_arff(_arff_text([f"{n} numeric" for n in names], []))
    assert (err.value.line, str(err.value)) == (
        3002, "line 3002: duplicate attribute 'f1500'")


def test_empty_data_section_is_parseable():
    raw = parse_arff("@relation r\n@attribute a numeric\n@data\n")
    assert raw.X.shape == (0, 1)


@pytest.mark.parametrize("row", ["3,inf", "3,-Infinity", "3,nan", "3,1e999",
                                 "{1 NaN}"])
def test_non_finite_numeric_rejected(row):
    text = ("@relation r\n@attribute a numeric\n@attribute b numeric\n"
            f"@data\n1,2\n{row}\n")
    with pytest.raises(ArffParseError) as err:
        parse_arff(text)
    assert err.value.line == 6
    assert "non-finite numeric value" in str(err.value)


def _arff_text(attributes, data_lines, header="@relation r\n"):
    return (header + "".join(f"@attribute {a}\n" for a in attributes)
            + "@data\n" + "".join(f"{line}\n" for line in data_lines))


_TWO_NUMERIC = ["a numeric", "b numeric"]

# (id, attribute declarations, data lines, the parsed rows (None for a
# missing cell) or the error's (line, message)).  Every expectation is
# what the cell-by-cell parser alone gives.
DENSE_ROW_CASES = [
    # the per-cell path strips 'a ' to 'a', index 1; a plain lookup gives 0
    ("nominal-padded-declared-value", ["c {'a ',a}", "x numeric"],
     ["a ,1.5", "'a ',2", "a,3"], ((1, 1.5), (0, 2.0), (1, 3.0))),
    ("nominal-value-named-question-mark", ["c {'?',a}"],
     ["?", "'?'", "a"], ((None,), (0,), (1,))),
    ("padded-numbers", _TWO_NUMERIC,
     ["10 , 1.5", "\t-2 ,3e-2\t", "-0.0,7"],
     ((10.0, 1.5), (-2.0, 0.03), (-0.0, 7.0))),
    ("missing-numeric-and-nominal", ["a numeric", "c {0,1}"],
     ["?,?", " ? , ? ", "1,0"], ((None, None), (None, None), (1.0, 0))),
    ("nan", _TWO_NUMERIC, ["1,2", "nan,2"],
     (6, "line 6: non-finite numeric value 'nan' for attribute 'a'")),
    ("inf", _TWO_NUMERIC, ["1,2", "1,-inf"],
     (6, "line 6: non-finite numeric value '-inf' for attribute 'b'")),
    ("overflow-to-inf", _TWO_NUMERIC, ["1,2", "1e999,2"],
     (6, "line 6: non-finite numeric value '1e999' for attribute 'a'")),
    ("sum-overflows-cells-finite", _TWO_NUMERIC,
     ["1e308,1e308", "-1e308,-1e308"], ((1e308, 1e308), (-1e308, -1e308))),
    ("quoted-nominal-tokens", ["c {'first val',b}", "x numeric"],
     ["'first val',1", '"b",2', " 'b' ,3"], ((0, 1.0), (1, 2.0), (1, 3.0))),
    ("undeclared-nominal-value", ["c {0,1}", "x numeric"], ["1,1", "2,1"],
     (6, "line 6: value '2' not declared for attribute 'c'")),
    ("bad-cell-before-wrong-count", _TWO_NUMERIC, ["1,2", "1,x", "1,2,3"],
     (6, "line 6: bad numeric value 'x' for attribute 'b'")),
    ("wrong-count-before-bad-cell", _TWO_NUMERIC, ["1,2", "1,2,3", "1,x"],
     (6, "line 6: row has 3 values, expected 2")),
    # numbers that builtin float reads (as 10, 1 and 3) but ARFF does not,
    # in rows float alone would take and in a row with a missing cell
    ("underscored-number", _TWO_NUMERIC, ["1,2", "1_0,2"],
     (6, "line 6: bad numeric value '1_0' for attribute 'a'")),
    ("fullwidth-digit", _TWO_NUMERIC, ["1,2", "2,\uff11"],
     (6, "line 6: bad numeric value '\uff11' for attribute 'b'")),
    ("arabic-indic-digit", _TWO_NUMERIC, ["1,2", "\u0663 ,2"],
     (6, "line 6: bad numeric value '\u0663' for attribute 'a'")),
    ("underscore-beside-missing-cell", _TWO_NUMERIC, ["1,2", "?,1e9_9"],
     (6, "line 6: bad numeric value '1e9_9' for attribute 'b'")),
    # clean rows, which numpy's reader must refuse by itself
    ("underscore-leading", _TWO_NUMERIC, ["1,2", "_1,2"],
     (6, "line 6: bad numeric value '_1' for attribute 'a'")),
    ("underscore-trailing", _TWO_NUMERIC, ["1,2", "2_,2"],
     (6, "line 6: bad numeric value '2_' for attribute 'a'")),
    ("underscore-in-exponent", _TWO_NUMERIC, ["1,2", "1e_3,2"],
     (6, "line 6: bad numeric value '1e_3' for attribute 'a'")),
    # numpy's reader takes '1\x1c' as 1.0 and float refuses it; _parse_cell
    # strips the token first, so both paths read 1.0
    ("separator-after-number", _TWO_NUMERIC, ["1\x1c,2", "1\x1c,?"],
     ((1.0, 2.0), (1.0, None))),
    # the first bad line in file order, though its block's clean rows are
    # read before its dirty ones
    ("bad-clean-row-before-bad-dirty-row", _TWO_NUMERIC,
     ["1,2", "3,4", "5,nan", "?,x"],
     (7, "line 7: non-finite numeric value 'nan' for attribute 'b'")),
    ("nominal-values-with-underscore-and-non-ascii",
     ["c {\u00e9_1,b_2}", "x numeric"], ["\u00e9_1,1.5", "b_2,2"],
     ((0, 1.5), (1, 2.0))),
]


@pytest.mark.parametrize("attributes, data_lines, expected",
                         [c[1:] for c in DENSE_ROW_CASES],
                         ids=[c[0] for c in DENSE_ROW_CASES])
def test_dense_rows_parse_as_cell_by_cell(attributes, data_lines, expected):
    try:
        got = parse_arff(_arff_text(attributes, data_lines)).X
    except ArffParseError as e:
        assert (e.line, str(e)) == expected
    else:
        want = np.array(expected, dtype=float)
        assert repr(got.tolist()) == repr(want.tolist())  # -0.0 is not 0.0


# Sparse numbers and indices that builtin float and int read (as 10 and 3)
# but ARFF does not; DENSE_ROW_CASES holds the dense ones.
@pytest.mark.parametrize("row, message", [
    ("{0 1_0}", "bad numeric value '1_0' for attribute 'a'"),
    ("{1 \u0663}", "bad numeric value '\u0663' for attribute 'b'"),
    ("{\u0661 2}", "bad sparse index '\u0661'"),
    ("{0_1 2}", "bad sparse index '0_1'"),
], ids=["value-underscore", "value-arabic-indic", "index-arabic-indic",
        "index-underscore"])
def test_sparse_numbers_only_float_reads_are_rejected(row, message):
    with pytest.raises(ArffParseError) as err:
        parse_arff(_arff_text(_TWO_NUMERIC, ["1,2", row]))
    assert (err.value.line, str(err.value)) == (6, f"line 6: {message}")


def test_clean_dense_rows_skip_the_per_cell_parser(monkeypatch):
    calls = []
    per_cell = arff._parse_cell
    monkeypatch.setattr(arff, "_parse_cell",
                        lambda *args: calls.append(args) or per_cell(*args))
    assert len(parse_arff(MULTILABEL_TEXT).X) == 4  # numeric and {0,1}
    assert calls == []
    parse_arff(_arff_text(_TWO_NUMERIC, ["1,?"]))  # the counter does count
    assert len(calls) == 2


def _count_per_cell(monkeypatch) -> list:
    """The argument tuples of every ``_parse_cell`` call from now on."""
    calls = []
    per_cell = arff._parse_cell
    monkeypatch.setattr(arff, "_parse_cell",
                        lambda *args: calls.append(args) or per_cell(*args))
    return calls


def test_padded_clean_rows_skip_the_per_cell_parser(monkeypatch):
    calls = _count_per_cell(monkeypatch)
    padded = MULTILABEL_TEXT.replace(",", " ,\t")  # nominal cells too
    assert same_table(parse_arff(padded), parse_arff(MULTILABEL_TEXT))
    assert calls == []


def test_nominal_values_with_underscores_skip_the_per_cell_parser(
        monkeypatch):
    calls = _count_per_cell(monkeypatch)
    labels = ["l0 {z_0,z_1}", "l1 {z_0,z_1}"]
    X = parse_arff(_arff_text(["a numeric"] + labels,
                              ["0.5,z_1,z_0", "-2,z_0,z_0", "3,z_1,z_1"])).X
    assert X.tolist() == [[0.5, 1, 0], [-2, 0, 0], [3, 1, 1]]
    assert calls == []


def test_only_the_dirty_rows_of_a_block_reach_the_per_cell_parser(
        monkeypatch):
    calls = _count_per_cell(monkeypatch)
    rows = ["1,2", "3,4", "5,?", "7,8", "9,10"]  # one block
    X = parse_arff(_arff_text(_TWO_NUMERIC, rows)).X
    assert np.array_equal(X, [[1, 2], [3, 4], [5, np.nan], [7, 8], [9, 10]],
                          equal_nan=True)
    assert [(token, lineno) for token, _, lineno in calls] == [
        ("5", 7), ("?", 7)]


@pytest.mark.parametrize("block_rows", [1, 2, 512])
def test_rows_become_the_same_matrix_in_any_block_size(block_rows,
                                                       monkeypatch):
    monkeypatch.setattr(arff, "_BLOCK_ROWS", block_rows)
    data = random_dataset(3, n=1100, n_labels=2, n_num=3, n_nom=2,
                          missing_rate=0.1)
    raw = parse_arff(to_arff_text(data))  # labels are the last columns
    assert np.array_equal(raw.X[:, :5], data.X, equal_nan=True)
    assert np.array_equal(raw.X[:, 5:], data.Y)
    for name, text, expected in GOOD_FIXTURES:
        assert same_table(parse_arff(text), expected), name


@pytest.mark.parametrize("text, line, fragment", [
    ("@relationfoo\n@attribute a numeric\n@data\n", 1,
     "unexpected header line"),
    ("@relation r\n@attributea numeric\n@data\n", 2,
     "unexpected header line"),
    ("@relation a\n@attribute x numeric\n@relation b\n@data\n", 3,
     "duplicate @relation"),
    ("@relation a\n@relation a\n@attribute x numeric\n@data\n", 2,
     "duplicate @relation"),
], ids=["relation-glued", "attribute-glued", "relation-repeated",
        "relation-repeated-same-name"])
def test_header_keyword_mistakes(text, line, fragment):
    with pytest.raises(ArffParseError) as err:
        parse_arff(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("relation_line, name", [
    ("@relation", ""), ("@relation\tfoo", "foo"), ("@RELATION 'a b'", "a b"),
])
def test_relation_keyword_then_whitespace_or_end(relation_line, name):
    raw = parse_arff(_arff_text(["a numeric"], ["1"],
                                header=relation_line + "\n"))
    assert raw.relation_name == name


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
        assert ds.Y.tolist() == [[True, False, False], [False, True, True],
                                 [True, True, False], [False, False, False]]
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

    def test_label_name_matching_two_attributes(self):
        # names match after strip(), so 'y ' and y both answer to "y"
        text = ("@relation r\n@attribute f numeric\n@attribute 'y ' {0,1}\n"
                "@attribute y {0,1}\n@data\n1,0,1\n")
        with pytest.raises(ValueError,
                           match="'y' matches more than one attribute: 'y ', 'y'"):
            bind_labels(parse_arff(text), LabelSpec.from_names(["y"]))

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

    def test_malformed_xml_names_file_and_line(self, tmp_path):
        p = tmp_path / "labels.xml"
        p.write_text('<labels>\n<label name="L0"></labels>\n', encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_label_names(p)
        assert str(err.value) == (f"{p} line 2, column 19: malformed label "
                                  f"XML: mismatched tag")

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
            got = load(path)
        except ArffParseError as e:
            return e.line, str(e)
        if isinstance(got, RawTable):  # its == compares no matrices
            return got.relation_name, got.attributes, got.X.tolist()
        return got

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
