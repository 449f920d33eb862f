"""Property tests of the ARFF reader: any text parses or fails with a typed
error at a line of that text, every table the dialect can express survives
a dump and a parse unchanged, and dense rows read as a cell-by-cell
reference reads them, in any block size."""

import re
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mullab import arff
from mullab.arff import ArffParseError, RawTable, parse_arff
from mullab.core import Attribute

from golden_arff import raw_table, same_table
from oracles import dense_data_bf
from synth import arff_text

_BREAK = re.compile(r"\r\n|\r|\n")


def n_lines(text: str) -> int:
    """Lines as an editor counts them: a line break is \\n, \\r\\n or \\r, and
    the text after the last break is a line too."""
    return len(_BREAK.split(text))


# Lines that reach every branch of the reader, good and bad, plus noise
# drawn mostly from the characters the dialect gives a meaning to.
_LINES = st.sampled_from([
    "@relation r", "@RELATION 'a b'", "@relation", "@attribute a numeric",
    "@attribute b {x,y}", "@attribute 'c d' real", "@Attribute e INTEGER",
    "@attribute f {'p q',\"r,s\"}", "@attribute g {", "@attribute h {a,a}",
    "@attribute i {}", "@attribute j {a,,b}", "@attribute 'k", "@attribute",
    "@attribute l", "@attribute m string", "@data", "@DATA", "@data x",
    "1,2", "?,x", "1,2,3", "{0 1, 1 y}", "{}", "{1 ?}", "{0}", "{5 1}",
    "{x 1}", "{0 1", "{0 1,}", "1e999,x", "nan,y", "'x',y", "% comment", "",
    "  \t",
])
_NOISE = st.text(st.sampled_from(list("@{}'\",%? 01.-eaxyd\t\x0b\x0c\x1c\x85 ")),
                 max_size=16)
_TEXTS = (
    st.tuples(st.lists(_LINES | _NOISE | st.text(max_size=8), max_size=12),
              st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12,
                       max_size=12))
    .map(lambda p: "".join(line + brk for line, brk in zip(*p)))
    | st.text(max_size=60)
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_TEXTS)
def test_any_text_parses_or_names_a_line_inside_it(text):
    try:
        table = parse_arff(text)
    except ArffParseError as e:
        assert 1 <= e.line <= n_lines(text), (e.line, str(e))
        assert str(e).startswith(f"line {e.line}: ")
    else:
        assert isinstance(table, RawTable)


# A name or nominal value is any one-line text.  The dialect has no escape
# syntax, so a name holds at most one kind of quote character, and a nominal
# value must not be empty.
_NAMES = st.text(st.characters(exclude_characters="\r\n"), max_size=8).filter(
    lambda s: not ("'" in s and '"' in s))
_VALUES = _NAMES.filter(bool)
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    attrs, cells = [], []
    for name in names:
        if draw(st.booleans()):
            values = tuple(draw(st.lists(_VALUES, min_size=1, max_size=4,
                                         unique=True)))
            attrs.append(Attribute(name, values))
            cells.append(st.none() | st.integers(0, len(values) - 1))
        else:
            attrs.append(Attribute(name))
            cells.append(st.none() | _NUMBERS)
    rows = draw(st.lists(st.tuples(*cells), max_size=5))
    return raw_table(draw(_NAMES), tuple(attrs), rows)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_tables())
def test_dump_then_parse_gives_the_table_back(table):
    assert same_table(parse_arff(arff_text(table)), table)


# Dense data rows for the differential test below: numbers in the spellings
# float and numpy's reader both take, numbers only one of them or neither
# takes, nominal values declared with and without padding, missing cells,
# quotes, and the whitespace str.strip removes, inside and around cells.
_SPACE = st.sampled_from([""] * 16 + [" ", "\t", "\x0b", "\x0c", "\x1c",
                                     "\x1d", "\x1e", "\x1f"])
_GOOD_NUMBERS = ["1", "1.", ".5", "+1", "-0", "1E+05", "0001", "-2.5e-3",
                 "1e308", "7"]
_BAD_NUMBERS = ["inf", "-Infinity", "nan", "1e999", "1_0", "\u0661", "\uff11",
                "", "x", "1 2", "1\x1c2", "1\t5", "0x1", "1,5", "?", "'1'",
                '"2"', "1{"]
_NOMINAL_POOL = ["a", "a ", " a", "b", "0", "1", "x y", "?", "nan", "\u00e9"]
_BAD_NOMINAL = ["z", "?", "", "'a'", '"b"', "'a '", "A", "1.0"]


def _cell(attr: Attribute):
    if attr.is_nominal:
        core = st.sampled_from(list(attr.values) * 6 + _BAD_NOMINAL)
    else:
        core = st.sampled_from(_GOOD_NUMBERS * 6 + _BAD_NUMBERS)
    return st.tuples(_SPACE, core, _SPACE).map("".join)


@st.composite
def _dense_sections(draw):
    """(attributes, data lines): the header declares each nominal value
    quoted, so padding and ``?`` are part of the value."""
    attrs = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(_NOMINAL_POOL), min_size=1,
                                   max_size=3, unique=True))
            attrs.append(Attribute(f"n{j}", tuple(values)))
        else:
            attrs.append(Attribute(f"x{j}"))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        cells = [draw(_cell(attr)) for attr in attrs]
        shape = draw(st.sampled_from(["row"] * 8 + ["short", "long",
                                                    "trailing comma",
                                                    "comment", "blank"]))
        if shape == "short":
            cells.pop()
        elif shape == "long":
            cells.append(draw(_cell(attrs[-1])))
        elif shape == "trailing comma":
            cells.append("")
        elif shape == "comment":
            cells = ["% " + cells[0]]
        elif shape == "blank":
            cells = [draw(_SPACE)]
        lines.append(",".join(cells))
    return attrs, lines


def _section_text(attrs, lines) -> str:
    header = ["@relation r"]
    for attr in attrs:
        if attr.is_nominal:
            values = ",".join(f"'{v}'" for v in attr.values)
            header.append(f"@attribute {attr.name} {{{values}}}")
        else:
            header.append(f"@attribute {attr.name} numeric")
    return "\n".join(header + ["@data"] + lines) + "\n"


_TWO_NUMERIC = [Attribute("a"), Attribute("b")]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_dense_sections())
# a bad row after clean rows of its block, and after a dirty bad row
@example((_TWO_NUMERIC, ["1,2", "3,4", "5,nan", "?,x"]))
@example((_TWO_NUMERIC, ["1,2", "?,x", "5,nan", "1,2,3"]))
@example((_TWO_NUMERIC, ["1,2", "3,4", "5,6,7", "1_0,?"]))
def test_dense_rows_read_as_the_cell_by_cell_reference(section):
    attrs, lines = section
    text = _section_text(attrs, lines)
    try:
        want = dense_data_bf(lines, attrs, len(attrs) + 3, arff._parse_cell,
                             ArffParseError)
    except ArffParseError as e:
        want = (e.line, str(e))
    for block_rows in (1, 2, 512):
        with mock.patch.object(arff, "_BLOCK_ROWS", block_rows):
            try:
                got = parse_arff(text).X
            except ArffParseError as e:
                got = (e.line, str(e))
        if isinstance(want, tuple):
            assert got == want, block_rows
        else:  # bit for bit: -0.0 is not 0.0, and NaN marks a missing cell
            assert isinstance(got, np.ndarray), (block_rows, got)
            assert got.shape == want.shape, block_rows
            assert got.tobytes() == want.tobytes(), block_rows
