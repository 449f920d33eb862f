"""Property tests of the ARFF reader: any text parses or fails with a typed
error at a line of that text, and every table the dialect can express
survives a dump and a parse unchanged."""

import re

from hypothesis import given, settings, strategies as st

from mullab.arff import ArffParseError, RawTable, dump_arff, parse_arff
from mullab.core import Attribute

from golden_arff import raw_table, same_table

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
    assert same_table(parse_arff(dump_arff(table)), table)
