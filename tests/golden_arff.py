"""Golden ARFF fixtures: 13 hand-written inputs with their exact expected
parse results or errors (line numbers included)."""

import numpy as np

from mullab.core import Attribute
from mullab.arff import RawTable


def raw_table(relation_name, attributes, rows):
    """A RawTable written row by row, None for a missing cell."""
    X = np.array(rows, dtype=float).reshape(len(rows), len(attributes))
    return RawTable(relation_name, attributes, X)


def same_table(a: RawTable, b: RawTable) -> bool:
    """Equal relation names, attributes and matrices (NaN equals NaN)."""
    return (a.relation_name == b.relation_name
            and a.attributes == b.attributes and a.X.shape == b.X.shape
            and np.array_equal(a.X, b.X, equal_nan=True))


# Each entry: (name, text, expected RawTable) for the good cases.
GOOD_FIXTURES = [
    (
        "dense_minimal_numeric",
        "@relation tiny\n"
        "@attribute a numeric\n"
        "@attribute b numeric\n"
        "@data\n"
        "1.0,2.0\n",
        raw_table("tiny", (Attribute("a"), Attribute("b")), ((1.0, 2.0),)),
    ),
    (
        "nominal_resolves_to_index",
        "@relation nom\n"
        "@attribute c {a,b}\n"
        "@attribute x numeric\n"
        "@data\n"
        "b,3.5\n"
        "a,1.0\n",
        raw_table(
            "nom",
            (Attribute("c", ("a", "b")), Attribute("x")),
            ((1, 3.5), (0, 1.0)),
        ),
    ),
    (
        "sparse_numeric_defaults",
        "@relation sp\n"
        "@attribute a numeric\n"
        "@attribute b numeric\n"
        "@attribute c numeric\n"
        "@data\n"
        "{0 1.5}\n",
        raw_table("sp", (Attribute("a"), Attribute("b"), Attribute("c")),
                 ((1.5, 0.0, 0.0),)),
    ),
    (
        "sparse_nominal_defaults_and_missing",
        "@relation sp2\n"
        "@attribute c {red,green}\n"
        "@attribute x numeric\n"
        "@attribute y numeric\n"
        "@data\n"
        "{0 green, 2 4.0}\n"
        "{1 ?}\n"
        "{}\n",
        raw_table(
            "sp2",
            (Attribute("c", ("red", "green")), Attribute("x"), Attribute("y")),
            ((1, 0.0, 4.0), (0, None, 0.0), (0, 0.0, 0.0)),
        ),
    ),
    (
        "dense_missing_values",
        "@relation miss\n"
        "@attribute a numeric\n"
        "@attribute c {u,v}\n"
        "@data\n"
        "?,v\n"
        "2.0,?\n",
        raw_table("miss", (Attribute("a"), Attribute("c", ("u", "v"))),
                 ((None, 1), (2.0, None))),
    ),
    (
        "comments_blanks_and_case",
        "% leading comment\n"
        "\n"
        "@RELATION shouty\n"
        "% between headers\n"
        "@ATTRIBUTE a NUMERIC\n"
        "@Attribute b real\n"
        "@DATA\n"
        "\n"
        "1.0,2.0\n"
        "% trailing comment\n",
        raw_table("shouty", (Attribute("a"), Attribute("b")), ((1.0, 2.0),)),
    ),
    (
        "quoted_names_and_values",
        "@relation 'my rel'\n"
        "@attribute 'att one' numeric\n"
        "@attribute col {'first val',second}\n"
        "@data\n"
        "1.0,'first val'\n"
        "2.5,second\n",
        raw_table(
            "my rel",
            (Attribute("att one"), Attribute("col", ("first val", "second"))),
            ((1.0, 0), (2.5, 1)),
        ),
    ),
]

# Each entry: (name, text, expected error line, message fragment).
BAD_FIXTURES = [
    (
        "row_arity_mismatch",
        "@relation bad\n"
        "@attribute a numeric\n"
        "@attribute b numeric\n"
        "@data\n"
        "1.0,2.0\n"
        "1.0\n",
        6,
        "expected 2",
    ),
    (
        "undeclared_nominal_value",
        "@relation bad\n"
        "@attribute c {a,b}\n"
        "@attribute x numeric\n"
        "@data\n"
        "z,1.0\n",
        5,
        "not declared",
    ),
    (
        "unknown_attribute_kind",
        "@relation bad\n"
        "@attribute s string\n"
        "@data\n"
        "hello\n",
        2,
        "unknown attribute kind",
    ),
    (
        "malformed_sparse_index",
        "@relation bad\n"
        "@attribute a numeric\n"
        "@attribute b numeric\n"
        "@data\n"
        "{x 1.0}\n",
        5,
        "sparse index",
    ),
    (
        "sparse_repeated_index",
        "@relation bad\n"
        "@attribute a numeric\n"
        "@attribute b numeric\n"
        "@data\n"
        "{0 1}\n"
        "{1 2, 1 3}\n",
        6,
        "repeated sparse index 1",
    ),
    (
        "missing_data_section",
        "@relation bad\n"
        "@attribute a numeric\n"
        "1.0\n",
        3,
        "unexpected header line",
    ),
]

assert len(GOOD_FIXTURES) + len(BAD_FIXTURES) == 13
