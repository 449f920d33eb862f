"""ARFF ingestion, label binding and deterministic train/test splitting.

Supported ARFF subset (the dialect the Mulan benchmark files use):

* ``%`` comment lines and blank lines are ignored
* ``@relation <name>`` once (keywords case-insensitive and followed by
  whitespace or the end of the line, names may be quoted)
* ``@attribute <name> numeric|real|integer`` or ``@attribute <name> {v1,v2}``
* ``@data`` followed by dense comma-separated rows, or sparse rows of the
  form ``{index value, index value, ...}`` where each index appears at most
  once and omitted cells default to 0 / the first category
* ``?`` is a missing value in both row forms

String and date attributes are out of scope and raise a parse error.  All
parse errors carry the 1-based line number of a line in the text: a line
ends at ``\n``, ``\r\n`` or ``\r``, and a missing ``@data`` is reported at
the last line.

``_parse_cell`` defines what a cell means (missing, padding, quotes,
non-finite numbers) and what each bad cell's error says.  A number is
written in ASCII without ``_``: ``1_0``, ``１`` and ``٣``, which ``float``
reads as 10, 1 and 3, are bad numeric values, and such indices are bad
sparse indices.  Data rows are read in blocks of ``_BLOCK_ROWS`` lines.  A
clean row is dense, in ASCII, and holds no ``?`` or quote; all the clean
rows of a block go through one call of numpy's C text reader, which
refuses a ``_`` in a number by itself, and whose nominal columns'
converters look the stripped token up in a dict of the values
``_parse_cell`` maps to their own index.  Its result is kept only
when it has one column per attribute and every value is finite.  Every
other row, every sparse cell and every clean row of a refused result is
parsed by ``_parse_cell``, in file order, so both paths give the same rows
and the first bad line is the one an error names.  Each block becomes one
float array, and the arrays become one matrix, ``RawTable.X``, when the
text ends.

Label files: either plain text (one label attribute name per line) or the
Mulan XML form ``<labels><label name="..."/>...</labels>``.
"""

from __future__ import annotations

import io
import math
import xml.etree.ElementTree as ET
from xml.parsers import expat
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Attribute, MLDataset, Schema
from .rng import Xoshiro256

_NUMERIC_KINDS = {"numeric", "real", "integer"}
# Data lines parsed together: one call of numpy's reader, one float array.
_BLOCK_ROWS = 512


class ArffParseError(ValueError):
    """Malformed ARFF input; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class RawTable:
    """Parsed ARFF contents before any label binding.

    ``X`` is the read-only n x d float64 matrix of the data section, one
    column per attribute: the number of a numeric cell, the category index
    of a nominal one, NaN for a missing one.
    """

    relation_name: str
    attributes: tuple[Attribute, ...]
    X: np.ndarray


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _split_quoted(text: str) -> list[str]:
    """Split on ',' outside single/double quotes."""
    if "'" not in text and '"' not in text:
        return text.split(",")
    parts: list[str] = []
    buf: list[str] = []
    quote = None
    for ch in text:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == ",":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_attribute(line: str, lineno: int) -> Attribute:
    body = line[len("@attribute"):].strip()
    if not body:
        raise ArffParseError(lineno, "@attribute needs a name and a kind")
    # name may be quoted (and then may contain spaces)
    if body[0] in "'\"":
        end = body.find(body[0], 1)
        if end < 0:
            raise ArffParseError(lineno, "unterminated quoted attribute name")
        name = body[1:end]
        rest = body[end + 1:].strip()
    else:
        split = body.split(None, 1)
        if len(split) < 2:
            raise ArffParseError(lineno, "@attribute needs a name and a kind")
        name, rest = split[0], split[1].strip()
    if not rest:
        raise ArffParseError(lineno, f"attribute {name!r} has no kind")
    if rest.startswith("{"):
        if not rest.endswith("}"):
            raise ArffParseError(lineno, "unterminated nominal value list")
        values = tuple(_unquote(v) for v in _split_quoted(rest[1:-1]))
        if any(not v for v in values):
            raise ArffParseError(lineno, "empty nominal value")
        if len(set(values)) != len(values):
            raise ArffParseError(lineno, "duplicate nominal value")
        return Attribute(name, values)
    if rest.lower() in _NUMERIC_KINDS:
        return Attribute(name, None)
    raise ArffParseError(lineno, f"unknown attribute kind {rest!r}")


def _ascii_number(text: str) -> bool:
    """Whether ``text`` is free of what ``float`` and ``int`` read but
    ARFF (and Weka) do not: ``_`` between digits, and non-ASCII digits such
    as fullwidth or Arabic-Indic ones."""
    return text.isascii() and "_" not in text


def _parse_cell(token: str, attr: Attribute, lineno: int):
    token = token.strip()
    if token == "?":
        return None
    if attr.is_nominal:
        name = _unquote(token)
        try:
            return attr.values.index(name)
        except ValueError:
            raise ArffParseError(
                lineno, f"value {name!r} not declared for attribute {attr.name!r}"
            ) from None
    try:
        if not _ascii_number(token):
            raise ValueError
        value = float(token)
    except ValueError:
        raise ArffParseError(
            lineno, f"bad numeric value {token!r} for attribute {attr.name!r}"
        ) from None
    if not math.isfinite(value):
        raise ArffParseError(
            lineno, f"non-finite numeric value {token!r} for attribute {attr.name!r}"
        )
    return value


def _parse_sparse_row(line: str, attributes, lineno: int) -> list:
    if not line.endswith("}"):
        raise ArffParseError(lineno, "unterminated sparse row")
    row = [0.0] * len(attributes)  # unmentioned: 0 / the first category
    body = line[1:-1].strip()
    if not body:
        return row
    seen = set()
    for entry in _split_quoted(body):
        entry = entry.strip()
        if not entry:
            raise ArffParseError(lineno, "empty sparse entry")
        split = entry.split(None, 1)
        if len(split) != 2:
            raise ArffParseError(lineno, f"sparse entry {entry!r} needs 'index value'")
        idx_tok, val_tok = split
        try:
            if not _ascii_number(idx_tok):
                raise ValueError
            idx = int(idx_tok)
        except ValueError:
            raise ArffParseError(lineno, f"bad sparse index {idx_tok!r}") from None
        if not 0 <= idx < len(attributes):
            raise ArffParseError(lineno, f"sparse index {idx} out of range")
        if idx in seen:
            raise ArffParseError(lineno, f"repeated sparse index {idx}")
        seen.add(idx)
        row[idx] = _parse_cell(val_tok, attributes[idx], lineno)
    return row


def _cell_converters(attributes) -> dict:
    """The converters numpy's reader applies to the nominal columns: the
    stripped token's lookup in a dict of the values ``_parse_cell`` maps to
    their own index.  Any other token raises ``KeyError``, so the reader
    refuses its block's clean rows and they go to ``_parse_cell``.  Numeric
    columns get none: the reader strips their whitespace itself."""
    convs = {}
    for j, attr in enumerate(attributes):
        if attr.is_nominal:
            index = {v: i for i, v in enumerate(attr.values)
                     if v != "?" and _unquote(v) == v}
            convs[j] = lambda token, index=index: index[token.strip()]
    return convs


def _parse_row(line: str, attributes, lineno: int) -> list:
    """One data row cell by cell; ``None`` marks a missing cell."""
    if line.startswith("{"):
        return _parse_sparse_row(line, attributes, lineno)
    cells = _split_quoted(line)
    if len(cells) != len(attributes):
        raise ArffParseError(
            lineno, f"row has {len(cells)} values, expected {len(attributes)}"
        )
    return [_parse_cell(tok, attr, lineno)
            for tok, attr in zip(cells, attributes)]


def _is_clean(line: str) -> bool:
    """Whether numpy's reader may take a data line: dense, in ASCII, and
    free of ``?`` and quotes (which only ``_parse_cell`` gives a meaning
    to).  The reader refuses a ``_`` in a number, as ARFF does."""
    return (line.isascii() and not line.startswith("{")
            and "?" not in line and "'" not in line and '"' not in line)


def _parse_block(lines: list, attributes, convs: dict) -> np.ndarray:
    """The float rows of one block of ``(lineno, line)`` data lines.

    All the block's clean rows go through one call of numpy's reader, whose
    result is kept only when it has one column per attribute and every value
    is finite.  Every other row, and every clean row of a refused result,
    goes to ``_parse_cell`` in file order, so the first bad line is the one
    an error names."""
    X = np.empty((len(lines), len(attributes)))
    clean, dirty = [], []
    for i, (_, line) in enumerate(lines):
        (clean if _is_clean(line) else dirty).append(i)
    if clean:
        try:
            # encoding=None: converters get str, not numpy 1.x's default bytes
            got = np.loadtxt([lines[i][1] for i in clean], dtype=float,
                             delimiter=",", comments=None, quotechar=None,
                             ndmin=2, converters=convs, encoding=None)
        except ValueError:
            got = None
        if (got is not None and got.shape == (len(clean), len(attributes))
                and np.isfinite(got).all()):
            X[clean] = got
        else:
            dirty = range(len(lines))
    for i in dirty:
        lineno, line = lines[i]
        X[i] = _parse_row(line, attributes, lineno)  # None becomes NaN
    return X


def parse_arff(source: Union[str, io.TextIOBase]) -> RawTable:
    """Parse ARFF text (string or text stream) into a RawTable."""
    text = source.read() if hasattr(source, "read") else source
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    relation = ""
    attributes: list[Attribute] = []
    names: set[str] = set()
    lines: list[tuple[int, str]] = []
    blocks: list[np.ndarray] = []
    in_data = False
    saw_relation = False
    lineno = 0
    # only \n, \r\n and \r end a line, as in a text-mode file read:
    # str.splitlines would also break at form feeds and other separators
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("%"):
            continue
        if in_data:
            if len(lines) == _BLOCK_ROWS:
                blocks.append(_parse_block(lines, attrs, convs))
                lines = []
            lines.append((lineno, line))
            continue
        keyword = line.split(None, 1)[0].lower()  # ends at whitespace
        if keyword == "@relation":
            if saw_relation:
                raise ArffParseError(lineno, "duplicate @relation")
            relation = _unquote(line[len("@relation"):])
            saw_relation = True
        elif keyword == "@attribute":
            attr = _parse_attribute(line, lineno)
            if attr.name in names:
                raise ArffParseError(lineno, f"duplicate attribute {attr.name!r}")
            names.add(attr.name)
            attributes.append(attr)
        elif line.lower() == "@data":
            if not saw_relation:
                raise ArffParseError(lineno, "@data before @relation")
            if not attributes:
                raise ArffParseError(lineno, "@data with no attributes declared")
            in_data = True
            attrs = tuple(attributes)
            convs = _cell_converters(attrs)
        else:
            raise ArffParseError(lineno, f"unexpected header line {line!r}")
    if not in_data:
        raise ArffParseError(lineno, "missing @data section")  # last line
    blocks.append(_parse_block(lines, attrs, convs))
    X = np.concatenate(blocks)
    X.flags.writeable = False
    return RawTable(relation, tuple(attributes), X)


def load_arff(path) -> RawTable:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_arff(fh.read())


# ---------------------------------------------------------------------------
# label binding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelSpec:
    """Which attributes are labels: an explicit name list or the last
    ``trailing_count`` attributes in file order."""

    names: Optional[tuple[str, ...]] = None
    trailing_count: Optional[int] = None

    def __post_init__(self):
        if (self.names is None) == (self.trailing_count is None):
            raise ValueError("LabelSpec needs exactly one of names / trailing_count")
        if self.names is not None and len(self.names) == 0:
            raise ValueError("LabelSpec.names must be nonempty")
        if self.trailing_count is not None and self.trailing_count < 1:
            raise ValueError("LabelSpec.trailing_count must be >= 1")

    @classmethod
    def from_names(cls, names) -> "LabelSpec":
        return cls(names=tuple(str(n).strip() for n in names))

    @classmethod
    def trailing(cls, q: int) -> "LabelSpec":
        return cls(trailing_count=q)


def read_label_names(path) -> tuple[str, ...]:
    """Read label attribute names from a plain-text or Mulan-XML file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("<"):
        try:
            root = ET.fromstring(text)
        except ET.ParseError as e:
            line, column = e.position
            raise ValueError(f"{path} line {line}, column {column}: malformed "
                             f"label XML: {expat.ErrorString(e.code)}") from None
        names = []
        for el in root.iter():
            tag = el.tag.rsplit("}", 1)[-1]  # drop any xml namespace
            if tag == "label" and "name" in el.attrib:
                names.append(el.attrib["name"].strip())
        if not names:
            raise ValueError(f"no <label name=...> entries in {path}")
        return tuple(names)
    names = [line.strip() for line in text.splitlines() if line.strip()]
    if not names:
        raise ValueError(f"no label names in {path}")
    return tuple(names)


def bind_labels(raw: RawTable, spec: LabelSpec) -> MLDataset:
    """Split ``raw`` into the feature matrix and the bool label matrix.

    Label attributes must be binary: nominal over a subset of {"0","1"} or
    numeric taking only 0/1 values.  The resulting label universe follows the
    spec's name order (or file order for trailing_count).
    """
    n_attrs = len(raw.attributes)
    if spec.trailing_count is not None:
        q = spec.trailing_count
        if q >= n_attrs:
            raise ValueError(
                f"trailing_count {q} must leave at least one feature attribute"
            )
        label_idx = list(range(n_attrs - q, n_attrs))
    else:
        by_name: dict[str, list[int]] = {}
        for i, a in enumerate(raw.attributes):
            by_name.setdefault(a.name.strip(), []).append(i)
        label_idx = []
        for name in spec.names:
            if name not in by_name:
                raise ValueError(f"label attribute {name!r} not found in ARFF header")
            if len(by_name[name]) > 1:
                matches = ", ".join(repr(raw.attributes[i].name)
                                    for i in by_name[name])
                raise ValueError(
                    f"label name {name!r} matches more than one attribute: "
                    f"{matches}"
                )
            label_idx.append(by_name[name][0])
    for i in label_idx:
        attr = raw.attributes[i]
        if attr.is_nominal and not set(attr.values) <= {"0", "1"}:
            raise ValueError(
                f"label attribute {attr.name!r} is not binary: values {attr.values}"
            )
    label_set = set(label_idx)
    feat_idx = [i for i in range(n_attrs) if i not in label_set]
    if not feat_idx:
        raise ValueError("binding removed every feature attribute")
    schema = Schema(
        attributes=tuple(raw.attributes[i] for i in feat_idx),
        label_names=tuple(raw.attributes[i].name for i in label_idx),
    )
    cells = raw.X.take(label_idx, axis=1)  # a copy, in C order
    for j, i in enumerate(label_idx):
        values = raw.attributes[i].values
        if values is not None:  # nominal: category index -> "0" / "1"
            known = ~np.isnan(cells[:, j])
            cells[known, j] = np.array(values, dtype=float)[
                cells[known, j].astype(np.intp)]
    Y = cells == 1.0
    bad = np.argwhere(~Y & (cells != 0.0))  # NaN (missing) is bad too
    if bad.size:
        r, j = bad[0]
        name = raw.attributes[label_idx[j]].name
        if np.isnan(cells[r, j]):
            raise ValueError(f"row {r}: label attribute {name!r} is missing ('?')")
        raise ValueError(
            f"row {r}: label attribute {name!r} has non-binary value "
            f"{float(cells[r, j])!r}"
        )
    return MLDataset(schema, raw.X.take(feat_idx, axis=1), Y)


def load_dataset(arff_path, spec: LabelSpec) -> MLDataset:
    return bind_labels(load_arff(arff_path), spec)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Train/test partition request: explicit counts or a train ratio,
    plus the shuffle seed."""

    counts: Optional[tuple[int, int]] = None
    ratio: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if (self.counts is None) == (self.ratio is None):
            raise ValueError("SplitSpec needs exactly one of counts / ratio")
        if self.ratio is not None and not 0.0 < self.ratio < 1.0:
            raise ValueError("split ratio must be in (0, 1)")
        if self.counts is not None and (self.counts[0] < 0 or self.counts[1] < 0):
            raise ValueError("split counts must be >= 0")


def split_dataset(d: MLDataset, spec: SplitSpec) -> tuple[MLDataset, MLDataset]:
    """Disjoint, exhaustive train/test partition via a seeded shuffle.

    Row order inside each part follows the shuffled order, so identical
    (dataset, spec) inputs reproduce identical partitions everywhere.
    """
    n = len(d)
    if spec.counts is not None:
        n_train, n_test = spec.counts
        if n_train + n_test != n:
            raise ValueError(
                f"split counts {n_train}+{n_test} do not sum to {n} rows"
            )
    else:
        n_train = math.floor(n * spec.ratio)
        n_test = n - n_train
    perm = list(range(n))
    Xoshiro256(spec.seed).shuffle(perm)
    return d.subset(perm[:n_train]), d.subset(perm[n_train:])
