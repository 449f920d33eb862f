"""ARFF ingestion, label binding and deterministic train/test splitting.

Supported ARFF subset (the dialect the Mulan benchmark files use):

* ``%`` comment lines and blank lines are ignored
* ``@relation <name>`` (keywords case-insensitive, names may be quoted)
* ``@attribute <name> numeric|real|integer`` or ``@attribute <name> {v1,v2}``
* ``@data`` followed by dense comma-separated rows, or sparse rows of the
  form ``{index value, index value, ...}`` where omitted cells default to
  0 / the first category
* ``?`` is a missing value in both row forms

String and date attributes are out of scope and raise a parse error.  All
parse errors carry the 1-based line number of a line in the text: a line
ends at ``\n``, ``\r\n`` or ``\r``, and a missing ``@data`` is reported at
the last line.

Label files: either plain text (one label attribute name per line) or the
Mulan XML form ``<labels><label name="..."/>...</labels>``.
"""

from __future__ import annotations

import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Attribute, MLDataset, Schema
from .rng import Xoshiro256

_NUMERIC_KINDS = {"numeric", "real", "integer"}


class ArffParseError(ValueError):
    """Malformed ARFF input; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RawTable:
    """Parsed ARFF contents before any label binding.

    Row cells are ``float`` (numeric), ``int`` category index (nominal) or
    ``None`` (missing).
    """

    relation_name: str
    attributes: tuple[Attribute, ...]
    rows: tuple[tuple, ...]


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _split_quoted(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside single/double quotes."""
    if "'" not in text and '"' not in text:
        return text.split(sep)
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
        elif ch == sep:
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


def _sparse_defaults(attributes: tuple[Attribute, ...]) -> list:
    # ARFF sparse convention: unmentioned cells are 0 / the first category.
    return [0 if a.is_nominal else 0.0 for a in attributes]


def _parse_sparse_row(line: str, attributes, lineno: int) -> tuple:
    if not line.endswith("}"):
        raise ArffParseError(lineno, "unterminated sparse row")
    row = _sparse_defaults(attributes)
    body = line[1:-1].strip()
    if not body:
        return tuple(row)
    for entry in _split_quoted(body):
        entry = entry.strip()
        if not entry:
            raise ArffParseError(lineno, "empty sparse entry")
        split = entry.split(None, 1)
        if len(split) != 2:
            raise ArffParseError(lineno, f"sparse entry {entry!r} needs 'index value'")
        idx_tok, val_tok = split
        try:
            idx = int(idx_tok)
        except ValueError:
            raise ArffParseError(lineno, f"bad sparse index {idx_tok!r}") from None
        if not 0 <= idx < len(attributes):
            raise ArffParseError(lineno, f"sparse index {idx} out of range")
        row[idx] = _parse_cell(val_tok, attributes[idx], lineno)
    return tuple(row)


def parse_arff(source: Union[str, io.TextIOBase]) -> RawTable:
    """Parse ARFF text (string or text stream) into a RawTable."""
    text = source.read() if hasattr(source, "read") else source
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    relation = ""
    attributes: list[Attribute] = []
    rows: list[tuple] = []
    in_data = False
    saw_relation = False
    lineno = 0
    # only \n, \r\n and \r end a line, as in a text-mode file read:
    # str.splitlines would also break at form feeds and other separators
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if not in_data:
            if low.startswith("@relation"):
                relation = _unquote(line[len("@relation"):].strip())
                saw_relation = True
            elif low.startswith("@attribute"):
                attr = _parse_attribute(line, lineno)
                if any(a.name == attr.name for a in attributes):
                    raise ArffParseError(lineno, f"duplicate attribute {attr.name!r}")
                attributes.append(attr)
            elif low == "@data":
                if not saw_relation:
                    raise ArffParseError(lineno, "@data before @relation")
                if not attributes:
                    raise ArffParseError(lineno, "@data with no attributes declared")
                in_data = True
            else:
                raise ArffParseError(lineno, f"unexpected header line {line!r}")
            continue
        if line.startswith("{"):
            rows.append(_parse_sparse_row(line, tuple(attributes), lineno))
        else:
            cells = _split_quoted(line)
            if len(cells) != len(attributes):
                raise ArffParseError(
                    lineno,
                    f"row has {len(cells)} values, expected {len(attributes)}",
                )
            rows.append(
                tuple(
                    _parse_cell(tok, attr, lineno)
                    for tok, attr in zip(cells, attributes)
                )
            )
    if not in_data:
        raise ArffParseError(lineno, "missing @data section")  # last line
    return RawTable(relation, tuple(attributes), tuple(rows))


def load_arff(path) -> RawTable:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_arff(fh.read())


def dump_arff(raw: RawTable) -> str:
    """Debug writer producing dense ARFF; parse(dump(t)) == t for every
    table whose names hold no line break and at most one kind of quote
    character (the dialect has no escapes)."""

    def quote(name: str) -> str:
        # bare only when no character can split, end or re-read the token
        if name and not any(ch.isspace() or ch in ",'\"{}%?" for ch in name):
            return name
        return f'"{name}"' if "'" in name else f"'{name}'"

    out = [f"@relation {quote(raw.relation_name)}"]
    for attr in raw.attributes:
        if attr.is_nominal:
            vals = ",".join(quote(v) for v in attr.values)
            out.append(f"@attribute {quote(attr.name)} {{{vals}}}")
        else:
            out.append(f"@attribute {quote(attr.name)} numeric")
    out.append("@data")
    for row in raw.rows:
        cells = []
        for v, attr in zip(row, raw.attributes):
            if v is None:
                cells.append("?")
            elif attr.is_nominal:
                cells.append(quote(attr.values[v]))
            else:
                cells.append(repr(float(v)))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


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
        root = ET.fromstring(text)
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
        by_name = {a.name.strip(): i for i, a in enumerate(raw.attributes)}
        label_idx = []
        for name in spec.names:
            if name not in by_name:
                raise ValueError(f"label attribute {name!r} not found in ARFF header")
            label_idx.append(by_name[name])
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
    table = np.array(raw.rows, dtype=float).reshape(len(raw.rows), n_attrs)
    cells = table[:, label_idx]
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
    return MLDataset.from_arrays(schema, table[:, feat_idx], Y)


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
