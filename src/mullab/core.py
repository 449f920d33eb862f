"""Core domain types: label sets, attribute schemas, datasets and their
summary statistics.

Everything here is immutable after construction and safe to share across
worker threads.  Feature cells are plain Python scalars: ``float`` for
numeric attributes, ``int`` (category index) for nominal ones, ``None`` for
a missing value.  A dataset also holds them as one read-only float matrix
``X``, built once from the rows; subsets index it rather than rebuild it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

AttributeValue = Union[float, int, None]
FeatureVector = tuple  # tuple[AttributeValue, ...], arity fixed by the schema


class UniverseMismatch(ValueError):
    """Two label sets (or a model and a dataset) disagree on the number of
    labels and cannot be compared."""


@dataclass(frozen=True)
class LabelSet:
    """A subset of a fixed universe of ``universe`` labels, stored as a
    bitmask: bit j set means label j is relevant."""

    bits: int
    universe: int

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("label universe must be >= 0")
        if not 0 <= self.bits < (1 << self.universe):
            raise ValueError(
                f"bits 0x{self.bits:x} out of range for universe {self.universe}"
            )

    @classmethod
    def from_indices(cls, indices: Iterable[int], universe: int) -> "LabelSet":
        bits = 0
        for j in indices:
            if not 0 <= j < universe:
                raise ValueError(f"label index {j} outside universe {universe}")
            bits |= 1 << j
        return cls(bits, universe)

    @classmethod
    def empty(cls, universe: int) -> "LabelSet":
        return cls(0, universe)

    @classmethod
    def full(cls, universe: int) -> "LabelSet":
        return cls((1 << universe) - 1, universe)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.universe) if self.bits >> j & 1)

    def __contains__(self, j: int) -> bool:
        return 0 <= j < self.universe and bool(self.bits >> j & 1)

    def _check(self, other: "LabelSet") -> None:
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"label universes differ: {self.universe} vs {other.universe}"
            )

    def union(self, other: "LabelSet") -> "LabelSet":
        self._check(other)
        return LabelSet(self.bits | other.bits, self.universe)

    def intersection(self, other: "LabelSet") -> "LabelSet":
        self._check(other)
        return LabelSet(self.bits & other.bits, self.universe)

    def complement(self) -> "LabelSet":
        return LabelSet(~self.bits & ((1 << self.universe) - 1), self.universe)


def labelset_symdiff_count(a: LabelSet, b: LabelSet) -> int:
    """|a Δ b|: number of labels on which the two sets disagree."""
    a._check(b)
    return (a.bits ^ b.bits).bit_count()


@dataclass(frozen=True)
class Attribute:
    """One input attribute: numeric when ``values`` is None, otherwise
    nominal with the given ordered category names."""

    name: str
    values: Optional[tuple[str, ...]] = None

    @property
    def is_nominal(self) -> bool:
        return self.values is not None


@dataclass(frozen=True)
class Schema:
    attributes: tuple[Attribute, ...]
    label_names: tuple[str, ...]

    def __post_init__(self):
        feat_names = [a.name for a in self.attributes]
        if len(set(feat_names)) != len(feat_names):
            raise ValueError("duplicate attribute names in schema")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError("duplicate label names in schema")
        if set(feat_names) & set(self.label_names):
            raise ValueError("label names collide with feature attribute names")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)


def _validate_row(schema: Schema, vec: FeatureVector) -> None:
    if len(vec) != schema.n_attributes:
        raise ValueError(
            f"feature vector arity {len(vec)} != schema arity {schema.n_attributes}"
        )
    for attr, v in zip(schema.attributes, vec):
        if v is None:
            continue
        if attr.is_nominal:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"attribute {attr.name!r} expects a category index")
            if not 0 <= v < len(attr.values):
                raise ValueError(
                    f"category index {v} out of range for attribute {attr.name!r}"
                )
        else:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"attribute {attr.name!r} expects a numeric value")


class MLDataset:
    """Instances paired with their label sets under one schema.

    ``rows`` is a tuple of (FeatureVector, LabelSet) pairs; every LabelSet
    lives in the universe defined by ``schema.label_names``.  ``X`` is the
    read-only n x d float64 feature matrix in C order: numeric cells as
    given, nominal cells as their category index, NaN for a missing value.
    """

    __slots__ = ("schema", "rows", "X")

    def __init__(self, schema: Schema, rows, validate: bool = True,
                 X: Optional[np.ndarray] = None):
        """``X``, when given, is the feature matrix of ``rows`` (as when a
        subset indexes its parent's matrix) and is not rebuilt."""
        rows = tuple((tuple(fv), ls) for fv, ls in rows)
        if validate:
            m = schema.n_labels
            for fv, ls in rows:
                if ls.universe != m:
                    raise UniverseMismatch(
                        f"row labelset universe {ls.universe} != schema labels {m}"
                    )
                _validate_row(schema, fv)
        if X is None:
            X = np.array([fv for fv, _ in rows], dtype=float)
            X = X.reshape(len(rows), schema.n_attributes)
        X.flags.writeable = False
        for name, value in zip(self.__slots__, (schema, rows, X)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MLDataset is immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[FeatureVector, LabelSet]]:
        return iter(self.rows)

    @property
    def features(self) -> list[FeatureVector]:
        return [fv for fv, _ in self.rows]

    @property
    def labelsets(self) -> list[LabelSet]:
        return [ls for _, ls in self.rows]

    @property
    def n_labels(self) -> int:
        return self.schema.n_labels

    def subset(self, indices: Iterable[int]) -> "MLDataset":
        idx = list(indices)
        rows = self.rows
        return MLDataset(self.schema, [rows[i] for i in idx], validate=False,
                         X=self.X[idx])


@dataclass(frozen=True)
class DatasetStats:
    """Summary row for one dataset.

    ``lden`` divides by the schema's full label universe.  ``lden_observed``
    divides by the (possibly smaller) union of labels actually seen in the
    rows; it is a diagnostic, not the headline density.
    """

    n_instances: int
    n_labels: int
    lcard: float
    lden: float
    distinct_labelsets: int
    lden_observed: float


def label_cardinality(d: MLDataset) -> float:
    """Mean number of relevant labels per instance."""
    if len(d) == 0:
        raise ValueError("label_cardinality undefined on an empty dataset")
    return sum(ls.cardinality() for ls in d.labelsets) / len(d)


def label_density(d: MLDataset) -> float:
    """Label cardinality normalized by the size of the label universe."""
    if d.n_labels < 1:
        raise ValueError("label_density needs at least one label")
    return label_cardinality(d) / d.n_labels


def dataset_stats(d: MLDataset) -> DatasetStats:
    if len(d) == 0:
        raise ValueError("dataset_stats undefined on an empty dataset")
    lcard = label_cardinality(d)
    counts = Counter(ls.bits for ls in d.labelsets)
    observed_union = 0
    for bits in counts:
        observed_union |= bits
    n_observed = observed_union.bit_count()
    return DatasetStats(
        n_instances=len(d),
        n_labels=d.n_labels,
        lcard=lcard,
        lden=lcard / d.n_labels,
        distinct_labelsets=len(counts),
        lden_observed=lcard / n_observed if n_observed else 0.0,
    )
