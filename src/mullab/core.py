"""Core domain types: attribute schemas, datasets and their summary
statistics.

Everything here is immutable after construction, so it is safe to share,
also across threads.  A dataset is two read-only matrices, the float
features ``X`` and the bool labels ``Y``; subsets, label restrictions and
metrics index them.  Feature tuples (``float``, ``int`` category index,
``None``) appear only when ``features`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class UniverseMismatch(ValueError):
    """Two label matrices (or a model and a dataset) disagree on the number
    of labels and cannot be compared."""


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


def check_threshold(t: float) -> None:
    """Raise ValueError unless ``t`` is a score threshold, in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], not {t}")


def check_category_indices(X: np.ndarray,
                           attributes: Sequence[Attribute]) -> None:
    """Raise ValueError unless every present cell of a nominal column of
    ``X`` is an integral category index below the attribute's arity."""
    nom = [j for j, a in enumerate(attributes) if a.is_nominal]
    v = X[:, nom]
    arity = np.array([len(attributes[j].values) for j in nom])
    bad = ~np.isnan(v) & ((v != np.floor(v)) | (v < 0) | (v >= arity))
    if bad.any():
        i, pos = np.argwhere(bad)[0]
        a = attributes[nom[pos]]
        raise ValueError(
            f"row {i}: attribute {a.name!r} expects an integral category "
            f"index in [0, {len(a.values)}), got {v[i, pos]:g}")


class MLDataset:
    """Instances and their labels under one schema, as two read-only
    matrices.

    ``X`` is the n x d float64 feature matrix in C order: numeric cells as
    given, nominal cells as their category index, NaN for a missing value.
    ``Y`` is the n x m bool label matrix: ``Y[i, j]`` is true when label j
    of ``schema.label_names`` is relevant to row i.
    """

    __slots__ = ("schema", "X", "Y")

    def __init__(self, schema: Schema, X: np.ndarray, Y: np.ndarray):
        """Wrap matrices laid out as described above; their shapes and
        nominal cells are checked (``check_category_indices``).  A
        C-ordered matrix of the right dtype is kept, not copied, and
        becomes read-only."""
        X = np.ascontiguousarray(X, dtype=float)
        Y = np.ascontiguousarray(Y, dtype=bool)
        n = len(X)
        if (X.shape, Y.shape) != ((n, schema.n_attributes), (n, schema.n_labels)):
            raise ValueError(f"matrices of shape {X.shape} and {Y.shape} do "
                             f"not fit the schema")
        check_category_indices(X, schema.attributes)
        X.flags.writeable = False
        Y.flags.writeable = False
        for name, value in zip(self.__slots__, (schema, X, Y)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MLDataset is immutable")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def features(self) -> list[tuple]:
        """The rows of ``X`` as tuples: float for numeric cells, int
        category index for nominal ones, None for a missing value."""
        kinds = [int if a.is_nominal else float for a in self.schema.attributes]
        return [tuple(None if math.isnan(v) else kind(v)
                      for kind, v in zip(kinds, row)) for row in self.X.tolist()]

    @property
    def n_labels(self) -> int:
        return self.schema.n_labels

    def subset(self, indices: Iterable[int]) -> "MLDataset":
        idx = np.fromiter(indices, np.intp)
        return MLDataset(self.schema, self.X[idx], self.Y[idx])


@dataclass(frozen=True)
class DatasetStats:
    """Summary row for one dataset; ``lden`` divides by the schema's full
    label universe."""

    n_instances: int
    n_labels: int
    lcard: float
    lden: float
    distinct_labelsets: int


def label_cardinality(d: MLDataset) -> float:
    """Mean number of relevant labels per instance."""
    if len(d) == 0:
        raise ValueError("label_cardinality undefined on an empty dataset")
    return int(d.Y.sum()) / len(d)


def label_density(d: MLDataset) -> float:
    """Label cardinality normalized by the size of the label universe."""
    if d.n_labels < 1:
        raise ValueError("label_density needs at least one label")
    return label_cardinality(d) / d.n_labels


def dataset_stats(d: MLDataset) -> DatasetStats:
    return DatasetStats(
        n_instances=len(d),
        n_labels=d.n_labels,
        lcard=label_cardinality(d),
        lden=label_density(d),
        distinct_labelsets=len(np.unique(d.Y, axis=0)),
    )
