"""Synthetic multi-label data for tests.

``correlated_dataset`` draws labels from overlapping linear score functions
that share a common latent direction, which makes every label pair
positively correlated by construction.
"""

import math

import numpy as np

from mullab.arff import RawTable
from mullab.core import Attribute, MLDataset, Schema


def _schema(n_features, n_labels):
    return Schema(
        attributes=tuple(Attribute(f"f{j}") for j in range(n_features)),
        label_names=tuple(f"L{j}" for j in range(n_labels)),
    )


def correlated_dataset(seed, n_train=200, n_test=100, n_labels=6,
                       n_features=10, shared=1.0, distinct=0.5, noise=0.3):
    """Train/test pair with correlated binary labels.

    Each label j fires when (w_j . x + noise) > 0 with
    w_j ~ shared * u + distinct * v_j for a common unit vector u and
    per-label orthogonal unit vectors v_j.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n_features)
    u /= np.linalg.norm(u)
    dirs = np.empty((n_labels, n_features))
    for j in range(n_labels):
        v = rng.normal(size=n_features)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        w = shared * u + distinct * v
        dirs[j] = w / np.linalg.norm(w)
    n = n_train + n_test
    x = rng.normal(size=(n, n_features))
    margins = x @ dirs.T + noise * rng.normal(size=(n, n_labels))
    labels = margins > 0.0
    full = MLDataset(_schema(n_features, n_labels), x, labels)
    return full.subset(range(n_train)), full.subset(range(n_train, n))


def min_pairwise_label_correlation(dataset) -> float:
    """Smallest Pearson correlation over all label pairs."""
    corr = np.corrcoef(dataset.Y.T.astype(float))
    m = dataset.n_labels
    return min(corr[a, b] for a in range(m) for b in range(a + 1, m))


def _quote(name):
    # bare only when no character can split, end or re-read the token
    if name and not any(ch.isspace() or ch in ",'\"{}%?" for ch in name):
        return name
    return f'"{name}"' if "'" in name else f"'{name}'"


def arff_text(raw):
    """Dense ARFF of a RawTable.  ``parse_arff`` gives back its relation
    name, attributes and ``X`` whenever its names hold no line break and at
    most one kind of quote character (the dialect has no escapes)."""
    lines = [f"@relation {_quote(raw.relation_name)}"]
    for attr in raw.attributes:
        kind = ("{" + ",".join(map(_quote, attr.values)) + "}"
                if attr.is_nominal else "numeric")
        lines.append(f"@attribute {_quote(attr.name)} {kind}")
    lines.append("@data")
    for row in raw.X.tolist():
        lines.append(",".join(
            "?" if math.isnan(v)
            else _quote(attr.values[int(v)]) if attr.is_nominal else repr(v)
            for v, attr in zip(row, raw.attributes)))
    return "\n".join(lines) + "\n"


def to_arff_text(dataset, relation="synthetic"):
    """Dense ARFF of an MLDataset, its labels last as {0,1} attributes."""
    labels = tuple(Attribute(name, ("0", "1"))
                   for name in dataset.schema.label_names)
    return arff_text(RawTable(relation, dataset.schema.attributes + labels,
                              np.hstack([dataset.X, dataset.Y])))


def random_rows(seed, n=30, n_labels=3, n_num=2, n_nom=1, nom_arity=3,
                missing_rate=0.0):
    """Schema and the feature and label matrices of ``random_dataset``.

    Cells are drawn row by row, left to right, then the row's labels as one
    integer whose bit j is label j; pinned reports depend on that order."""
    rng = np.random.default_rng(seed)
    attrs = [Attribute(f"num{j}") for j in range(n_num)]
    attrs += [
        Attribute(f"nom{j}", tuple(f"v{i}" for i in range(nom_arity)))
        for j in range(n_nom)
    ]
    schema = Schema(tuple(attrs), tuple(f"L{j}" for j in range(n_labels)))
    X = np.empty((n, n_num + n_nom))
    Y = np.empty((n, n_labels), dtype=bool)
    for i in range(n):
        for j in range(n_num + n_nom):
            if missing_rate and rng.random() < missing_rate:
                X[i, j] = np.nan
            elif j < n_num:
                X[i, j] = rng.normal()
            else:
                X[i, j] = rng.integers(nom_arity)
        Y[i] = int(rng.integers(1 << n_labels)) >> np.arange(n_labels) & 1
    return schema, X, Y


def random_dataset(seed, **kwargs):
    """Unstructured random dataset for property tests."""
    return MLDataset(*random_rows(seed, **kwargs))


def label_rows(index_lists, m):
    """The bool label matrix whose row i holds the labels ``index_lists[i]``
    of a universe of ``m``."""
    Y = np.zeros((len(index_lists), m), dtype=bool)
    for i, idx in enumerate(index_lists):
        Y[i, list(idx)] = True
    return Y


def bits(Y):
    """Each row of a bool label matrix as an integer whose bit j is label j
    (a Python int, so wider than 64 labels too)."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in Y]
