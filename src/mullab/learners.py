"""Single-label probability-emitting base classifiers.

Three families, each consumed by the problem transformations:

* k-nearest-neighbours: Euclidean (or Manhattan) distance over standardized
  numeric attributes plus 0/1 mismatch on nominal ones; neighbour class
  frequencies with uniform weights, distance ties broken by lower training
  row index.
* Gaussian naive Bayes: per-class Gaussian per numeric attribute with a
  variance floor, Laplace-1 smoothed categorical likelihoods, frequency
  priors, log-space posterior.
* Decision tree: binary splits on numeric attributes (midpoints between
  consecutive distinct sorted values, "<= threshold" goes left), multiway
  splits on nominal ones, info-gain or gain-ratio criterion, optional
  per-node random attribute subsets and optional reduced-error pruning on a
  seeded held-out third of the training rows.  Leaf distributions are
  Laplace-1 smoothed class frequencies.  Split search is exhaustive and
  batched per node: all numeric candidates share one stable sort and one
  vectorised pass over every cut that ``min_leaf`` allows, with the same
  float operations (and the same class-axis sums) as a one-attribute-at-a-
  time search, so it chooses the same splits.

Missing values: numeric cells are imputed with the training mean of the
attribute; nominal cells go to a dedicated extra category.  Every learner is
deterministic given (spec, data, seed), and trained classifiers are
immutable, so concurrent predict calls are safe.

``preset(name)`` returns the named default configurations used by the
benchmark CLI: "nb", "knn", "random-t", "reptree", "j48".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import Attribute, FeatureVector
from .rng import Xoshiro256, derive_seed

ClassDistribution = np.ndarray  # shape (C,), entries in [0,1], sums to 1

_GAIN_EPS = 1e-12
# Upper bound on the (attrs x rows x classes) elements of one batch in the
# numeric split search; it bounds the search's peak memory.
_BATCH_ELEMS = 1 << 15


@dataclass(frozen=True)
class KnnSpec:
    k: int = 5
    distance: str = "euclidean"  # euclidean | manhattan

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("knn k must be >= 1")
        if self.distance not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown knn distance {self.distance!r}")


@dataclass(frozen=True)
class NaiveBayesSpec:
    variance_floor: float = 1e-6

    def __post_init__(self):
        if self.variance_floor <= 0:
            raise ValueError("variance_floor must be > 0")


@dataclass(frozen=True)
class TreeSpec:
    criterion: str = "gain_ratio"  # gain_ratio | info_gain
    random_subset_size: Union[int, str, None] = None  # int, "sqrt", or None (all)
    rep_pruning: bool = False
    min_leaf: int = 2
    max_depth: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.criterion not in ("gain_ratio", "info_gain"):
            raise ValueError(f"unknown tree criterion {self.criterion!r}")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if isinstance(self.random_subset_size, str) and self.random_subset_size != "sqrt":
            raise ValueError("random_subset_size must be an int, 'sqrt' or None")


LearnerSpec = Union[KnnSpec, NaiveBayesSpec, TreeSpec]

PRESET_NAMES = ("nb", "knn", "random-t", "reptree", "j48")

_PRESET_ALIASES = {
    "nb": "nb", "naive-bayes": "nb", "naivebayes": "nb",
    "knn": "knn", "k-nn": "knn",
    "random-t": "random-t", "rt": "random-t", "random-tree": "random-t",
    "randomtree": "random-t",
    "reptree": "reptree", "rep-tree": "reptree",
    "j48": "j48",
}


def preset(name: str) -> LearnerSpec:
    """Named default learner configurations (see PRESET_NAMES)."""
    key = _PRESET_ALIASES.get(name.strip().lower().replace("_", "-"))
    if key is None:
        raise ValueError(f"unknown learner preset {name!r}")
    if key == "nb":
        return NaiveBayesSpec()
    if key == "knn":
        return KnnSpec(k=5)
    if key == "random-t":
        return TreeSpec(criterion="info_gain", random_subset_size="sqrt")
    if key == "reptree":
        return TreeSpec(criterion="info_gain", rep_pruning=True)
    return TreeSpec(criterion="gain_ratio")  # j48


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

class _Encoder:
    """Maps FeatureVectors to a float matrix.

    Numeric columns keep their value (missing -> training mean); nominal
    columns hold the category index as a float, with missing mapped to the
    extra index n_declared.  Category arity is fixed at n_declared + 1 so the
    encoding does not depend on where missing values happen to occur.
    """

    def __init__(self, features: Sequence[FeatureVector],
                 attributes: Optional[Sequence[Attribute]] = None):
        if not features:
            raise ValueError("cannot encode an empty feature list")
        d = len(features[0])
        for row in features:
            if len(row) != d:
                raise ValueError("inconsistent feature arity in training data")
        if attributes is not None:
            if len(attributes) != d:
                raise ValueError("attribute list arity does not match data")
            self.is_nominal = np.array([a.is_nominal for a in attributes])
            declared = [len(a.values) if a.is_nominal else 0 for a in attributes]
        else:
            self.is_nominal, declared = self._infer(features, d)
        self.n_values = np.array(
            [c + 1 if nom else 0 for nom, c in zip(self.is_nominal, declared)]
        )
        self._declared = declared
        raw = self._raw_matrix(features)
        self.means = np.zeros(d)
        for j in np.flatnonzero(~self.is_nominal):
            col = raw[:, j]
            ok = ~np.isnan(col)
            self.means[j] = col[ok].mean() if ok.any() else 0.0
        self.matrix = self._finish(raw)

    @staticmethod
    def _infer(features, d):
        is_nominal = np.zeros(d, dtype=bool)
        declared = [0] * d
        for j in range(d):
            col = [row[j] for row in features if row[j] is not None]
            if col and all(isinstance(v, int) and not isinstance(v, bool) for v in col):
                is_nominal[j] = True
                declared[j] = max(col) + 1
        return is_nominal, declared

    def _raw_matrix(self, features) -> np.ndarray:
        n, d = len(features), len(self.is_nominal)
        raw = np.empty((n, d))
        for j in range(d):
            nominal = self.is_nominal[j]
            cap = self._declared[j]
            col = raw[:, j]
            for i, row in enumerate(features):
                v = row[j]
                if v is None:
                    col[i] = np.nan
                elif nominal:
                    if not 0 <= int(v) < cap:
                        raise ValueError(
                            f"category index {v} out of range at attribute {j}"
                        )
                    col[i] = float(int(v))
                else:
                    col[i] = float(v)
        return raw

    def _finish(self, raw: np.ndarray) -> np.ndarray:
        out = raw.copy()
        for j in range(out.shape[1]):
            col = out[:, j]
            miss = np.isnan(col)
            if miss.any():
                col[miss] = self._declared[j] if self.is_nominal[j] else self.means[j]
        return out

    def transform(self, features: Sequence[FeatureVector]) -> np.ndarray:
        d = len(self.is_nominal)
        for row in features:
            if len(row) != d:
                raise ValueError(
                    f"query arity {len(row)} does not match training arity {d}"
                )
        return self._finish(self._raw_matrix(features))


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

class Classifier:
    """Trained base model; yields a probability vector over the training
    classes for any conforming feature vector."""

    n_classes: int

    def predict_dist(self, x: FeatureVector) -> ClassDistribution:
        return self.predict_dist_many([x])[0]

    def predict_dist_many(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        raise NotImplementedError


class _ConstantClassifier(Classifier):
    """Degenerate model for empty or single-class training data."""

    def __init__(self, n_classes: int, class_index: int = 0):
        self.n_classes = n_classes
        self._dist = np.zeros(n_classes)
        if n_classes:
            self._dist[class_index] = 1.0

    def predict_dist_many(self, rows):
        return np.tile(self._dist, (len(rows), 1))


class KnnClassifier(Classifier):
    def __init__(self, spec: KnnSpec, enc: _Encoder, y: np.ndarray, n_classes: int):
        self.spec = spec
        self.n_classes = n_classes
        self._enc = enc
        self._y = y
        num = ~enc.is_nominal
        self._num_cols = np.flatnonzero(num)
        self._nom_cols = np.flatnonzero(enc.is_nominal)
        x = enc.matrix
        self._mu = x[:, self._num_cols].mean(axis=0) if self._num_cols.size else None
        if self._num_cols.size:
            sd = x[:, self._num_cols].std(axis=0)
            sd[sd == 0.0] = 1.0
            self._sd = sd
            self._xn = (x[:, self._num_cols] - self._mu) / sd
        else:
            self._xn = None
        self._xc = x[:, self._nom_cols]
        self.k = min(spec.k, len(y))

    def _distances(self, q: np.ndarray) -> np.ndarray:
        nq, nt = q.shape[0], self._y.shape[0]
        d = np.zeros((nq, nt))
        if self._xn is not None:
            qn = (q[:, self._num_cols] - self._mu) / self._sd
            if self.spec.distance == "euclidean":
                d += (
                    (qn * qn).sum(axis=1)[:, None]
                    + (self._xn * self._xn).sum(axis=1)[None, :]
                    - 2.0 * qn @ self._xn.T
                )
                np.clip(d, 0.0, None, out=d)
            else:
                for j in range(qn.shape[1]):
                    d += np.abs(qn[:, j][:, None] - self._xn[None, :, j])
        for j in range(self._nom_cols.size):
            d += (q[:, self._nom_cols[j]][:, None] != self._xc[None, :, j])
        return d

    def predict_dist_many(self, rows):
        q = self._enc.transform(rows)
        dist = self._distances(q)
        # stable argsort: equal distances keep ascending training-row order
        nearest = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
        out = np.zeros((len(rows), self.n_classes))
        for c in range(self.n_classes):
            out[:, c] = (self._y[nearest] == c).sum(axis=1)
        return out / self.k


class NaiveBayesClassifier(Classifier):
    def __init__(self, spec: NaiveBayesSpec, enc: _Encoder, y: np.ndarray,
                 n_classes: int):
        self.spec = spec
        self.n_classes = n_classes
        self._enc = enc
        x = enc.matrix
        n = len(y)
        counts = np.bincount(y, minlength=n_classes).astype(float)
        with np.errstate(divide="ignore"):
            self._log_prior = np.log(counts / n)
        self._num_cols = np.flatnonzero(~enc.is_nominal)
        self._nom_cols = np.flatnonzero(enc.is_nominal)
        if self._num_cols.size:
            self._mean = np.zeros((n_classes, self._num_cols.size))
            self._var = np.full((n_classes, self._num_cols.size), spec.variance_floor)
            for c in range(n_classes):
                xc = x[y == c][:, self._num_cols]
                if len(xc):
                    self._mean[c] = xc.mean(axis=0)
                    self._var[c] = np.maximum(xc.var(axis=0), spec.variance_floor)
        self._nom_loglik = []
        for j in self._nom_cols:
            v = int(enc.n_values[j])
            table = np.ones((n_classes, v))  # Laplace-1
            np.add.at(table, (y, x[:, j].astype(int)), 1.0)
            self._nom_loglik.append(np.log(table / table.sum(axis=1, keepdims=True)))

    def predict_dist_many(self, rows):
        q = self._enc.transform(rows)
        log_post = np.tile(self._log_prior, (len(rows), 1))
        if self._num_cols.size:
            qn = q[:, self._num_cols]
            diff = qn[:, None, :] - self._mean[None, :, :]
            log_post += (
                -0.5 * np.log(2.0 * math.pi * self._var)[None, :, :]
                - diff * diff / (2.0 * self._var)[None, :, :]
            ).sum(axis=2)
        for pos, j in enumerate(self._nom_cols):
            log_post += self._nom_loglik[pos][:, q[:, j].astype(int)].T
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)


class _Node:
    __slots__ = ("counts", "attr", "threshold", "left", "right", "children")

    def __init__(self, counts):
        self.counts = counts
        self.attr = None       # None -> leaf
        self.threshold = None  # set for numeric splits
        self.left = None
        self.right = None
        self.children = None   # list per category for nominal splits

    def collapse(self):
        self.attr = None
        self.threshold = None
        self.left = self.right = self.children = None

    def structure(self):
        """Nested-tuple dump for equality checks in tests."""
        if self.attr is None:
            return ("leaf", tuple(int(c) for c in self.counts))
        if self.threshold is not None:
            return ("num", self.attr, self.threshold,
                    self.left.structure(), self.right.structure())
        kids = tuple(c.structure() if c is not None else None for c in self.children)
        return ("nom", self.attr, kids)


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _class_entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropy of each count vector along the last (class) axis.

    ``totals`` holds the count sums and runs along the second-to-last axis.
    Every class column is kept, present or not: the float sum over the
    contiguous class axis is then grouped the same way at every node.
    """
    p = counts / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(p), 0.0)
    return terms.sum(axis=-1)


class TreeClassifier(Classifier):
    def __init__(self, spec: TreeSpec, enc: _Encoder, y: np.ndarray, n_classes: int):
        self.spec = spec
        self.n_classes = n_classes
        self._enc = enc
        self._x = enc.matrix
        self._y = y
        self._rng = Xoshiro256(derive_seed(spec.seed, 0))
        self.prune_error_before = None
        self.prune_error_after = None
        n = len(y)
        if spec.rep_pruning and n // 3 >= 1:
            fold_rng = Xoshiro256(derive_seed(spec.seed, 1))
            perm = list(range(n))
            fold_rng.shuffle(perm)
            n_prune = n // 3
            prune_idx = np.array(sorted(perm[:n_prune]))
            grow_idx = np.array(sorted(perm[n_prune:]))
            self.root = self._build(grow_idx, 0)
            self.prune_error_before = self._routed_error(self.root, prune_idx)
            self.prune_error_after = self._prune(self.root, prune_idx)
        else:
            self.root = self._build(np.arange(n), 0)

    # -- induction ---------------------------------------------------------

    def _candidate_attrs(self, d: int) -> list[int]:
        size = self.spec.random_subset_size
        if size is None:
            return list(range(d))
        if size == "sqrt":
            size = math.ceil(math.sqrt(d))
        size = max(1, min(int(size), d))
        return sorted(self._rng.sample(d, size))

    def _build(self, idx: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(self._y[idx], minlength=self.n_classes)
        node = _Node(counts)
        spec = self.spec
        if (
            (counts > 0).sum() <= 1
            or len(idx) < 2 * spec.min_leaf
            or (spec.max_depth is not None and depth >= spec.max_depth)
        ):
            return node
        parent_h = _entropy(counts)
        attrs = self._candidate_attrs(self._x.shape[1])
        nominal = self._enc.is_nominal[attrs]
        metric = np.empty(len(attrs))
        threshold = np.empty(len(attrs))
        num = np.flatnonzero(~nominal)
        if num.size:
            metric[num], threshold[num] = self._eval_numeric_all(
                np.asarray(attrs)[num], idx, parent_h)
        for i in np.flatnonzero(nominal):
            metric[i] = self._eval_nominal(attrs[i], idx, parent_h)
        pos = int(np.argmax(metric))  # first max: earliest candidate wins ties
        if metric[pos] <= 0.0:
            return node
        node.attr = attrs[pos]
        col = self._x[idx, node.attr]
        if nominal[pos]:
            cats = col.astype(int)
            parts = [idx[cats == v]
                     for v in range(int(self._enc.n_values[node.attr]))]
            node.children = [
                self._build(part, depth + 1) if len(part) else None
                for part in parts
            ]
        else:
            node.threshold = float(threshold[pos])
            mask = col <= node.threshold
            node.left = self._build(idx[mask], depth + 1)
            node.right = self._build(idx[~mask], depth + 1)
        return node

    def _eval_numeric_all(self, attrs: np.ndarray, idx: np.ndarray,
                          parent_h: float):
        """Best binary cut of each numeric attribute in ``attrs`` at one node.

        Returns ``(metric, threshold)`` arrays aligned with ``attrs``; a
        metric <= 0 means the attribute has no useful cut.  Cut ``i`` sends
        sorted rows ``0..i`` left; only cuts between distinct values that
        leave ``min_leaf`` rows on each side count, and the first maximum
        (lowest threshold) wins.  All attributes share one stable sort and
        are evaluated together in batches of at most ``_BATCH_ELEMS``
        (attrs x rows x classes) elements.
        """
        n, m = len(idx), self.spec.min_leaf
        vals = self._x[idx][:, attrs]
        order = np.argsort(vals, axis=0, kind="stable")
        sv = np.take_along_axis(vals, order, axis=0).T  # attrs x rows
        sy = self._y[idx][order].T
        window = slice(m - 1, n - m)  # cuts that leave min_leaf rows per side
        nl = np.arange(m, n - m + 1)
        nr = n - nl
        admissible = sv[:, window] != sv[:, m:n - m + 1]
        gain_ratio = self.spec.criterion == "gain_ratio"
        if gain_ratio:
            pl, pr = nl / n, nr / n
            split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
        classes = np.arange(self.n_classes)
        metric = np.empty(admissible.shape)
        step = max(1, _BATCH_ELEMS // (n * self.n_classes))
        for s in range(0, len(attrs), step):
            cum = (sy[s:s + step, :, None] == classes).cumsum(axis=1)
            left = cum[:, window]
            right = cum[:, -1:] - left
            child_h = (nl * _class_entropy(left, nl)
                       + nr * _class_entropy(right, nr)) / n
            gain = parent_h - child_h
            ok = admissible[s:s + step] & (gain > _GAIN_EPS)
            if gain_ratio:
                metric[s:s + step] = np.where(
                    ok & (split_info > _GAIN_EPS), gain / split_info, -1.0)
            else:
                metric[s:s + step] = np.where(ok, gain, -1.0)
        rows = np.arange(len(attrs))
        pos = np.argmax(metric, axis=1)  # first max: lowest threshold wins ties
        cut = pos + (m - 1)
        lo, hi = sv[rows, cut], sv[rows, cut + 1]
        threshold = (lo + hi) / 2.0
        # the midpoint of adjacent floats can round up to the upper value
        threshold = np.where(threshold >= hi, lo, threshold)
        return metric[rows, pos], threshold

    def _eval_nominal(self, a: int, idx: np.ndarray, parent_h: float) -> float:
        """Criterion value of the multiway split on nominal attribute ``a``;
        -1.0 when the split is not allowed or gains nothing."""
        arity = int(self._enc.n_values[a])
        cats = self._x[idx, a].astype(int)
        table = np.zeros((arity, self.n_classes))
        np.add.at(table, (cats, self._y[idx]), 1.0)
        sizes = table.sum(axis=1)
        nonempty = sizes > 0
        if nonempty.sum() < 2:
            return -1.0
        if (sizes[nonempty] < self.spec.min_leaf).any():
            return -1.0
        n = len(idx)
        child_h = (sizes[nonempty] * _class_entropy(table[nonempty], sizes[nonempty])).sum() / n
        gain = parent_h - child_h
        if gain <= _GAIN_EPS:
            return -1.0
        if self.spec.criterion == "gain_ratio":
            p = sizes[nonempty] / n
            split_info = float(-(p * np.log2(p)).sum())
            if split_info <= _GAIN_EPS:
                return -1.0
            return float(gain / split_info)
        return float(gain)

    # -- reduced-error pruning ----------------------------------------------

    def _split_rows(self, node: _Node, idx: np.ndarray):
        """Partition prune rows along the node's test.

        Nominal categories with no grown child keep their rows 'stuck' at
        this node, where prediction falls back to the node distribution.
        """
        if node.threshold is not None:
            mask = self._x[idx, node.attr] <= node.threshold
            return [(node.left, idx[mask]), (node.right, idx[~mask])], idx[:0]
        cats = self._x[idx, node.attr].astype(int)
        routed = []
        stuck = []
        for v, child in enumerate(node.children):
            rows = idx[cats == v]
            if child is None:
                stuck.append(rows)
            else:
                routed.append((child, rows))
        stuck_idx = np.concatenate(stuck) if stuck else idx[:0]
        return routed, stuck_idx

    def _leaf_error(self, node: _Node, idx: np.ndarray) -> int:
        if len(idx) == 0:
            return 0
        majority = int(np.argmax(node.counts))
        return int((self._y[idx] != majority).sum())

    def _routed_error(self, node: _Node, idx: np.ndarray) -> int:
        if node.attr is None:
            return self._leaf_error(node, idx)
        routed, stuck = self._split_rows(node, idx)
        err = self._leaf_error(node, stuck)
        for child, rows in routed:
            err += self._routed_error(child, rows)
        return err

    def _prune(self, node: _Node, idx: np.ndarray) -> int:
        err_leaf = self._leaf_error(node, idx)
        if node.attr is None:
            return err_leaf
        routed, stuck = self._split_rows(node, idx)
        err_subtree = self._leaf_error(node, stuck)
        for child, rows in routed:
            err_subtree += self._prune(child, rows)
        if err_leaf <= err_subtree:
            node.collapse()
            return err_leaf
        return err_subtree

    # -- prediction ----------------------------------------------------------

    def predict_dist_many(self, rows):
        q = self._enc.transform(rows)
        out = np.empty((len(rows), self.n_classes))
        for i in range(len(rows)):
            node = self.root
            while node.attr is not None:
                if node.threshold is not None:
                    node = node.left if q[i, node.attr] <= node.threshold else node.right
                else:
                    child = node.children[int(q[i, node.attr])]
                    if child is None:
                        break
                    node = child
            out[i] = (node.counts + 1.0) / (node.counts.sum() + self.n_classes)
        return out


# ---------------------------------------------------------------------------
# fitting entry point
# ---------------------------------------------------------------------------

def fit(spec: LearnerSpec, features: Sequence[FeatureVector],
        classes: Sequence[int],
        attributes: Optional[Sequence[Attribute]] = None) -> Classifier:
    """Train a classifier.  ``classes`` are dense indices in [0, C).

    ``attributes`` carries the schema kinds; when omitted, columns whose
    observed values are all ints are treated as nominal.
    """
    if len(features) != len(classes):
        raise ValueError("features and classes differ in length")
    if len(features) == 0:
        return _ConstantClassifier(0)
    y = np.asarray(list(classes), dtype=np.int64)
    if (y < 0).any():
        raise ValueError("class indices must be >= 0")
    n_classes = int(y.max()) + 1
    if n_classes == 1:
        # single observed class: degenerate but valid, even with pruning on
        _Encoder(features, attributes)  # still validates arity and domains
        return _ConstantClassifier(1, 0)
    enc = _Encoder(features, attributes)
    if isinstance(spec, KnnSpec):
        return KnnClassifier(spec, enc, y, n_classes)
    if isinstance(spec, NaiveBayesSpec):
        return NaiveBayesClassifier(spec, enc, y, n_classes)
    if isinstance(spec, TreeSpec):
        return TreeClassifier(spec, enc, y, n_classes)
    raise TypeError(f"unknown learner spec {type(spec).__name__}")
