"""Single-label probability-emitting base classifiers.

Three families, each consumed by the problem transformations:

* k-nearest-neighbours: Euclidean (or Manhattan) distance over standardized
  numeric attributes plus 0/1 mismatch on nominal ones; neighbour class
  frequencies with uniform weights, distance ties broken by lower training
  row index.  Neighbours come from an exact top-k selection (a partition
  plus ordered tie filling), not a full sort.  A ``KnnIndex`` holds the
  encoder and the standardised training matrix and finds the neighbours; a
  ``KnnClassifier`` keeps only its class vector and counts the votes, so
  classifiers that differ only in their classes can share one index and
  one search per query matrix.
* Gaussian naive Bayes: per-class Gaussian per numeric attribute with a
  variance floor, Laplace-1 smoothed categorical likelihoods, frequency
  priors, log-space posterior.  Prediction takes the query rows in blocks of
  at most ``_NB_BLOCK_ELEMS`` (2^18) rows x classes x numeric attributes
  elements, with the same float operations per row as one block.
* Decision tree: binary splits on numeric attributes (midpoints between
  consecutive distinct sorted values, "<= threshold" goes left), multiway
  splits on nominal ones, optional per-node random attribute subsets and
  optional reduced-error pruning on a seeded held-out third of the training
  rows.  The criterion is info gain, gain ratio, or ``c45`` (the ``j48``
  preset): C4.5's rules, where each numeric threshold is chosen by gain
  less the MDL cost log2(admissible cuts) / n (Quinlan 1996), and the
  attribute by the best gain ratio among candidates whose gain is at least
  the average (Quinlan 1993).  Plain gain ratio favours cuts that peel
  ``min_leaf`` rows off one side and grows deep trees.  Leaf distributions
  are Laplace-1 smoothed class frequencies.  Split search is exhaustive and
  batched per node: all numeric candidates share one stable sort and one
  vectorised pass over every cut that ``min_leaf`` allows, with the same
  float operations (and the same class-axis sums) as a one-attribute-at-a-
  time search, so it chooses the same splits.  Growing, pruning and
  prediction route index arrays of rows through one split test
  (``_parts``); a row whose category grew no child stops at its node.

Input: ``fit`` and ``predict_dist_many`` take an n x d float matrix such as
``MLDataset.X`` (NaN marks a missing cell), which is built once per dataset;
a C-ordered float64 matrix is used as is, without a copy or a per-row pass.
``prepare(spec, X, attributes)`` builds the encoder (and for kNN the index)
of a training matrix once; ``fit(..., shared=...)`` reuses it, which is how
one model fits many classifiers on one matrix.
Column kinds come only from the schema ``attributes``: without them every
column is numeric, and nothing is inferred from the values.  A nominal cell
must be an integral category index below the attribute's arity; anything
else is a ``ValueError`` naming the attribute, in training and in queries.

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

from .core import Attribute, check_category_indices
from .rng import Xoshiro256, derive_seed

_GAIN_EPS = 1e-12
# Upper bound on the (attrs x rows x classes) elements of one batch in the
# numeric split search; it bounds the search's peak memory.
_BATCH_ELEMS = 1 << 15
# Upper bound on the (query rows x classes x numeric attrs) elements of one
# block in naive Bayes prediction; it bounds the prediction's peak memory.
_NB_BLOCK_ELEMS = 1 << 18


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
    criterion: str = "gain_ratio"  # gain_ratio | info_gain | c45
    random_subset_size: Union[int, str, None] = None  # int, "sqrt", or None (all)
    rep_pruning: bool = False
    min_leaf: int = 2
    max_depth: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.criterion not in ("gain_ratio", "info_gain", "c45"):
            raise ValueError(f"unknown tree criterion {self.criterion!r}")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, not {self.max_depth}")
        if isinstance(self.random_subset_size, str):
            if self.random_subset_size != "sqrt":
                raise ValueError("random_subset_size must be an int, 'sqrt' or None")
        elif self.random_subset_size is not None and self.random_subset_size < 1:
            raise ValueError(f"random_subset_size must be >= 1, "
                             f"not {self.random_subset_size}")


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
    return TreeSpec(criterion="c45")  # j48


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

class _Encoder:
    """Maps an n x d feature matrix to the float matrix the learners use.

    Numeric columns keep their value (missing -> training mean); nominal
    columns hold the category index as a float, with missing mapped to the
    extra index n_declared.  Category arity is fixed at n_declared + 1 so the
    encoding does not depend on where missing values happen to occur.
    Without ``attributes`` every column is numeric.
    """

    def __init__(self, features, attributes: Optional[Sequence[Attribute]] = None):
        raw = np.ascontiguousarray(features, dtype=float)
        if raw.ndim != 2:
            raise ValueError("features must be an n x d matrix")
        if attributes is None:
            attributes = [Attribute(f"#{j}") for j in range(raw.shape[1])]
        if len(attributes) != raw.shape[1]:
            raise ValueError("attribute list arity does not match data")
        self._attributes = attributes
        self.is_nominal = np.array([a.is_nominal for a in attributes], dtype=bool)
        self._declared = np.array(
            [len(a.values) if a.is_nominal else 0 for a in attributes])
        self.n_values = np.where(self.is_nominal, self._declared + 1, 0)
        check_category_indices(raw, attributes)
        means = np.zeros(len(attributes))
        for j in np.flatnonzero(~self.is_nominal):
            col = raw[:, j]
            ok = ~np.isnan(col)
            means[j] = col[ok].mean() if ok.any() else 0.0
        self._fill = np.where(self.is_nominal, self._declared, means)
        self.matrix = self._finish(raw)

    def _finish(self, raw: np.ndarray) -> np.ndarray:
        miss = np.isnan(raw)
        return np.where(miss, self._fill, raw) if miss.any() else raw

    def transform(self, features) -> np.ndarray:
        d = len(self.is_nominal)
        raw = np.ascontiguousarray(features, dtype=float)
        if raw.size == 0:
            raw = raw.reshape(0, d)
        if raw.ndim != 2 or raw.shape[1] != d:
            raise ValueError(
                f"query arity {raw.shape[-1]} does not match training arity {d}")
        check_category_indices(raw, self._attributes)
        return self._finish(raw)


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

class Classifier:
    """Trained base model over ``n_classes`` classes.  Its one prediction
    method, ``predict_dist_many``, takes an n x d feature matrix (or a list
    of n rows) and returns the n x n_classes matrix whose rows are class
    probability distributions."""

    n_classes: int

    def predict_dist_many(self, rows) -> np.ndarray:
        raise NotImplementedError


class ConstantClassifier(Classifier):
    """Degenerate model that always predicts class 0: for empty or
    single-class training data."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self._dist = np.zeros(n_classes)
        if n_classes:
            self._dist[0] = 1.0

    def predict_dist_many(self, rows):
        return np.tile(self._dist, (len(rows), 1))


class KnnIndex:
    """The standardised training matrix of one encoder, searched for each
    query row's ``k`` nearest training rows.

    Every kNN classifier on the same training matrix and ``KnnSpec`` can
    share one index: binary relevance and RAKEL fit all their labels and
    members on one, and search it once per query matrix.
    """

    def __init__(self, spec: KnnSpec, enc: _Encoder):
        self.spec = spec
        self.enc = enc
        self._num_cols = np.flatnonzero(~enc.is_nominal)
        self._nom_cols = np.flatnonzero(enc.is_nominal)
        x = enc.matrix
        self.n_rows = x.shape[0]
        if self._num_cols.size:
            self._mu = x[:, self._num_cols].mean(axis=0)
            sd = x[:, self._num_cols].std(axis=0)
            sd[sd == 0.0] = 1.0
            self._sd = sd
            self._xn = (x[:, self._num_cols] - self._mu) / sd
        else:
            self._xn = None
        self._xc = x[:, self._nom_cols]
        self.k = min(spec.k, self.n_rows)

    def _distances(self, q: np.ndarray) -> np.ndarray:
        d = np.zeros((q.shape[0], self.n_rows))
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

    def neighbours(self, rows) -> np.ndarray:
        """The (nq, k) training row indices nearest to each query row, in
        ascending index order: the rows a stable argsort of the distances
        puts first."""
        dist = self._distances(self.enc.transform(rows))
        nq, k = dist.shape[0], self.k
        # exact top-k: all rows closer than the k-th distance, then rows
        # tied with it by ascending index
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        if np.isnan(kth).any():
            raise ValueError("knn distances are not numbers; rescale the features")
        chosen, tied = dist < kth, dist == kth
        spare = k - chosen.sum(axis=1)  # >= 1 slots left for tied rows
        for i in np.flatnonzero(tied.sum(axis=1) > spare):
            tied[i, np.flatnonzero(tied[i])[spare[i]:]] = False
        return np.nonzero(chosen | tied)[1].reshape(nq, k)


class KnnClassifier(Classifier):
    """Neighbour class frequencies over a (possibly shared) ``KnnIndex``."""

    def __init__(self, index: KnnIndex, y: np.ndarray, n_classes: int):
        self.index = index
        self.n_classes = n_classes
        self._y = y

    def votes(self, neighbours: np.ndarray) -> np.ndarray:
        """Class distributions from ``index.neighbours`` of the query rows."""
        (nq, k), c = neighbours.shape, self.n_classes
        votes = self._y[neighbours] + c * np.arange(nq)[:, None]
        return np.bincount(votes.ravel(), minlength=nq * c).reshape(nq, c) / k

    def predict_dist_many(self, rows):
        return self.votes(self.index.neighbours(rows))


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
            log_norm = -0.5 * np.log(2.0 * math.pi * self._var)
            two_var = 2.0 * self._var
            # query rows in blocks of at most _NB_BLOCK_ELEMS (classes x d)
            # elements, each row with the same float operations
            step = max(1, _NB_BLOCK_ELEMS // self._mean.size)
            for s in range(0, len(q), step):
                diff = qn[s:s + step, None, :] - self._mean[None, :, :]
                log_post[s:s + step] += (
                    log_norm[None, :, :] - diff * diff / two_var[None, :, :]
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


def _parts(node: _Node, x: np.ndarray, idx: np.ndarray) -> list:
    """Rows ``idx`` of ``x`` split by ``node``'s test: ``(child, rows)`` per
    branch, rows in ascending order.  A numeric test gives ``left`` (``<=
    threshold``) and ``right``; a nominal one gives each category's slot of
    ``children``, None for a category that grew no child."""
    col = x[idx, node.attr]
    if node.threshold is not None:
        mask = col <= node.threshold
        return [(node.left, idx[mask]), (node.right, idx[~mask])]
    cats = col.astype(int)
    return [(child, idx[cats == v]) for v, child in enumerate(node.children)]


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
            self.prune_error_before, self.prune_error_after = self._prune(
                self.root, prune_idx)
        else:
            self.root = self._build(np.arange(n), 0)

    # -- induction ---------------------------------------------------------

    def _candidate_attrs(self, d: int) -> list[int]:
        size = self.spec.random_subset_size
        if size is None:
            return list(range(d))
        if size == "sqrt":
            size = math.ceil(math.sqrt(d))
        size = min(size, d)
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
        gain = np.empty(len(attrs))
        ratio = np.empty(len(attrs))
        threshold = np.empty(len(attrs))
        num = np.flatnonzero(~nominal)
        if num.size:
            gain[num], ratio[num], threshold[num] = self._eval_numeric_all(
                np.asarray(attrs)[num], idx, parent_h)
        for i in np.flatnonzero(nominal):
            gain[i], ratio[i] = self._eval_nominal(attrs[i], idx, parent_h)
        pos = self._choose(gain, ratio)
        if pos is None:
            return node
        node.attr = attrs[pos]
        if nominal[pos]:
            node.children = [None] * int(self._enc.n_values[node.attr])
        else:
            node.threshold = float(threshold[pos])
        kids = [self._build(part, depth + 1) if len(part) else None
                for _, part in _parts(node, self._x, idx)]
        if nominal[pos]:
            node.children = kids
        else:
            node.left, node.right = kids
        return node

    def _choose(self, gain: np.ndarray, ratio: np.ndarray) -> Optional[int]:
        """Position of the candidate split the criterion picks, or None when
        no candidate is useful; the first maximum (earliest candidate) wins
        ties.

        ``c45`` averages the gains of the candidates whose gain is positive
        and picks the best gain ratio among those whose gain is at least
        that average (Quinlan 1993, C4.5), less ``_GAIN_EPS`` so that equal
        gains all qualify whatever the rounding of their mean.
        """
        criterion = self.spec.criterion
        if criterion == "info_gain":
            score = gain
        elif criterion == "gain_ratio":
            score = ratio
        else:
            useful = gain > 0.0
            if not useful.any():
                return None
            average = gain[useful].mean()
            score = np.where(useful & (gain >= average - _GAIN_EPS), ratio, -1.0)
        pos = int(np.argmax(score))
        return pos if score[pos] > 0.0 else None

    def _eval_numeric_all(self, attrs: np.ndarray, idx: np.ndarray,
                          parent_h: float):
        """Best binary cut of each numeric attribute in ``attrs`` at one node.

        Returns ``(gain, ratio, threshold)`` arrays aligned with ``attrs``:
        the information gain, gain ratio and threshold of each attribute's
        chosen cut; a gain or ratio <= 0 means the attribute has no useful
        cut.  Cut ``i`` sends sorted rows ``0..i`` left; only cuts between
        distinct values that leave ``min_leaf`` rows on each side count, and
        the first maximum (lowest threshold) wins.  ``gain_ratio`` picks the
        cut by gain ratio, the other criteria by gain.  ``c45`` then
        subtracts log2(admissible cuts) / n, the cost of choosing the
        threshold (Quinlan 1996, "Improved use of continuous attributes in
        C4.5"), from the gain.  The split info of every cut is computed once
        and read at the chosen one.  All attributes share one stable sort
        and are evaluated together in batches of at most ``_BATCH_ELEMS``
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
        pl, pr = nl / n, nr / n
        split_info = -(pl * np.log2(pl) + pr * np.log2(pr))  # per cut
        by_ratio = self.spec.criterion == "gain_ratio"
        if by_ratio:
            score = np.empty(admissible.shape)
        classes = np.arange(self.n_classes)
        gains = np.empty(admissible.shape)
        step = max(1, _BATCH_ELEMS // (n * self.n_classes))
        for s in range(0, len(attrs), step):
            cum = (sy[s:s + step, :, None] == classes).cumsum(axis=1)
            left = cum[:, window]
            right = cum[:, -1:] - left
            child_h = (nl * _class_entropy(left, nl)
                       + nr * _class_entropy(right, nr)) / n
            gain = parent_h - child_h
            ok = admissible[s:s + step] & (gain > _GAIN_EPS)
            gains[s:s + step] = np.where(ok, gain, -1.0)
            if by_ratio:
                score[s:s + step] = np.where(
                    ok & (split_info > _GAIN_EPS), gain / split_info, -1.0)
        if not by_ratio:
            score = gains
        rows = np.arange(len(attrs))
        pos = np.argmax(score, axis=1)  # first max: lowest threshold wins ties
        cut = pos + (m - 1)
        lo, hi = sv[rows, cut], sv[rows, cut + 1]
        threshold = (lo + hi) / 2.0
        # the midpoint of adjacent floats can round up to the upper value
        threshold = np.where(threshold >= hi, lo, threshold)
        gain = gains[rows, pos]
        if by_ratio:
            return gain, score[rows, pos], threshold
        if self.spec.criterion == "c45":
            # without an admissible cut the gain is -1 already; the floor
            # only keeps log2 finite
            tested = np.maximum(admissible.sum(axis=1), 1)
            gain = gain - np.log2(tested) / n
            gain = np.where(gain > 0.0, gain, -1.0)
        info = split_info[pos]
        ratio = np.where((gain > 0.0) & (info > _GAIN_EPS), gain / info, -1.0)
        return gain, ratio, threshold

    def _eval_nominal(self, a: int, idx: np.ndarray, parent_h: float):
        """``(gain, ratio)`` of the multiway split on nominal attribute
        ``a``: its information gain and gain ratio, each -1.0 when the split
        is not allowed or gains nothing."""
        arity = int(self._enc.n_values[a])
        cats = self._x[idx, a].astype(int)
        table = np.zeros((arity, self.n_classes))
        np.add.at(table, (cats, self._y[idx]), 1.0)
        sizes = table.sum(axis=1)
        nonempty = sizes > 0
        if nonempty.sum() < 2:
            return -1.0, -1.0
        if (sizes[nonempty] < self.spec.min_leaf).any():
            return -1.0, -1.0
        n = len(idx)
        child_h = (sizes[nonempty] * _class_entropy(table[nonempty], sizes[nonempty])).sum() / n
        gain = parent_h - child_h
        if gain <= _GAIN_EPS:
            return -1.0, -1.0
        split_info = _entropy(sizes)
        ratio = gain / split_info if split_info > _GAIN_EPS else -1.0
        return float(gain), float(ratio)

    # -- reduced-error pruning ----------------------------------------------

    def _leaf_error(self, node: _Node, idx: np.ndarray) -> int:
        majority = int(np.argmax(node.counts))
        return int((self._y[idx] != majority).sum())

    def _prune(self, node: _Node, idx: np.ndarray) -> tuple[int, int]:
        """Collapse, bottom-up, every subtree that misclassifies at least as
        many of the prune rows ``idx`` as a leaf would; returns the errors
        on ``idx`` before and after."""
        err_leaf = self._leaf_error(node, idx)
        if node.attr is None:
            return err_leaf, err_leaf
        before = after = 0
        for child, rows in _parts(node, self._x, idx):
            # rows of a category with no grown child stay at this node: a
            # leaf with its counts, as in prediction
            err_before, err_after = self._prune(child or _Node(node.counts),
                                                rows)
            before, after = before + err_before, after + err_after
        if err_leaf <= after:
            node.collapse()
            return before, err_leaf
        return before, after

    # -- prediction ----------------------------------------------------------

    def predict_dist_many(self, rows):
        q = self._enc.transform(rows)
        out = np.empty((len(q), self.n_classes))
        todo = [(self.root, np.arange(len(q)))]
        while todo:
            node, idx = todo.pop()
            if node.attr is None:
                out[idx] = ((node.counts + 1.0)
                            / (node.counts.sum() + self.n_classes))
                continue
            for child, part in _parts(node, q, idx):
                if len(part):
                    # rows of a category with no grown child stop here
                    todo.append((child or _Node(node.counts), part))
        return out


# ---------------------------------------------------------------------------
# fitting entry point
# ---------------------------------------------------------------------------

def prepare(spec: LearnerSpec, features: np.ndarray,
            attributes: Optional[Sequence[Attribute]] = None):
    """The training state that every classifier ``fit`` trains with
    ``spec`` on ``features`` can share: a ``KnnIndex`` for kNN, the feature
    encoder otherwise.  Building it checks the arity and the category
    indices of ``features``."""
    enc = _Encoder(features, attributes)
    return KnnIndex(spec, enc) if isinstance(spec, KnnSpec) else enc


def _prepared_for(shared, spec: LearnerSpec, n_rows: int) -> bool:
    if isinstance(spec, KnnSpec):
        return (isinstance(shared, KnnIndex) and shared.spec == spec
                and shared.n_rows == n_rows)
    return isinstance(shared, _Encoder) and len(shared.matrix) == n_rows


def fit(spec: LearnerSpec, features: np.ndarray, classes: Sequence[int],
        attributes: Optional[Sequence[Attribute]] = None,
        shared=None) -> Classifier:
    """Train a classifier.  ``classes`` are dense indices in [0, C).

    ``features`` is an n x d float matrix such as ``MLDataset.X`` (NaN
    marks a missing cell); a C-ordered float64 matrix is used without a
    copy.  ``attributes`` carries the schema kinds; when omitted, every
    column is numeric.  ``shared`` is ``prepare(spec, features,
    attributes)``, built once and passed to every fit on the same features;
    without it, each fit builds its own.
    """
    if len(features) != len(classes):
        raise ValueError("features and classes differ in length")
    if len(features) == 0:
        return ConstantClassifier(0)
    y = np.asarray(classes, dtype=np.int64)
    if (y < 0).any():
        raise ValueError("class indices must be >= 0")
    n_classes = int(y.max()) + 1
    if shared is None:
        shared = prepare(spec, features, attributes)  # checks arity, domains
    elif not _prepared_for(shared, spec, len(y)):
        raise ValueError("shared training state was prepared for another "
                         "spec or feature matrix")
    if n_classes == 1:
        # single observed class: degenerate but valid, even with pruning on
        return ConstantClassifier(1)
    if isinstance(spec, KnnSpec):
        return KnnClassifier(shared, y, n_classes)
    if isinstance(spec, NaiveBayesSpec):
        return NaiveBayesClassifier(spec, shared, y, n_classes)
    if isinstance(spec, TreeSpec):
        return TreeClassifier(spec, shared, y, n_classes)
    raise TypeError(f"unknown learner spec {type(spec).__name__}")
