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
  one search per query matrix.  A search builds one query x training
  distance matrix: the Euclidean cross term is one matrix product over the
  whole query matrix (a product per row block could differ in the last
  bits and flip exact distance ties), and the rest (the squared norms, the
  clip at 0, the Manhattan terms, the nominal mismatches, the top-k
  selection) runs in row blocks of at most ``_KNN_BLOCK_ELEMS`` (2^16)
  elements, finishing the matrix in place.  So a search holds about one
  distance matrix plus block-sized temporaries (1.2x the matrix traced at
  917 x 1500, against 3.1x with whole-matrix temporaries), with the same
  float operations per element.
* Gaussian naive Bayes: per-class Gaussian per numeric attribute with a
  variance floor, Laplace-1 smoothed categorical likelihoods, frequency
  priors, log-space posterior.  Prediction takes the query rows in blocks of
  at most ``_NB_BLOCK_ELEMS`` (2^18) rows x classes x numeric attributes
  elements, each computed in one reused buffer with the float operations
  of ``(log_norm - diff * diff / two_var).sum(axis=2)``, in that order.
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
  batched per node, with no sort: the training state of a matrix sorts
  each numeric column once (stably), a tree's root takes that order
  filtered to its rows, and each child takes its parent's order filtered
  to the child's rows, which is what a stable sort of the child's rows
  gives.  All numeric candidates are scored in one vectorised pass over
  every cut that ``min_leaf`` allows, one present class at a time.
  Entropies come from integer class counts and a per-fit table ``xlx[c] =
  c * log2(c)``: ``t`` rows with class counts ``k`` have ``t`` times their
  entropy in ``xlx[t] - sum(xlx[k])``.  Scores within ``_GAIN_EPS`` (1e-12)
  of the best are tied and the first candidate wins (the lowest threshold,
  then the earliest attribute), so float rounding does not pick between
  splits that are equal in exact arithmetic.  Growing, pruning and
  prediction route index arrays of rows through one split test
  (``_parts``); a row whose category grew no child stops at its node.

Input: ``fit`` and ``predict_dist_many`` take an n x d float matrix such as
``MLDataset.X`` (NaN marks a missing cell), which is built once per dataset;
a C-ordered float64 matrix is used as is, without a copy or a per-row pass.
Every classifier is built from a ``TrainingState(spec, X, attributes)``,
made in one pass over ``X``: the encoder, the encoded matrix, and the kNN
index or the trees' column orders.  ``fit(..., shared=...)`` reads one
state in many fits, and refuses a state built for another spec or from
other ``X`` or ``attributes`` objects.  Trees grow and prune in an object
that their constructor drops, and a fitted classifier keeps only what
prediction reads: the encoder, the kNN index (whose standardised rows the
search needs), the naive Bayes parameters or the tree nodes.  So the
encoded matrix and the column orders die with the state.  Column kinds
come only from the schema ``attributes``: without them every column is
numeric, and nothing is inferred from the values.  A nominal cell must be
an integral category index below the attribute's arity; anything
else is a ``ValueError`` naming the attribute, in training and in queries.
So is a feature so large that a naive Bayes mean, variance or
log-posterior, or a kNN column mean or scale, is not finite.  One-class
training data fits the spec's own classifier, which predicts exactly 1.0;
zero training rows are a ``ValueError``.

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

# The one tree tolerance: scores within _GAIN_EPS of the best are tied (the
# first candidate wins), and a gain or split info must exceed it to count.
_GAIN_EPS = 1e-12
# Upper bound on the (attrs x rows) elements of one batch in the numeric
# split search; it bounds the search's peak memory.
_BATCH_ELEMS = 1 << 15
# Upper bound on the (query rows x classes x numeric attrs) elements of one
# block in naive Bayes prediction; it bounds the prediction's peak memory.
_NB_BLOCK_ELEMS = 1 << 18
# Upper bound on the (query rows x training rows) elements of one row block
# in the kNN search; with the one distance matrix, it bounds the search's
# peak memory.
_KNN_BLOCK_ELEMS = 1 << 16


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
        # ceil(sqrt(d)) attributes per node; Weka's RandomTree draws
        # int(log2(d) + 1) and allows one-row leaves
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
    Without ``attributes`` every column is numeric.  ``num_cols`` and
    ``nom_cols`` index the numeric and nominal columns.  Built from a float
    training matrix, whose arity and categories it checks, the encoder
    keeps only what queries need, not that matrix.
    """

    def __init__(self, raw: np.ndarray,
                 attributes: Optional[Sequence[Attribute]] = None):
        if attributes is None:
            attributes = [Attribute(f"#{j}") for j in range(raw.shape[1])]
        if len(attributes) != raw.shape[1]:
            raise ValueError("attribute list arity does not match data")
        self._attributes = attributes
        self.is_nominal = np.array([a.is_nominal for a in attributes], dtype=bool)
        self.num_cols = np.flatnonzero(~self.is_nominal)
        self.nom_cols = np.flatnonzero(self.is_nominal)
        declared = np.array([len(a.values) if a.is_nominal else 0
                             for a in attributes])
        self.n_values = np.where(self.is_nominal, declared + 1, 0)
        check_category_indices(raw, attributes)
        means = np.zeros(len(attributes))
        with np.errstate(over="ignore"):  # kNN and naive Bayes refuse inf
            for j in self.num_cols:
                col = raw[:, j]
                ok = ~np.isnan(col)
                means[j] = col[ok].mean() if ok.any() else 0.0
        self._fill = np.where(self.is_nominal, declared, means)

    def encode(self, raw: np.ndarray) -> np.ndarray:
        miss = np.isnan(raw)
        return np.where(miss, self._fill, raw) if miss.any() else raw

    def transform(self, features) -> np.ndarray:
        d = len(self.is_nominal)
        raw = np.ascontiguousarray(features, dtype=float)
        if raw.ndim == 1 and raw.size == 0:
            raw = raw.reshape(0, d)
        if raw.ndim != 2 or raw.shape[1] != d:
            raise ValueError(
                f"query arity {raw.shape[-1]} does not match training arity {d}")
        check_category_indices(raw, self._attributes)
        return self.encode(raw)


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    """A ValueError unless every value in ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} are not finite numbers; rescale the features")


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


class KnnIndex:
    """The standardised training matrix of one encoder, searched for each
    query row's ``k`` nearest training rows.

    Every kNN classifier on the same training matrix and ``KnnSpec`` can
    share one index: binary relevance and RAKEL fit all their labels and
    members on one, and search it once per query matrix.
    """

    def __init__(self, spec: KnnSpec, enc: _Encoder, x: np.ndarray):
        self.spec = spec
        self.enc = enc
        self._num_cols, self._nom_cols = enc.num_cols, enc.nom_cols
        self.n_rows = x.shape[0]
        if self._num_cols.size:
            xn = x[:, self._num_cols]  # a copy, standardised in place
            with np.errstate(over="ignore", invalid="ignore"):
                self._mu, sd = xn.mean(axis=0), xn.std(axis=0)
            _check_finite("knn column means or scales", self._mu, sd)
            self._sd = np.where(sd == 0.0, 1.0, sd)
            xn -= self._mu
            xn /= self._sd
            self._xn = xn
        else:
            self._xn = None
        self._xc = x[:, self._nom_cols]
        self.k = min(spec.k, self.n_rows)

    def _distances(self, q: np.ndarray) -> np.ndarray:
        """The (nq, n_rows) distances from the encoded query rows ``q`` to
        the training rows.  A Euclidean search takes ``2 qn @ xn.T`` as one
        product, since row-blocked products can differ from it in the last
        bits; the rest is done in place, a row block at a time."""
        nq, n = q.shape[0], self.n_rows
        numeric = self._xn is not None
        gram = numeric and self.spec.distance == "euclidean"
        if numeric:
            qn = (q[:, self._num_cols] - self._mu) / self._sd
        if gram:
            d = 2.0 * qn @ self._xn.T
            qq = (qn * qn).sum(axis=1)
            xx = (self._xn * self._xn).sum(axis=1)
        else:
            d = np.zeros((nq, n))
        step = max(1, _KNN_BLOCK_ELEMS // n)
        for s in range(0, nq, step):
            block = d[s:s + step]
            if gram:
                # (|q|^2 + |x|^2) - 2 q.x, clipped at 0
                np.subtract(qq[s:s + step, None] + xx, block, out=block)
                np.clip(block, 0.0, None, out=block)
            elif numeric:
                for j in range(qn.shape[1]):
                    block += np.abs(qn[s:s + step, j, None] - self._xn[:, j])
            for j in range(self._nom_cols.size):
                block += q[s:s + step, self._nom_cols[j], None] != self._xc[:, j]
        return d

    def neighbours(self, rows) -> np.ndarray:
        """The (nq, k) training row indices nearest to each query row, in
        ascending index order: the rows a stable argsort of the distances
        puts first."""
        q = self.enc.transform(rows)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            dist = self._distances(q)
        (nq, n), k = dist.shape, self.k
        out = np.empty((nq, k), dtype=np.intp)
        step = max(1, _KNN_BLOCK_ELEMS // n)
        for s in range(0, nq, step):
            block = dist[s:s + step]
            # exact top-k: all rows closer than the k-th distance, then rows
            # tied with it by ascending index
            kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
            _check_finite("knn distances", kth)
            chosen, tied = block < kth, block == kth
            spare = k - chosen.sum(axis=1)  # >= 1 slots left for tied rows
            for i in np.flatnonzero(tied.sum(axis=1) > spare):
                tied[i, np.flatnonzero(tied[i])[spare[i]:]] = False
            out[s:s + step] = np.nonzero(chosen | tied)[1].reshape(len(block), k)
        return out


class KnnClassifier(Classifier):
    """Neighbour class frequencies over the (possibly shared) ``KnnIndex``
    of a training state."""

    def __init__(self, state: TrainingState, y: np.ndarray, n_classes: int):
        self.index = state.index
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
    def __init__(self, state: TrainingState, y: np.ndarray, n_classes: int):
        self.spec = spec = state.spec
        self.n_classes = n_classes
        self._enc = enc = state.enc
        x, num = state.x, enc.num_cols
        counts = np.bincount(y, minlength=n_classes).astype(float)
        self._mean = np.zeros((n_classes, num.size))
        self._var = np.full((n_classes, num.size), spec.variance_floor)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self._log_prior = np.log(counts / len(y))
            for c in range(n_classes):
                xc = x[y == c][:, num]
                if len(xc):
                    self._mean[c] = xc.mean(axis=0)
                    self._var[c] = np.maximum(xc.var(axis=0), spec.variance_floor)
        _check_finite("naive Bayes means or variances", self._mean, self._var)
        self._nom_loglik = []
        for j in enc.nom_cols:
            v = int(enc.n_values[j])
            table = np.ones((n_classes, v))  # Laplace-1
            np.add.at(table, (y, x[:, j].astype(int)), 1.0)
            self._nom_loglik.append(np.log(table / table.sum(axis=1, keepdims=True)))

    def predict_dist_many(self, rows):
        q = self._enc.transform(rows)
        num = self._enc.num_cols
        log_post = np.tile(self._log_prior, (len(rows), 1))
        if num.size:
            qn = q[:, num]
            log_norm = -0.5 * np.log(2.0 * math.pi * self._var)
            two_var = 2.0 * self._var
            # query rows in blocks of at most _NB_BLOCK_ELEMS (classes x d)
            # elements in one reused buffer, each row with the float
            # operations of log_norm - diff * diff / two_var
            step = max(1, _NB_BLOCK_ELEMS // self._mean.size)
            buf = np.empty((min(step, len(q)),) + self._mean.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                for s in range(0, len(q), step):
                    block = qn[s:s + step, None, :]
                    b = buf[:len(block)]
                    np.subtract(block, self._mean, out=b)
                    np.multiply(b, b, out=b)
                    np.divide(b, two_var, out=b)
                    np.subtract(log_norm, b, out=b)
                    log_post[s:s + step] += b.sum(axis=2)
        for pos, j in enumerate(self._enc.nom_cols):
            log_post += self._nom_loglik[pos][:, q[:, j].astype(int)].T
        best = log_post.max(axis=1, keepdims=True)
        _check_finite("naive Bayes log-posteriors", best)
        log_post -= best
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


def _xlx(n: int) -> np.ndarray:
    """``c * log2(c)`` for the counts ``c = 0..n``, 0 for ``c = 0``.  Rows
    whose class counts ``k`` sum to ``t`` have ``t`` times their entropy
    in ``xlx[t] - xlx[k].sum()``."""
    c = np.arange(n + 1)
    return c * np.log2(np.maximum(c, 1))


def _split_order(order: np.ndarray, branch: np.ndarray, sizes) -> list:
    """The rows of each branch in ``order``, a matrix of training row
    indices, kept in each order row's sequence: one (``len(order)`` x
    ``sizes[v]``) matrix per branch ``v``.  ``branch`` holds each training
    row's branch; rows of a branch outside ``range(len(sizes))`` are
    dropped."""
    # compress on the flat arrays is several times faster than a 2-D mask
    of, flat = branch[order].ravel(), order.ravel()
    return [np.compress(of == v, flat).reshape(len(order), size)
            for v, size in enumerate(sizes)]


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
    """A tree grown (and with ``rep_pruning``, pruned) by a ``_TreeGrower``
    that lives only in the constructor: the classifier keeps the nodes and
    the query encoder, and with pruning the errors on the prune fold."""

    def __init__(self, state: TrainingState, y: np.ndarray, n_classes: int):
        self.spec = spec = state.spec
        self.n_classes = n_classes
        self._enc = state.enc
        grower = _TreeGrower(state, y, n_classes)
        self.prune_error_before = self.prune_error_after = None
        n = len(y)
        if spec.rep_pruning and n // 3 >= 1:
            fold_rng = Xoshiro256(derive_seed(spec.seed, 1))
            perm = list(range(n))
            fold_rng.shuffle(perm)
            n_prune = n // 3
            prune_idx = np.array(sorted(perm[:n_prune]))
            grow_idx = np.array(sorted(perm[n_prune:]))
            self.root = grower._grow(grow_idx)
            self.prune_error_before, self.prune_error_after = grower._prune(
                self.root, prune_idx)
        else:
            self.root = grower._grow(np.arange(n))

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


class _TreeGrower:
    """Grows and prunes one tree on the rows of a ``TrainingState`` with
    classes ``y``, reading the state's encoded matrix, column orders and
    ``xlx`` table in place."""

    def __init__(self, state: TrainingState, y: np.ndarray, n_classes: int):
        self.spec = state.spec
        self.state = state
        self.n_classes = n_classes
        self._y = y
        self._rng = Xoshiro256(derive_seed(self.spec.seed, 0))

    # -- induction ---------------------------------------------------------

    def _candidate_attrs(self, d: int) -> list[int]:
        size = self.spec.random_subset_size
        if size is None:
            return list(range(d))
        if size == "sqrt":
            size = math.ceil(math.sqrt(d))
        size = min(size, d)
        return sorted(self._rng.sample(d, size))

    def _may_split(self, counts: np.ndarray, depth: int) -> bool:
        """Whether a node with class ``counts`` at ``depth`` may split."""
        spec = self.spec
        return ((counts > 0).sum() > 1
                and counts.sum() >= 2 * spec.min_leaf
                and (spec.max_depth is None or depth < spec.max_depth))

    def _grow(self, idx: np.ndarray) -> _Node:
        """The tree grown on the ascending training rows ``idx``, depth
        first in preorder.  A node that splits hands each child that may
        split its rows of the node's order (``TrainingState.sorted_rows``)
        and drops its own, so the pending orders cover disjoint rows."""
        y, n_classes = self._y, self.n_classes
        root = _Node(np.bincount(y[idx], minlength=n_classes))
        if not self._may_split(root.counts, 0):
            return root
        todo = [(root, idx, self.state.sorted_rows(idx), 0)]
        while todo:
            node, idx, order, depth = todo.pop()
            if not self._split(node, idx, order):
                continue
            parts = _parts(node, self.state.x, idx)
            kids = [_Node(np.bincount(y[rows], minlength=n_classes))
                    if len(rows) else None for _, rows in parts]
            if node.threshold is None:
                node.children = kids
            else:
                node.left, node.right = kids
            grown = [(kid, rows) for kid, (_, rows) in zip(kids, parts)
                     if kid and self._may_split(kid.counts, depth + 1)]
            branch = np.full(len(y), -1)
            for v, (_, rows) in enumerate(grown):
                branch[rows] = v
            orders = _split_order(order, branch, [len(r) for _, r in grown])
            # reversed, so that the first child is grown first
            todo += [(kid, rows, sub, depth + 1)
                     for (kid, rows), sub in zip(grown[::-1], orders[::-1])]
        return root

    def _split(self, node: _Node, idx: np.ndarray, order: np.ndarray) -> bool:
        """Give ``node``, over training rows ``idx`` in ``order``, the split
        the criterion picks, with placeholder children; False when no
        candidate is useful and the node stays a leaf."""
        n, enc = len(idx), self.state.enc
        parent_h = (self.state.xlx[n] - self.state.xlx[node.counts].sum()) / n
        attrs = self._candidate_attrs(len(enc.is_nominal))
        nominal = enc.is_nominal[attrs]
        gain = np.empty(len(attrs))
        ratio = np.empty(len(attrs))
        threshold = np.empty(len(attrs))
        num = np.flatnonzero(~nominal)
        if num.size:
            gain[num], ratio[num], threshold[num] = self._eval_numeric_all(
                np.asarray(attrs)[num], order, node.counts, parent_h)
        for i in np.flatnonzero(nominal):
            gain[i], ratio[i] = self._eval_nominal(attrs[i], idx, parent_h)
        pos = self._choose(gain, ratio)
        if pos is None:
            return False
        node.attr = attrs[pos]
        if nominal[pos]:
            node.children = [None] * int(enc.n_values[node.attr])
        else:
            node.threshold = float(threshold[pos])
        return True

    def _choose(self, gain: np.ndarray, ratio: np.ndarray) -> Optional[int]:
        """Position of the candidate split the criterion picks, or None when
        no candidate is useful; the earliest candidate whose score is within
        ``_GAIN_EPS`` of the best wins.

        ``c45`` averages the gains of the candidates whose gain is positive
        and picks the best gain ratio among those whose gain is at least
        that average (Quinlan 1993, C4.5), less ``_GAIN_EPS`` so that equal
        gains all qualify whatever the rounding of their mean.
        """
        if not len(gain):
            return None
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
        pos = int(np.argmax(score >= score.max() - _GAIN_EPS))
        return pos if score[pos] > 0.0 else None

    def _eval_numeric_all(self, attrs: np.ndarray, order: np.ndarray,
                          counts: np.ndarray, parent_h: float):
        """Best binary cut of each numeric attribute in ``attrs`` at one node.

        The node's rows are ``order`` (``TrainingState.sorted_rows``), with
        class ``counts``.  Returns ``(gain, ratio, threshold)`` arrays aligned
        with ``attrs``: the information gain, gain ratio and threshold of
        each attribute's chosen cut; a gain or ratio <= 0 means the attribute
        has no useful cut.  Cut ``i`` sends sorted rows ``0..i`` left; only
        cuts between distinct values that leave ``min_leaf`` rows on each
        side count, and the lowest threshold whose score is within
        ``_GAIN_EPS`` of the best wins.  ``gain_ratio`` picks the cut by gain
        ratio, the other criteria by gain.  ``c45`` then subtracts
        log2(admissible cuts) / n, the cost of choosing the threshold
        (Quinlan 1996, "Improved use of continuous attributes in C4.5"), from
        the gain.  The split info of every cut is computed once and read at
        the chosen one.

        The node's rows arrive sorted, so no sort is needed here.  The
        attributes are scored together in batches of at most
        ``_BATCH_ELEMS`` (attrs x rows) elements, one present class at a
        time: the left counts of class ``k`` at every cut are one cumsum,
        and the ``xlx`` terms of the left and right sides are summed over
        the classes in class order.
        """
        n, m = order.shape[1], self.spec.min_leaf
        ranked = order[self.state.order_row[attrs]]  # attrs x sorted rows
        sv = self.state.x[ranked, attrs[:, None]]
        sy = self._y[ranked]
        window = slice(m - 1, n - m)  # cuts that leave min_leaf rows per side
        nl = np.arange(m, n - m + 1)
        nr = n - nl
        admissible = sv[:, window] != sv[:, m:n - m + 1]
        xlx = self.state.xlx
        split_info = (xlx[n] - xlx[nl] - xlx[nr]) / n  # per cut
        by_ratio = self.spec.criterion == "gain_ratio"
        if by_ratio:
            score = np.empty(admissible.shape)
        present = np.flatnonzero(counts)
        gains = np.empty(admissible.shape)
        step = max(1, _BATCH_ELEMS // n)
        for s in range(0, len(attrs), step):
            batch = sy[s:s + step]
            left_xlx = right_xlx = 0.0
            for k in present:
                left = (batch == k).cumsum(axis=1)[:, window]
                left_xlx = left_xlx + xlx[left]
                right_xlx = right_xlx + xlx[counts[k] - left]
            child_h = (xlx[nl] + xlx[nr] - left_xlx - right_xlx) / n
            gain = parent_h - child_h
            ok = admissible[s:s + step] & (gain > _GAIN_EPS)
            gains[s:s + step] = np.where(ok, gain, -1.0)
            if by_ratio:
                score[s:s + step] = np.where(
                    ok & (split_info > _GAIN_EPS), gain / split_info, -1.0)
        if not by_ratio:
            score = gains
        rows = np.arange(len(attrs))
        # the first score within _GAIN_EPS of the best: lowest threshold
        pos = np.argmax(score >= score.max(axis=1, keepdims=True) - _GAIN_EPS,
                        axis=1)
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
        arity = int(self.state.enc.n_values[a])
        cats = self.state.x[idx, a].astype(int)
        table = np.bincount(cats * self.n_classes + self._y[idx],
                            minlength=arity * self.n_classes)
        table = table.reshape(arity, self.n_classes)
        sizes = table.sum(axis=1)
        nonempty = sizes > 0
        if nonempty.sum() < 2:
            return -1.0, -1.0
        if (sizes[nonempty] < self.spec.min_leaf).any():
            return -1.0, -1.0
        n, xlx = len(idx), self.state.xlx
        gain = parent_h - (xlx[sizes].sum() - xlx[table].sum()) / n
        if gain <= _GAIN_EPS:
            return -1.0, -1.0
        split_info = (xlx[n] - xlx[sizes].sum()) / n
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
        for child, rows in _parts(node, self.state.x, idx):
            # rows of a category with no grown child stay at this node: a
            # leaf with its counts, as in prediction
            err_before, err_after = self._prune(child or _Node(node.counts),
                                                rows)
            before, after = before + err_before, after + err_after
        if err_leaf <= after:
            node.collapse()
            return before, err_leaf
        return before, after


# ---------------------------------------------------------------------------
# fitting entry point
# ---------------------------------------------------------------------------

class TrainingState:
    """What fitting classifiers of ``spec`` on one feature matrix reads,
    built once from ``features`` and its schema ``attributes`` (kept, so
    that ``fit`` can tell them): the query encoder ``enc`` and the encoded
    matrix ``x``; for kNN, the ``index`` its classifiers share; for trees,
    ``order``, each numeric column's stable sort of the rows (row
    ``order_row[a]`` for column ``a``), and the ``xlx`` table of the row
    count.  Fitted classifiers keep ``enc`` (and ``index``) but not the
    state, so ``x`` and ``order`` are freed with the caller's reference."""

    def __init__(self, spec: LearnerSpec, features,
                 attributes: Optional[Sequence[Attribute]] = None):
        raw = np.ascontiguousarray(features, dtype=float)
        if not len(raw):
            raise ValueError("cannot fit a classifier on zero training rows")
        if raw.ndim != 2:
            raise ValueError("features must be an n x d matrix")
        self.spec, self.features, self.attributes = spec, features, attributes
        self.enc = _Encoder(raw, attributes)
        self.x = self.enc.encode(raw)
        if isinstance(spec, KnnSpec):
            self.index = KnnIndex(spec, self.enc, self.x)
        if isinstance(spec, TreeSpec):
            self.order = np.ascontiguousarray(
                np.argsort(self.x[:, self.enc.num_cols], axis=0, kind="stable").T)
            self.order_row = np.cumsum(~self.enc.is_nominal) - 1
            self.xlx = _xlx(len(self.x))

    def sorted_rows(self, rows: np.ndarray) -> np.ndarray:
        """The distinct training rows ``rows`` in stable ascending order of
        each numeric column: a (numeric columns x ``len(rows)``) matrix whose
        row ``order_row[a]`` is ``rows[np.argsort(x[rows, a],
        kind="stable")]`` for ascending ``rows``, ties by ascending row:
        ``order`` filtered to ``rows``."""
        n = len(self.x)
        if len(rows) == n:
            return self.order
        branch = np.full(n, -1)
        branch[rows] = 0
        return _split_order(self.order, branch, [len(rows)])[0]


_CLASSIFIERS = {KnnSpec: KnnClassifier, NaiveBayesSpec: NaiveBayesClassifier,
                TreeSpec: TreeClassifier}


def fit(spec: LearnerSpec, features: np.ndarray, classes: Sequence[int],
        attributes: Optional[Sequence[Attribute]] = None,
        shared: Optional[TrainingState] = None) -> Classifier:
    """Train a classifier.  ``classes`` are dense indices in [0, C).

    ``features`` is an n x d float matrix such as ``MLDataset.X`` (NaN
    marks a missing cell), with n >= 1; a C-ordered float64 matrix is used
    without a copy.  ``attributes`` carries the schema kinds; when omitted,
    every column is numeric.  ``shared`` is ``TrainingState(spec, features,
    attributes)`` of these very objects, built once for every fit on them;
    without it, each fit builds its own.  The classifier keeps nothing of
    ``shared`` but its encoder and kNN index.
    """
    if type(spec) not in _CLASSIFIERS:
        raise TypeError(f"unknown learner spec {type(spec).__name__}")
    if len(features) != len(classes):
        raise ValueError("features and classes differ in length")
    if shared is None:
        shared = TrainingState(spec, features, attributes)
    elif (shared.spec != spec or shared.features is not features
          or shared.attributes is not attributes):
        raise ValueError("shared training state was prepared for another "
                         "spec, feature matrix or attribute list")
    y = np.asarray(classes, dtype=np.int64)
    if (y < 0).any():
        raise ValueError("class indices must be >= 0")
    return _CLASSIFIERS[type(spec)](shared, y, int(y.max()) + 1)
