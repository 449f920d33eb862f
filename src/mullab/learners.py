"""Single-label probability-emitting base classifiers.

Three families, each consumed by the problem transformations:

* k-nearest-neighbours: the distance sums, in column order, ``(q - x)^2``
  (Euclidean, squared) or ``|q - x|`` (Manhattan) over the standardized
  numeric attributes, then a 0/1 mismatch per nominal one; the neighbours
  are the first k by ascending (distance, training row), so ties go to the
  lower row, and vote with uniform weights.  A ``KnnIndex`` holds the
  encoder and the standardised training matrix and finds the neighbours; a
  ``KnnClassifier`` keeps only its class vector and counts the votes, so
  classifiers that differ only in their classes can share one index and
  one search per query matrix (a grid's shared index is built with ``kept``,
  its search of the test split).  A search takes the query rows in blocks of at
  most ``_KNN_BLOCK_ELEMS`` (2^16) query x training elements and holds no
  larger matrix.  A Euclidean block is screened by one BLAS product for the
  Gram form, whose rounding is bounded, and only rows within that bound of
  the k-th screened distance are ranked on the distance itself; so the
  neighbours do not depend on the BLAS library, its threads or the block
  (1.1 MB traced at 917 x 1500 x 103 and k = 5; a whole matrix is 11 MB).
* Gaussian naive Bayes: per-class Gaussian per numeric attribute with a
  variance floor, Laplace-1 smoothed categorical likelihoods, frequency
  priors, log-space posterior.  Prediction takes the query rows in blocks of
  at most ``_NB_BLOCK_ELEMS`` (2^16) rows x classes x numeric attributes
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
  batched per node, with no sort of values: the training state of a
  matrix sorts each numeric column once (stably), a tree's root takes that
  order filtered to its rows, and each child takes its parent's order
  filtered to the child's rows, which is what a stable sort of the child's
  rows gives.  All numeric candidates are scored in one vectorised pass over
  every cut that ``min_leaf`` allows.  Entropies come from integer class
  counts and a per-fit table ``xlx[c] = c * log2(c)``: ``t`` rows with
  class counts ``k`` have ``t`` times their entropy in ``xlx[t] -
  sum(xlx[k])``.  Moving the row of rank ``r`` among a node's ``c`` rows of
  its class from the right side of a cut to the left changes the
  children's ``sum(xlx[k])`` by ``dxlx[r] - dxlx[c - r - 1]`` (``dxlx =
  diff(xlx)``), so each cut's sum is a running sum of per-row steps along
  the attribute's order.  Listed class by class, the steps are one vector
  that every attribute shares, and one stable sort of the rows' class keys
  places it along each attribute: the cost does not grow with the number
  of classes.  Nodes under ``_RADIX_MIN_ROWS`` (40) rows sort int64 keys
  (timsort), larger ones the narrowest unsigned keys (radix sort); both
  sorts are stable, so they place the rows alike.  The cuts of ``n`` rows
  leave ``m..n-m`` rows left and ``n-m..m`` right (``m = min_leaf``), so
  the window ``xlx[m:n-m+1]``, read forwards and backwards, gives both
  sides' ``xlx``.  The running sum rounds more with more rows (about 1e-14
  in gain at 3000 rows, against per-class sums).  Scores within
  ``_GAIN_EPS`` (1e-12) of the best are tied and the first candidate wins
  (the lowest threshold, then the earliest attribute), so float rounding
  does not pick between splits that are equal in exact arithmetic.
  Growing, pruning and prediction route index arrays of rows through one
  split test (``_parts``); a row whose category grew no child stops at its
  node.

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

``preset(name)`` returns the spec of a named default configuration, by its
exact name: "nb", "knn", "random-t", "reptree" or "j48" (``PRESET_NAMES``).
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
# Nodes from this many rows on sort narrow class keys (radix), smaller ones int64.
_RADIX_MIN_ROWS = 40
# Upper bound on the (query rows x classes x numeric attrs) elements of one
# block in naive Bayes prediction; it bounds the prediction's peak memory.
_NB_BLOCK_ELEMS = 1 << 16
# Upper bound on the (query rows x training rows) elements of one row block
# in the kNN search; it bounds the search's peak memory.
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

# preset name -> its spec, in the order that default ensembles cycle
_PRESETS = {
    "nb": NaiveBayesSpec(),
    "knn": KnnSpec(k=5),
    # ceil(sqrt(d)) attributes per node; Weka's RandomTree draws
    # int(log2(d) + 1) and allows one-row leaves
    "random-t": TreeSpec(criterion="info_gain", random_subset_size="sqrt"),
    "reptree": TreeSpec(criterion="info_gain", rep_pruning=True),
    "j48": TreeSpec(criterion="c45"),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> LearnerSpec:
    """The spec of the preset named exactly ``name``, one of PRESET_NAMES."""
    if name not in _PRESETS:
        raise ValueError(f"unknown learner preset {name!r}; presets: "
                         f"{', '.join(PRESET_NAMES)}")
    return _PRESETS[name]


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

    def __init__(self, spec: KnnSpec, enc: _Encoder, x: np.ndarray,
                 kept: Optional[np.ndarray] = None):
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
            self._xn, self._xx = xn, (xn * xn).sum(axis=1)
        else:
            self._xn = None
        self._xc = x[:, self._nom_cols]
        self.k = min(spec.k, self.n_rows)
        self._kept = None  # (query matrix, its neighbours)
        if kept is not None:
            if not isinstance(kept, np.ndarray) or kept.flags.writeable:
                raise ValueError("a kept query matrix must be a read-only array")
            found = self._search(kept)
            found.flags.writeable = False  # every model on the index reads it
            self._kept = kept, found

    def _nearest(self, q: np.ndarray) -> np.ndarray:
        """The ``k`` nearest training rows of each encoded query row of one
        block ``q``, in ascending row order: the first ``k`` by ascending
        (distance, row).  Manhattan distances are computed in full.  A
        Euclidean search screens every training row with the Gram form
        ``(q.q - 2 q.x) + x.x`` (one BLAS product), clipped at 0, plus the
        mismatches; a query row that keeps more than ``k`` ranks them by
        distance.

        The screen keeps every neighbour.  Take u = 2^-53, g_m = m u /
        (1 - m u) (Higham 2002, §3.1), m = p + c + 2 for p numeric and c
        nominal columns, and T = |q - x|^2 + mismatches in real arithmetic.
        The distance D adds nonnegative terms of at most 3 roundings each,
        so |D - T| <= g_m T.  The BLAS product errs by at most g_p |q||x|
        in any summation order, the squared norms by g_p |q|^2 and g_p
        |x|^2, and the screen's own sums by g_2 and g_c; as |q|^2 + |x|^2 <=
        3|q|^2 + 2T, the screened s has |s - T| <= 6 g_m T + 7 g_m |q|^2.
        If row i is one of the k nearest by D, one of the k smallest s, s_j
        <= tau (the k-th smallest s), has D_j >= D_i, so s_i <= (1 + 6g_m)
        (1 + g_m) / ((1 - 6g_m)(1 - g_m)) (tau + 7 g_m |q|^2) + 7 g_m |q|^2
        <= tau + 15 m u (tau + |q|^2).  The screen keeps s <= tau + 16 m u
        (tau + q.q + 2^-1020): the spare m u covers rounding that bound and
        q.q, and 2^-1020 underflow's absolute errors.
        """
        k, xn, xc, nom = self.k, self._xn, self._xc, self._nom_cols
        screen = xn is not None and self.spec.distance == "euclidean"
        if xn is not None:
            qn = (q[:, self._num_cols] - self._mu) / self._sd
        if screen:
            qq = (qn * qn).sum(axis=1)
            d = qn @ xn.T
            d *= -2.0
            d += qq[:, None]
            d += self._xx
            np.clip(d, 0.0, None, out=d)
        else:
            d = np.zeros((len(q), self.n_rows))
            for j in range(self._num_cols.size):
                d += np.abs(qn[:, j, None] - xn[:, j])
        for j in range(nom.size):
            d += q[:, nom[j], None] != xc[:, j]
        kth = np.partition(d, k - 1, axis=1)[:, k - 1]
        _check_finite("knn distances", kth)
        if screen:
            eps = 16 * (q.shape[1] + 2) * 2.0 ** -53  # 16 m u
            kth = kth + eps * (kth + qq + 2.0 ** -1020)
        kept = np.flatnonzero(d <= kth[:, None])
        qi, ti = np.divmod(kept, self.n_rows)
        counts = np.bincount(qi, minlength=len(q))
        if screen:  # rank rows with spare candidates by their distance
            dist = np.zeros(len(kept))
            spare = np.flatnonzero(np.repeat(counts > k, counts))
            step = max(1, _KNN_BLOCK_ELEMS // xn.shape[1])
            for s in range(0, spare.size, step):  # block-sized terms
                at = spare[s:s + step]
                pi, pt = qi[at], ti[at]
                terms = qn[pi] - xn[pt]
                terms *= terms
                dist[at] = np.cumsum(terms, axis=1, out=terms)[:, -1]
                for j in range(nom.size):  # in column order
                    dist[at] += q[pi, nom[j]] != xc[pt, j]
        else:
            dist = d.ravel()[kept]
        pick = np.lexsort((dist, qi))[(np.cumsum(counts) - counts)[:, None]
                                      + np.arange(k)]
        _check_finite("knn distances", dist[pick[:, -1]])
        return np.sort(ti[pick], axis=1)

    def neighbours(self, rows) -> np.ndarray:
        """The (nq, k) training row indices nearest to each query row, in
        ascending index order: the rows a stable argsort of the distances
        puts first.  The ``kept`` matrix, searched at the build, is answered
        from that search; any other, an equal copy too, is searched now."""
        if self._kept is not None and rows is self._kept[0]:
            return self._kept[1]
        return self._search(rows)

    def _search(self, rows) -> np.ndarray:
        q = self.enc.transform(rows)
        out = np.empty((len(q), self.k), dtype=np.intp)
        step = max(1, _KNN_BLOCK_ELEMS // self.n_rows)
        with np.errstate(over="ignore", invalid="ignore"):  # checked in _nearest
            for s in range(0, len(q), step):
                out[s:s + step] = self._nearest(q[s:s + step])
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
            # operations of log_norm - diff * diff / two_var; a row copied
            # to every class takes the means in one flat classes x d pass
            step = max(1, _NB_BLOCK_ELEMS // self._mean.size)
            buf = np.empty((min(step, len(q)),) + self._mean.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                for s in range(0, len(q), step):
                    block = qn[s:s + step, None, :]
                    b = buf[:len(block)]
                    np.copyto(b, block)
                    flat = b.reshape(len(b), -1)
                    np.subtract(flat, self._mean.ravel(), out=flat)
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
    return [flat.compress(of == v).reshape(len(order), size)
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
        # class keys narrow enough for numpy's radix sort (_RADIX_MIN_ROWS)
        self._keys = y.astype(np.min_scalar_type(n_classes - 1))
        self._rng = Xoshiro256(derive_seed(self.spec.seed, 0))
        self._branch = np.empty(len(y), dtype=np.intp)  # _grow's scratch
        self._fixed = (self._candidates()
                       if self.spec.random_subset_size is None else None)

    # -- induction ---------------------------------------------------------

    def _candidates(self) -> tuple:
        """A node's ascending candidate attributes, the positions of the
        numeric ones among them (None when all are) and of the nominal
        ones; every node has the same without a random subset."""
        d, size = len(self.state.enc.is_nominal), self.spec.random_subset_size
        if size is None:
            attrs = np.arange(d)
        else:
            size = math.ceil(math.sqrt(d)) if size == "sqrt" else min(size, d)
            attrs = np.array(sorted(self._rng.sample(d, size)), dtype=np.intp)
        nominal = self.state.enc.is_nominal[attrs]
        if not nominal.any():
            return attrs, None, ()
        return attrs, np.flatnonzero(~nominal), np.flatnonzero(nominal)

    def _may_split(self, counts: np.ndarray, depth: int) -> bool:
        """Whether a node with class ``counts`` at ``depth`` may split."""
        spec = self.spec
        return (np.count_nonzero(counts) > 1
                and counts.sum() >= 2 * spec.min_leaf
                and (spec.max_depth is None or depth < spec.max_depth))

    def _grow(self, idx: np.ndarray) -> _Node:
        """The tree grown on the ascending training rows ``idx``, depth
        first in preorder.  A node that splits hands each child that may
        split its rows of the node's order (``TrainingState.sorted_rows``)
        and drops its own, so the pending orders cover disjoint rows."""
        y, n_classes, branch = self._y, self.n_classes, self._branch
        root = _Node(np.bincount(y[idx], minlength=n_classes))
        if not self._may_split(root.counts, 0):
            return root
        todo = [(root, idx, self.state.sorted_rows(idx), 0)]
        while todo:
            node, idx, order, depth = todo.pop()
            if not self._split(node, idx, order):
                continue
            parts = _parts(node, self.state.x, idx)
            if node.threshold is None:
                node.children = kids = [
                    _Node(np.bincount(y[rows], minlength=n_classes))
                    if len(rows) else None for _, rows in parts]
            else:  # both sides hold min_leaf rows
                left = np.bincount(y[parts[0][1]], minlength=n_classes)
                kids = node.left, node.right = (_Node(left),
                                                _Node(node.counts - left))
            grown = [(kid, rows) for kid, (_, rows) in zip(kids, parts)
                     if kid and self._may_split(kid.counts, depth + 1)]
            if not grown:
                continue
            branch[idx] = -1  # the order holds only the rows idx
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
        n, state = len(idx), self.state
        parent_h = (state.xlx[n] - state.xlx[node.counts].sum()) / n
        attrs, num, nominal = self._fixed or self._candidates()
        if num is None:
            gain, ratio, threshold = self._eval_numeric_all(
                attrs, order, node.counts, parent_h)
        else:
            gain, ratio, threshold = (np.empty(len(attrs)) for _ in range(3))
            if num.size:
                gain[num], ratio[num], threshold[num] = self._eval_numeric_all(
                    attrs[num], order, node.counts, parent_h)
            for i in nominal:
                gain[i], ratio[i] = self._eval_nominal(attrs[i], idx, parent_h)
        pos = self._choose(gain, ratio)
        if pos is None:
            return False
        node.attr = int(attrs[pos])
        if state.enc.is_nominal[node.attr]:
            node.children = [None] * int(state.enc.n_values[node.attr])
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
            average = gain[useful].sum() / np.count_nonzero(useful)  # mean()
            score = np.where(useful & (gain >= average - _GAIN_EPS), ratio, -1.0)
        pos = int((score >= score.max() - _GAIN_EPS).argmax())
        return pos if score[pos] > 0.0 else None

    def _eval_numeric_all(self, attrs: np.ndarray, order: np.ndarray,
                          counts: np.ndarray, parent_h: float):
        """Best binary cut of each numeric attribute in ``attrs`` (ascending).

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

        The node's rows arrive sorted by each attribute, and the attributes
        are scored together in batches of at most ``_BATCH_ELEMS`` (attrs x
        rows) elements.  ``moves`` lists, class by class in class order, the
        change in the children's ``xlx`` sum as a class's rows move left in
        rank order; a stable argsort of a batch's class keys gives each row
        its place in that listing, so one scatter of ``moves`` and one cumsum
        along the rows give every cut's sum.
        """
        n, m, state = order.shape[1], self.spec.min_leaf, self.state
        # attrs x sorted rows; every numeric column is order as it is
        ranked = order if len(attrs) == len(order) else order[state.order_row[attrs]]
        sv = state.x.ravel().take(ranked * state.x.shape[1] + attrs[:, None])
        keys = (self._y if n < _RADIX_MIN_ROWS else self._keys)[ranked]
        window = slice(m - 1, n - m)  # cuts that leave min_leaf rows per side
        admissible = sv[:, window] != sv[:, m:n - m + 1]
        xlx, dxlx = state.xlx, state.dxlx
        # xlx of the left and of the right child's row count at each cut
        left = xlx[m:n - m + 1]
        right = left[::-1]
        split_info = (xlx[n] - left - right) / n  # per cut
        children_rows = left + right
        by_ratio = self.spec.criterion == "gain_ratio"
        if by_ratio:
            score = np.empty(admissible.shape)
        # the change in the children's xlx sum as each row moves left, for
        # the rows listed class by class in rank order: rank r = c - to_end
        # of c rows
        c = counts.repeat(counts)
        to_end = counts.cumsum().repeat(counts) - np.arange(n)
        moves = dxlx[c - to_end] - dxlx[to_end - 1]
        everything_right = xlx[counts].sum()
        gains = np.empty(admissible.shape)
        rows = np.arange(len(attrs))
        step = max(1, _BATCH_ELEMS // n)
        for s in range(0, len(attrs), step):
            batch = keys[s:s + step]
            # each row's place in the class-by-class listing, stable so
            # that rank follows the attribute's order
            place = batch.argsort(axis=1, kind="stable")
            moved = np.empty(batch.shape)
            moved[rows[:len(batch), None], place] = moves
            children_xlx = everything_right + moved.cumsum(axis=1)[:, window]
            gain = parent_h - (children_rows - children_xlx) / n
            ok = admissible[s:s + step] & (gain > _GAIN_EPS)
            gains[s:s + step] = np.where(ok, gain, -1.0)
            if by_ratio:
                score[s:s + step] = np.where(
                    ok & (split_info > _GAIN_EPS), gain / split_info, -1.0)
        if not by_ratio:
            score = gains
        # the first score within _GAIN_EPS of the best: lowest threshold
        best = score[rows, score.argmax(axis=1)]
        pos = (score >= (best - _GAIN_EPS)[:, None]).argmax(axis=1)
        cut = pos + (m - 1)
        lo, hi = sv[rows, cut], sv[rows, cut + 1]
        with np.errstate(over="ignore"):
            threshold = (lo + hi) / 2.0
        # the midpoint of adjacent floats can round up to the upper value,
        # and that of two huge ones overflows to inf
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
    matrix ``x``; for kNN, the ``index`` its classifiers share, built with
    its search of ``kept`` (a read-only query matrix, or None); for trees,
    ``order``, each numeric column's stable sort of the rows (row
    ``order_row[a]`` for column ``a``), and the ``xlx`` table of the row
    count with its steps ``dxlx``.  Fitted classifiers keep ``enc`` (and
    ``index``) but not the state, so ``x`` and ``order`` are freed with the
    caller's reference."""

    def __init__(self, spec: LearnerSpec, features,
                 attributes: Optional[Sequence[Attribute]] = None,
                 kept: Optional[np.ndarray] = None):
        raw = np.ascontiguousarray(features, dtype=float)
        if not len(raw):
            raise ValueError("cannot fit a classifier on zero training rows")
        if raw.ndim != 2:
            raise ValueError("features must be an n x d matrix")
        self.spec, self.features, self.attributes = spec, features, attributes
        self.enc = _Encoder(raw, attributes)
        self.x = self.enc.encode(raw)
        if isinstance(spec, KnnSpec):
            self.index = KnnIndex(spec, self.enc, self.x, kept)
        if isinstance(spec, TreeSpec):
            self.order = np.ascontiguousarray(
                np.argsort(self.x[:, self.enc.num_cols], axis=0, kind="stable").T)
            self.order_row = np.cumsum(~self.enc.is_nominal) - 1
            self.xlx = _xlx(len(self.x))
            self.dxlx = np.diff(self.xlx)

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
