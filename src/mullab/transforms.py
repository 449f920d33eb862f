"""Problem-transformation multi-label methods.

Each transform reduces the multi-label task to single-label problems solved
by the base learners.  Every one is a ``RakelModel`` over a list of
label-powerset members, each a multiclass classifier over the distinct
training labelsets of its label subset; a member scores each of its labels
by the summed probabilities of the labelsets containing it, and a label
scores the mean over the members covering it:

* label powerset: one member over every label, so the argmax labelset is
  always one seen in training
* RAKEL: members over random k-subsets of the labels
* binary relevance: members over the singleton subsets {0}, {1}, ... in
  label order.  A one-label powerset has the classes {absent, present}
  (just one of them when the label is constant in training), so each label
  scores its present-class probability.  A one-class member is the
  learner's own classifier, which predicts its class with probability
  exactly 1, so a constant label scores a constant 1 or 0
* pruned sets: label powerset after removing rows with rare labelsets and
  reintroducing them under frequent subsets of their labelsets

All four raise ``ValueError`` on zero training rows.

A ``MemberSpec`` names one of the four with its learner and options;
``fit_member`` fits it.  Every trained model has one prediction method,
``predict_scores_many``: an n x d feature matrix (or a list of n rows) in,
the n x M matrix of per-label confidences in [0, 1] out.  Models are
immutable after fitting.

A model fits every member from one ``learners.TrainingState`` of its
training matrix: one encoder and, with kNN, one shared ``KnnIndex``; tree
members grow from one sort of each column.  A fitted model keeps no state,
so it holds no training matrix and no column order.  A predict call asks
each ``KnnIndex`` of its kNN members once for its neighbours of the query
rows, and each member votes on them.  An index searches anew unless the
rows are the very matrix it keeps a search of (``KnnIndex.keep``), so
concurrent predicts on one model stay safe.

A grid of experiments over one train/test split may share two kinds of
fit unit through a ``FitUnits`` table: a training state, keyed by its
learner spec and training rows (the split, or its pruned-sets rewrite),
whose build, for kNN, has its index keep a search of the grid's test
rows; and a fitted ensemble member.  The grid runs its experiments one
at a time, and the table builds each unit once and drops it at its last
consumer.  Without a table, a state lives only while one model's members
are fitted, and a search only for one predict call.
Every unit is deterministic, so sharing one changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from . import learners
from .core import MLDataset
from .learners import LearnerSpec
from .rng import Xoshiro256


class MultiLabelModel:
    """Trained multi-label scorer over a fixed label universe."""

    n_labels: int

    def predict_scores_many(self, rows) -> np.ndarray:
        raise NotImplementedError


def _distinct_rows(Y: np.ndarray):
    """Distinct rows of ``Y`` in ascending bit order (label 0 least
    significant, for any label count), each row's index into them, counts."""
    order = np.lexsort(Y.T) if Y.shape[1] else np.arange(len(Y))
    ordered = Y[order]
    starts = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    inverse = np.empty(len(Y), np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse, np.bincount(inverse)


class RakelModel(MultiLabelModel):
    """Mean of per-label scores from label-powerset members, each a record
    ``(labels, clf, classes)``: a label subset, its classifier, and the bool
    rows over ``labels`` that the classes stand for, in ascending bit order.
    Labels covered by no member score a neutral 0.5 and are listed in
    ``uncovered``.  A predict asks each ``KnnIndex`` of its members once
    for the neighbours of ``rows``: a search, or the one the index kept."""

    def __init__(self, n_labels: int, members):
        self.n_labels = n_labels
        self.members = members
        covered = set().union(*(labels for labels, _, _ in members))
        self.uncovered = tuple(j for j in range(n_labels) if j not in covered)

    def predict_scores_many(self, rows):
        n = len(rows)
        sums = np.zeros((n, self.n_labels))
        cover = np.zeros(self.n_labels)
        neighbours = {}  # per KnnIndex, found at its first kNN member
        for labels, clf, classes in self.members:
            if isinstance(clf, learners.KnnClassifier):
                if clf.index not in neighbours:
                    neighbours[clf.index] = clf.index.neighbours(rows)
                dist = clf.votes(neighbours[clf.index])
            else:
                dist = clf.predict_dist_many(rows)
            cols = list(labels)
            sums[:, cols] += dist @ classes
            cover[cols] += 1.0
        out = np.full((n, self.n_labels), 0.5)
        covered = cover > 0
        out[:, covered] = sums[:, covered] / cover[covered]
        return out


def _state_key(spec: LearnerSpec, prune: Optional[PruneSpec]) -> tuple:
    """The ``FitUnits`` key of the training state that ``_training_unit``
    builds for a grid's training split."""
    return ("state", spec, prune)


def _training_unit(train: MLDataset, spec: LearnerSpec,
                   prune: Optional[PruneSpec], queries=None):
    """``(rows, state, fields)``: the rows a model fits on, which are
    ``train`` or, with a ``prune``, its pruned-sets rewrite; their training
    state for ``spec``, whose kNN index keeps its search of ``queries``;
    and the fields that the rewrite gives the model."""
    fields = {}
    if prune is not None:
        train, fields = _pruned_rows(train, prune)
    state = learners.TrainingState(spec, train.X, train.schema.attributes)
    if queries is not None and isinstance(spec, learners.KnnSpec):
        state.index.keep(queries)
    return train, state, fields


def _fit_members(model_class, train: MLDataset, spec: LearnerSpec, subsets,
                 units: Optional[FitUnits] = None,
                 prune: Optional[PruneSpec] = None):
    """A ``model_class`` with one label-powerset member per label subset, in
    order, all fitted from one training state of ``train`` or, with a
    ``prune``, of its pruned-sets rewrite.  The state comes from the grid's
    ``units`` table when the grid shares it, and else is built here and
    dies on return."""
    if len(train) == 0:
        raise ValueError("cannot fit label powerset on an empty dataset")
    if units is None:
        rows, shared, fields = _training_unit(train, spec, prune)
    else:
        rows, shared, fields = units.take(
            _state_key(spec, prune),
            lambda: _training_unit(train, spec, prune, units.queries), train)
    members = []
    for labels in subsets:
        classes, y, _ = _distinct_rows(rows.Y[:, list(labels)])
        clf = learners.fit(spec, rows.X, y, rows.schema.attributes, shared)
        members.append((labels, clf, classes))
    return model_class(train.n_labels, members, **fields)


class LabelPowersetModel(RakelModel):
    """RAKEL with one member over every label: its classes are the
    distinct training labelsets."""

    # The benchmark tracer hooks each class's own predict_scores_many by
    # name: inherited, it would go missing; a super() call would nest spans.
    predict_scores_many = RakelModel.predict_scores_many


def lp_fit(train: MLDataset, spec: LearnerSpec,
           units: Optional[FitUnits] = None) -> LabelPowersetModel:
    return _fit_members(LabelPowersetModel, train, spec,
                        [tuple(range(train.n_labels))], units)


def rakel_fit(train: MLDataset, spec: LearnerSpec, m: Optional[int] = None,
              k: int = 3, seed: int = 0,
              units: Optional[FitUnits] = None) -> RakelModel:
    """RAKEL with ``m`` members (default 2 * n_labels) over random
    k-subsets, sampled without repetition while distinct subsets remain."""
    n_labels = train.n_labels
    if not 1 <= k <= n_labels:
        raise ValueError(f"subset size k={k} must be in [1, {n_labels}]")
    if m is None:
        m = 2 * n_labels
    if m < 1:
        raise ValueError("member count m must be >= 1")
    rng = Xoshiro256(seed)
    total = comb(n_labels, k)
    seen: set[tuple[int, ...]] = set()
    subsets = []
    for _ in range(m):
        if len(seen) == total:
            seen.clear()
        while True:
            subset = tuple(sorted(rng.sample(n_labels, k)))
            if subset not in seen:
                break
        seen.add(subset)
        subsets.append(subset)
    return _fit_members(RakelModel, train, spec, subsets, units)


class BinaryRelevanceModel(RakelModel):
    """RAKEL whose member j is label j's one-label powerset."""

    predict_scores_many = RakelModel.predict_scores_many


def br_fit(train: MLDataset, spec: LearnerSpec,
           units: Optional[FitUnits] = None) -> BinaryRelevanceModel:
    """One label-powerset member per label, in label order; see the
    module docstring for constant labels and empty training sets."""
    if train.n_labels < 1:
        raise ValueError("binary relevance needs at least one label")
    return _fit_members(BinaryRelevanceModel, train, spec,
                        [(j,) for j in range(train.n_labels)], units)


@dataclass(frozen=True)
class PruneSpec:
    """p: minimum labelset frequency to survive pruning; b: cap on
    reintroduced subset rows per pruned instance."""

    p: int = 2
    b: int = 2

    def __post_init__(self):
        if self.p < 0 or self.b < 0:
            raise ValueError("PruneSpec values must be >= 0")


class PrunedSetsModel(RakelModel):
    """Label powerset of the rewritten rows: ``n_pruned`` training rows
    were dropped and ``n_reintroduced`` subset rows put back."""

    predict_scores_many = RakelModel.predict_scores_many

    def __init__(self, n_labels: int, members, n_pruned: int,
                 n_reintroduced: int):
        super().__init__(n_labels, members)
        self.n_pruned = n_pruned
        self.n_reintroduced = n_reintroduced


def ps_fit(train: MLDataset, spec: LearnerSpec, prune: PruneSpec,
           units: Optional[FitUnits] = None) -> PrunedSetsModel:
    """Pruned sets: label powerset fitted on ``_pruned_rows(train, prune)``,
    the pruned-sets rewrite of ``train``."""
    if len(train) == 0:
        raise ValueError("cannot fit pruned sets on an empty dataset")
    return _fit_members(PrunedSetsModel, train, spec,
                        [tuple(range(train.n_labels))], units, prune)


def _pruned_rows(train: MLDataset, prune: PruneSpec):
    """The pruned-sets rewrite of ``train`` and the model fields
    ``n_pruned`` and ``n_reintroduced``: drop rows whose labelset occurs
    fewer than ``prune.p`` times, then reintroduce each dropped row under up
    to ``prune.b`` of the frequent strict subsets of its labelset (largest
    cardinality first, ties by ascending bit pattern)."""
    distinct, inverse, counts = _distinct_rows(train.Y)
    kept = counts[inverse] >= prune.p
    frequent = distinct[counts >= prune.p]
    # stable sort keeps ascending bit order among equal cardinalities
    frequent = frequent[np.argsort(-frequent.sum(axis=1), kind="stable")]
    pruned = np.flatnonzero(~kept)
    # frequent labelset k is a subset of pruned row i unless it holds a
    # label the row lacks; it is a strict subset because a pruned row's
    # labelset is itself infrequent
    subset = ~(~train.Y[pruned] @ frequent.T)
    chosen = subset & (np.cumsum(subset, axis=1) <= prune.b)
    row, cls = np.nonzero(chosen)  # row-major: pruned row order, then rank
    src = np.concatenate([np.flatnonzero(kept), pruned[row]])
    if src.size == 0:
        raise ValueError(
            f"pruning with p={prune.p} removed every row; lower p"
        )
    rewritten = MLDataset(
        train.schema, train.X[src],
        np.concatenate([train.Y[kept], frequent[cls]]))
    return rewritten, {"n_pruned": pruned.size, "n_reintroduced": row.size}


DEFAULT_LEARNER = "nb"  # a MemberSpec's learner when none is named


@dataclass(frozen=True)
class MemberSpec:
    """One multi-label model: a transform plus its base learner and the
    transform's options.  A top-level experiment and an ensemble member
    are both one of these."""

    transform: str = "ps"
    learner: LearnerSpec = field(
        default_factory=lambda: learners.preset(DEFAULT_LEARNER))
    prune: PruneSpec = PruneSpec()  # used by ps
    m: Optional[int] = None         # used by rakel (None: 2 * n_labels)
    k: int = 3                      # used by rakel

    def __post_init__(self):
        if self.transform not in TRANSFORM_NAMES:
            raise ValueError(f"unknown member transform {self.transform!r}")
        if self.m is not None and self.m < 1:
            raise ValueError("rakel member count m must be >= 1")
        if self.k < 1:
            raise ValueError("rakel subset size k must be >= 1")

    def units(self) -> tuple:
        """The key of the ``FitUnits`` training state that a fit of this
        spec on a grid's training split reads."""
        return (_state_key(self.learner,
                           self.prune if self.transform == "ps" else None),)


_FITS = {
    "br": lambda train, spec, seed, units: br_fit(train, spec.learner, units),
    "lp": lambda train, spec, seed, units: lp_fit(train, spec.learner, units),
    "rakel": lambda train, spec, seed, units: rakel_fit(
        train, spec.learner, m=spec.m, k=spec.k, seed=seed, units=units),
    "ps": lambda train, spec, seed, units: ps_fit(
        train, spec.learner, spec.prune, units),
}

TRANSFORM_NAMES = tuple(_FITS)


def fit_member(train: MLDataset, spec: MemberSpec, seed: int = 0,
               units: Optional[FitUnits] = None) -> MultiLabelModel:
    """Fit the transform ``spec`` names; ``seed`` drives RAKEL's subset
    draws and is unused by the other three.  ``units``, a grid's
    ``FitUnits`` table, shares the training state with the grid."""
    return _FITS[spec.transform](train, spec, seed, units)


class FitUnits:
    """The fit units that one grid's experiments share over its ``train``
    and ``test`` splits: training states, each kNN one with its index's
    search of the test rows kept, and fitted ensemble members.  ``plans[i]``
    lists the keys of the units that experiment ``i`` reads
    (``MemberSpec.units``, ``EnsembleSpec.units``).  The experiments run
    one at a time, in plan order: each takes its units with ``take`` and
    ends with ``done``.

    A unit is built at its first consumer's take and leaves the table at
    its last consumer's take, or at that consumer's ``done`` if it never
    took it.  A build that raises runs once, and its error is raised in
    every consumer.  A key with one consumer is never stored, so its unit
    lives as long as it would without a table."""

    def __init__(self, train: MLDataset, test: MLDataset, plans):
        self.train, self.queries = train, test.X
        self._plans = [set(keys) for keys in plans]
        self._last = {key: i for i, keys in enumerate(plans) for key in keys}
        self._running = 0  # the experiment that takes next
        self._built: dict = {}  # key -> (unit, None) or (None, error)

    def take(self, key, build, source):
        """The unit ``key`` that ``build()`` makes from ``source``.  A key
        the running experiment did not plan, and a unit built from other
        rows than ``train``, are built for the caller alone."""
        if source is not self.train or key not in self._plans[self._running]:
            return build()
        last = self._last[key] == self._running
        if key not in self._built:
            if last:  # no later consumer
                return build()
            try:
                self._built[key] = build(), None
            except BaseException as e:  # every consumer raises it
                self._built[key] = None, e
        unit, error = self._built.pop(key) if last else self._built[key]
        if error is None:
            return unit
        try:
            raise error
        finally:
            # the error's traceback holds this frame: without the error in
            # it, no cycle keeps the error and the frames it reaches alive
            del error

    def done(self) -> None:
        """End the running experiment: drop the units it was the last
        consumer of, as when it failed before taking them."""
        for key in self._plans[self._running]:
            if self._last[key] == self._running:
                self._built.pop(key, None)
        self._running += 1
