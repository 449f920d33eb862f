"""Problem-transformation multi-label methods.

Each transform reduces the multi-label task to single-label problems solved
by the base learners:

* binary relevance: one independent binary classifier per label
* label powerset: one multiclass classifier over the distinct training
  labelsets; per-label scores are the summed probabilities of the labelsets
  containing the label, so the argmax labelset is always one seen in
  training
* RAKEL: an ensemble of label-powerset models over random k-subsets of the
  labels, averaged per label
* pruned sets: label powerset after removing rows with rare labelsets and
  reintroducing them under frequent subsets of their labelsets

All trained models expose ``predict_scores`` (one vector of per-label
confidences in [0, 1]) and are immutable after fitting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import learners
from .core import FeatureVector, LabelSet, MLDataset, Schema
from .learners import LearnerSpec
from .rng import Xoshiro256


class MultiLabelModel:
    """Trained multi-label scorer over a fixed label universe."""

    n_labels: int

    def predict_scores(self, x: FeatureVector) -> np.ndarray:
        return self.predict_scores_many([x])[0]

    def predict_scores_many(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        raise NotImplementedError


class _ConstantLabelScorer:
    """Stands in for a binary classifier when a label is always (or never)
    present in training."""

    def __init__(self, score: float):
        self.score = score

    def positive_scores(self, rows) -> np.ndarray:
        return np.full(len(rows), self.score)


class _BinaryWrapper:
    def __init__(self, clf: learners.Classifier):
        self.clf = clf

    def positive_scores(self, rows) -> np.ndarray:
        return self.clf.predict_dist_many(rows)[:, 1]


class BinaryRelevanceModel(MultiLabelModel):
    def __init__(self, schema: Schema, scorers):
        self.n_labels = schema.n_labels
        self._schema = schema
        self._scorers = scorers

    def predict_scores_many(self, rows):
        out = np.empty((len(rows), self.n_labels))
        for j, scorer in enumerate(self._scorers):
            out[:, j] = scorer.positive_scores(rows)
        return out


def br_fit(train: MLDataset, spec: LearnerSpec) -> BinaryRelevanceModel:
    """One binary classifier per label; scores are positive-class
    probabilities.  A label constant across training yields a constant
    scorer rather than an error."""
    if train.n_labels < 1:
        raise ValueError("binary relevance needs at least one label")
    attrs = train.schema.attributes
    scorers = []
    for j in range(train.n_labels):
        y = [1 if j in ls else 0 for ls in train.labelsets]
        if all(v == 1 for v in y):
            scorers.append(_ConstantLabelScorer(1.0))
        elif all(v == 0 for v in y):
            scorers.append(_ConstantLabelScorer(0.0))
        else:
            scorers.append(_BinaryWrapper(learners.fit(spec, train.X, y, attrs)))
    return BinaryRelevanceModel(train.schema, scorers)


class LabelPowersetModel(MultiLabelModel):
    """Multiclass model whose classes are the distinct training labelsets,
    ordered by ascending bit pattern."""

    def __init__(self, schema: Schema, clf: learners.Classifier,
                 class_labelsets: tuple[LabelSet, ...]):
        self.n_labels = schema.n_labels
        self._schema = schema
        self._clf = clf
        self.class_labelsets = class_labelsets
        # incidence[c, j] = 1 iff label j belongs to class c's labelset
        self._incidence = np.array(
            [[1.0 if j in ls else 0.0 for j in range(self.n_labels)]
             for ls in class_labelsets]
        )

    def predict_scores_many(self, rows):
        dist = self._clf.predict_dist_many(rows)
        return dist @ self._incidence

    def predict_labelset(self, x: FeatureVector) -> LabelSet:
        """Most probable labelset; by construction one seen in training."""
        dist = self._clf.predict_dist_many([x])[0]
        return self.class_labelsets[int(np.argmax(dist))]


def lp_fit(train: MLDataset, spec: LearnerSpec) -> LabelPowersetModel:
    if len(train) == 0:
        raise ValueError("cannot fit label powerset on an empty dataset")
    distinct = sorted({ls.bits for ls in train.labelsets})
    class_of = {bits: c for c, bits in enumerate(distinct)}
    y = [class_of[ls.bits] for ls in train.labelsets]
    clf = learners.fit(spec, train.X, y, train.schema.attributes)
    m = train.n_labels
    return LabelPowersetModel(
        train.schema, clf, tuple(LabelSet(bits, m) for bits in distinct)
    )


class RakelModel(MultiLabelModel):
    """Mean of per-label votes from label-powerset members, each trained on
    a random k-subset of the labels.  Labels covered by no member score a
    neutral 0.5 and are listed in ``uncovered``."""

    def __init__(self, schema: Schema, members, uncovered: tuple[int, ...]):
        self.n_labels = schema.n_labels
        self.members = members  # list of (label_indices, LabelPowersetModel)
        self.uncovered = uncovered

    def predict_scores_many(self, rows):
        n = len(rows)
        sums = np.zeros((n, self.n_labels))
        cover = np.zeros(self.n_labels)
        for label_idx, model in self.members:
            member_scores = model.predict_scores_many(rows)
            for pos, j in enumerate(label_idx):
                sums[:, j] += member_scores[:, pos]
                cover[j] += 1.0
        out = np.full((n, self.n_labels), 0.5)
        covered = cover > 0
        out[:, covered] = sums[:, covered] / cover[covered]
        return out


def _restrict_to_labels(train: MLDataset, label_idx: Sequence[int]) -> MLDataset:
    names = tuple(train.schema.label_names[j] for j in label_idx)
    schema = Schema(train.schema.attributes, names)
    k = len(label_idx)
    rows = []
    for fv, ls in train.rows:
        bits = 0
        for pos, j in enumerate(label_idx):
            if j in ls:
                bits |= 1 << pos
        rows.append((fv, LabelSet(bits, k)))
    return MLDataset(schema, rows, validate=False, X=train.X)


def rakel_fit(train: MLDataset, spec: LearnerSpec, m: Optional[int] = None,
              k: int = 3, seed: int = 0) -> RakelModel:
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
    members = []
    for _ in range(m):
        if len(seen) == total:
            seen.clear()
        while True:
            subset = tuple(sorted(rng.sample(n_labels, k)))
            if subset not in seen:
                break
        seen.add(subset)
        members.append((subset, lp_fit(_restrict_to_labels(train, subset), spec)))
    covered = set()
    for subset, _ in members:
        covered.update(subset)
    uncovered = tuple(j for j in range(n_labels) if j not in covered)
    return RakelModel(train.schema, members, uncovered)


@dataclass(frozen=True)
class PruneSpec:
    """p: minimum labelset frequency to survive pruning; b: cap on
    reintroduced subset rows per pruned instance."""

    p: int = 2
    b: int = 2

    def __post_init__(self):
        if self.p < 0 or self.b < 0:
            raise ValueError("PruneSpec values must be >= 0")


class PrunedSetsModel(MultiLabelModel):
    def __init__(self, lp: LabelPowersetModel, n_pruned: int, n_reintroduced: int):
        self.n_labels = lp.n_labels
        self.lp = lp
        self.n_pruned = n_pruned
        self.n_reintroduced = n_reintroduced

    def predict_scores_many(self, rows):
        return self.lp.predict_scores_many(rows)

    def predict_labelset(self, x: FeatureVector) -> LabelSet:
        return self.lp.predict_labelset(x)


def ps_fit(train: MLDataset, spec: LearnerSpec, prune: PruneSpec) -> PrunedSetsModel:
    """Pruned sets: drop rows whose labelset occurs fewer than ``prune.p``
    times, then reintroduce each dropped row under up to ``prune.b`` of the
    frequent strict subsets of its labelset (largest cardinality first, ties
    by ascending bit pattern), and fit label powerset on the rewrite."""
    if len(train) == 0:
        raise ValueError("cannot fit pruned sets on an empty dataset")
    freq = Counter(ls.bits for ls in train.labelsets)
    frequent = [bits for bits, c in freq.items() if c >= prune.p]
    frequent.sort(key=lambda bits: (-bits.bit_count(), bits))
    m = train.n_labels
    kept, kept_src = [], []
    reintroduced, reintroduced_src = [], []
    n_pruned = 0
    for i, (fv, ls) in enumerate(train.rows):
        if freq[ls.bits] >= prune.p:
            kept.append((fv, ls))
            kept_src.append(i)
            continue
        n_pruned += 1
        added = 0
        for bits in frequent:
            if added == prune.b:
                break
            if bits != ls.bits and bits & ls.bits == bits:  # strict subset
                reintroduced.append((fv, LabelSet(bits, m)))
                reintroduced_src.append(i)
                added += 1
    rows = kept + reintroduced
    if not rows:
        raise ValueError(
            f"pruning with p={prune.p} removed every row; lower p"
        )
    rewritten = MLDataset(train.schema, rows, validate=False,
                          X=train.X[kept_src + reintroduced_src])
    return PrunedSetsModel(lp_fit(rewritten, spec), n_pruned, len(reintroduced))
