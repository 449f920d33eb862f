"""Heterogeneous ensemble of multi-label models over random row subsets.

Each of the q members is a problem-transformation model (pruned sets by
default) trained on its own seeded random subsample of the training rows.
Member score vectors are merged by an algebraic rule (mean, weighted mean,
max, min) or a voting rule (majority, weighted majority) into one score
vector per instance, from which the bipartition and the label ranking are
derived.

Member subsamples depend only on (seed, member index), so training members
concurrently on any number of workers yields bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import FeatureVector, LabelSet, MLDataset
from .learners import LearnerSpec, preset, PRESET_NAMES
from .rng import Xoshiro256, derive_seed
from .transforms import (
    MultiLabelModel,
    PruneSpec,
    br_fit,
    lp_fit,
    ps_fit,
    rakel_fit,
)

COMBINATION_RULES = (
    "mean",
    "weighted_mean",
    "max",
    "min",
    "majority_vote",
    "weighted_majority_vote",
)

_WEIGHTED_RULES = ("weighted_mean", "weighted_majority_vote")

TRANSFORM_NAMES = ("br", "lp", "rakel", "ps")


@dataclass(frozen=True)
class MemberSpec:
    """One ensemble member: a transform plus its base learner."""

    transform: str = "ps"
    learner: LearnerSpec = field(default_factory=lambda: preset("nb"))
    prune: PruneSpec = PruneSpec(2, 2)  # used by ps
    rakel_m: Optional[int] = None       # used by rakel
    rakel_k: int = 3

    def __post_init__(self):
        if self.transform not in TRANSFORM_NAMES:
            raise ValueError(f"unknown member transform {self.transform!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    members: tuple[MemberSpec, ...]
    sample_ratio: float = 0.67
    with_replacement: bool = False
    rule: str = "majority_vote"
    weights: Optional[tuple[float, ...]] = None
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ValueError("sample_ratio must be in (0, 1]")
        if self.rule not in COMBINATION_RULES:
            raise ValueError(f"unknown combination rule {self.rule!r}")
        if self.weights is not None:
            if len(self.weights) != len(self.members):
                raise ValueError("weights length must equal member count")
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be >= 0")
            if not sum(self.weights) > 0:
                raise ValueError("weights must not all be zero")
        if self.rule in _WEIGHTED_RULES and self.weights is None:
            raise ValueError(f"rule {self.rule!r} requires weights")


def default_ensemble_spec(seed: int = 0, q: int = 10,
                          rule: str = "majority_vote",
                          sample_ratio: float = 0.67,
                          prune: PruneSpec = PruneSpec(2, 2),
                          learner: Optional[str] = None) -> EnsembleSpec:
    """Default ensemble: q pruned-sets members whose base learners cycle
    through the five presets (pass ``learner`` for a homogeneous ensemble)."""
    names = (learner,) * q if learner else PRESET_NAMES
    members = tuple(
        MemberSpec(transform="ps", learner=preset(names[i % len(names)]), prune=prune)
        for i in range(q)
    )
    return EnsembleSpec(members=members, sample_ratio=sample_ratio,
                        rule=rule, seed=seed)


def combine(member_scores: Sequence[np.ndarray], rule: str,
            weights: Optional[Sequence[float]] = None,
            t: float = 0.5) -> np.ndarray:
    """Merge q member score arrays component-wise.

    Accepts vectors of shape (M,) or batches of shape (n, M); all members
    must agree on shape.  Voting rules threshold each member at ``t`` and
    return the (weighted) fraction of positive votes.
    """
    if rule not in COMBINATION_RULES:
        raise ValueError(f"unknown combination rule {rule!r}")
    if len(member_scores) == 0:
        raise ValueError("no member scores to combine")
    shapes = {np.shape(s) for s in member_scores}
    if len(shapes) != 1:
        raise ValueError(f"member score shapes differ: {sorted(shapes)}")
    arr = np.stack([np.asarray(s, dtype=float) for s in member_scores])
    if not np.isfinite(arr).all():
        raise ValueError("member scores must be finite")
    if arr.size and (arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9):
        raise ValueError("member scores must lie in [0, 1]")
    w = None
    if rule in _WEIGHTED_RULES:
        if weights is None:
            raise ValueError(f"rule {rule!r} requires weights")
        w = np.asarray(list(weights), dtype=float)
        if w.shape != (arr.shape[0],):
            raise ValueError("weights length must equal member count")
        if (w < 0).any():
            raise ValueError("weights must be >= 0")
        if w.sum() <= 0:
            raise ValueError("weights must not all be zero")
        w = w.reshape((-1,) + (1,) * (arr.ndim - 1))
    if rule == "mean":
        return arr.mean(axis=0)
    if rule == "weighted_mean":
        return (w * arr).sum(axis=0) / w.sum()
    if rule == "max":
        return arr.max(axis=0)
    if rule == "min":
        return arr.min(axis=0)
    votes = (arr >= t).astype(float)
    if rule == "majority_vote":
        return votes.mean(axis=0)
    return (w * votes).sum(axis=0) / w.sum()


def bipartition(scores: Sequence[float], t: float = 0.5) -> LabelSet:
    """Labels whose score reaches the threshold (inclusive at exactly t)."""
    scores = np.asarray(scores, dtype=float)
    bits = 0
    for j in range(scores.shape[0]):
        if scores[j] >= t:
            bits |= 1 << j
    return LabelSet(bits, scores.shape[0])


def rank_labels(scores: Sequence[float]) -> tuple[int, ...]:
    """Rank per label, 1 = highest score; equal scores rank by ascending
    label index."""
    scores = np.asarray(scores, dtype=float)
    m = scores.shape[0]
    order = sorted(range(m), key=lambda j: (-scores[j], j))
    ranks = [0] * m
    for pos, j in enumerate(order):
        ranks[j] = pos + 1
    return tuple(ranks)


@dataclass(frozen=True, eq=False)
class Prediction:
    """Scores plus the bipartition and ranking they induce."""

    scores: np.ndarray
    bipartition: LabelSet
    ranks: tuple[int, ...]

    @classmethod
    def from_scores(cls, scores, t: float = 0.5) -> "Prediction":
        scores = np.asarray(scores, dtype=float)
        return cls(scores, bipartition(scores, t), rank_labels(scores))


class EnsembleModel(MultiLabelModel):
    def __init__(self, spec: EnsembleSpec, members: list[MultiLabelModel],
                 n_labels: int):
        self.spec = spec
        self.members = members
        self.n_labels = n_labels

    def predict_scores_many(self, rows):
        per_member = [m.predict_scores_many(rows) for m in self.members]
        return combine(per_member, self.spec.rule, self.spec.weights,
                       self.spec.threshold)

    def predict(self, x: FeatureVector) -> Prediction:
        return Prediction.from_scores(self.predict_scores(x), self.spec.threshold)


def _member_indices(n: int, spec: EnsembleSpec, member_index: int) -> list[int]:
    size = math.floor(spec.sample_ratio * n + 0.5)
    if size < 1:
        raise ValueError("subsample size rounds to zero; raise sample_ratio")
    rng = Xoshiro256(derive_seed(spec.seed, member_index))
    if spec.with_replacement:
        idx = [rng.below(n) for _ in range(size)]
    else:
        perm = list(range(n))
        rng.shuffle(perm)
        idx = perm[:size]
    # ascending order keeps the subsample row order equal to the original
    # dataset's, so ratio 1.0 without replacement reproduces it exactly
    return sorted(idx)


def _fit_member(train: MLDataset, member: MemberSpec, member_seed: int):
    if member.transform == "br":
        return br_fit(train, member.learner)
    if member.transform == "lp":
        return lp_fit(train, member.learner)
    if member.transform == "rakel":
        return rakel_fit(train, member.learner, m=member.rakel_m,
                         k=member.rakel_k, seed=member_seed)
    return ps_fit(train, member.learner, member.prune)


def ensemble_fit(train: MLDataset, spec: EnsembleSpec,
                 workers: Optional[int] = None) -> EnsembleModel:
    """Train every member on its seeded subsample; ``workers`` > 1 trains
    members concurrently without changing any result."""
    n = len(train)
    if n == 0:
        raise ValueError("cannot fit an ensemble on an empty dataset")

    def build(k: int) -> MultiLabelModel:
        subset = train.subset(_member_indices(n, spec, k))
        return _fit_member(subset, spec.members[k], derive_seed(spec.seed, k, 1))

    q = len(spec.members)
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            members = list(pool.map(build, range(q)))
    else:
        members = [build(k) for k in range(q)]
    return EnsembleModel(spec, members, train.n_labels)
