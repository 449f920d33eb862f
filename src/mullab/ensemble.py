"""Heterogeneous ensemble of multi-label models over random row subsets.

Each of the q members is a problem-transformation model (pruned sets by
default) trained on its own seeded random subsample of the training rows.
Member score matrices are merged by an algebraic rule (mean, weighted mean,
max, min) or a voting rule (majority, weighted majority) into one n x M
score matrix, from which ``metrics.evaluate`` derives the bipartitions and
the label rankings.

Members are fitted one after another, in index order.  Member k's subsample
and fit seed depend only on (seed, k), so member k is the same model in
every ensemble with the same seed, sampling and k-th member spec, whatever
its size.  A grid's ``transforms.FitUnits`` table fits each such member
once for all the ensembles that have it (``EnsembleSpec.units``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import MLDataset, check_threshold
from .learners import preset, PRESET_NAMES
from .rng import Xoshiro256, derive_seed
from .transforms import (FitUnits, MemberSpec, MultiLabelModel, PruneSpec,
                         fit_member)

COMBINATION_RULES = (
    "mean",
    "weighted_mean",
    "max",
    "min",
    "majority_vote",
    "weighted_majority_vote",
)

_WEIGHTED_RULES = ("weighted_mean", "weighted_majority_vote")


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
        _checked_weights(self.rule, self.weights, len(self.members))
        check_threshold(self.threshold)

    def units(self) -> tuple:
        """The ``transforms.FitUnits`` key of each member's fit: member k
        depends only on its spec, ``seed``, k and the sampling."""
        return tuple(("member", member, self.seed, k, self.sample_ratio,
                      self.with_replacement)
                     for k, member in enumerate(self.members))


def _checked_weights(rule: str, weights: Optional[Sequence[float]],
                     q: int) -> Optional[np.ndarray]:
    """``weights`` as a float array after checking them against ``rule``
    and the member count ``q``; None when there are none.  Only the
    weighted rules take weights, and they need them."""
    if weights is None:
        if rule in _WEIGHTED_RULES:
            raise ValueError(f"rule {rule!r} requires weights")
        return None
    if rule not in _WEIGHTED_RULES:
        raise ValueError(f"rule {rule!r} takes no weights")
    w = np.asarray(list(weights), dtype=float)
    if w.shape != (q,):
        raise ValueError("weights length must equal member count")
    if (w < 0).any():
        raise ValueError("weights must be >= 0")
    if not w.sum() > 0:
        raise ValueError("weights must not all be zero")
    return w


def default_ensemble_spec(*, q: int = 10, prune: PruneSpec = PruneSpec(),
                          learner: Optional[str] = None,
                          **spec) -> EnsembleSpec:
    """Default ensemble: q pruned-sets members whose base learners cycle
    through the five presets (pass ``learner`` for a homogeneous ensemble).
    ``spec`` sets any other EnsembleSpec field, such as ``seed``."""
    names = (learner,) if learner else PRESET_NAMES
    members = tuple(
        MemberSpec(learner=preset(names[i % len(names)]), prune=prune)
        for i in range(q)
    )
    return EnsembleSpec(members=members, **spec)


def combine(member_scores: Sequence[np.ndarray], rule: str,
            weights: Optional[Sequence[float]] = None,
            t: float = 0.5) -> np.ndarray:
    """Merge q member score arrays component-wise.

    Accepts vectors of shape (M,) or batches of shape (n, M); all members
    must agree on shape.  Voting rules threshold each member at ``t``, in
    [0, 1], and return the (weighted) fraction of positive votes.  Only
    the weighted rules take ``weights``.
    """
    if rule not in COMBINATION_RULES:
        raise ValueError(f"unknown combination rule {rule!r}")
    check_threshold(t)
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
    w = _checked_weights(rule, weights, arr.shape[0])
    if w is not None:
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


class EnsembleModel(MultiLabelModel):
    def __init__(self, spec: EnsembleSpec, members: list[MultiLabelModel],
                 n_labels: int):
        self.spec = spec
        self.members = members
        self.n_labels = n_labels

    def predict_scores_many(self, rows):
        # a member's kNN index is its own: it keeps no search of the rows
        per_member = [m.predict_scores_many(rows) for m in self.members]
        return combine(per_member, self.spec.rule, self.spec.weights,
                       self.spec.threshold)


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


def ensemble_fit(train: MLDataset, spec: EnsembleSpec,
                 units: Optional[FitUnits] = None) -> EnsembleModel:
    """Train each member, in index order, on its seeded subsample; with a
    grid's ``units`` table, a member that the grid shares comes from it."""
    n = len(train)
    if n == 0:
        raise ValueError("cannot fit an ensemble on an empty dataset")
    members = []
    for k, (member, key) in enumerate(zip(spec.members, spec.units())):
        def fit(k=k, member=member):
            return fit_member(train.subset(_member_indices(n, spec, k)),
                              member, derive_seed(spec.seed, k, 1))
        members.append(fit() if units is None else units.take(key, fit, train))
    return EnsembleModel(spec, members, train.n_labels)
