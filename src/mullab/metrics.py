"""Multi-label evaluation measures.

Bipartition-based: accuracy (mean Jaccard overlap of truth and prediction,
with the both-empty term defined as 1) and Hamming loss (mean fraction of
label disagreements).

Ranking-based, computed from rank permutations where rank 1 is the most
confident label: one-error (top-ranked label is irrelevant), ranking loss
(fraction of relevant/irrelevant pairs ordered wrongly) and average
precision (mean precision at the rank of each relevant label).  Instances
where a ranking metric is undefined (no relevant labels, or none irrelevant
for ranking loss) are excluded from that metric's denominator and counted,
never silently zeroed.

All functions raise on length or label-universe mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import LabelSet, MLDataset, UniverseMismatch, labelset_symdiff_count
from .ensemble import bipartition, rank_labels
from .transforms import MultiLabelModel

Ranking = Sequence[int]  # permutation of 1..M; ranking[j] is label j's rank


@dataclass(frozen=True)
class EvaluationReport:
    """Five metric values for one model/dataset pair.

    ``n_skipped_ranking`` counts instances excluded from ranking loss
    (empty or full truth labelsets); average precision excludes only the
    empty ones.
    """

    accuracy: float
    hamming_loss: float
    one_error: float
    ranking_loss: float
    avg_precision: float
    n_evaluated: int
    n_skipped_ranking: int

    METRIC_FIELDS = (
        "accuracy", "hamming_loss", "one_error", "ranking_loss", "avg_precision"
    )

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.METRIC_FIELDS}


def _check_pairs(truths: Sequence[LabelSet], others: Sequence, what: str) -> None:
    if len(truths) != len(others):
        raise ValueError(
            f"{len(truths)} truths vs {len(others)} {what}: lengths must match"
        )
    if len(truths) == 0:
        raise ValueError("metrics are undefined on zero instances")
    if len({t.universe for t in truths}) > 1:
        raise UniverseMismatch("truth labelsets disagree on the label universe")


def _check_ranking(ranking: Ranking, m: int) -> None:
    if len(ranking) != m or sorted(ranking) != list(range(1, m + 1)):
        raise ValueError(f"ranking {tuple(ranking)} is not a permutation of 1..{m}")


def accuracy(truths: Sequence[LabelSet], preds: Sequence[LabelSet]) -> float:
    """Mean |Y ∩ Z| / |Y ∪ Z|, with the 0/0 (both empty) term := 1."""
    _check_pairs(truths, preds, "predictions")
    total = 0.0
    for y, z in zip(truths, preds):
        union = y.union(z).cardinality()
        if union == 0:
            total += 1.0
        else:
            total += y.intersection(z).cardinality() / union
    return total / len(truths)


def hamming_loss(truths: Sequence[LabelSet], preds: Sequence[LabelSet]) -> float:
    """Mean fraction of the label universe on which truth and prediction
    disagree."""
    _check_pairs(truths, preds, "predictions")
    total = 0
    m = truths[0].universe
    if m < 1:
        raise ValueError("hamming loss needs at least one label")
    for y, z in zip(truths, preds):
        total += labelset_symdiff_count(y, z)
    return total / (len(truths) * m)


def one_error(truths: Sequence[LabelSet], rankings: Sequence[Ranking]) -> float:
    """Fraction of instances whose rank-1 label is not relevant.

    A full truth set can never miss (contributes 0); an empty truth set
    always misses (contributes 1).
    """
    _check_pairs(truths, rankings, "rankings")
    misses = 0
    for y, ranking in zip(truths, rankings):
        _check_ranking(ranking, y.universe)
        top = ranking.index(1)
        if top not in y:
            misses += 1
    return misses / len(truths)


def ranking_loss(truths: Sequence[LabelSet], rankings: Sequence[Ranking]) -> float:
    """Mean fraction of (relevant, irrelevant) label pairs where the
    irrelevant label is ranked above the relevant one.  Instances with empty
    or full truth sets have no such pairs and are excluded."""
    _check_pairs(truths, rankings, "rankings")
    total = 0.0
    n_used = 0
    for y, ranking in zip(truths, rankings):
        _check_ranking(ranking, y.universe)
        rel = y.indices()
        irr = y.complement().indices()
        if not rel or not irr:
            continue
        bad = 0
        for a in rel:
            for b in irr:
                if ranking[a] > ranking[b]:
                    bad += 1
        total += bad / (len(rel) * len(irr))
        n_used += 1
    if n_used == 0:
        raise ValueError(
            "ranking loss undefined: every instance has an empty or full truth set"
        )
    return total / n_used


def average_precision(truths: Sequence[LabelSet],
                      rankings: Sequence[Ranking]) -> float:
    """For each relevant label, the fraction of labels ranked at or above it
    that are relevant; averaged over relevant labels, then over instances.
    Instances with no relevant labels are excluded."""
    _check_pairs(truths, rankings, "rankings")
    total = 0.0
    n_used = 0
    for y, ranking in zip(truths, rankings):
        _check_ranking(ranking, y.universe)
        rel = y.indices()
        if not rel:
            continue
        inst = 0.0
        for a in rel:
            at_or_above = sum(1 for b in rel if ranking[b] <= ranking[a])
            inst += at_or_above / ranking[a]
        total += inst / len(rel)
        n_used += 1
    if n_used == 0:
        raise ValueError(
            "average precision undefined: every instance has an empty truth set"
        )
    return total / n_used


def evaluate(model: MultiLabelModel, test: MLDataset,
             t: float = 0.5) -> EvaluationReport:
    """Score every test row, derive bipartitions (threshold ``t``) and
    rankings, and compute all five metrics."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if model.n_labels != test.n_labels:
        raise UniverseMismatch(
            f"model has {model.n_labels} labels, dataset has {test.n_labels}"
        )
    scores = model.predict_scores_many(test.X)
    truths = test.labelsets
    preds = [bipartition(s, t) for s in scores]
    rankings = [rank_labels(s) for s in scores]
    n_skipped = sum(
        1 for y in truths if y.cardinality() in (0, y.universe)
    )
    return EvaluationReport(
        accuracy=accuracy(truths, preds),
        hamming_loss=hamming_loss(truths, preds),
        one_error=one_error(truths, rankings),
        ranking_loss=ranking_loss(truths, rankings),
        avg_precision=average_precision(truths, rankings),
        n_evaluated=len(test),
        n_skipped_ranking=n_skipped,
    )
