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
never silently zeroed.  When every instance is excluded, the metric
functions raise, and ``evaluate`` reports the metric as NaN.

Each measure takes n x M matrices: the bool truth ``Y`` and the bool
prediction ``Z`` or the integer ranks ``R`` (``R[i, j]`` is label j's rank
in row i; ``rank_matrix`` turns scores into ranks), and ``evaluate`` the
n x M score matrix of a test set.  Per-instance terms add up in row order
(average-precision terms in label order).

All functions raise ``ValueError`` on zero rows, on row-count mismatches,
on non-bool truth or predictions, on scores that are not finite and on
rank rows that are not permutations of 1..M, and ``UniverseMismatch``
when the label counts differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MLDataset, UniverseMismatch, check_threshold


@dataclass(frozen=True)
class EvaluationReport:
    """Five metric values for one model/dataset pair.

    ``n_skipped_ranking`` counts instances excluded from ranking loss
    (empty or full truth labelsets); average precision excludes only the
    empty ones.  A ranking metric that excludes every instance is NaN.
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


def rank_matrix(scores: np.ndarray) -> np.ndarray:
    """Rank of every label in each row of an n x M score matrix, 1 = highest
    score; equal scores rank by ascending label index."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, scores.shape[1] + 1), axis=1)
    return ranks


def _running_mean(terms: np.ndarray, n: int) -> float:
    # cumsum adds left to right like a running total; np.sum would pair up
    total = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
    return total / n


def _accuracy(Y: np.ndarray, Z: np.ndarray) -> float:
    union = (Y | Z).sum(axis=1)
    terms = np.divide((Y & Z).sum(axis=1), union, out=np.ones(len(Y)),
                      where=union > 0)
    return _running_mean(terms, len(Y))


def _hamming_loss(Y: np.ndarray, Z: np.ndarray) -> float:
    if Y.shape[1] < 1:
        raise ValueError("hamming loss needs at least one label")
    return int((Y != Z).sum()) / Y.size


def _one_error(Y: np.ndarray, R: np.ndarray) -> float:
    top = np.argmin(R, axis=1)
    return int((~Y[np.arange(len(Y)), top]).sum()) / len(Y)


def _in_rank_order(Y: np.ndarray, R: np.ndarray) -> np.ndarray:
    return np.take_along_axis(Y, np.argsort(R, axis=1), axis=1)


def _ranking_loss(Y: np.ndarray, R: np.ndarray) -> float:
    n_rel = Y.sum(axis=1)
    n_irr = Y.shape[1] - n_rel
    used = (n_rel > 0) & (n_irr > 0)
    if not used.any():
        raise ValueError(
            "ranking loss undefined: every instance has an empty or full truth set"
        )
    ordered = _in_rank_order(Y, R)
    # a relevant label is misordered against every irrelevant one above it
    bad = (np.cumsum(~ordered, axis=1) * ordered).sum(axis=1)
    return _running_mean(bad[used] / (n_rel[used] * n_irr[used]),
                         int(used.sum()))


def _average_precision(Y: np.ndarray, R: np.ndarray) -> float:
    n_rel = Y.sum(axis=1)
    used = n_rel > 0
    if not used.any():
        raise ValueError(
            "average precision undefined: every instance has an empty truth set"
        )
    at_or_above = np.take_along_axis(np.cumsum(_in_rank_order(Y, R), axis=1),
                                     R - 1, axis=1)
    # each instance adds its precisions in ascending label order
    per_instance = np.cumsum(np.where(Y, at_or_above / R, 0.0), axis=1)[:, -1]
    return _running_mean(per_instance[used] / n_rel[used], int(used.sum()))


def _checked(Y, other, what: str, dtype: type):
    """``Y`` and ``other`` as arrays, once both are matrices of one shape,
    ``Y`` of bool and ``other`` of ``dtype``."""
    Y, other = np.asarray(Y), np.asarray(other)
    if Y.ndim != 2 or other.ndim != 2:
        raise ValueError(f"truths and {what} must be n x M matrices")
    if len(Y) != len(other):
        raise ValueError(
            f"{len(Y)} truths vs {len(other)} {what}: lengths must match"
        )
    if len(Y) == 0:
        raise ValueError("metrics are undefined on zero instances")
    if Y.shape[1] != other.shape[1]:
        raise UniverseMismatch(
            f"label universes differ: {Y.shape[1]} vs {other.shape[1]}"
        )
    if Y.dtype != bool or not np.issubdtype(other.dtype, dtype):
        raise ValueError(f"truths must be bool and {what} {dtype.__name__}, "
                         f"not {Y.dtype} and {other.dtype}")
    return Y, other


def _with_preds(metric, Y, Z) -> float:
    return metric(*_checked(Y, Z, "predictions", np.bool_))


def _with_ranks(metric, Y, R) -> float:
    Y, R = _checked(Y, R, "rankings", np.integer)
    m = Y.shape[1]
    bad = np.flatnonzero((np.sort(R, axis=1) != np.arange(1, m + 1)).any(axis=1))
    if bad.size:
        raise ValueError(f"ranking {tuple(R[bad[0]].tolist())} is not a "
                         f"permutation of 1..{m}")
    return metric(Y, R)


def accuracy(Y: np.ndarray, Z: np.ndarray) -> float:
    """Mean |Y ∩ Z| / |Y ∪ Z| over the rows, with the 0/0 (both empty)
    term := 1."""
    return _with_preds(_accuracy, Y, Z)


def hamming_loss(Y: np.ndarray, Z: np.ndarray) -> float:
    """Mean fraction of the label universe on which truth and prediction
    disagree."""
    return _with_preds(_hamming_loss, Y, Z)


def one_error(Y: np.ndarray, R: np.ndarray) -> float:
    """Fraction of instances whose rank-1 label is not relevant.

    A full truth set can never miss (contributes 0); an empty truth set
    always misses (contributes 1).
    """
    return _with_ranks(_one_error, Y, R)


def ranking_loss(Y: np.ndarray, R: np.ndarray) -> float:
    """Mean fraction of (relevant, irrelevant) label pairs where the
    irrelevant label is ranked above the relevant one.  Instances with empty
    or full truth sets have no such pairs and are excluded."""
    return _with_ranks(_ranking_loss, Y, R)


def average_precision(Y: np.ndarray, R: np.ndarray) -> float:
    """For each relevant label, the fraction of labels ranked at or above it
    that are relevant; averaged over relevant labels, then over instances.
    Instances with no relevant labels are excluded."""
    return _with_ranks(_average_precision, Y, R)


def evaluate(scores, test: MLDataset, t: float = 0.5) -> EvaluationReport:
    """All five metrics of ``scores``, the n x M score matrix of the rows of
    ``test``: bipartitions at threshold ``t`` (in [0, 1]) and rankings.
    Ranking loss and average precision are NaN when no test row defines
    them.  A wrong label count raises ``UniverseMismatch``; a wrong row
    count, zero rows or a score that is not finite raise ``ValueError``.
    Scores are not held to [0, 1]: a summed probability may pass 1 by an
    ulp."""
    check_threshold(t)
    Y, scores = _checked(test.Y, np.asarray(scores, dtype=float), "scores",
                         np.floating)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    Z, R = scores >= t, rank_matrix(scores)
    n_rel = Y.sum(axis=1)
    proper = (n_rel > 0) & (n_rel < Y.shape[1])
    return EvaluationReport(
        accuracy=_accuracy(Y, Z),
        hamming_loss=_hamming_loss(Y, Z),
        one_error=_one_error(Y, R),
        ranking_loss=_ranking_loss(Y, R) if proper.any() else math.nan,
        avg_precision=_average_precision(Y, R) if n_rel.any() else math.nan,
        n_evaluated=len(test),
        n_skipped_ranking=int((~proper).sum()),
    )
