import random

import numpy as np
import pytest

from mullab.core import Attribute, MLDataset, Schema, UniverseMismatch
from mullab.metrics import (
    accuracy,
    average_precision,
    evaluate,
    hamming_loss,
    one_error,
    rank_matrix,
    ranking_loss,
)

import oracles
from synth import label_rows


def ranks(*rows):
    return np.array(rows, dtype=np.intp)


class TestAccuracy:
    def test_perfect(self):
        t = label_rows([[0], [1, 2]], 3)
        assert accuracy(t, t) == 1.0

    def test_disjoint(self):
        assert accuracy(label_rows([[0]], 3), label_rows([[1, 2]], 3)) == 0.0

    def test_partial_overlap(self):
        assert accuracy(label_rows([[1, 2]], 4),
                        label_rows([[2, 3]], 4)) == pytest.approx(1 / 3)

    def test_both_empty_counts_as_match(self):
        assert accuracy(label_rows([[]], 3), label_rows([[]], 3)) == 1.0

    def test_perfect_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            t = rng.random((5, m)) < 0.5
            p = rng.random((5, m)) < 0.5
            assert (accuracy(t, p) == 1.0) == np.array_equal(t, p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(label_rows([[0]], 2), label_rows([], 2))

    def test_mixed_truth_universes_rejected(self):
        with pytest.raises(UniverseMismatch):
            accuracy(label_rows([[0], [0]], 2), label_rows([[0], [0]], 3))


def test_non_bool_and_non_matrix_inputs_rejected():
    t = label_rows([[0]], 2)
    with pytest.raises(ValueError, match="truths must be bool and predictions bool"):
        accuracy(t, np.array([[0.9, 0.1]]))
    with pytest.raises(ValueError, match="truths must be bool"):
        hamming_loss(t.astype(int), t)
    with pytest.raises(ValueError, match="rankings integer"):
        one_error(t, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="n x M matrices"):
        accuracy(t[0], t[0])


class TestHammingLoss:
    def test_perfect(self):
        t = label_rows([[0, 1]], 3)
        assert hamming_loss(t, t) == 0.0

    def test_complement_is_worst(self):
        t = label_rows([[0], [1, 2]], 3)
        assert hamming_loss(t, ~t) == 1.0

    def test_two_instances(self):
        t = label_rows([[0], [1]], 3)
        p = label_rows([[0, 1], [1, 2]], 3)  # one disagreement each
        assert hamming_loss(t, p) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            t = rng.random((4, m)) < 0.5
            p = rng.random((4, m)) < 0.5
            assert hamming_loss(t, p) == hamming_loss(p, t)


class TestOneError:
    def test_always_hit(self):
        t = label_rows([[0], [1]], 3)
        assert one_error(t, ranks((1, 2, 3), (2, 1, 3))) == 0.0

    def test_always_miss(self):
        t = label_rows([[1], [2]], 3)
        assert one_error(t, ranks((1, 2, 3), (1, 2, 3))) == 1.0

    def test_quarter_miss(self):
        t = label_rows([[0]] * 3 + [[1]], 2)
        assert one_error(t, ranks(*[(1, 2)] * 4)) == 0.25

    def test_empty_truth_counts_as_miss(self):
        assert one_error(label_rows([[]], 2), ranks((1, 2))) == 1.0

    def test_full_truth_never_misses(self):
        assert one_error(label_rows([[0, 1]], 2), ranks((2, 1))) == 0.0

    def test_malformed_permutation(self):
        with pytest.raises(ValueError, match=r"\(1, 1\) is not a permutation"):
            one_error(label_rows([[0]], 2), ranks((1, 1)))
        with pytest.raises(ValueError):
            one_error(label_rows([[0]], 2), ranks((0, 1)))


class TestRankingLoss:
    def test_perfect_ranking(self):
        assert ranking_loss(label_rows([[0, 1]], 4), ranks((1, 2, 3, 4))) == 0.0

    def test_reversed_ranking(self):
        assert ranking_loss(label_rows([[2, 3]], 4), ranks((1, 2, 3, 4))) == 1.0

    def test_single_misordered_pair(self):
        # relevant label 0 at rank 2 of 3: one bad pair out of two
        assert ranking_loss(label_rows([[0]], 3), ranks((2, 1, 3))) == 0.5

    def test_empty_and_full_skipped(self):
        t = label_rows([[], [0, 1, 2], [0]], 3)
        r = ranks(*[(1, 2, 3)] * 3)
        assert ranking_loss(t, r) == 0.0  # only the third instance counts

    def test_all_skipped_raises(self):
        with pytest.raises(ValueError, match="undefined"):
            ranking_loss(label_rows([[], [0, 1]], 2), ranks((1, 2), (1, 2)))


class TestAveragePrecision:
    def test_top_ranked_relevant(self):
        t = label_rows([[0, 1]], 4)
        assert average_precision(t, ranks((1, 2, 3, 4))) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(label_rows([[1]], 3), ranks((1, 2, 3))) == 0.5

    def test_relevant_at_ranks_one_and_three(self):
        t = label_rows([[0, 2]], 3)
        assert average_precision(t, ranks((1, 2, 3))) == pytest.approx(5 / 6)

    def test_empty_skipped(self):
        t = label_rows([[], [0]], 3)
        assert average_precision(t, ranks((1, 2, 3), (1, 2, 3))) == 1.0

    def test_all_skipped_raises(self):
        with pytest.raises(ValueError, match="undefined"):
            average_precision(label_rows([[]], 3), ranks((1, 2, 3)))


def random_case(rng):
    m = rng.randint(1, 8)
    n = rng.randint(1, 20)
    truths = [rng.randrange(1 << m) for _ in range(n)]
    preds = [rng.randrange(1 << m) for _ in range(n)]
    rankings = []
    for _ in range(n):
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        rankings.append(tuple(perm))

    def matrix(codes):  # bit j of a code is label j
        return (np.array(codes)[:, None] >> np.arange(m) & 1).astype(bool)

    return m, matrix(truths), matrix(preds), np.array(rankings)


def index_sets(Y):
    return [set(np.flatnonzero(row).tolist()) for row in Y]


def run_oracle_equivalence(n_cases, seed=20240501, tol=1e-12):
    """Compare all five metrics against the brute-force oracles over random
    cases; returns the number of comparisons made."""
    rng = random.Random(seed)
    compared = 0
    for _ in range(n_cases):
        m, truths, preds, rankings = random_case(rng)
        t_sets, p_sets = index_sets(truths), index_sets(preds)
        assert abs(
            accuracy(truths, preds) - oracles.accuracy_bf(t_sets, p_sets)
        ) <= tol
        assert abs(
            hamming_loss(truths, preds) - oracles.hamming_bf(t_sets, p_sets, m)
        ) <= tol
        assert abs(
            one_error(truths, rankings) - oracles.one_error_bf(t_sets, rankings)
        ) <= tol
        try:
            expected_rl = oracles.ranking_loss_bf(t_sets, rankings, m)
        except ZeroDivisionError:
            with pytest.raises(ValueError):
                ranking_loss(truths, rankings)
        else:
            assert abs(ranking_loss(truths, rankings) - expected_rl) <= tol
        try:
            expected_ap = oracles.avg_precision_bf(t_sets, rankings)
        except ZeroDivisionError:
            with pytest.raises(ValueError):
                average_precision(truths, rankings)
        else:
            assert abs(average_precision(truths, rankings) - expected_ap) <= tol
        compared += 1
    return compared


def test_brute_force_equivalence_sample():
    assert run_oracle_equivalence(150) == 150


def test_metrics_bounded_and_permutation_invariant():
    rng = random.Random(7)
    for _ in range(40):
        m, truths, preds, rankings = random_case(rng)
        values = [
            accuracy(truths, preds),
            hamming_loss(truths, preds),
            one_error(truths, rankings),
        ]
        for v in values:
            assert 0.0 <= v <= 1.0
        order = list(range(len(truths)))
        rng.shuffle(order)
        assert accuracy(truths[order], preds[order]) == pytest.approx(accuracy(truths, preds))
        assert one_error(truths[order], rankings[order]) == pytest.approx(one_error(truths, rankings))


def test_ranking_metrics_depend_only_on_induced_order():
    rng = np.random.default_rng(11)
    for _ in range(25):
        scores = rng.random(6)
        squeezed = 0.25 * scores + 0.5  # order-preserving, ties preserved
        assert np.array_equal(rank_matrix(scores[None]),
                              rank_matrix(squeezed[None]))


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------

def eval_fixture(labelsets, m):
    schema = Schema((Attribute("x"),), tuple(f"L{j}" for j in range(m)))
    x = np.arange(len(labelsets), dtype=float)[:, None]
    return MLDataset(schema, x, label_rows(labelsets, m))


class TestEvaluate:
    def test_oracle_model_is_perfect(self):
        truths = [[0], [1, 2], [0, 2]]
        test = eval_fixture(truths, 3)
        scores = [[1.0 if j in t else 0.0 for j in range(3)] for t in truths]
        rep = evaluate(scores, test, t=0.5)
        assert rep.accuracy == 1.0
        assert rep.hamming_loss == 0.0
        assert rep.one_error == 0.0
        assert rep.n_evaluated == 3

    def test_constant_half_model_hand_values(self):
        truths = [[0], [1, 2]]
        test = eval_fixture(truths, 3)
        rep = evaluate([[0.5] * 3] * 2, test, t=0.5)
        # 0.5 >= t, so the bipartition is the full set; ranks are 1,2,3
        assert rep.accuracy == pytest.approx(1 / 2)
        assert rep.hamming_loss == pytest.approx(1 / 2)
        assert rep.one_error == pytest.approx(1 / 2)
        assert rep.ranking_loss == pytest.approx(1 / 2)
        assert rep.avg_precision == pytest.approx(19 / 24)
        assert rep.n_skipped_ranking == 0

    def test_skip_counting(self):
        truths = [[], [0, 1, 2], [0]]
        test = eval_fixture(truths, 3)
        rep = evaluate([[0.9, 0.4, 0.1]] * 3, test)
        assert rep.n_skipped_ranking == 2
        assert rep.n_evaluated == 3

    @pytest.mark.parametrize("truths,rl_defined,ap_defined", [
        ([[], []], False, False),
        ([[0, 1, 2], [0, 1, 2]], False, True),
        ([[], [0, 1, 2]], False, True),
        ([[], [0]], True, True),
    ])
    def test_metric_no_row_defines_is_nan(self, truths, rl_defined,
                                          ap_defined):
        rep = evaluate([[0.9, 0.4, 0.1]] * 2,
                       eval_fixture(truths, 3))
        assert np.isnan(rep.ranking_loss) != rl_defined
        assert np.isnan(rep.avg_precision) != ap_defined
        assert rep.n_skipped_ranking == 2 - rl_defined
        assert not np.isnan([rep.accuracy, rep.hamming_loss,
                             rep.one_error]).any()

    def test_universe_mismatch(self):
        test = eval_fixture([[0]], 2)
        with pytest.raises(UniverseMismatch):
            evaluate([[0.5, 0.5, 0.5]], test)

    @pytest.mark.parametrize("scores, error, message", [
        ([[0.9, 0.1, 0.5]], ValueError, "3 truths vs 1 scores"),
        ([[0.9, 0.1]] * 3, UniverseMismatch, "label universes differ"),
        ([[0.9, 0.1, 0.5]] * 4, ValueError, "3 truths vs 4 scores"),
        ([0.9, 0.1, 0.5], ValueError, "n x M matrices"),
        ([[0.9, np.nan, 0.5]] * 3, ValueError, "scores must be finite"),
        ([[0.9, 0.1, 0.5]] * 2 + [[-np.inf] * 3], ValueError,
         "scores must be finite"),
    ], ids=["one-row-for-three", "two-labels-for-three", "four-rows",
            "vector", "nan", "minus-inf"])
    def test_malformed_scores_rejected(self, scores, error, message):
        test = eval_fixture([[0], [1, 2], [2]], 3)
        with pytest.raises(error, match=message) as raised:
            evaluate(scores, test)
        assert type(raised.value) is error

    def test_scores_past_one_by_an_ulp_are_accepted(self):
        # a label's summed class probabilities can pass 1 by rounding
        test = eval_fixture([[0], [1]], 2)
        over = np.nextafter(1.0, 2.0)
        assert evaluate([[over, 0.0], [0.0, over]], test).accuracy == 1.0

    def test_tied_scores_rank_by_ascending_label_index(self):
        # an all-zero row, an all-equal row and a row with one tied pair
        scores = np.array([[0.0, 0.0, 0.0], [0.4, 0.4, 0.4],
                           [0.2, 0.7, 0.7]])
        assert rank_matrix(scores).tolist() == [[1, 2, 3], [1, 2, 3],
                                                [3, 1, 2]]
        # the first tied label of each row is its one relevant label...
        first = evaluate(scores, eval_fixture([[0], [0], [1]], 3))
        assert (first.one_error, first.ranking_loss,
                first.avg_precision) == (0.0, 0.0, 1.0)
        # ...or the last, ranked below every other tied label
        last = evaluate(scores, eval_fixture([[2], [2], [2]], 3))
        assert last.one_error == 1.0
        assert last.avg_precision == pytest.approx((1 / 3 + 1 / 3 + 1 / 2) / 3)

    def test_empty_dataset(self):
        test = eval_fixture([], 2)
        with pytest.raises(ValueError):
            evaluate(np.zeros((0, 2)), test)

    @pytest.mark.parametrize("t", [2.0, -1.0, 1.0 + 1e-9, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, t):
        test = eval_fixture([[0], [1]], 2)
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            evaluate([[0.9, 0.1], [0.2, 0.8]], test, t=t)

    def test_threshold_bounds_are_valid(self):
        test = eval_fixture([[0], [1]], 2)
        scores = [[1.0, 0.0], [0.0, 1.0]]
        # 0: every label is predicted; 1: only scores of exactly 1
        assert evaluate(scores, test, t=0.0).hamming_loss == 0.5
        assert evaluate(scores, test, t=1.0).accuracy == 1.0
