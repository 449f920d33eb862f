import math

import numpy as np
import pytest

from mullab import learners
from mullab.ensemble import (
    COMBINATION_RULES,
    EnsembleSpec,
    MemberSpec,
    combine,
    default_ensemble_spec,
    ensemble_fit,
)
from mullab.learners import KnnSpec, NaiveBayesSpec, preset
from mullab.metrics import evaluate, rank_matrix
from mullab.transforms import PruneSpec, lp_fit

from synth import random_dataset
from test_metrics import eval_fixture


class TestCombine:
    def test_mean_example(self):
        out = combine([np.array([1.0, 0.0]), np.array([0.0, 1.0])], "mean")
        assert out.tolist() == [0.5, 0.5]

    def test_majority_vote_example(self):
        members = [
            np.array([0.9, 0.1]),
            np.array([0.8, 0.4]),
            np.array([0.2, 0.6]),
        ]
        out = combine(members, "majority_vote", t=0.5)
        assert out.tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_max_single_member_identity(self):
        v = np.array([0.3, 0.7, 0.1])
        assert combine([v], "max").tolist() == v.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            combine([np.array([0.5, bad]), np.array([0.5, 0.5])], "mean")

    def test_weighted_mean_normalizes(self):
        out = combine(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            "weighted_mean", weights=[3.0, 1.0],
        )
        assert out.tolist() == pytest.approx([0.75, 0.25])

    def test_weighted_majority(self):
        out = combine(
            [np.array([0.9]), np.array([0.1]), np.array([0.8])],
            "weighted_majority_vote", weights=[1.0, 2.0, 1.0], t=0.5,
        )
        assert out.tolist() == pytest.approx([0.5])

    def test_mean_equals_uniform_weighted_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            members = [rng.random(5) for _ in range(4)]
            a = combine(members, "mean")
            b = combine(members, "weighted_mean", weights=[1.0] * 4)
            assert np.abs(a - b).max() <= 1e-12

    def test_min_mean_max_ordering(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            members = [rng.random(6) for _ in range(5)]
            lo = combine(members, "min")
            mid = combine(members, "mean")
            hi = combine(members, "max")
            assert (lo <= mid + 1e-12).all() and (mid <= hi + 1e-12).all()

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(2)
        members = [rng.random(4) for _ in range(5)]
        weights = [0.5, 1.0, 2.0, 0.1, 1.5]
        perm = [3, 0, 4, 2, 1]
        shuffled = [members[i] for i in perm]
        wshuffled = [weights[i] for i in perm]
        for rule in ("max", "min", "majority_vote"):
            assert np.array_equal(combine(members, rule), combine(shuffled, rule))
        assert np.abs(
            combine(members, "mean") - combine(shuffled, "mean")
        ).max() <= 1e-12
        for rule in ("weighted_mean", "weighted_majority_vote"):
            a = combine(members, rule, weights=weights)
            b = combine(shuffled, rule, weights=wshuffled)
            assert np.abs(a - b).max() <= 1e-12

    def test_outputs_in_unit_interval_all_rules(self):
        rng = np.random.default_rng(3)
        for rule in COMBINATION_RULES:
            members = [rng.random(7) for _ in range(4)]
            weights = [1.0, 2.0, 0.0, 0.5] if "weighted" in rule else None
            out = combine(members, rule, weights=weights)
            assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_batch_shape_combination(self):
        members = [np.full((3, 2), 0.2), np.full((3, 2), 0.6)]
        out = combine(members, "mean")
        assert out.shape == (3, 2)
        assert np.allclose(out, 0.4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine([np.array([0.1, 0.2]), np.array([0.1])], "mean")

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            combine([np.array([0.5])], "weighted_mean", weights=[0.0])

    def test_missing_weights_rejected(self):
        with pytest.raises(ValueError):
            combine([np.array([0.5])], "weighted_mean")

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            combine([np.array([0.5])], "median")

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError):
            combine([np.array([1.5])], "mean")

    @pytest.mark.parametrize("rule", ["mean", "max", "min", "majority_vote"])
    def test_weights_with_an_unweighted_rule_rejected(self, rule):
        with pytest.raises(ValueError, match=f"'{rule}' takes no weights"):
            combine([np.array([0.2]), np.array([0.6])], rule, weights=[5, 1])

    @pytest.mark.parametrize("rule", COMBINATION_RULES)
    @pytest.mark.parametrize("t", [1.5, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, rule, t):
        weights = [1.0, 1.0] if "weighted" in rule else None
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            combine([np.array([0.2]), np.array([0.6])], rule, weights, t=t)

    def test_threshold_bounds_vote_every_or_only_full_scores(self):
        members = [np.array([0.0, 0.6]), np.array([0.3, 1.0])]
        assert combine(members, "majority_vote", t=0.0).tolist() == [1.0, 1.0]
        assert combine(members, "majority_vote", t=1.0).tolist() == [0.0, 0.5]


def bipartition_misses(scores, labels, t=0.5):
    """The number of labels on which ``evaluate``'s bipartition of a row of
    ``scores`` differs from the label indices ``labels``.  A second row,
    predicted exactly, keeps the ranking metrics defined."""
    m = len(scores)
    data = eval_fixture([labels, [0]], m)
    rows = [scores, [1.0] + [0.0] * (m - 1)]
    return evaluate(rows, data, t).hamming_loss * 2 * m


def rank_labels(scores):
    return tuple(rank_matrix(np.array([scores]))[0].tolist())


class TestBipartition:
    def test_all_ones_full_set(self):
        assert bipartition_misses([1.0, 1.0, 1.0], [0, 1, 2]) == 0

    def test_threshold_inclusive(self):
        assert bipartition_misses([0.5, 0.49], [0], t=0.5) == 0

    def test_mixed(self):
        assert bipartition_misses([0.7, 0.5, 0.2], [0, 1], t=0.5) == 0


class TestRankLabels:
    def test_strictly_decreasing(self):
        assert rank_labels([0.9, 0.5, 0.1]) == (1, 2, 3)

    def test_all_equal_index_order(self):
        assert rank_labels([0.4, 0.4, 0.4, 0.4]) == (1, 2, 3, 4)

    def test_tie_broken_by_index(self):
        assert rank_labels([0.2, 0.9, 0.9]) == (3, 1, 2)

    def test_is_permutation(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores = rng.random(6)
            ranks = rank_labels(scores)
            assert sorted(ranks) == [1, 2, 3, 4, 5, 6]
            for a in range(6):
                for b in range(6):
                    if scores[a] > scores[b]:
                        assert ranks[a] < ranks[b]


def lp_member(learner_name="nb"):
    return MemberSpec(transform="lp", learner=preset(learner_name))


class TestEnsembleFit:
    def test_single_member_full_sample_is_identity(self):
        d = random_dataset(6, n=25, n_labels=3, n_num=3, n_nom=0)
        spec = EnsembleSpec(
            members=(lp_member(),), sample_ratio=1.0,
            with_replacement=False, rule="mean", seed=3,
        )
        model = ensemble_fit(d, spec)
        solo = lp_fit(d, preset("nb"))
        probe = random_dataset(60, n=8, n_labels=3, n_num=3, n_nom=0).X
        assert np.abs(
            model.predict_scores_many(probe) - solo.predict_scores_many(probe)
        ).max() <= 1e-12

    def test_same_seed_reproduces(self):
        d = random_dataset(7, n=30, n_labels=3, n_num=2, n_nom=1)
        spec = default_ensemble_spec(seed=9, q=4, rule="mean")
        probe = random_dataset(70, n=6, n_labels=3, n_num=2, n_nom=1).X
        a = ensemble_fit(d, spec).predict_scores_many(probe)
        b = ensemble_fit(d, spec).predict_scores_many(probe)
        assert np.array_equal(a, b)

    def test_mean_rule_is_external_average_of_members(self):
        d = random_dataset(8, n=20, n_labels=3, n_num=3, n_nom=0)
        spec = EnsembleSpec(
            members=(lp_member("nb"), lp_member("knn"), lp_member("j48")),
            sample_ratio=0.8, rule="mean", seed=4,
        )
        model = ensemble_fit(d, spec)
        probe = random_dataset(80, n=7, n_labels=3, n_num=3, n_nom=0).X
        stacked = np.stack(
            [m.predict_scores_many(probe) for m in model.members]
        )
        assert np.abs(
            model.predict_scores_many(probe) - stacked.mean(axis=0)
        ).max() <= 1e-15

    @pytest.mark.parametrize("seed", [13, 14])
    def test_member_depends_only_on_seed_and_index(self, seed):
        d = random_dataset(9, n=30, n_labels=3, n_num=2, n_nom=1)
        probe = random_dataset(90, n=6, n_labels=3, n_num=2, n_nom=1).X
        small = ensemble_fit(d, default_ensemble_spec(q=3, seed=seed))
        large = ensemble_fit(d, default_ensemble_spec(q=5, seed=seed))
        for k, member in enumerate(small.members):
            assert np.array_equal(member.predict_scores_many(probe),
                                  large.members[k].predict_scores_many(probe))

    def test_with_replacement_subsamples(self):
        d = random_dataset(10, n=20, n_labels=2, n_num=2, n_nom=0)
        spec = EnsembleSpec(
            members=(lp_member(),) * 2, sample_ratio=1.0,
            with_replacement=True, rule="mean", seed=5,
        )
        model = ensemble_fit(d, spec)
        assert len(model.members) == 2

    def test_empty_subsample_rejected(self):
        d = random_dataset(11, n=3, n_labels=2, n_num=2, n_nom=0)
        spec = EnsembleSpec(
            members=(lp_member(),), sample_ratio=0.1, rule="mean", seed=1
        )
        with pytest.raises(ValueError, match="subsample"):
            ensemble_fit(d, spec)


class TestEnsembleSpecValidation:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=())

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=(lp_member(),), sample_ratio=0.0)
        with pytest.raises(ValueError):
            EnsembleSpec(members=(lp_member(),), sample_ratio=1.2)

    def test_weights_length(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=(lp_member(),), weights=(1.0, 2.0))

    def test_weighted_rule_needs_weights(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=(lp_member(),), rule="weighted_mean")

    def test_unweighted_rule_takes_no_weights(self):
        with pytest.raises(ValueError, match="rule 'mean' takes no weights"):
            EnsembleSpec(members=(lp_member(), lp_member()), rule="mean",
                         weights=(1.0, 3.0))

    @pytest.mark.parametrize("threshold", [7.5, -1.0, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            EnsembleSpec(members=(lp_member(),), threshold=threshold)

    def test_threshold_bounds_are_valid(self):
        for threshold in (0.0, 1.0):
            assert EnsembleSpec(members=(lp_member(),),
                                threshold=threshold).threshold == threshold

    def test_default_spec_cycles_presets(self):
        spec = default_ensemble_spec(q=10)
        kinds = [type(m.learner).__name__ for m in spec.members]
        assert kinds[0] == kinds[5]  # wraps after five presets
        assert len(set(kinds)) == 3  # knn, nb, and tree variants
        assert all(m.transform == "ps" for m in spec.members)
        assert all(m.prune == PruneSpec(2, 2) for m in spec.members)

    def test_homogeneous_mode(self):
        spec = default_ensemble_spec(q=4, learner="knn")
        assert all(isinstance(m.learner, KnnSpec) for m in spec.members)

    def test_member_transform_validation(self):
        with pytest.raises(ValueError):
            MemberSpec(transform="chains", learner=NaiveBayesSpec())


def arrays_outside_knn(obj):
    """Every numpy array reachable from ``obj`` through containers and the
    attributes of mullab objects, except through a kNN index or classifier,
    whose standardised rows and class vector prediction reads."""
    stack, seen = [obj], set()
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(
                o, (learners.KnnIndex, learners.KnnClassifier)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            yield o
        elif isinstance(o, dict):
            stack += o.values()
        elif isinstance(o, (list, tuple)):
            stack += o
        elif type(o).__module__.startswith("mullab."):
            stack += [getattr(o, name, None)
                      for name in getattr(type(o), "__slots__", ())]
            stack += getattr(o, "__dict__", {}).values()


def test_fitted_default_ensemble_keeps_no_training_rows():
    train = random_dataset(51, n=120, n_labels=4, n_num=5, n_nom=2,
                           missing_rate=0.1)
    spec = default_ensemble_spec(q=10, seed=7)
    model = ensemble_fit(train, spec)
    size = math.floor(spec.sample_ratio * len(train) + 0.5)
    for member in model.members:
        # a member's rows: its subsample, rewritten by pruned sets
        rows = {len(train), size,
                size - member.n_pruned + member.n_reintroduced}
        assert not rows & {7, 4}  # no row count equals d or the labels
        shapes = [a.shape for a in arrays_outside_knn(member)]
        assert shapes and not [s for s in shapes if rows & set(s)]
