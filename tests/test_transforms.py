import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mullab import learners
from mullab.core import Attribute, MLDataset, Schema
from mullab.learners import (PRESET_NAMES, KnnSpec, NaiveBayesSpec, TreeSpec,
                             preset)
from mullab.transforms import (
    TRANSFORM_NAMES,
    MemberSpec,
    PruneSpec,
    RakelModel,
    br_fit,
    fit_member,
    lp_fit,
    ps_fit,
    rakel_fit,
)

from oracles import naive_bayes_posterior_bf
from synth import bits, correlated_dataset, label_rows, random_dataset


def label_columns(train, labels):
    """``train`` with only the label columns ``labels``, in that order."""
    names = tuple(train.schema.label_names[j] for j in labels)
    return MLDataset(Schema(train.schema.attributes, names), train.X,
                     train.Y[:, list(labels)])


def only_member(model):
    """The one ``(labels, clf, classes)`` record of an LP or PS model."""
    [member] = model.members
    return member


def make_dataset(features, labelsets, m, nominal=None):
    d = len(features[0])
    attrs = tuple(
        Attribute(f"a{j}", nominal.get(j) if nominal else None) for j in range(d)
    )
    schema = Schema(attrs, tuple(f"L{j}" for j in range(m)))
    return MLDataset(schema, np.array(features, dtype=float),
                     label_rows(labelsets, m))


BR_FIXTURE = make_dataset(
    [(-2.0, 1.0), (-1.0, 2.0), (-1.5, 0.5), (2.0, -1.0), (1.0, -2.0), (1.5, 3.0)],
    [[0], [0], [0, 1], [1], [], [1]],
    2,
)


class TestBinaryRelevance:
    def test_single_label_equals_binary_classifier(self):
        d = make_dataset(
            [(0.0,), (1.0,), (2.0,), (3.0,)], [[0], [0], [], []], 1
        )
        model = br_fit(d, KnnSpec(k=2))
        clf = learners.fit(
            KnnSpec(k=2), d.X, [1, 1, 0, 0], d.schema.attributes
        )
        assert np.array_equal(model.predict_scores_many(d.X)[:, 0],
                              clf.predict_dist_many(d.X)[:, 1])

    def test_scores_match_hand_naive_bayes(self):
        model = br_fit(BR_FIXTURE, NaiveBayesSpec(variance_floor=1e-6))
        rows = BR_FIXTURE.X.tolist()
        for x, scores in zip(rows, model.predict_scores_many(BR_FIXTURE.X)):
            for j in range(2):
                y = BR_FIXTURE.Y[:, j].astype(int).tolist()
                expected = naive_bayes_posterior_bf(rows, y, x, 1e-6)
                assert scores[j] == pytest.approx(expected.get(1, 0.0), abs=1e-9)

    def test_label_independence_under_other_label_permutation(self):
        # flip label 1 everywhere; label 0 must be unaffected
        flipped = BR_FIXTURE.Y ^ [False, True]
        d2 = MLDataset(BR_FIXTURE.schema, BR_FIXTURE.X, flipped)
        a = br_fit(BR_FIXTURE, NaiveBayesSpec())
        b = br_fit(d2, NaiveBayesSpec())
        probe = np.array([(0.3, 0.4), (-1.0, 1.0)])
        assert np.array_equal(a.predict_scores_many(probe)[:, 0],
                              b.predict_scores_many(probe)[:, 0])

    def test_label_restricted_training_gives_same_scores(self):
        # dropping the other label's column entirely changes nothing
        only_label0 = MLDataset(
            Schema(BR_FIXTURE.schema.attributes, ("L0",)), BR_FIXTURE.X,
            BR_FIXTURE.Y[:, :1])
        full = br_fit(BR_FIXTURE, NaiveBayesSpec())
        restricted = br_fit(only_label0, NaiveBayesSpec())
        assert np.array_equal(full.predict_scores_many(BR_FIXTURE.X)[:, 0],
                              restricted.predict_scores_many(BR_FIXTURE.X)[:, 0])

    @pytest.mark.parametrize("learner", ["nb", "knn", "j48"])
    def test_is_rakel_over_the_singleton_subsets(self, learner):
        # label 1 is always present and label 2 never is
        d = random_dataset(8, n=40, n_labels=4, n_num=3, n_nom=1,
                           missing_rate=0.1)
        Y = d.Y.copy()
        Y[:, 1], Y[:, 2] = True, False
        train = MLDataset(d.schema, d.X, Y)
        probe = random_dataset(9, n=15, n_labels=4, n_num=3, n_nom=1,
                               missing_rate=0.2).X
        spec = learners.preset(learner)
        singletons = RakelModel(4, [
            ((j,), *only_member(lp_fit(label_columns(train, (j,)), spec))[1:])
            for j in range(4)])
        scores = br_fit(train, spec).predict_scores_many(probe)
        assert np.array_equal(scores, singletons.predict_scores_many(probe))
        # and each varying label scores its own binary classifier's
        # present-class probability, as a per-label BR fit would
        for j in (0, 3):
            clf = learners.fit(spec, train.X, Y[:, j], train.schema.attributes)
            assert np.array_equal(scores[:, j],
                                  clf.predict_dist_many(probe)[:, 1])
        assert (scores[:, 1] == 1.0).all() and (scores[:, 2] == 0.0).all()

    def test_zero_rows_raise_like_label_powerset(self):
        empty = MLDataset(BR_FIXTURE.schema, BR_FIXTURE.X[:0], BR_FIXTURE.Y[:0])
        with pytest.raises(ValueError) as lp_error:
            lp_fit(empty, NaiveBayesSpec())
        with pytest.raises(ValueError) as br_error:
            br_fit(empty, NaiveBayesSpec())
        assert str(br_error.value) == str(lp_error.value)

    def test_constant_label_yields_constant_score(self):
        d = make_dataset(
            [(0.0,), (1.0,)], [[0], [0]], 2
        )
        model = br_fit(d, KnnSpec(k=1))
        scores = model.predict_scores_many(np.array([(0.5,), (-3.0,)]))
        assert (scores[:, 0] == 1.0).all()  # always present
        assert (scores[:, 1] == 0.0).all()  # never present


LP_FIXTURE = make_dataset(
    [(-3.0, 0.0), (-2.5, 0.2), (0.0, 2.0), (0.3, 2.5), (3.0, -1.0), (2.5, -0.8)],
    [[0], [0], [0, 1], [0, 1], [2], [2]],
    3,
)


class TestLabelPowerset:
    def test_scores_are_summed_class_probabilities(self):
        spec = NaiveBayesSpec()
        model = lp_fit(LP_FIXTURE, spec)
        # rebuild the multiclass problem independently: classes sorted by
        # ascending labelset bit pattern
        distinct = sorted(set(bits(LP_FIXTURE.Y)))
        class_of = {code: c for c, code in enumerate(distinct)}
        y = [class_of[code] for code in bits(LP_FIXTURE.Y)]
        clf = learners.fit(spec, LP_FIXTURE.X, y,
                           LP_FIXTURE.schema.attributes)
        probe = np.array([(-2.0, 0.1), (0.1, 2.2), (2.0, -0.5)])
        for dist, scores in zip(clf.predict_dist_many(probe),
                                model.predict_scores_many(probe)):
            expected = [
                sum(p for code, p in zip(distinct, dist) if code >> j & 1)
                for j in range(3)
            ]
            assert scores == pytest.approx(expected, abs=1e-12)

    def test_distinct_singletons_reduce_to_multiclass(self):
        d = make_dataset(
            [(-1.0,), (-2.0,), (1.0,), (2.0,), (5.0,), (6.0,)],
            [[0], [0], [1], [1], [2], [2]],
            3,
        )
        model = lp_fit(d, KnnSpec(k=2))
        clf = learners.fit(KnnSpec(k=2), d.X, [0, 0, 1, 1, 2, 2],
                           d.schema.attributes)
        assert np.array_equal(model.predict_scores_many(d.X),
                              clf.predict_dist_many(d.X))

    def test_argmax_labelset_seen_in_training(self):
        for seed in range(4):
            d = random_dataset(seed, n=30, n_labels=4, n_num=2, n_nom=1)
            model = lp_fit(d, KnnSpec(k=3))
            training = set(bits(d.Y))
            probe = random_dataset(seed + 100, n=12, n_labels=4, n_num=2, n_nom=1)
            _, clf, classes = only_member(model)
            best = np.argmax(clf.predict_dist_many(probe.X), axis=1)
            assert set(bits(classes[best])) <= training

    def test_single_distinct_labelset(self):
        d = make_dataset([(0.0,), (1.0,)], [[0, 1], [0, 1]], 2)
        model = lp_fit(d, NaiveBayesSpec())
        assert model.predict_scores_many(np.array([(0.5,)])).tolist() == [[1.0, 1.0]]


class TestRakel:
    def test_m1_k_full_equals_lp(self):
        lp = lp_fit(LP_FIXTURE, NaiveBayesSpec())
        rk = rakel_fit(LP_FIXTURE, NaiveBayesSpec(), m=1, k=3, seed=42)
        probe = np.array([(-2.0, 0.1), (0.1, 2.2), (2.0, -0.5), (0.0, 0.0)])
        assert np.abs(rk.predict_scores_many(probe)
                      - lp.predict_scores_many(probe)).max() <= 1e-12

    def test_tree_members_share_one_sort_and_keep_none(self, monkeypatch):
        states, sorts = [], []
        build, sorted_rows = (learners.TrainingState.__init__,
                              learners.TrainingState.sorted_rows)

        def building(state, *args):
            build(state, *args)
            states.append(weakref.ref(state))

        def counting(state, rows):
            sorts.append(state is states[-1]())
            return sorted_rows(state, rows)

        monkeypatch.setattr(learners.TrainingState, "__init__", building)
        monkeypatch.setattr(learners.TrainingState, "sorted_rows", counting)
        spec = TreeSpec(criterion="info_gain", min_leaf=1)
        model = rakel_fit(LP_FIXTURE, spec, m=3, k=2, seed=5)
        # every member grew a tree from the order of one training state,
        # sorted once; the fitted model no longer holds it
        assert len(states) == 1 and sorts == [True] * 3
        assert len({id(clf._enc) for _, clf, _ in model.members}) == 1
        assert states[0]() is None
        probe = np.array([(-2.0, 0.1), (0.1, 2.2), (2.0, -0.5)])
        for pos, (labels, clf, classes) in enumerate(model.members):
            rows = LP_FIXTURE.Y[:, list(labels)].tolist()
            y = [classes.tolist().index(row) for row in rows]
            alone = learners.fit(spec, LP_FIXTURE.X, y)
            assert len(states) == pos + 2 and states[-1]() is None
            assert np.array_equal(clf.predict_dist_many(probe),
                                  alone.predict_dist_many(probe))

    def test_scores_are_mean_of_member_votes(self):
        model = rakel_fit(LP_FIXTURE, KnnSpec(k=2), m=3, k=2, seed=7)
        probe = np.array([(-2.0, 0.1), (0.1, 2.2)])
        sums = np.zeros((2, 3))
        cover = np.zeros(3)
        for labels, clf, classes in model.members:
            member_scores = clf.predict_dist_many(probe) @ classes
            for pos, j in enumerate(labels):
                sums[:, j] += member_scores[:, pos]
                cover[j] += 1
        expected = np.where(cover > 0, sums / np.maximum(cover, 1), 0.5)
        assert model.predict_scores_many(probe) == pytest.approx(expected)

    def test_uncovered_labels_score_half(self):
        def constant_member(value):
            # a one-label powerset member, as for a constant label, whose
            # one class is the labelset {label 0} (value 1.0) or the empty
            # one (value 0.0)
            clf = learners.fit(NaiveBayesSpec(), [(0.0, 0.0)], [0])
            return ((0,), clf, np.array([[bool(value)]]))

        model = RakelModel(3, [constant_member(1.0), constant_member(0.0)])
        scores = model.predict_scores_many([(0.0, 0.0), (1.0, 1.0)])
        assert (scores[:, 0] == 0.5).all()  # mean of 1.0 and 0.0
        assert (scores[:, 1:] == 0.5).all()  # neutral default
        assert model.uncovered == (1, 2)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            rakel_fit(LP_FIXTURE, KnnSpec(), m=2, k=4)
        with pytest.raises(ValueError):
            rakel_fit(LP_FIXTURE, KnnSpec(), m=2, k=0)

    def test_default_member_count(self):
        model = rakel_fit(LP_FIXTURE, KnnSpec(k=1), k=2, seed=1)
        assert len(model.members) == 2 * 3

    def test_subsets_distinct_until_exhausted(self):
        model = rakel_fit(LP_FIXTURE, KnnSpec(k=1), m=3, k=2, seed=3)
        subsets = [labels for labels, _, _ in model.members]
        assert len(set(subsets)) == 3  # C(3,2) = 3, all used before repeats

    def test_repeats_allowed_after_exhaustion(self):
        model = rakel_fit(LP_FIXTURE, KnnSpec(k=1), m=5, k=2, seed=3)
        subsets = [labels for labels, _, _ in model.members]
        assert len(subsets) == 5
        assert set(subsets[:3]) == {(0, 1), (0, 2), (1, 2)}
        assert len(set(subsets[3:])) == 2  # second round drawn distinct again

    def test_deterministic_for_seed(self):
        a = rakel_fit(LP_FIXTURE, KnnSpec(k=2), m=4, k=2, seed=5)
        b = rakel_fit(LP_FIXTURE, KnnSpec(k=2), m=4, k=2, seed=5)
        x = np.array([(0.2, 0.3)])
        assert a.predict_scores_many(x).tolist() == b.predict_scores_many(x).tolist()
        assert [s for s, _, _ in a.members] == [s for s, _, _ in b.members]


PS_FIXTURE = make_dataset(
    [(-2.0,), (-2.1,), (-1.9,), (2.0,), (2.1,), (1.9,), (0.0,)],
    [[0], [0], [0], [1], [1], [1], [0, 1]],
    2,
)


class TestPrunedSets:
    def test_p0_identical_to_lp(self):
        lp = lp_fit(PS_FIXTURE, NaiveBayesSpec())
        ps = ps_fit(PS_FIXTURE, NaiveBayesSpec(), PruneSpec(p=0, b=2))
        probe = np.array([(-2.0,), (0.05,), (1.8,)])
        assert np.abs(ps.predict_scores_many(probe)
                      - lp.predict_scores_many(probe)).max() <= 1e-12
        assert ps.n_pruned == 0 and ps.n_reintroduced == 0

    def test_rare_labelset_rewritten_into_frequent_subsets(self):
        ps = ps_fit(PS_FIXTURE, NaiveBayesSpec(), PruneSpec(p=2, b=2))
        assert ps.n_pruned == 1
        assert ps.n_reintroduced == 2
        # class universe is exactly {0} and {1}
        classes = only_member(ps)[2]
        assert classes.tolist() == [[True, False], [False, True]]

    def test_reintroduction_capped_by_b(self):
        ps = ps_fit(PS_FIXTURE, NaiveBayesSpec(), PruneSpec(p=2, b=1))
        assert ps.n_reintroduced == 1
        # largest-cardinality first, then ascending bits: {0} comes first
        classes = only_member(ps)[2]
        assert classes.tolist() == [[True, False], [False, True]]

    def test_over_aggressive_p_errors(self):
        with pytest.raises(ValueError, match="lower p"):
            ps_fit(PS_FIXTURE, NaiveBayesSpec(), PruneSpec(p=100, b=2))

    def test_argmax_stays_in_rewritten_universe(self):
        ps = ps_fit(PS_FIXTURE, KnnSpec(k=2), PruneSpec(p=2, b=2))
        _, clf, classes = only_member(ps)
        universe = set(bits(classes))
        assert universe == {1, 2}
        dist = clf.predict_dist_many(np.array([(-3.0,), (0.0,), (3.0,)]))
        best = classes[np.argmax(dist, axis=1)]
        assert set(bits(best)) <= universe

    def test_prune_spec_validation(self):
        with pytest.raises(ValueError):
            PruneSpec(p=-1)
        with pytest.raises(ValueError):
            PruneSpec(b=-1)


class TestWideLabelUniverse:
    """70 labels, more than an int64 bit pattern holds.  The six labels of
    a narrow dataset sit at columns ``WIDE`` of a wide one and every other
    column is empty; the map keeps bit order and cardinality, so both must
    train the same classes in the same order and score alike."""

    WIDE = [0, 1, 2, 64, 65, 69]

    def _narrow_and_wide(self):
        narrow, test = correlated_dataset(17, n_train=120, n_test=30,
                                          n_labels=6, n_features=5)
        Y = np.zeros((len(narrow), 70), dtype=bool)
        Y[:, self.WIDE] = narrow.Y
        schema = Schema(narrow.schema.attributes,
                        tuple(f"W{j}" for j in range(70)))
        return narrow, MLDataset(schema, narrow.X, Y), test

    @pytest.mark.parametrize("fit", [
        lambda d: lp_fit(d, NaiveBayesSpec()),
        lambda d: ps_fit(d, NaiveBayesSpec(), PruneSpec(p=2, b=2)),
    ], ids=["lp", "ps"])
    def test_matches_six_label_run(self, fit):
        narrow, wide, test = self._narrow_and_wide()
        a, b = fit(narrow), fit(wide)
        a_classes = only_member(a)[2]
        b_classes = only_member(b)[2]
        codes = bits(b_classes)
        assert codes == sorted(codes) and codes[-1] >= 1 << 64
        assert np.array_equal(b_classes[:, self.WIDE], a_classes)
        assert not np.delete(b_classes, self.WIDE, axis=1).any()
        sa, sb = a.predict_scores_many(test.X), b.predict_scores_many(test.X)
        assert np.array_equal(sb[:, self.WIDE], sa)
        assert not np.delete(sb, self.WIDE, axis=1).any()


@pytest.mark.parametrize("builder", [
    lambda d: br_fit(d, KnnSpec(k=3)),
    lambda d: lp_fit(d, NaiveBayesSpec()),
    lambda d: rakel_fit(d, KnnSpec(k=3), m=4, k=2, seed=2),
    lambda d: ps_fit(d, TreeSpec(min_leaf=1), PruneSpec(p=1, b=1)),
], ids=["br", "lp", "rakel", "ps"])
def test_scores_stay_in_unit_interval(builder):
    for seed in range(3):
        d = random_dataset(seed, n=30, n_labels=3, n_num=2, n_nom=1)
        model = builder(d)
        probe = random_dataset(seed + 40, n=10, n_labels=3, n_num=2, n_nom=1,
                               missing_rate=0.15)
        scores = model.predict_scores_many(probe.X)
        assert scores.shape == (10, 3)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()


class TestSharedKnnSearch:
    """Every transform fits its kNN classifiers on one shared index and runs
    one neighbour search per query matrix; the scores must not change."""

    TRAIN = random_dataset(31, n=80, n_labels=6, n_num=4, n_nom=2,
                           missing_rate=0.1)
    PROBE = random_dataset(32, n=25, n_labels=6, n_num=4, n_nom=2,
                           missing_rate=0.2)

    def test_fixture_labels_all_vary(self):
        y = self.TRAIN.Y
        assert (y.any(axis=0) & ~y.all(axis=0)).all()

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_br_scores_equal_each_label_classifier(self, distance):
        spec = KnnSpec(k=5, distance=distance)
        model = br_fit(self.TRAIN, spec)
        attrs = self.TRAIN.schema.attributes
        expected = np.empty((len(self.PROBE), 6))
        assert [subset for subset, _, _ in model.members] == [
            (j,) for j in range(6)]
        for j, (_, clf, _) in enumerate(model.members):
            own = clf.predict_dist_many(self.PROBE.X)
            # and the same classifier fitted alone, on its own index
            alone = learners.fit(spec, self.TRAIN.X, self.TRAIN.Y[:, j], attrs)
            assert np.array_equal(own, alone.predict_dist_many(self.PROBE.X))
            expected[:, j] = own[:, 1]
        assert np.array_equal(model.predict_scores_many(self.PROBE.X), expected)

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_rakel_scores_equal_each_member_classifier(self, distance):
        spec = KnnSpec(k=4, distance=distance)
        model = rakel_fit(self.TRAIN, spec, m=12, k=3, seed=5)
        sums = np.zeros((len(self.PROBE), 6))
        cover = np.zeros(6)
        for subset, clf, classes in model.members:
            own = clf.predict_dist_many(self.PROBE.X)
            _, alone, _ = only_member(
                lp_fit(label_columns(self.TRAIN, subset), spec))
            assert np.array_equal(own, alone.predict_dist_many(self.PROBE.X))
            sums[:, list(subset)] += own @ classes
            cover[list(subset)] += 1.0
        expected = np.full_like(sums, 0.5)
        expected[:, cover > 0] = sums[:, cover > 0] / cover[cover > 0]
        assert np.array_equal(model.predict_scores_many(self.PROBE.X), expected)

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("transform", ["lp", "ps"])
    def test_lp_and_ps_scores_equal_their_classifier(self, transform,
                                                     distance):
        spec = KnnSpec(k=4, distance=distance)
        if transform == "lp":
            model = lp_fit(self.TRAIN, spec)
        else:
            model = ps_fit(self.TRAIN, spec, PruneSpec(p=2, b=2))
            assert model.n_pruned > 0
        labels, clf, classes = only_member(model)
        assert labels == tuple(range(6))
        own = clf.predict_dist_many(self.PROBE.X)
        if transform == "lp":
            # the same classifier fitted alone on the labelset classes
            codes = bits(classes)
            y = [codes.index(code) for code in bits(self.TRAIN.Y)]
            alone = learners.fit(spec, self.TRAIN.X, y,
                                 self.TRAIN.schema.attributes)
            assert np.array_equal(own, alone.predict_dist_many(self.PROBE.X))
        assert np.array_equal(model.predict_scores_many(self.PROBE.X),
                              own @ classes)

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_one_encoder_one_index_one_search(self, distance, monkeypatch):
        counts = {"encoders": 0, "indexes": 0, "searches": 0}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(learners._Encoder, "__init__", counting(
            "encoders", learners._Encoder.__init__))
        monkeypatch.setattr(learners.KnnIndex, "__init__", counting(
            "indexes", learners.KnnIndex.__init__))
        monkeypatch.setattr(learners.KnnIndex, "neighbours", counting(
            "searches", learners.KnnIndex.neighbours))
        spec = KnnSpec(k=3, distance=distance)
        for fit_model, n_models in (
                (lambda: br_fit(self.TRAIN, spec), 6),
                (lambda: rakel_fit(self.TRAIN, spec, m=12, k=2, seed=1), 12),
                (lambda: lp_fit(self.TRAIN, spec), 1),
                (lambda: ps_fit(self.TRAIN, spec, PruneSpec(p=2, b=2)), 1)):
            counts.update(encoders=0, indexes=0, searches=0)
            model = fit_model()
            classifiers = [clf for _, clf, _ in model.members]
            assert len(classifiers) == n_models
            assert counts == {"encoders": 1, "indexes": 1, "searches": 0}
            model.predict_scores_many(self.PROBE.X)
            model.predict_scores_many(self.PROBE.X[:3])
            assert counts == {"encoders": 1, "indexes": 1, "searches": 2}

    def test_a_model_over_two_indexes_searches_each_once(self, monkeypatch):
        # labels 0-2 from a model fitted on every row, labels 3-5 from one
        # fitted on the first 50 rows with another k: two KnnIndexes
        first = br_fit(self.TRAIN, KnnSpec(k=3)).members[:3]
        second = br_fit(self.TRAIN.subset(range(50)), KnnSpec(k=5)).members[3:]
        members = first + second
        assert len({id(clf.index) for _, clf, _ in members}) == 2
        model = RakelModel(6, members)
        expected = np.column_stack([
            clf.predict_dist_many(self.PROBE.X) @ classes
            for _, clf, classes in members])
        searches = []
        neighbours = learners.KnnIndex.neighbours

        def counting(index, rows):
            searches.append(index)
            return neighbours(index, rows)

        monkeypatch.setattr(learners.KnnIndex, "neighbours", counting)
        for predict in (1, 2):
            assert np.array_equal(model.predict_scores_many(self.PROBE.X),
                                  expected)
            assert len(searches) == 2 * predict
            assert {id(index) for index in searches[-2:]} == {
                id(clf.index) for _, clf, _ in members}

    @pytest.mark.parametrize("fit_model", [
        lambda d: br_fit(d, KnnSpec(k=3)),
        lambda d: rakel_fit(d, KnnSpec(k=3), m=12, k=3, seed=2),
    ], ids=["br", "rakel"])
    def test_concurrent_predicts_match_serial(self, fit_model):
        # more threads than cores, each on its own query matrix, with a
        # short switch interval so that the threads interleave often
        model = fit_model(self.TRAIN)
        queries = [self.PROBE.X[i::4] for i in range(4)]
        serial = [model.predict_scores_many(q) for q in queries]
        barrier = threading.Barrier(len(queries), timeout=60)

        def run(q):
            barrier.wait()
            return [model.predict_scores_many(q) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(queries)) as pool:
                futures = [pool.submit(run, q) for q in queries]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for expected, got in zip(serial, results):
            assert all(np.array_equal(expected, g) for g in got)

    def test_shared_state_must_match_the_fit(self):
        attrs = self.TRAIN.schema.attributes
        shared = learners.TrainingState(KnnSpec(k=3), self.TRAIN.X, attrs)
        y = self.TRAIN.Y[:, 0]
        with pytest.raises(ValueError, match="prepared for another"):
            learners.fit(KnnSpec(k=4), self.TRAIN.X, y, attrs, shared)
        with pytest.raises(ValueError, match="prepared for another"):
            learners.fit(NaiveBayesSpec(), self.TRAIN.X, y, attrs, shared)
        with pytest.raises(ValueError, match="prepared for another"):
            learners.fit(KnnSpec(k=3), self.TRAIN.X[:10], y[:10], attrs, shared)


@pytest.mark.parametrize("learner", PRESET_NAMES)
@pytest.mark.parametrize("transform", TRANSFORM_NAMES)
def test_fitted_model_keeps_no_training_matrix(transform, learner):
    # no missing cell, so an encoded matrix could be the training X itself
    train = random_dataset(41, n=60, n_labels=4, n_num=4, n_nom=2)
    probe = random_dataset(42, n=9, n_labels=4, n_num=4, n_nom=2).X
    features = weakref.ref(train.X)
    model = fit_member(train, MemberSpec(transform, preset(learner)), seed=3)
    del train
    assert features() is None
    assert model.predict_scores_many(probe).shape == (9, 4)
