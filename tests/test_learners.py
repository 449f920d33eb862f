import dataclasses
import hashlib

import numpy as np
import pytest

from mullab.core import Attribute
from mullab.rng import Xoshiro256
from mullab.learners import (
    KnnSpec,
    NaiveBayesSpec,
    TreeSpec,
    fit,
    preset,
    PRESET_NAMES,
)

from oracles import best_split_bf, naive_bayes_posterior_bf
from synth import random_dataset

NUM2 = (Attribute("a"), Attribute("b"))


def assert_valid_dist(dist):
    assert dist.shape[0] >= 1
    assert (dist >= 0).all()
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


ALL_SPECS = [
    KnnSpec(k=3),
    NaiveBayesSpec(),
    TreeSpec(criterion="gain_ratio"),
    TreeSpec(criterion="info_gain", rep_pruning=True, seed=5),
    TreeSpec(criterion="info_gain", random_subset_size=1, seed=2),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(ALL_SPECS.index(s) if s in ALL_SPECS else ""))
def test_single_training_point_predicts_its_class(spec):
    clf = fit(spec, [(1.0, 2.0)], [0], NUM2)
    dist = clf.predict_dist((9.0, -3.0))
    assert dist.tolist() == [1.0]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_distributions_sum_to_one_on_random_data(spec):
    for seed in range(3):
        d = random_dataset(seed, n=25, n_labels=2, n_num=2, n_nom=1,
                           missing_rate=0.1)
        y = [ls.bits % 3 for ls in d.labelsets]
        if len(set(y)) < 3:
            continue
        clf = fit(spec, d.features, y, d.schema.attributes)
        probe = random_dataset(seed + 50, n=10, n_labels=2, n_num=2, n_nom=1,
                               missing_rate=0.2)
        for dist in clf.predict_dist_many(probe.features):
            assert_valid_dist(dist)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fit_is_deterministic(spec):
    d = random_dataset(11, n=30, n_labels=2, n_num=3, n_nom=0)
    y = [ls.bits % 2 for ls in d.labelsets]
    probe = random_dataset(12, n=8, n_labels=2, n_num=3, n_nom=0).features
    a = fit(spec, d.features, y, d.schema.attributes).predict_dist_many(probe)
    b = fit(spec, d.features, y, d.schema.attributes).predict_dist_many(probe)
    assert np.array_equal(a, b)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        fit(KnnSpec(), [(1.0, 2.0), (1.0,)], [0, 1])
    clf = fit(KnnSpec(k=1), [(1.0, 2.0), (3.0, 4.0)], [0, 1], NUM2)
    with pytest.raises(ValueError):
        clf.predict_dist((1.0,))


def test_empty_training_yields_degenerate_model():
    clf = fit(KnnSpec(), [], [])
    assert clf.n_classes == 0


class TestKnn:
    def test_identical_points_different_classes_split_evenly(self):
        pts = [(1.0, 1.0), (1.0, 1.0)]
        clf = fit(KnnSpec(k=2), pts, [0, 1], NUM2)
        assert clf.predict_dist((1.0, 1.0)).tolist() == [0.5, 0.5]

    def test_three_nearest_vote(self):
        # distances from query (0,0): hand-checked layout; after
        # standardization ordering is preserved because points are symmetric
        pts = [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.2), (5.0, 5.0), (-5.0, -5.0)]
        cls = [1, 1, 0, 0, 1]
        clf = fit(KnnSpec(k=3), pts, cls, NUM2)
        dist = clf.predict_dist((0.0, 0.0))
        assert dist.tolist() == pytest.approx([1 / 3, 2 / 3])

    def test_k_equals_n_returns_prior(self):
        d = random_dataset(3, n=20, n_labels=2, n_num=2, n_nom=1)
        y = [ls.bits % 2 for ls in d.labelsets]
        clf = fit(KnnSpec(k=20), d.features, y, d.schema.attributes)
        prior = [y.count(0) / 20, y.count(1) / 20]
        for dist in clf.predict_dist_many(d.features[:5]):
            assert dist.tolist() == pytest.approx(prior)

    def test_k_larger_than_n_capped(self):
        clf = fit(KnnSpec(k=50), [(0.0, 0.0), (1.0, 1.0)], [0, 1], NUM2)
        assert clf.predict_dist((0.0, 0.0)).tolist() == [0.5, 0.5]

    def test_tie_broken_by_lower_row_index(self):
        # two equidistant neighbours, k=1: the earlier row wins
        pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 3.0), (0.0, -3.0)]
        cls = [0, 1, 0, 1]
        clf = fit(KnnSpec(k=1), pts, cls, NUM2)
        assert clf.predict_dist((0.0, 0.0)).tolist() == [1.0, 0.0]

    def test_nominal_mismatch_distance(self):
        attrs = (Attribute("c", ("x", "y", "z")),)
        pts = [(0,), (1,), (2,)]
        clf = fit(KnnSpec(k=1), pts, [0, 1, 1], attrs)
        assert clf.predict_dist((0,)).tolist() == [1.0, 0.0]

    def test_manhattan_distance_supported(self):
        pts = [(0.0, 0.0), (10.0, 10.0)]
        clf = fit(KnnSpec(k=1, distance="manhattan"), pts, [0, 1], NUM2)
        assert clf.predict_dist((1.0, 1.0)).tolist() == [1.0, 0.0]

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            KnnSpec(k=0)
        with pytest.raises(ValueError):
            KnnSpec(distance="cosine")


class TestNaiveBayes:
    def test_mirrored_gaussians_give_even_posterior(self):
        pts = [(-2.0,), (-1.0,), (-3.0,), (2.0,), (1.0,), (3.0,)]
        cls = [0, 0, 0, 1, 1, 1]
        clf = fit(NaiveBayesSpec(), pts, cls, (Attribute("a"),))
        assert clf.predict_dist((0.0,)).tolist() == pytest.approx([0.5, 0.5])

    def test_matches_brute_force_posterior(self):
        rng = np.random.default_rng(8)
        pts = [tuple(float(v) for v in rng.normal(size=3)) for _ in range(30)]
        cls = [int(rng.integers(3)) for _ in range(30)]
        spec = NaiveBayesSpec(variance_floor=1e-6)
        attrs = tuple(Attribute(f"a{j}") for j in range(3))
        clf = fit(spec, pts, cls, attrs)
        for q in pts[:5]:
            expected = naive_bayes_posterior_bf(pts, cls, q, spec.variance_floor)
            got = clf.predict_dist(q)
            for c, p in expected.items():
                assert got[c] == pytest.approx(p, abs=1e-9)

    def test_variance_floor_prevents_degenerate_gaussian(self):
        pts = [(1.0,), (1.0,), (2.0,), (2.5,)]
        clf = fit(NaiveBayesSpec(variance_floor=1e-6), pts, [0, 0, 1, 1],
                  (Attribute("a"),))
        assert_valid_dist(clf.predict_dist((1.0,)))

    def test_nominal_laplace_smoothing(self):
        attrs = (Attribute("c", ("x", "y")),)
        pts = [(0,), (0,), (1,)]
        cls = [0, 0, 1]
        clf = fit(NaiveBayesSpec(), pts, cls, attrs)
        # class 1 never saw category x, Laplace keeps it positive
        dist = clf.predict_dist((0,))
        assert dist[1] > 0.0
        assert_valid_dist(dist)


class TestTree:
    def test_root_split_matches_exhaustive_search(self):
        rows = [
            (2.0, 7.0, 1.0),
            (3.0, 6.5, 0.0),
            (4.5, 1.0, 1.0),
            (5.0, 2.0, 0.0),
            (6.0, 8.0, 1.0),
            (7.5, 3.0, 1.0),
            (8.0, 4.0, 0.0),
            (9.0, 9.0, 0.0),
        ]
        cls = [0, 0, 0, 1, 0, 1, 1, 1]
        attrs = tuple(Attribute(f"a{j}") for j in range(3))
        for criterion in ("gain_ratio", "info_gain"):
            spec = TreeSpec(criterion=criterion, min_leaf=1)
            clf = fit(spec, rows, cls, attrs)
            expect_attr, expect_thr, _ = best_split_bf(rows, cls, criterion)
            root = clf.root.structure()
            assert root[0] == "num"
            assert root[1] == expect_attr
            assert root[2] == pytest.approx(expect_thr)

    def test_pure_training_data_yields_confident_leaf(self):
        pts = [(float(i), 0.0) for i in range(6)]
        clf = fit(TreeSpec(), pts, [0] * 6, NUM2)
        # single class: degenerate constant model
        assert clf.predict_dist((3.0, 0.0)).tolist() == [1.0]

    def test_two_class_pure_regions(self):
        pts = [(float(i), 1.0) for i in range(4)] + [(float(i) + 10, 1.0) for i in range(4)]
        cls = [0] * 4 + [1] * 4
        clf = fit(TreeSpec(min_leaf=1), pts, cls, NUM2)
        left = clf.predict_dist((0.0, 1.0))
        right = clf.predict_dist((13.0, 1.0))
        # Laplace smoothing keeps leaves shy of certainty
        assert left[0] == pytest.approx(5 / 6)
        assert right[1] == pytest.approx(5 / 6)

    def test_min_leaf_respected(self):
        pts = [(0.0,), (1.0,), (2.0,), (3.0,)]
        cls = [0, 0, 0, 1]
        clf = fit(TreeSpec(min_leaf=2, criterion="info_gain"), pts, cls,
                  (Attribute("a"),))
        # only split leaving >= 2 on each side is at 1.5, which is impure
        # on the right; any split at 2.5 would isolate a single row
        structure = clf.root.structure()
        if structure[0] == "num":
            assert structure[2] == pytest.approx(1.5)

    def test_max_depth_zero_is_a_stump(self):
        pts = [(0.0,), (1.0,), (2.0,), (3.0,)]
        clf = fit(TreeSpec(max_depth=0, min_leaf=1), pts, [0, 0, 1, 1],
                  (Attribute("a"),))
        assert clf.root.structure()[0] == "leaf"

    def test_nominal_multiway_split(self):
        attrs = (Attribute("c", ("x", "y", "z")),)
        pts = [(0,), (0,), (1,), (1,), (2,), (2,)]
        cls = [0, 0, 1, 1, 0, 1]
        clf = fit(TreeSpec(min_leaf=1, criterion="info_gain"), pts, cls, attrs)
        root = clf.root.structure()
        assert root[0] == "nom"
        assert clf.predict_dist((0,))[0] > 0.5
        assert clf.predict_dist((1,))[1] > 0.5

    def test_full_random_subset_equals_plain_tree(self):
        d = random_dataset(21, n=40, n_labels=2, n_num=4, n_nom=1)
        y = [ls.bits % 2 for ls in d.labelsets]
        plain = fit(TreeSpec(criterion="info_gain"), d.features, y,
                    d.schema.attributes)
        randomized = fit(
            TreeSpec(criterion="info_gain", random_subset_size=5, seed=123),
            d.features, y, d.schema.attributes,
        )
        assert plain.root.structure() == randomized.root.structure()

    # SHA-256 of repr(root.structure()) for LP-style data with 31 of 32
    # classes, nominal columns and tied numeric values.  The thresholds and
    # class counts in a structure depend on every entropy sum, so regrouping
    # the float sums over the class axis (dropping absent classes, summing
    # in another order) changes some of these digests.  A change that alters
    # splits on purpose records new digests and says so.
    PINNED_STRUCTURES = {
        ("j48", 1): "21e5c979bc87f8284d30b817845bd2554aad5256dff4199cee192022af0be5d5",
        ("j48", 2): "21056a4cf4c44df8bbc4c489089a8e795e2da0f35aeb51c77aa90ac401f70c6e",
        ("reptree", 1): "da0acceafb493efd8ba6feac7d1db42e5c8e4e68103fe27d179171dbd92740a2",
        ("reptree", 2): "df83a8da16f079cd5ea001eb1248f1bc1bd1a451e05a29ad2e4420d99bca3d6e",
        ("random-t", 1): "b5b900a62beb7ad299a357f5e6d85761442a1f6c416a8fd4395e12bf488eaa9e",
        ("random-t", 2): "0e275ad2c37e769a1ce1abe5dae3aec3be6e724f7dfdeb8964ddaf82f0e84995",
    }

    @staticmethod
    def _lp_tree_data(seed=2024, n=200):
        rng = Xoshiro256(seed)
        attrs = (Attribute("u0"), Attribute("u1"), Attribute("g0"),
                 Attribute("g1"), Attribute("c0", ("a", "b", "c")),
                 Attribute("c1", ("w", "x", "y", "z")))
        rows, classes = [], []
        for _ in range(n):
            u0, u1 = rng.uniform(), rng.uniform()
            g0, g1 = rng.below(7) / 2.0, rng.below(5) / 4.0  # coarse: ties
            c0, c1 = rng.below(3), rng.below(4)
            labels = (u0 + g1 > 0.9, g0 > 1.2, c0 == 1 or u1 > 0.7, c1 >= 2,
                      u1 + g0 / 3 > 1.0)
            # each label flips with probability 1/6, so the trees grow deep
            classes.append(sum((bool(v) ^ (rng.below(6) == 0)) << j
                               for j, v in enumerate(labels)))
            rows.append((u0, u1, g0, g1, c0, c1))
        return rows, classes, attrs

    @pytest.mark.parametrize("name,min_leaf", sorted(PINNED_STRUCTURES))
    def test_whole_tree_structure_is_pinned(self, name, min_leaf):
        rows, classes, attrs = self._lp_tree_data()
        assert len(set(classes)) >= 8
        seed = {"j48": 0, "reptree": 3, "random-t": 11}[name]
        spec = dataclasses.replace(preset(name), min_leaf=min_leaf, seed=seed)
        clf = fit(spec, rows, classes, attrs)
        digest = hashlib.sha256(repr(clf.root.structure()).encode()).hexdigest()
        assert digest == self.PINNED_STRUCTURES[(name, min_leaf)]

    def test_reduced_error_pruning_never_hurts_prune_fold(self):
        # the defining property, on 50 seeded noisy fixtures
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 120))
            d = int(rng.integers(2, 5))
            pts = [tuple(float(v) for v in rng.normal(size=d)) for _ in range(n)]
            signal = [int(p[0] > 0) for p in pts]
            cls = [
                s if rng.random() > 0.25 else int(rng.integers(2))
                for s in signal
            ]
            if len(set(cls)) < 2:
                continue
            attrs = tuple(Attribute(f"a{j}") for j in range(d))
            clf = fit(
                TreeSpec(criterion="info_gain", rep_pruning=True, min_leaf=1,
                         seed=seed),
                pts, cls, attrs,
            )
            assert clf.prune_error_before is not None
            assert clf.prune_error_after <= clf.prune_error_before

    def test_pruning_skipped_for_tiny_data(self):
        clf = fit(TreeSpec(rep_pruning=True), [(0.0,), (1.0,)], [0, 1],
                  (Attribute("a"),))
        assert clf.prune_error_before is None

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            TreeSpec(criterion="gini")
        with pytest.raises(ValueError):
            TreeSpec(min_leaf=0)
        with pytest.raises(ValueError):
            TreeSpec(random_subset_size="log")


class TestMissingValues:
    def test_numeric_missing_imputed_with_training_mean(self):
        pts = [(0.0,), (4.0,), (None,)]
        cls = [0, 1, 0]
        clf = fit(KnnSpec(k=1), pts, cls, (Attribute("a"),))
        # missing imputed to mean(0, 4) = 2; query at 1.9 is nearest to it
        assert clf.predict_dist((1.9,)).tolist() == [1.0, 0.0]

    def test_nominal_missing_is_its_own_category(self):
        attrs = (Attribute("c", ("x", "y")),)
        pts = [(None,), (None,), (0,), (1,)]
        cls = [0, 0, 1, 1]
        clf = fit(KnnSpec(k=1), pts, cls, attrs)
        assert clf.predict_dist((None,)).tolist() == [1.0, 0.0]


class TestPresets:
    def test_all_presets_exist(self):
        for name in PRESET_NAMES:
            assert preset(name) is not None

    def test_aliases(self):
        assert preset("K-NN") == preset("knn")
        assert preset("Naive_Bayes") == preset("nb")
        assert preset("RANDOM-T") == preset("random-t")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("svm")

    def test_preset_shapes(self):
        assert preset("knn") == KnnSpec(k=5)
        assert preset("nb") == NaiveBayesSpec(variance_floor=1e-6)
        j48 = preset("j48")
        assert j48.criterion == "gain_ratio" and not j48.rep_pruning
        rep = preset("reptree")
        assert rep.criterion == "info_gain" and rep.rep_pruning
        rnd = preset("random-t")
        assert rnd.random_subset_size == "sqrt"
