import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mullab import learners
from mullab.core import Attribute
from mullab.rng import Xoshiro256, derive_seed
from mullab.learners import (
    KnnSpec,
    NaiveBayesSpec,
    TreeSpec,
    fit,
    preset,
    PRESET_NAMES,
)

from oracles import (best_split_bf, best_split_c45_bf, entropy_log2,
                     knn_counts_bf, knn_distances_bf, naive_bayes_numeric_dist_bf,
                     naive_bayes_posterior_bf, numeric_cut_bf, tree_predict_bf)
from synth import bits, random_dataset

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
    TreeSpec(criterion="c45"),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(ALL_SPECS.index(s) if s in ALL_SPECS else ""))
def test_single_training_point_predicts_its_class(spec):
    clf = fit(spec, [(1.0, 2.0)], [0], NUM2)
    dist = clf.predict_dist_many([(9.0, -3.0)])[0]
    assert dist.tolist() == [1.0]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_distributions_sum_to_one_on_random_data(spec):
    for seed in range(3):
        d = random_dataset(seed, n=25, n_labels=2, n_num=2, n_nom=1,
                           missing_rate=0.1)
        y = [b % 3 for b in bits(d.Y)]
        if len(set(y)) < 3:
            continue
        clf = fit(spec, d.X, y, d.schema.attributes)
        probe = random_dataset(seed + 50, n=10, n_labels=2, n_num=2, n_nom=1,
                               missing_rate=0.2)
        for dist in clf.predict_dist_many(probe.X):
            assert_valid_dist(dist)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fit_is_deterministic(spec):
    d = random_dataset(11, n=30, n_labels=2, n_num=3, n_nom=0)
    y = [b % 2 for b in bits(d.Y)]
    probe = random_dataset(12, n=8, n_labels=2, n_num=3, n_nom=0).X
    a = fit(spec, d.X, y, d.schema.attributes).predict_dist_many(probe)
    b = fit(spec, d.X, y, d.schema.attributes).predict_dist_many(probe)
    assert np.array_equal(a, b)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        fit(KnnSpec(), [(1.0, 2.0), (1.0,)], [0, 1])
    clf = fit(KnnSpec(k=1), [(1.0, 2.0), (3.0, 4.0)], [0, 1], NUM2)
    with pytest.raises(ValueError):
        clf.predict_dist_many([(1.0,)])


def test_empty_training_yields_degenerate_model():
    with pytest.raises(ValueError, match="zero training rows"):
        fit(KnnSpec(), [], [])


@pytest.mark.parametrize("spec", [preset(name) for name in PRESET_NAMES]
                         + [TreeSpec(criterion="gain_ratio")])
def test_zero_column_matrix_fits_and_predicts(spec):
    clf = fit(spec, np.empty((6, 0)), [0, 1, 0, 1, 0, 1])
    for n in (2, 0):
        dist = clf.predict_dist_many(np.empty((n, 0)))
        assert dist.shape == (n, 2)
        assert np.allclose(dist.sum(axis=1), 1.0)
    assert clf.predict_dist_many([(), ()]).shape == (2, 2)
    assert clf.predict_dist_many([]).shape == (0, 2)
    with pytest.raises(ValueError, match="arity 1 does not match"):
        clf.predict_dist_many([(1.0,)])


class TestKnn:
    def test_identical_points_different_classes_split_evenly(self):
        pts = [(1.0, 1.0), (1.0, 1.0)]
        clf = fit(KnnSpec(k=2), pts, [0, 1], NUM2)
        assert clf.predict_dist_many([(1.0, 1.0)]).tolist() == [[0.5, 0.5]]

    def test_three_nearest_vote(self):
        # distances from query (0,0): hand-checked layout; after
        # standardization ordering is preserved because points are symmetric
        pts = [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.2), (5.0, 5.0), (-5.0, -5.0)]
        cls = [1, 1, 0, 0, 1]
        clf = fit(KnnSpec(k=3), pts, cls, NUM2)
        dist = clf.predict_dist_many([(0.0, 0.0)])[0]
        assert dist.tolist() == pytest.approx([1 / 3, 2 / 3])

    def test_k_equals_n_returns_prior(self):
        d = random_dataset(3, n=20, n_labels=2, n_num=2, n_nom=1)
        y = [b % 2 for b in bits(d.Y)]
        clf = fit(KnnSpec(k=20), d.X, y, d.schema.attributes)
        prior = [y.count(0) / 20, y.count(1) / 20]
        for dist in clf.predict_dist_many(d.X[:5]):
            assert dist.tolist() == pytest.approx(prior)

    def test_k_larger_than_n_capped(self):
        clf = fit(KnnSpec(k=50), [(0.0, 0.0), (1.0, 1.0)], [0, 1], NUM2)
        assert clf.predict_dist_many([(0.0, 0.0)]).tolist() == [[0.5, 0.5]]

    def test_tie_broken_by_lower_row_index(self):
        # two equidistant neighbours, k=1: the earlier row wins
        pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 3.0), (0.0, -3.0)]
        cls = [0, 1, 0, 1]
        clf = fit(KnnSpec(k=1), pts, cls, NUM2)
        assert clf.predict_dist_many([(0.0, 0.0)]).tolist() == [[1.0, 0.0]]

    def test_nominal_mismatch_distance(self):
        attrs = (Attribute("c", ("x", "y", "z")),)
        pts = [(0,), (1,), (2,)]
        clf = fit(KnnSpec(k=1), pts, [0, 1, 1], attrs)
        assert clf.predict_dist_many([(0,)]).tolist() == [[1.0, 0.0]]

    def test_manhattan_distance_supported(self):
        pts = [(0.0, 0.0), (10.0, 10.0)]
        clf = fit(KnnSpec(k=1, distance="manhattan"), pts, [0, 1], NUM2)
        assert clf.predict_dist_many([(1.0, 1.0)]).tolist() == [[1.0, 0.0]]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_votes_match_stable_sort_on_tied_grid(self, data):
        # integer grid points in few dimensions: distance ties everywhere,
        # including at the k-th neighbour
        d = data.draw(st.integers(1, 2))
        coord = st.integers(-1, 1).map(float)
        pts = data.draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=14))
        cls = data.draw(st.lists(st.integers(0, 2), min_size=len(pts),
                                 max_size=len(pts)))
        assume(max(cls) >= 1)
        queries = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                                     max_size=6))
        k = data.draw(st.integers(1, len(pts)))
        distance = data.draw(st.sampled_from(["euclidean", "manhattan"]))
        attrs = tuple(Attribute(f"a{j}") for j in range(d))
        clf = fit(KnnSpec(k=k, distance=distance), pts, cls, attrs)
        index = clf.index
        dist = index._distances(index.enc.transform(queries))
        expected = knn_counts_bf(dist.tolist(), cls, k, max(cls) + 1)
        assert clf.predict_dist_many(queries).tolist() == expected
        stable = np.argsort(dist, axis=1, kind="stable")[:, :k]
        assert (index.neighbours(queries) == np.sort(stable, axis=1)).all()

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("block_elems", [1, 4 * 30, 1 << 40])
    def test_blocked_search_is_bit_identical(self, block_elems, distance,
                                             monkeypatch):
        # integer grid points plus a nominal column: distance ties
        # everywhere.  Blocks of 1 row, of 4 rows (13 queries, so the last
        # block is short) and of all rows give the bits of one block.
        attrs = NUM2 + (Attribute("c", ("x", "y", "z")),)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            grid = [np.column_stack([rng.integers(-1, 2, (n, 2)),
                                     rng.integers(0, 3, n)]).astype(float)
                    for n in (30, 13)]
            train, queries = grid
            y = rng.integers(0, 3, 30)
            for k in (1, 4, 30):
                clf = fit(KnnSpec(k=k, distance=distance), train, y, attrs)
                index = clf.index
                q = index.enc.transform(queries)
                monkeypatch.setattr(learners, "_KNN_BLOCK_ELEMS", 1 << 40)
                dist = index._distances(q)
                near = index.neighbours(queries)
                monkeypatch.setattr(learners, "_KNN_BLOCK_ELEMS", block_elems)
                assert index._distances(q).tobytes() == dist.tobytes()
                assert np.array_equal(index.neighbours(queries), near)
                votes = clf.predict_dist_many(queries)
                assert votes.tolist() == knn_counts_bf(dist.tolist(), y.tolist(),
                                                       k, 3)
                stable = np.argsort(dist, axis=1, kind="stable")[:, :k]
                assert (near == np.sort(stable, axis=1)).all()

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("block_elems", [1, 7 * 40, 1 << 16])
    def test_distances_match_whole_matrix_expressions(self, block_elems,
                                                      distance, monkeypatch):
        # standardised real values round, so an operation done in another
        # order or on another block shape would show in the bits
        monkeypatch.setattr(learners, "_KNN_BLOCK_ELEMS", block_elems)
        d = random_dataset(6, n=40, n_labels=1, n_num=5, n_nom=2,
                           missing_rate=0.1)
        probe = random_dataset(7, n=23, n_labels=1, n_num=5, n_nom=2,
                               missing_rate=0.1)
        index = learners.TrainingState(KnnSpec(distance=distance), d.X,
                                       d.schema.attributes).index
        q = index.enc.transform(probe.X)
        num, nom = index._num_cols, index._nom_cols
        expected = knn_distances_bf((q[:, num] - index._mu) / index._sd,
                                    index._xn, q[:, nom], index._xc, distance)
        assert index._distances(q).tobytes() == expected.tobytes()

    def test_search_peak_memory_is_one_distance_matrix(self):
        # 900 x 1500: the distance matrix is 10.8 MB; the row blocks add
        # at most _KNN_BLOCK_ELEMS elements to it, not whole matrices
        rng = np.random.default_rng(4)
        index = learners.TrainingState(KnnSpec(k=5),
                                       rng.normal(size=(1500, 20))).index
        queries = rng.normal(size=(900, 20))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index.neighbours(queries)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 900 * 1500 * 8

    def test_overflowing_column_scale_is_refused(self):
        # the column's standard deviation overflows to inf, which would
        # zero the column and make every query predict the prior
        X = [[0.0], [1e200], [1.0], [2.0], [3.0], [1e200]]
        with pytest.raises(ValueError, match="knn column means or scales "
                           "are not finite.*rescale the features$"):
            fit(KnnSpec(k=3), X, [0, 1, 0, 1, 0, 0])
        with pytest.raises(ValueError, match="rescale the features$"):
            fit(KnnSpec(k=3), [[0.0], [1e308], [1e308]], [0, 1, 0])

    def test_overflowing_query_distances_are_refused(self):
        clf = fit(KnnSpec(k=2), [[0.0], [1.0], [2.0]], [0, 1, 0])
        assert clf.predict_dist_many([[1e100]]).tolist() == [[0.5, 0.5]]
        with pytest.raises(ValueError, match="knn distances are not finite"):
            clf.predict_dist_many([[1e200]])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            KnnSpec(k=0)
        with pytest.raises(ValueError):
            KnnSpec(distance="cosine")


class TestNaiveBayes:
    @pytest.mark.parametrize("block_elems", [1, 3 * 8 * 4, 1 << 18])
    def test_blocked_predict_is_bit_identical(self, block_elems, monkeypatch):
        # 8 classes x 4 numeric attributes: blocks of 1 row, of 3 rows (the
        # last one short) and of all 40 rows give the bits of one block
        d = random_dataset(12, n=60, n_labels=3, n_num=4, n_nom=1,
                           missing_rate=0.1)
        probe = random_dataset(13, n=40, n_labels=3, n_num=4, n_nom=1,
                               missing_rate=0.1)
        y = bits(d.Y)
        clf = fit(NaiveBayesSpec(), d.X, y, d.schema.attributes)
        assert clf.n_classes == 8
        monkeypatch.setattr(learners, "_NB_BLOCK_ELEMS", 1 << 40)
        whole = clf.predict_dist_many(probe.X)
        monkeypatch.setattr(learners, "_NB_BLOCK_ELEMS", block_elems)
        assert np.array_equal(clf.predict_dist_many(probe.X), whole)

    @pytest.mark.parametrize("block_elems", [1, 5 * 32 * 4, 1 << 18])
    def test_in_place_kernel_matches_one_expression(self, block_elems,
                                                    monkeypatch):
        # many classes, as under label powerset: up to 32 classes x 4
        # numeric attributes, in blocks of 1 row, of 5 rows (the last one
        # short) and of all 43 rows
        d = random_dataset(21, n=300, n_labels=5, n_num=4, n_nom=0,
                           missing_rate=0.1)
        probe = random_dataset(22, n=43, n_labels=5, n_num=4, n_nom=0,
                               missing_rate=0.1)
        clf = fit(NaiveBayesSpec(), d.X, bits(d.Y), d.schema.attributes)
        assert clf.n_classes == 32
        monkeypatch.setattr(learners, "_NB_BLOCK_ELEMS", block_elems)
        expected = naive_bayes_numeric_dist_bf(
            clf._enc.transform(probe.X), clf._log_prior, clf._mean, clf._var)
        assert clf.predict_dist_many(probe.X).tobytes() == expected.tobytes()

    def test_mirrored_gaussians_give_even_posterior(self):
        pts = [(-2.0,), (-1.0,), (-3.0,), (2.0,), (1.0,), (3.0,)]
        cls = [0, 0, 0, 1, 1, 1]
        clf = fit(NaiveBayesSpec(), pts, cls, (Attribute("a"),))
        assert clf.predict_dist_many([(0.0,)])[0].tolist() == pytest.approx([0.5, 0.5])

    def test_matches_brute_force_posterior(self):
        rng = np.random.default_rng(8)
        pts = [tuple(float(v) for v in rng.normal(size=3)) for _ in range(30)]
        cls = [int(rng.integers(3)) for _ in range(30)]
        spec = NaiveBayesSpec(variance_floor=1e-6)
        attrs = tuple(Attribute(f"a{j}") for j in range(3))
        clf = fit(spec, pts, cls, attrs)
        for q, got in zip(pts[:5], clf.predict_dist_many(pts[:5])):
            expected = naive_bayes_posterior_bf(pts, cls, q, spec.variance_floor)
            for c, p in expected.items():
                assert got[c] == pytest.approx(p, abs=1e-9)

    def test_variance_floor_prevents_degenerate_gaussian(self):
        pts = [(1.0,), (1.0,), (2.0,), (2.5,)]
        clf = fit(NaiveBayesSpec(variance_floor=1e-6), pts, [0, 0, 1, 1],
                  (Attribute("a"),))
        assert_valid_dist(clf.predict_dist_many([(1.0,)])[0])

    def test_overflowing_variance_is_refused(self):
        X = np.column_stack([np.arange(40) % 5 + 0.5,
                             np.where(np.arange(40) % 7 == 0, 1e200,
                                      np.arange(40) / 10)])
        with pytest.raises(ValueError, match="naive Bayes means or variances "
                           "are not finite.*rescale the features$"):
            fit(NaiveBayesSpec(), X, np.arange(40) % 2)

    def test_overflowing_query_posterior_is_refused(self):
        clf = fit(NaiveBayesSpec(), [(0.0,), (1.0,), (2.0,), (3.0,)],
                  [0, 0, 1, 1])
        assert_valid_dist(clf.predict_dist_many([(1e100,)])[0])
        with pytest.raises(ValueError, match="naive Bayes log-posteriors are "
                           "not finite.*rescale the features$"):
            clf.predict_dist_many([(1.0,), (1e200,)])

    def test_nominal_laplace_smoothing(self):
        attrs = (Attribute("c", ("x", "y")),)
        pts = [(0,), (0,), (1,)]
        cls = [0, 0, 1]
        clf = fit(NaiveBayesSpec(), pts, cls, attrs)
        # class 1 never saw category x, Laplace keeps it positive
        dist = clf.predict_dist_many([(0,)])[0]
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

    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_c45_root_split_matches_oracle(self, min_leaf):
        # coarse columns g and h tie, c is nominal; c is the root of some
        attrs = (Attribute("u"), Attribute("g"), Attribute("c", ("x", "y", "z")),
                 Attribute("h"))
        nominal_roots = 0
        for seed in range(30):
            rng = Xoshiro256(seed)
            rows, cls = [], []
            for _ in range(24):
                u, g, c, h = rng.uniform(), rng.below(4) / 2, rng.below(3), rng.below(6)
                rows.append((u, g, c, float(h)))
                label = int(u + g / 2 > 0.9) + int(c == 1 and rng.below(2) == 0)
                cls.append(label if rng.below(5) else rng.below(3))
            clf = fit(TreeSpec(criterion="c45", min_leaf=min_leaf), rows, cls, attrs)
            root = clf.root.structure()
            expect = best_split_c45_bf(rows, cls, min_leaf, nominal={2})
            if expect is None:
                assert root[0] == "leaf"
                continue
            assert root[1] == expect[0]
            if expect[1] is None:
                assert root[0] == "nom"
                nominal_roots += 1
            else:
                assert root[0] == "num" and root[2] == pytest.approx(expect[1])
        assert nominal_roots > 0

    def test_c45_does_not_peel_min_leaf_rows(self):
        rows = [(float(i),) for i in range(10)]
        cls = [0, 0, 0, 0, 1, 1, 0, 0, 1, 1]
        attrs = (Attribute("a"),)
        # plain gain ratio cuts the last min_leaf rows off; c45 takes the
        # balanced cut with the higher gain
        plain = fit(TreeSpec(criterion="gain_ratio", min_leaf=2), rows, cls, attrs)
        assert plain.root.structure()[2] == best_split_bf(rows, cls, "gain_ratio", 2)[1] == 7.5
        c45 = fit(TreeSpec(criterion="c45", min_leaf=2), rows, cls, attrs)
        assert c45.root.structure()[2] == best_split_c45_bf(rows, cls, 2)[1] == 3.5

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 700) | st.just(0), min_size=1, max_size=8))
    def test_count_table_entropy_matches_log2_formula(self, counts):
        total = sum(counts)
        assume(total > 0)
        k = np.array(counts)
        xlx = learners._xlx(total)
        # t * H from the table; t * H reaches 1e4, where one ulp is 2e-12,
        # so the comparison is of the entropies themselves
        table_h = (xlx[total] - xlx[k].sum()) / total
        assert abs(table_h - entropy_log2(k)) <= 1e-12

    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.parametrize("criterion", ["info_gain", "gain_ratio", "c45"])
    def test_numeric_cut_scores_match_log2_formula(self, criterion, min_leaf):
        # random nodes (row subsets) over coarse columns, where values
        # repeat and cuts tie, and a fine one
        rng = np.random.default_rng(7)
        n = 150
        X = np.column_stack([rng.integers(0, 6, n) / 2, rng.random(n),
                             rng.integers(0, 20, n) / 4.0,
                             rng.integers(0, 3, n).astype(float)])
        y = rng.integers(0, 5, n)
        state = learners.TrainingState(
            TreeSpec(criterion=criterion, min_leaf=min_leaf), X)
        grower = learners._TreeGrower(state, y, int(y.max()) + 1)
        attrs = np.arange(X.shape[1])
        for _ in range(25):
            idx = np.sort(rng.choice(n, int(rng.integers(2 * min_leaf, n + 1)),
                                     replace=False))
            parent_h = float(entropy_log2(np.bincount(y[idx])))
            gain, ratio, threshold = grower._eval_numeric_all(
                attrs, state.sorted_rows(idx), np.bincount(y[idx]), parent_h)
            for a in attrs:
                g, r, t = numeric_cut_bf(X[idx, a].tolist(), y[idx].tolist(),
                                         criterion, min_leaf)
                assert abs(gain[a] - g) <= 1e-12
                assert abs(ratio[a] - r) <= 1e-12
                if g > 0:
                    assert threshold[a] == t

    @staticmethod
    def _log2_gain(classes, i):
        """Gain of sending the first ``i`` of ``classes`` left, by the
        direct log2 formula."""
        y, n = np.array(classes), len(classes)
        left, right = (np.bincount(part, minlength=3) for part in (y[:i], y[i:]))
        return entropy_log2(np.bincount(y, minlength=3)) - (
            i * entropy_log2(left) + (n - i) * entropy_log2(right)) / n

    def test_cuts_tied_in_exact_arithmetic_take_the_lowest_threshold(self):
        # cut 3 leaves class counts (2, 0, 1) | (3, 6, 5) and cut 14 leaves
        # (3, 5, 6) | (2, 1, 0): the same counts mirrored, so the same gain,
        # but floats round cut 14 higher, with the direct formula as with
        # the count table
        classes = [2, 0, 0, 1, 2, 1, 2, 1, 1, 0, 1, 2, 2, 2, 0, 1, 0]
        gains = [self._log2_gain(classes, i) for i in range(1, 17)]
        assert gains[13] > gains[2] == max(gains[:13])
        clf = fit(TreeSpec(criterion="info_gain", min_leaf=1, max_depth=1),
                  [(float(v),) for v in range(17)], classes, (Attribute("a"),))
        assert clf.root.structure()[:3] == ("num", 0, 2.5)

    def test_attributes_tied_in_exact_arithmetic_take_the_earliest(self):
        # sorted by b, the rows' classes are those sorted by a relabelled
        # 0 -> 2 -> 1 -> 0, so each cut of b gains as much as the same cut
        # of a, but floats round b's best cut higher, with the direct
        # formula as with the count table
        classes = [2, 0, 1, 0, 2, 2, 1, 2, 1, 2, 1, 0, 1, 1, 0, 2, 0, 0]
        relabel = {0: 2, 1: 0, 2: 1}
        rows_of = {c: [k for k, y in enumerate(classes) if y == c]
                   for c in range(3)}
        b = [0.0] * len(classes)
        for pos, y in enumerate(classes):
            b[rows_of[relabel[y]].pop(0)] = float(pos)
        by_b = [classes[k] for k in np.argsort(b)]
        assert by_b == [relabel[y] for y in classes]
        best_a = max(self._log2_gain(classes, i) for i in range(1, 18))
        assert max(self._log2_gain(by_b, i) for i in range(1, 18)) > best_a
        clf = fit(TreeSpec(criterion="info_gain", min_leaf=1, max_depth=1),
                  [(float(k), b[k]) for k in range(len(classes))], classes,
                  (Attribute("a"), Attribute("b")))
        assert clf.root.structure()[:3] == ("num", 0, 13.5)

    @pytest.mark.parametrize("criterion", ["info_gain", "gain_ratio", "c45"])
    def test_numeric_cut_scores_match_log2_formula_over_many_classes(
            self, criterion):
        # 11 classes, 8 or more at every node: from 8 terms on, numpy's
        # pairwise sum over the classes associates differently from the
        # search's class-at-a-time sum, and the two differ by ulps
        rng = np.random.default_rng(11)
        n = 240
        X = np.column_stack([rng.integers(0, 8, n) / 2, rng.random(n),
                             rng.integers(0, 30, n) / 4.0])
        y = rng.integers(0, 11, n)
        state = learners.TrainingState(
            TreeSpec(criterion=criterion, min_leaf=2), X)
        grower = learners._TreeGrower(state, y, int(y.max()) + 1)
        attrs = np.arange(X.shape[1])
        for _ in range(25):
            idx = np.sort(rng.choice(n, int(rng.integers(40, n + 1)),
                                     replace=False))
            counts = np.bincount(y[idx])
            assert (counts > 0).sum() >= 8
            gain, ratio, threshold = grower._eval_numeric_all(
                attrs, state.sorted_rows(idx), counts,
                float(entropy_log2(counts)))
            for a in attrs:
                g, r, t = numeric_cut_bf(X[idx, a].tolist(), y[idx].tolist(),
                                         criterion, 2)
                assert abs(gain[a] - g) <= 1e-12
                assert abs(ratio[a] - r) <= 1e-12
                if g > 0:
                    assert threshold[a] == t

    @staticmethod
    def _stable_order(X, idx, cols):
        return np.array([idx[np.argsort(X[idx, a], kind="stable")]
                         for a in cols]).reshape(len(cols), len(idx))

    def test_sorted_rows_equal_a_stable_sort_of_the_rows(self):
        rng = np.random.default_rng(5)
        # coarse columns repeat values; duplicated rows, as pruned sets
        # builds its training matrix, tie in every column
        base = np.column_stack([rng.integers(0, 4, 50) / 2, rng.random(50),
                                rng.integers(0, 3, 50), rng.random(50)])
        X = base[rng.integers(0, 50, 120)]
        attrs = (Attribute("g"), Attribute("u"), Attribute("c", ("x", "y", "z")),
                 Attribute("v"))
        state = learners.TrainingState(preset("j48"), X, attrs)
        numeric = [0, 1, 3]
        assert state.order_row[numeric].tolist() == [0, 1, 2]
        for size in (0, 1, 2, 17, 119, 120):
            idx = np.sort(rng.choice(120, size, replace=False))
            assert np.array_equal(state.sorted_rows(idx),
                                  self._stable_order(X, idx, numeric))

    def test_nodes_receive_their_rows_in_stable_column_order(self, monkeypatch):
        rng = np.random.default_rng(9)
        base = np.column_stack([rng.integers(0, 5, 80) / 2, rng.random(80),
                                rng.integers(0, 3, 80),
                                rng.integers(0, 12, 80) / 4])
        X = base[rng.integers(0, 80, 200)]  # duplicated rows
        y = (X[:, 0] > 1).astype(int) + 2 * (X[:, 2] == 1) + (X[:, 1] > 0.6)
        y = np.where(rng.random(200) < 0.2, rng.integers(0, 4, 200), y)
        attrs = (Attribute("g"), Attribute("u"), Attribute("c", ("x", "y", "z")),
                 Attribute("h"))
        received = []
        split = learners._TreeGrower._split

        def record(self, node, idx, order):
            received.append((idx, order))
            return split(self, node, idx, order)

        monkeypatch.setattr(learners._TreeGrower, "_split", record)
        for name in ("reptree", "j48", "random-t"):
            received.clear()
            clf = fit(dataclasses.replace(preset(name), min_leaf=1), X, y, attrs)
            # reptree grows on a subset; every tree splits nodes many
            # partitions deep, down to a few rows
            assert len(received[0][0]) == (134 if name == "reptree" else 200)
            assert len(received) > 20
            assert min(len(idx) for idx, _ in received) <= 4
            assert clf.root.attr is not None
            for idx, order in received:
                assert np.array_equal(order,
                                      self._stable_order(X, idx, [0, 1, 3]))

    def test_pure_training_data_yields_confident_leaf(self):
        pts = [(float(i), 0.0) for i in range(6)]
        clf = fit(TreeSpec(), pts, [0] * 6, NUM2)
        # single class: degenerate constant model
        assert clf.predict_dist_many([(3.0, 0.0)]).tolist() == [[1.0]]

    def test_two_class_pure_regions(self):
        pts = [(float(i), 1.0) for i in range(4)] + [(float(i) + 10, 1.0) for i in range(4)]
        cls = [0] * 4 + [1] * 4
        clf = fit(TreeSpec(min_leaf=1), pts, cls, NUM2)
        left, right = clf.predict_dist_many([(0.0, 1.0), (13.0, 1.0)])
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
        dist = clf.predict_dist_many([(0,), (1,)])
        assert dist[0, 0] > 0.5 and dist[1, 1] > 0.5

    def test_full_random_subset_equals_plain_tree(self):
        d = random_dataset(21, n=40, n_labels=2, n_num=4, n_nom=1)
        y = [b % 2 for b in bits(d.Y)]
        plain = fit(TreeSpec(criterion="info_gain"), d.X, y,
                    d.schema.attributes)
        randomized = fit(
            TreeSpec(criterion="info_gain", random_subset_size=5, seed=123),
            d.X, y, d.schema.attributes,
        )
        assert plain.root.structure() == randomized.root.structure()

    # SHA-256 of repr(root.structure()) for LP-style data with 31 of 32
    # classes, nominal columns and tied numeric values.  Scores within 1e-12
    # of the best are tied, so these digests hold whether entropies come
    # from the count table or the direct log2 formula; without that rule,
    # regrouping the float sums changes some of them.  A change that alters
    # splits on purpose records new digests and says so.  "gain_ratio" is
    # the plain gain-ratio tree, without j48's C4.5 rules.
    PINNED_STRUCTURES = {
        ("gain_ratio", 1): "d5f8e555bb46450fe2b975e23b53f88f9f88ecea4b8e23d45dbe3261817a8afc",
        ("gain_ratio", 2): "21056a4cf4c44df8bbc4c489089a8e795e2da0f35aeb51c77aa90ac401f70c6e",
        ("j48", 1): "3d15ee0ce171c780c06b324453df793a6da95dd26a0854d0491a100bf3c4af8a",
        ("j48", 2): "c554c16c2f58c30d1866c70db297bfc4391c5adab6bcf0197a9a86385dbf857a",
        ("reptree", 1): "da0acceafb493efd8ba6feac7d1db42e5c8e4e68103fe27d179171dbd92740a2",
        ("reptree", 2): "df83a8da16f079cd5ea001eb1248f1bc1bd1a451e05a29ad2e4420d99bca3d6e",
        ("random-t", 1): "91d83aefa1c5cd3aad91e1fb5e635c33ffa9407bae8a7ea6f2c9806b4b689c36",
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
        seed = {"gain_ratio": 0, "j48": 0, "reptree": 3, "random-t": 11}[name]
        base = TreeSpec(criterion=name) if name == "gain_ratio" else preset(name)
        spec = dataclasses.replace(base, min_leaf=min_leaf, seed=seed)
        clf = fit(spec, rows, classes, attrs)
        digest = hashlib.sha256(repr(clf.root.structure()).encode()).hexdigest()
        assert digest == self.PINNED_STRUCTURES[(name, min_leaf)]

    @staticmethod
    def _nominal_signal_data(seed):
        """Six classes set by nominal column 2 and numeric column 0, every
        seventh row relabelled; no cell is missing."""
        d = random_dataset(seed, n=150, n_labels=2, n_num=2, n_nom=2,
                           nom_arity=4)
        y = (d.X[:, 2] % 3).astype(int) + 3 * (d.X[:, 0] > 0)
        y = np.where(np.arange(len(y)) % 7 == 0, (y + 1) % 6, y)
        return d.X.copy(), y, d.schema.attributes

    @pytest.mark.parametrize("name", ["j48", "random-t", "reptree"])
    def test_routed_predict_equals_per_row_walk(self, name):
        # no nominal training cell is missing, so every nominal split has an
        # ungrown slot for the missing category, where probe rows with a
        # missing nominal cell stop
        X, y, attrs = self._nominal_signal_data(0)
        X[::5, 1] = np.nan
        clf = fit(preset(name), X, y, attrs)
        probe = random_dataset(1, n=200, n_labels=2, n_num=2, n_nom=2,
                               nom_arity=4, missing_rate=0.2).X
        expected, stopped = tree_predict_bf(
            clf.root, clf._enc.transform(probe).tolist(), clf.n_classes)
        assert stopped > 0
        assert np.array_equal(clf.predict_dist_many(probe), expected)
        assert np.array_equal(clf.predict_dist_many(probe[:1]), expected[:1])
        assert clf.predict_dist_many(probe[:0]).shape == (0, clf.n_classes)

    def test_prune_errors_are_the_fold_errors_before_and_after(self):
        # the prune fold drawn as TreeClassifier draws it; with no missing
        # cell to impute, the grow rows alone grow the same unpruned tree,
        # where some prune rows stop at a category that grew no child
        X, y, attrs = self._nominal_signal_data(2)
        spec = preset("reptree")
        clf = fit(spec, X, y, attrs)
        perm = list(range(len(y)))
        Xoshiro256(derive_seed(spec.seed, 1)).shuffle(perm)
        prune, grow = sorted(perm[:len(y) // 3]), sorted(perm[len(y) // 3:])
        unpruned = fit(dataclasses.replace(spec, rep_pruning=False),
                       X[grow], y[grow], attrs)
        stopped = tree_predict_bf(unpruned.root, X[prune].tolist(),
                                  unpruned.n_classes)[1]
        assert stopped > 0

        def fold_errors(tree):
            dist, _ = tree_predict_bf(tree.root, X[prune].tolist(),
                                      tree.n_classes)
            return int((np.argmax(dist, axis=1) != y[prune]).sum())

        assert unpruned.n_classes == clf.n_classes
        assert clf.prune_error_before == fold_errors(unpruned)
        assert clf.prune_error_after == fold_errors(clf)
        assert clf.prune_error_after < clf.prune_error_before

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
        for bad in ({"max_depth": -1}, {"random_subset_size": 0},
                    {"random_subset_size": -3}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TreeSpec(**bad)


class TestMissingValues:
    def test_numeric_missing_imputed_with_training_mean(self):
        pts = [(0.0,), (4.0,), (None,)]
        cls = [0, 1, 0]
        clf = fit(KnnSpec(k=1), pts, cls, (Attribute("a"),))
        # missing imputed to mean(0, 4) = 2; query at 1.9 is nearest to it
        assert clf.predict_dist_many([(1.9,)]).tolist() == [[1.0, 0.0]]

    def test_nominal_missing_is_its_own_category(self):
        attrs = (Attribute("c", ("x", "y")),)
        pts = [(None,), (None,), (0,), (1,)]
        cls = [0, 0, 1, 1]
        clf = fit(KnnSpec(k=1), pts, cls, attrs)
        assert clf.predict_dist_many([(None,)]).tolist() == [[1.0, 0.0]]


class TestEncoding:
    NOM3 = (Attribute("c", ("x", "y", "z")),)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_non_integral_category_rejected_in_fit(self, spec):
        with pytest.raises(ValueError, match="'c'.*integral"):
            fit(spec, [(0,), (1.7,), (2,)], [0, 1, 0], self.NOM3)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_non_integral_category_rejected_in_predict(self, spec):
        clf = fit(spec, [(0,), (1,), (2,)], [0, 1, 0], self.NOM3)
        with pytest.raises(ValueError, match="'c'.*integral"):
            clf.predict_dist_many([(1.9,)])
        assert (clf.predict_dist_many([(1.0,)]).tolist()
                == clf.predict_dist_many([(1,)]).tolist())

    def test_out_of_range_category_rejected(self):
        with pytest.raises(ValueError, match=r"'c'.*\[0, 3\), got (3|-1)$"):
            fit(KnnSpec(k=1), [(0,), (3,)], [0, 1], self.NOM3)
        clf = fit(KnnSpec(k=1), [(0,), (2,)], [0, 1], self.NOM3)
        with pytest.raises(ValueError, match=r"'c'.*\[0, 3\), got (3|-1)$"):
            clf.predict_dist_many([(-1,)])

    def test_without_attributes_every_column_is_numeric(self):
        # integer cells are numbers, not categories: 2 is nearer to 1 than 0
        clf = fit(KnnSpec(k=1), [(0,), (1,)], [0, 1])
        assert clf.predict_dist_many([(2,)]).tolist() == [[0.0, 1.0]]
        clf = fit(KnnSpec(k=1), [(0,), (1,)], [0, 1], self.NOM3)
        assert clf.predict_dist_many([(2,)]).tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matrix_and_rows_give_the_same_model(self, spec):
        d = random_dataset(4, n=40, n_labels=2, n_num=3, n_nom=2,
                           missing_rate=0.15)
        probe = random_dataset(5, n=12, n_labels=2, n_num=3, n_nom=2,
                               missing_rate=0.3)
        y = bits(d.Y)
        attrs = d.schema.attributes
        from_rows = fit(spec, d.features, y, attrs).predict_dist_many(probe.features)
        from_matrix = fit(spec, d.X, y, attrs).predict_dist_many(probe.X)
        assert np.array_equal(from_rows, from_matrix)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_single_class_model_checks_queries(self, spec):
        clf = fit(spec, [(0,), (1,), (2,)], [0, 0, 0], self.NOM3)
        assert clf.predict_dist_many([(1,), (None,)]).tolist() == [[1.0], [1.0]]
        with pytest.raises(ValueError, match="'c'.*integral"):
            clf.predict_dist_many([(1.5,)])
        with pytest.raises(ValueError, match=r"'c'.*\[0, 3\), got 3$"):
            clf.predict_dist_many([(3,)])
        with pytest.raises(ValueError, match="arity 2 does not match"):
            clf.predict_dist_many([(0, 1)])
        with pytest.raises(ValueError, match="arity 7 does not match"):
            fit(spec, np.ones((4, 3)), [0] * 4).predict_dist_many(np.ones((2, 7)))
        with pytest.raises(ValueError, match="zero training rows"):
            fit(spec, np.empty((0, 1)), [], self.NOM3)

    def test_matrix_is_not_copied(self):
        d = random_dataset(6, n=20, n_labels=2, n_num=3, n_nom=0)
        state = learners.TrainingState(NaiveBayesSpec(), d.X,
                                       d.schema.attributes)
        assert state.x is d.X


PRESETS = [preset(name) for name in PRESET_NAMES]


def preset_ids(spec):
    return PRESET_NAMES[PRESETS.index(spec)] if spec in PRESETS else "gain-ratio"


class TestTrainingState:
    @pytest.mark.parametrize("spec", PRESETS, ids=preset_ids)
    def test_state_of_another_matrix_of_the_same_shape_is_refused(self, spec):
        X1 = random_dataset(1, n=20, n_labels=1, n_num=3, n_nom=0).X
        X2 = random_dataset(2, n=20, n_labels=1, n_num=3, n_nom=0).X
        y = [0, 1] * 10
        state = learners.TrainingState(spec, X1)
        with pytest.raises(ValueError, match="prepared for another"):
            fit(spec, X2, y, shared=state)
        with pytest.raises(ValueError, match="prepared for another"):
            fit(spec, X1.copy(), y, shared=state)
        assert np.array_equal(fit(spec, X1, y, shared=state).predict_dist_many(X2),
                              fit(spec, X1, y).predict_dist_many(X2))

    @pytest.mark.parametrize("spec", PRESETS, ids=preset_ids)
    def test_state_with_other_attributes_is_refused(self, spec):
        d = random_dataset(3, n=20, n_labels=1, n_num=2, n_nom=1)
        attrs = d.schema.attributes
        state = learners.TrainingState(spec, d.X, attrs)
        y = [0, 1] * 10
        for other in (list(attrs), None):
            with pytest.raises(ValueError, match="prepared for another"):
                fit(spec, d.X, y, other, shared=state)
        fit(spec, d.X, y, attrs, shared=state)

    @pytest.mark.parametrize("spec", PRESETS, ids=preset_ids)
    def test_building_a_state_checks_categories_once(self, spec, monkeypatch):
        calls = []
        check = learners.check_category_indices
        monkeypatch.setattr(learners, "check_category_indices",
                            lambda X, attrs: calls.append(X) or check(X, attrs))
        d = random_dataset(4, n=20, n_labels=1, n_num=2, n_nom=2,
                           missing_rate=0.2)
        learners.TrainingState(spec, d.X, d.schema.attributes)
        assert len(calls) == 1 and calls[0] is d.X
        fit(spec, d.X, [0, 1] * 10, d.schema.attributes)
        assert len(calls) == 2

    @pytest.mark.parametrize("spec", PRESETS + [TreeSpec(criterion="gain_ratio")],
                             ids=preset_ids)
    def test_one_class_fit_is_the_specs_own_classifier(self, spec):
        d = random_dataset(5, n=30, n_labels=1, n_num=2, n_nom=1,
                           missing_rate=0.2)
        probe = random_dataset(6, n=9, n_labels=1, n_num=2, n_nom=1,
                               missing_rate=0.3)
        clf = fit(spec, d.X, [0] * 30, d.schema.attributes)
        assert type(clf) is {KnnSpec: learners.KnnClassifier,
                             NaiveBayesSpec: learners.NaiveBayesClassifier,
                             TreeSpec: learners.TreeClassifier}[type(spec)]
        assert clf.predict_dist_many(probe.X).tolist() == [[1.0]] * 9
        with pytest.raises(ValueError, match="arity 2 does not match"):
            clf.predict_dist_many(probe.X[:, :2])
        bad = probe.X.copy()
        bad[0, 2] = 0.5
        with pytest.raises(ValueError, match="integral category"):
            clf.predict_dist_many(bad)


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
        assert j48.criterion == "c45" and not j48.rep_pruning
        rep = preset("reptree")
        assert rep.criterion == "info_gain" and rep.rep_pruning
        rnd = preset("random-t")
        assert rnd.random_subset_size == "sqrt"
