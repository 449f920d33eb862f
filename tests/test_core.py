import itertools
import math

import numpy as np
import pytest

from mullab.core import (
    Attribute,
    MLDataset,
    Schema,
    UniverseMismatch,
    dataset_stats,
    label_cardinality,
    label_density,
)
from mullab.metrics import hamming_loss

from synth import label_rows, random_dataset, random_rows


class TestSymdiff:
    """|a Δ b|, the number of labels on which two sets disagree, is what a
    one-row Hamming loss counts (divided by the universe size)."""

    def test_identical_sets(self):
        a = label_rows([[1, 3]], 5)
        assert hamming_loss(a, a) == 0

    def test_partial_overlap(self):
        assert hamming_loss(label_rows([[0, 2]], 3), label_rows([[1, 2]], 3)) == 2 / 3

    def test_full_vs_empty(self):
        assert hamming_loss(np.ones((1, 6), bool), np.zeros((1, 6), bool)) == 1

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            hamming_loss(label_rows([[0]], 2), label_rows([[0]], 3))

    def test_union_minus_intersection_identity_exhaustive(self):
        # |a Δ b| == |a ∪ b| - |a ∩ b| over every pair of subsets, M <= 6
        # (Hamming loss needs at least one label)
        for m in range(1, 7):
            subsets = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
            for a, b in itertools.product(subsets, repeat=2):
                expected = (a | b).sum() - (a & b).sum()
                assert hamming_loss(a[None], b[None]) == expected / m


def tiny_dataset(labelsets, m):
    schema = Schema((Attribute("x"),), tuple(f"L{j}" for j in range(m)))
    x = np.arange(len(labelsets), dtype=float)[:, None]
    return MLDataset(schema, x, label_rows(labelsets, m))


class TestStats:
    def test_cardinality_single_label_rows(self):
        d = tiny_dataset([[0], [1], [2]], 3)
        assert label_cardinality(d) == 1.0

    def test_cardinality_mixed(self):
        d = tiny_dataset([[0, 1], [2]], 4)
        assert label_cardinality(d) == pytest.approx(1.5)

    def test_density_single_label_universe(self):
        d = tiny_dataset([[0], [0]], 1)
        assert label_density(d) == 1.0

    def test_empty_dataset_errors(self):
        d = tiny_dataset([], 2)
        with pytest.raises(ValueError):
            label_cardinality(d)
        with pytest.raises(ValueError):
            dataset_stats(d)

    def test_stats_without_labels_raise_value_error(self):
        d = tiny_dataset([[]], 0)
        with pytest.raises(ValueError, match="at least one label"):
            dataset_stats(d)

    def test_single_row_distinct(self):
        d = tiny_dataset([[0, 1]], 3)
        assert dataset_stats(d).distinct_labelsets == 1

    def test_cardinality_density_relation(self):
        for seed in range(5):
            d = random_dataset(seed, n=40, n_labels=5)
            stats = dataset_stats(d)
            assert 0.0 <= stats.lden <= 1.0
            assert abs(stats.lcard - stats.lden * d.n_labels) <= 1e-12
            assert stats.lcard <= d.n_labels

    def test_row_permutation_invariance(self):
        d = random_dataset(7, n=25, n_labels=4)
        shuffled = d.subset(reversed(range(len(d))))
        assert dataset_stats(d) == dataset_stats(shuffled)

    def test_observed_density_diagnostic(self):
        # only label 0 of 4 ever used: observed universe has size 1
        d = tiny_dataset([[0], [0]], 4)
        stats = dataset_stats(d)
        assert stats.lden == pytest.approx(0.25)
        assert stats.lden_observed == pytest.approx(1.0)


class TestDatasetValidation:
    def test_arity_mismatch(self):
        schema = Schema((Attribute("a"), Attribute("b")), ("L0",))
        with pytest.raises(ValueError, match="do not fit the schema"):
            MLDataset(schema, [[1.0]], [[False]])

    def test_universe_mismatch(self):
        schema = Schema((Attribute("a"),), ("L0", "L1"))
        with pytest.raises(ValueError, match="do not fit the schema"):
            MLDataset(schema, [[1.0]], [[False, False, False]])

    def test_nominal_index_range(self):
        schema = Schema((Attribute("c", ("x", "y")),), ("L0",))
        for bad in (5.0, 2.0, -1.0, 0.5):
            with pytest.raises(ValueError, match="attribute 'c' expects"):
                MLDataset(schema, [[bad]], [[False]])
        ok = MLDataset(schema, [[1.0], [0.0], [np.nan]], [[True]] * 3)
        assert len(ok) == 3

    def test_numeric_cell_must_be_number(self):
        schema = Schema((Attribute("a"),), ("L0",))
        with pytest.raises(ValueError):
            MLDataset(schema, [["oops"]], [[False]])

    def test_missing_allowed(self):
        schema = Schema((Attribute("a"), Attribute("c", ("x", "y"))), ("L0",))
        d = MLDataset(schema, [[np.nan, np.nan]], [[True]])
        assert d.features[0] == (None, None)
        assert np.isnan(d.X).all() and d.Y.tolist() == [[True]]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema((Attribute("a"), Attribute("a")), ("L0",))
        with pytest.raises(ValueError):
            Schema((Attribute("a"),), ("L0", "L0"))
        with pytest.raises(ValueError):
            Schema((Attribute("a"),), ("a",))

    def test_immutable(self):
        d = tiny_dataset([[0]], 1)
        for name in ("X", "Y", "schema"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        with pytest.raises(ValueError):
            d.Y[0, 0] = False


class TestFeatureMatrix:
    def test_matrix_matches_rows(self):
        schema, X, Y = random_rows(8, n=25, n_num=2, n_nom=2,
                                   missing_rate=0.2)
        d = MLDataset(schema, X, Y)
        assert d.X is X and d.Y is Y  # C-ordered: kept, not copied
        assert d.X.shape == (25, 4) and d.X.dtype == np.float64
        assert d.Y.shape == (25, 3) and d.Y.dtype == np.bool_
        kinds = (float, float, int, int)
        assert d.features == [
            tuple(None if math.isnan(v) else kind(v) for kind, v in zip(kinds, row))
            for row in X.tolist()]
        assert isinstance(d.features[0][2], int)

    def test_matrix_is_read_only(self):
        d = random_dataset(8, n=5)
        with pytest.raises(ValueError):
            d.X[0, 0] = 1.0

    def test_subset_indexes_the_matrix(self):
        d = random_dataset(9, n=12, missing_rate=0.2)
        idx = [7, 0, 7, 3]
        sub = d.subset(idx)
        assert sub.features == [d.features[i] for i in idx]
        assert np.array_equal(sub.X, d.X[idx], equal_nan=True)
        assert np.array_equal(sub.Y, d.Y[idx])
        assert sub.X.flags.c_contiguous and not sub.X.flags.writeable
        assert not sub.Y.flags.writeable
        assert d.subset([]).X.shape == (0, d.schema.n_attributes)

    def test_empty_dataset_matrix_has_schema_width(self):
        schema = Schema((Attribute("a"), Attribute("b")), ("L0",))
        no_labels = np.zeros((0, 1), bool)
        assert MLDataset(schema, np.zeros((0, 2)), no_labels).X.shape == (0, 2)
        with pytest.raises(ValueError):
            MLDataset(schema, np.zeros((0, 3)), no_labels)
