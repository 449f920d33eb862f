import itertools
import math

import numpy as np
import pytest

from mullab.core import (
    Attribute,
    LabelSet,
    MLDataset,
    Schema,
    UniverseMismatch,
    dataset_stats,
    label_cardinality,
    label_density,
    labelsets_of,
)
from mullab.metrics import hamming_loss

from synth import random_dataset, random_rows


def ls(indices, m):
    return LabelSet.from_indices(indices, m)


class TestLabelSet:
    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabelSet(8, 3)
        with pytest.raises(ValueError):
            LabelSet(-1, 3)

    def test_from_indices_and_membership(self):
        s = ls([0, 2], 4)
        assert s.cardinality() == 2
        assert 0 in s and 2 in s
        assert 1 not in s and 3 not in s
        assert s.indices() == (0, 2)

    def test_from_indices_out_of_universe(self):
        with pytest.raises(ValueError):
            ls([5], 3)

    def test_set_algebra(self):
        a, b = ls([0, 1], 3), ls([1, 2], 3)
        assert a.union(b) == ls([0, 1, 2], 3)
        assert a.intersection(b) == ls([1], 3)
        assert a.complement() == ls([2], 3)

    def test_hashable_for_distinct_counting(self):
        assert len({ls([0], 2), ls([0], 2), ls([1], 2)}) == 2


class TestSymdiff:
    """|a Δ b|, the number of labels on which two sets disagree, is what a
    one-row Hamming loss counts (divided by the universe size)."""

    def test_identical_sets(self):
        a = ls([1, 3], 5)
        assert hamming_loss([a], [a]) == 0

    def test_partial_overlap(self):
        assert hamming_loss([ls([0, 2], 3)], [ls([1, 2], 3)]) == 2 / 3

    def test_full_vs_empty(self):
        assert hamming_loss([LabelSet.full(6)], [LabelSet.empty(6)]) == 1

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            hamming_loss([ls([0], 2)], [ls([0], 3)])

    def test_union_minus_intersection_identity_exhaustive(self):
        # |a Δ b| == |a ∪ b| - |a ∩ b| over every pair of subsets, M <= 6
        # (Hamming loss needs at least one label)
        for m in range(1, 7):
            for abits, bbits in itertools.product(range(1 << m), repeat=2):
                a, b = LabelSet(abits, m), LabelSet(bbits, m)
                expected = (
                    a.union(b).cardinality() - a.intersection(b).cardinality()
                )
                assert hamming_loss([a], [b]) == expected / m


def tiny_dataset(labelsets, m):
    schema = Schema((Attribute("x"),), tuple(f"L{j}" for j in range(m)))
    rows = [((float(i),), s) for i, s in enumerate(labelsets)]
    return MLDataset(schema, rows)


class TestStats:
    def test_cardinality_single_label_rows(self):
        d = tiny_dataset([ls([0], 3), ls([1], 3), ls([2], 3)], 3)
        assert label_cardinality(d) == 1.0

    def test_cardinality_mixed(self):
        d = tiny_dataset([ls([0, 1], 4), ls([2], 4)], 4)
        assert label_cardinality(d) == pytest.approx(1.5)

    def test_density_single_label_universe(self):
        d = tiny_dataset([ls([0], 1), ls([0], 1)], 1)
        assert label_density(d) == 1.0

    def test_empty_dataset_errors(self):
        d = tiny_dataset([], 2)
        with pytest.raises(ValueError):
            label_cardinality(d)
        with pytest.raises(ValueError):
            dataset_stats(d)

    def test_stats_without_labels_raise_value_error(self):
        d = tiny_dataset([ls([], 0)], 0)
        with pytest.raises(ValueError, match="at least one label"):
            dataset_stats(d)

    def test_single_row_distinct(self):
        d = tiny_dataset([ls([0, 1], 3)], 3)
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
        d = tiny_dataset([ls([0], 4), ls([0], 4)], 4)
        stats = dataset_stats(d)
        assert stats.lden == pytest.approx(0.25)
        assert stats.lden_observed == pytest.approx(1.0)


class TestDatasetValidation:
    def test_arity_mismatch(self):
        schema = Schema((Attribute("a"), Attribute("b")), ("L0",))
        with pytest.raises(ValueError):
            MLDataset(schema, [((1.0,), LabelSet(0, 1))])

    def test_universe_mismatch(self):
        schema = Schema((Attribute("a"),), ("L0", "L1"))
        with pytest.raises(UniverseMismatch):
            MLDataset(schema, [((1.0,), LabelSet(0, 3))])

    def test_nominal_index_range(self):
        schema = Schema((Attribute("c", ("x", "y")),), ("L0",))
        with pytest.raises(ValueError):
            MLDataset(schema, [((5,), LabelSet(0, 1))])
        ok = MLDataset(schema, [((1,), LabelSet(1, 1))])
        assert len(ok) == 1

    def test_numeric_cell_must_be_number(self):
        schema = Schema((Attribute("a"),), ("L0",))
        with pytest.raises(ValueError):
            MLDataset(schema, [(("oops",), LabelSet(0, 1))])

    def test_missing_allowed(self):
        schema = Schema((Attribute("a"), Attribute("c", ("x", "y"))), ("L0",))
        d = MLDataset(schema, [((None, None), LabelSet(1, 1))])
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
        d = tiny_dataset([ls([0], 1)], 1)
        for name in ("X", "Y", "schema"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        with pytest.raises(ValueError):
            d.Y[0, 0] = False


class TestFeatureMatrix:
    def test_matrix_matches_rows(self):
        schema, rows = random_rows(8, n=25, n_num=2, n_nom=2,
                                   missing_rate=0.2)
        d = MLDataset(schema, rows)
        assert d.X.shape == (25, 4) and d.X.dtype == np.float64
        assert d.X.flags.c_contiguous
        assert d.Y.shape == (25, 3) and d.Y.dtype == np.bool_
        for i, (fv, ls) in enumerate(rows):
            for j, v in enumerate(fv):
                if v is None:
                    assert math.isnan(d.X[i, j])
                else:
                    assert d.X[i, j] == float(v)
            assert d.Y[i].tolist() == [j in ls for j in range(3)]
        assert d.features == [tuple(fv) for fv, _ in rows]
        assert labelsets_of(d.Y) == [ls for _, ls in rows]

    def test_matrix_is_read_only(self):
        d = random_dataset(8, n=5)
        with pytest.raises(ValueError):
            d.X[0, 0] = 1.0

    def test_subset_indexes_the_matrix(self):
        d = random_dataset(9, n=12, missing_rate=0.2)
        idx = [7, 0, 7, 3]
        sub = d.subset(idx)
        assert sub.features == [d.features[i] for i in idx]
        assert labelsets_of(sub.Y) == [labelsets_of(d.Y)[i] for i in idx]
        assert np.array_equal(sub.X, d.X[idx], equal_nan=True)
        assert np.array_equal(sub.Y, d.Y[idx])
        assert sub.X.flags.c_contiguous and not sub.X.flags.writeable
        assert not sub.Y.flags.writeable
        assert d.subset([]).X.shape == (0, d.schema.n_attributes)

    def test_empty_dataset_matrix_has_schema_width(self):
        schema = Schema((Attribute("a"), Attribute("b")), ("L0",))
        assert MLDataset(schema, []).X.shape == (0, 2)
