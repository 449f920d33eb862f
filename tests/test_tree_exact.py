"""Tree induction does not depend on how the class keys are sorted.

Nodes of fewer than ``learners._RADIX_MIN_ROWS`` rows sort their class keys
as int64 (timsort), larger ones as the narrowest unsigned type (radix sort).
Both sorts are stable, so they place a node's rows alike and every cut
score, threshold and tree is the same bit for bit whichever a node uses.
These tests grow under each sort alone: ``_RADIX_MIN_ROWS`` at 0 sends every
node to the radix sort, above every node size to timsort.
"""

import dataclasses

import numpy as np
import pytest

from mullab import learners
from mullab.core import Attribute
from mullab.learners import TreeSpec, fit, preset

from oracles import entropy_log2


@pytest.mark.parametrize("criterion", ["info_gain", "gain_ratio", "c45"])
def test_cut_scores_are_the_same_bytes_under_either_key_sort(criterion,
                                                             monkeypatch):
    rng = np.random.default_rng(25)
    n = 240
    # coarse columns repeat values, so cuts tie and admissibility matters
    X = np.column_stack([rng.integers(0, 6, n) / 2, rng.random(n),
                         rng.integers(0, 20, n) / 4.0,
                         rng.integers(0, 3, n).astype(float)])
    for n_classes in (2, 5, 13, 30):
        y = np.arange(n) % n_classes
        rng.shuffle(y)
        state = learners.TrainingState(TreeSpec(criterion=criterion), X)
        grower = learners._TreeGrower(state, y, n_classes)
        assert grower._keys.dtype == np.uint8 and y.dtype == np.int64
        for size in (4, 7, 12, 25, 39, 40, 41, 63, 80):
            idx = np.sort(rng.choice(n, size, replace=False))
            counts = np.bincount(y[idx], minlength=n_classes)
            order = state.sorted_rows(idx)
            # every numeric column (the order as it is) and a subset of them
            for attrs in (np.arange(4), np.array([1, 3])):
                got = []
                for radix_min in (0, n + 1):
                    monkeypatch.setattr(learners, "_RADIX_MIN_ROWS", radix_min)
                    got.append([a.tobytes() for a in grower._eval_numeric_all(
                        attrs, order, counts, float(entropy_log2(counts)))])
                assert got[0] == got[1]


def _grown(spec, X, y, attrs):
    clf = fit(spec, X, y, attrs)
    return (clf.root.structure(), clf.prune_error_before,
            clf.prune_error_after)


@pytest.mark.parametrize("name", ["j48", "reptree", "random-t"])
@pytest.mark.parametrize("n_classes", [3, 20])
def test_trees_are_equal_under_either_key_sort(name, n_classes, monkeypatch):
    rng = np.random.default_rng(26)
    n = 400
    X = np.column_stack([rng.integers(0, 8, n) / 2, rng.random(n),
                         rng.integers(0, 4, n), rng.integers(0, 30, n) / 4,
                         rng.normal(size=n)])
    attrs = (Attribute("g"), Attribute("u"),
             Attribute("c", ("w", "x", "y", "z")), Attribute("h"),
             Attribute("v"))
    signal = (X[:, 0] * 3 + X[:, 2] * 2 + (X[:, 1] > 0.5)).astype(int)
    y = np.where(rng.random(n) < 0.25, rng.integers(0, n_classes, n),
                 signal % n_classes)
    spec = dataclasses.replace(preset(name), min_leaf=1, seed=3)
    monkeypatch.setattr(learners, "_RADIX_MIN_ROWS", 0)
    radix = _grown(spec, X, y, attrs)
    monkeypatch.setattr(learners, "_RADIX_MIN_ROWS", n + 1)
    timsort = _grown(spec, X, y, attrs)
    assert radix == timsort
    assert radix[0][0] != "leaf"
    if name == "reptree":
        assert radix[1] is not None
