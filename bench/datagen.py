"""Seeded synthetic multi-label data shaped like Scene, Yeast and Emotions.

The generator fixes the things the benchmark's cost depends on: rows,
features, labels, label cardinality and the number of distinct labelsets
(which sets the class count of every label-powerset model).  It writes
dense ARFF text with ``{0,1}`` label attributes last, as the Mulan files
do, and a plain label-names file, so the CLI goes through
``read_label_names``.

Construction, for a shape with K distinct labelsets:

1. Draw K distinct labelsets.  Cardinalities come from
   1 + Binomial(L - 1, (lcard - 1) / (L - 1)); duplicates are redrawn.
2. Give every labelset one row, spread the remaining rows by a Zipf law
   over a random order of the labelsets, then move single rows between
   labelsets of neighbouring cardinality until the total label count is
   round(lcard * n).  Every labelset keeps at least one row, so the data
   has exactly K distinct labelsets and the target cardinality.
3. Features: x = sum of the per-label centres of the row's labels, plus a
   per-labelset offset, plus unit Gaussian noise, then an affine map per
   column so values look like real feature ranges.

Steps 1-2 and the centres depend on the shape alone; the seed draws the
row order and the noise (see ``generate``).  Only numpy's seeded Generator
is used, so the same seed gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    name: str
    rows: int
    features: int
    labels: int
    lcard: float
    distinct: int
    separation: float  # distance between two label centres, in noise units


# Public statistics of the three paper datasets (Mulan distribution).
SHAPES = {
    "scene": Shape("scene", 2407, 294, 6, 1.074, 15, 5.0),
    "yeast": Shape("yeast", 2417, 103, 14, 4.237, 198, 4.0),
    "emotions": Shape("emotions", 593, 72, 6, 1.869, 27, 3.5),
    # Small enough that a whole grid takes about a second.
    "tiny": Shape("tiny", 90, 8, 4, 1.5, 8, 3.0),
}


@dataclass(frozen=True)
class Generated:
    x: np.ndarray  # (n, d) float
    y: np.ndarray  # (n, L) bool

    @property
    def lcard(self) -> float:
        return float(self.y.sum(axis=1).mean())

    @property
    def distinct(self) -> int:
        return len({row.tobytes() for row in self.y})


def _labelsets(rng: np.random.Generator, s: Shape) -> list[frozenset]:
    p = (s.lcard - 1.0) / (s.labels - 1)
    found: list[frozenset] = []
    seen: set[frozenset] = set()
    while len(found) < s.distinct:
        c = 1 + int(rng.binomial(s.labels - 1, p))
        ls = frozenset(int(j) for j in rng.choice(s.labels, size=c, replace=False))
        if ls not in seen:
            seen.add(ls)
            found.append(ls)
    return found


def _row_counts(rng: np.random.Generator, sets: list[frozenset],
                s: Shape) -> np.ndarray:
    k = len(sets)
    weights = 1.0 / np.arange(1, k + 1)
    order = rng.permutation(k)
    share = np.empty(k)
    share[order] = weights / weights.sum()
    counts = np.ones(k, dtype=np.int64)
    extra = s.rows - k
    counts += np.floor(share * extra).astype(np.int64)
    leftover = s.rows - int(counts.sum())
    counts[order[:leftover]] += 1
    card = np.array([len(ls) for ls in sets])
    target = round(s.lcard * s.rows)
    total = int(counts @ card)
    # Move one row at a time from a labelset to one whose cardinality is
    # one higher (or lower) until the label total hits the target.
    while total != target:
        step = 1 if total < target else -1
        moved = False
        for a in rng.permutation(k):
            if counts[a] <= 1:
                continue
            dest = np.flatnonzero(card == card[a] + step)
            if dest.size:
                counts[a] -= 1
                counts[dest[rng.integers(dest.size)]] += 1
                total += step
                moved = True
                break
        if not moved:
            break
    return counts


def generate(shape: str, seed: int) -> Generated:
    """A sample of ``shape.rows`` rows from the shape's fixed population.

    The population (labelsets, their row counts, label centres, labelset
    offsets, column scales) depends on the shape only; the seed draws the
    row order and the noise.  So every seed gives different rows with the
    same label statistics and the same learning difficulty.
    """
    s = SHAPES[shape]
    pop = np.random.default_rng([s.rows, s.features, s.labels, s.distinct])
    sets = _labelsets(pop, s)
    counts = _row_counts(pop, sets, s)
    unit = s.separation / np.sqrt(2.0 * s.features)
    centres = pop.normal(scale=unit, size=(s.labels, s.features))
    offsets = pop.normal(scale=unit / 2, size=(len(sets), s.features))
    scale = pop.uniform(0.05, 0.3, size=s.features)
    shift = pop.uniform(0.2, 0.8, size=s.features)

    rng = np.random.default_rng([seed, s.rows, s.features, s.labels])
    which = rng.permutation(np.repeat(np.arange(len(sets)), counts))
    y = np.zeros((s.rows, s.labels), dtype=bool)
    for k, ls in enumerate(sets):
        y[np.ix_(which == k, sorted(ls))] = True
    x = y.astype(float) @ centres + offsets[which]
    x += rng.normal(size=x.shape)
    return Generated(x * scale + shift, y)


def arff_text(g: Generated, relation: str) -> str:
    d, m = g.x.shape[1], g.y.shape[1]
    lines = [f"@relation {relation}"]
    lines += [f"@attribute f{j} numeric" for j in range(d)]
    lines += [f"@attribute L{j} {{0,1}}" for j in range(m)]
    lines.append("@data")
    for xi, yi in zip(g.x.tolist(), g.y.tolist()):
        cells = [f"{v:.6f}" for v in xi]
        cells += ["1" if b else "0" for b in yi]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def label_names_text(g: Generated) -> str:
    return "".join(f"L{j}\n" for j in range(g.y.shape[1]))
