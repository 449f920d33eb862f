"""Independent brute-force reference implementations used to verify the
library's metrics and learners.

Everything here works on plain Python data (sets of ints, lists, dicts) and
deliberately shares no code with the package: these are the oracles the
tests compare against.
"""

import math


# ---------------------------------------------------------------------------
# metric oracles: truths are sets of label indices, rankings are sequences
# where ranking[j] is the rank (1 = best) of label j, preds are sets
# ---------------------------------------------------------------------------

def accuracy_bf(truths, preds):
    total = 0.0
    for y, z in zip(truths, preds):
        union = y | z
        if not union:
            total += 1.0
        else:
            total += len(y & z) / len(union)
    return total / len(truths)


def hamming_bf(truths, preds, m):
    total = 0
    for y, z in zip(truths, preds):
        total += len(y ^ z)
    return total / (len(truths) * m)


def one_error_bf(truths, rankings):
    misses = 0
    for y, ranking in zip(truths, rankings):
        top = min(range(len(ranking)), key=lambda j: ranking[j])
        if top not in y:
            misses += 1
    return misses / len(truths)


def ranking_loss_bf(truths, rankings, m):
    total = 0.0
    used = 0
    for y, ranking in zip(truths, rankings):
        others = set(range(m)) - y
        if not y or not others:
            continue
        bad = sum(
            1
            for a in y
            for b in others
            if ranking[a] > ranking[b]
        )
        total += bad / (len(y) * len(others))
        used += 1
    if used == 0:
        raise ZeroDivisionError("no instance with a proper truth set")
    return total / used


def avg_precision_bf(truths, rankings):
    total = 0.0
    used = 0
    for y, ranking in zip(truths, rankings):
        if not y:
            continue
        score = 0.0
        for a in y:
            better_or_equal = sum(1 for b in y if ranking[b] <= ranking[a])
            score += better_or_equal / ranking[a]
        total += score / len(y)
        used += 1
    if used == 0:
        raise ZeroDivisionError("no instance with a nonempty truth set")
    return total / used


# ---------------------------------------------------------------------------
# Gaussian naive Bayes oracle (numeric attributes, no missing values)
# ---------------------------------------------------------------------------

def naive_bayes_posterior_bf(train_rows, train_classes, query, variance_floor):
    """Posterior over classes for one query; population variances with a
    floor, frequency priors."""
    classes = sorted(set(train_classes))
    n = len(train_rows)
    d = len(query)
    log_posts = []
    for c in classes:
        rows = [r for r, cls in zip(train_rows, train_classes) if cls == c]
        lp = math.log(len(rows) / n)
        for j in range(d):
            vals = [r[j] for r in rows]
            mu = sum(vals) / len(vals)
            var = sum((v - mu) ** 2 for v in vals) / len(vals)
            var = max(var, variance_floor)
            lp += -0.5 * math.log(2 * math.pi * var)
            lp += -((query[j] - mu) ** 2) / (2 * var)
        log_posts.append(lp)
    peak = max(log_posts)
    weights = [math.exp(lp - peak) for lp in log_posts]
    total = sum(weights)
    return {c: w / total for c, w in zip(classes, weights)}


# ---------------------------------------------------------------------------
# decision-tree split oracles
# ---------------------------------------------------------------------------

def _entropy_of(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def best_split_bf(rows, classes, criterion, min_leaf=1):
    """Enumerate every (attribute, midpoint) split and return the winner as
    (attr, threshold, metric).  Ties keep the lowest attribute, then the
    lowest threshold, matching a first-strictly-greater scan."""
    n = len(rows)
    d = len(rows[0])
    n_classes = max(classes) + 1
    parent = _entropy_of([classes.count(c) for c in range(n_classes)])
    best = None
    for a in range(d):
        vals = sorted(set(r[a] for r in rows))
        for lo, hi in zip(vals, vals[1:]):
            t = (lo + hi) / 2
            left = [c for r, c in zip(rows, classes) if r[a] <= t]
            right = [c for r, c in zip(rows, classes) if r[a] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            h = (
                len(left) * _entropy_of([left.count(c) for c in range(n_classes)])
                + len(right) * _entropy_of([right.count(c) for c in range(n_classes)])
            ) / n
            gain = parent - h
            if gain <= 1e-12:
                continue
            if criterion == "gain_ratio":
                pl, pr = len(left) / n, len(right) / n
                split_info = -(pl * math.log2(pl) + pr * math.log2(pr))
                metric = gain / split_info
            else:
                metric = gain
            if best is None or metric > best[2]:
                best = (a, t, metric)
    return best


def best_split_c45_bf(rows, classes, min_leaf=1, nominal=()):
    """The root split C4.5's two rules choose, as (attr, threshold, ratio);
    the threshold is None for a nominal attribute.

    A numeric attribute's cut is its highest-gain midpoint (the lowest on
    ties) among those that leave ``min_leaf`` rows per side, and its gain
    loses log2(number of such midpoints) / n.  An attribute in ``nominal``
    splits multiway, one branch per value present, with its gain
    unpenalised.  Among the attributes whose gain is positive, those whose
    gain is at least the average gain (less 1e-12) compete on gain ratio;
    ties keep the lowest attribute."""
    n = len(rows)
    n_classes = max(classes) + 1

    def entropy(part):
        return _entropy_of([part.count(c) for c in range(n_classes)])

    def split_info(parts):
        return -sum(len(p) / n * math.log2(len(p) / n) for p in parts)

    parent = entropy(classes)
    candidates = []  # (attr, threshold, gain, ratio)
    for a in range(len(rows[0])):
        if a in nominal:
            groups = {}
            for r, c in zip(rows, classes):
                groups.setdefault(r[a], []).append(c)
            parts = list(groups.values())
            if len(parts) < 2 or min(len(p) for p in parts) < min_leaf:
                continue
            gain = parent - sum(len(p) * entropy(p) for p in parts) / n
            if gain > 1e-12:
                candidates.append((a, None, gain, gain / split_info(parts)))
            continue
        vals = sorted(set(r[a] for r in rows))
        best, tested = None, 0
        for lo, hi in zip(vals, vals[1:]):
            t = (lo + hi) / 2
            left = [c for r, c in zip(rows, classes) if r[a] <= t]
            right = [c for r, c in zip(rows, classes) if r[a] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            tested += 1
            gain = parent - (len(left) * entropy(left)
                             + len(right) * entropy(right)) / n
            if gain > 1e-12 and (best is None or gain > best[1]):
                best = (t, gain, (left, right))
        if best is None:
            continue
        t, gain, parts = best
        gain -= math.log2(tested) / n
        if gain > 0:
            candidates.append((a, t, gain, gain / split_info(parts)))
    if not candidates:
        return None
    average = sum(c[2] for c in candidates) / len(candidates)
    best = None
    for a, t, gain, ratio in candidates:
        if gain >= average - 1e-12 and (best is None or ratio > best[2]):
            best = (a, t, ratio)
    return best


# ---------------------------------------------------------------------------
# k-nearest-neighbour vote oracle (over a given distance matrix)
# ---------------------------------------------------------------------------

def knn_counts_bf(distances, train_classes, k, n_classes):
    """Class frequencies among the k nearest training rows of each query.

    ``distances[i][t]`` is the distance from query i to training row t.
    Neighbours come from a stable sort on distance, so rows tied at the
    boundary are taken in ascending training-row order.
    """
    out = []
    for row in distances:
        order = sorted(range(len(row)), key=lambda t: row[t])
        counts = [0] * n_classes
        for t in order[:k]:
            counts[train_classes[t]] += 1
        out.append([c / k for c in counts])
    return out


# ---------------------------------------------------------------------------
# ARFF splitting oracle
# ---------------------------------------------------------------------------

def split_quoted_bf(text, sep=","):
    """Split on ``sep`` outside single/double quotes, one character at a
    time; quote characters stay in the pieces."""
    parts, buf, quote = [], "", None
    for ch in text:
        if quote:
            buf += ch
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf += ch
        elif ch == sep:
            parts.append(buf)
            buf = ""
        else:
            buf += ch
    parts.append(buf)
    return parts
