"""Independent brute-force reference implementations used to verify the
library's metrics and learners.

Everything here works on plain Python data (sets of ints, lists, dicts),
except ``entropy_log2``, which takes numpy count arrays, and deliberately
shares no code with the package: these are the oracles the tests compare
against.  ``dense_data_bf`` is the one oracle built on a package function,
the ARFF cell parser, which the caller passes in.
"""

import math

import numpy as np


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


def naive_bayes_numeric_dist_bf(q, log_prior, mean, var):
    """Class distributions of the encoded query rows ``q`` from a fitted
    model's numeric Gaussians alone, as one block through one expression
    per step: ``(log_norm - diff * diff / two_var).sum(axis=2)`` for each
    row, added to the log prior, then normalised with the maximum
    subtracted."""
    log_norm = -0.5 * np.log(2.0 * math.pi * var)
    two_var = 2.0 * var
    diff = q[:, None, :] - mean[None, :, :]
    log_post = np.tile(log_prior, (len(q), 1))
    log_post += (log_norm[None, :, :] - diff * diff / two_var[None, :, :]).sum(axis=2)
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    return post / post.sum(axis=1, keepdims=True)


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


def entropy_log2(counts):
    """Entropy in bits of each class-count vector along the last axis of
    ``counts``, by the direct formula -sum(p * log2(p)) over the classes
    present; 0 for an all-zero vector."""
    counts = np.asarray(counts, dtype=float)
    p = counts / counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, -p * np.log2(p), 0.0).sum(axis=-1)


def numeric_cut_bf(values, classes, criterion, min_leaf=1):
    """The cut a tree node chooses on one numeric attribute, as (gain,
    ratio, threshold), scored with the direct log2 entropy.

    The cuts are the midpoints between consecutive distinct sorted values
    that leave ``min_leaf`` rows on each side.  A cut with gain <= 1e-12
    scores -1; otherwise it scores its gain ratio (``gain_ratio``) or its
    gain (``info_gain``, ``c45``), and the lowest threshold whose score is
    within 1e-12 of the best wins.  ``c45`` then takes log2(number of cuts)
    / n off the gain.  A gain that ends up <= 0 is -1, and so is its ratio;
    the threshold is None when no cut gains."""
    n = len(values)
    n_classes = max(classes) + 1
    ordered = sorted(zip(values, classes), key=lambda vc: vc[0])
    vals = [v for v, _ in ordered]
    ys = [c for _, c in ordered]

    # the class counts of ys[:i] and ys[i:], moved along one row at a time
    left = [0] * n_classes
    right = [ys.count(c) for c in range(n_classes)]
    parent = _entropy_of(right)
    cuts = []  # (threshold, gain, split info) in ascending threshold order
    for i in range(1, n - min_leaf + 1):  # i rows go left
        left[ys[i - 1]] += 1
        right[ys[i - 1]] -= 1
        lo, hi = vals[i - 1], vals[i]
        if i < min_leaf or lo == hi:
            continue
        threshold = (lo + hi) / 2
        if threshold >= hi:  # the midpoint of adjacent floats
            threshold = lo
        gain = parent - (i * _entropy_of(left)
                         + (n - i) * _entropy_of(right)) / n
        cuts.append((threshold, gain, _entropy_of([i, n - i])))
    useful = [cut for cut in cuts if cut[1] > 1e-12]
    if not useful:
        return -1.0, -1.0, None

    def score(cut):
        return cut[1] / cut[2] if criterion == "gain_ratio" else cut[1]

    best = max(score(cut) for cut in useful)
    threshold, gain, info = next(cut for cut in useful
                                 if score(cut) >= best - 1e-12)
    if criterion == "c45":
        gain -= math.log2(len(cuts)) / n
        if gain <= 0:
            return -1.0, -1.0, threshold
    return gain, gain / info, threshold


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

def tree_predict_bf(root, rows, n_classes):
    """Class distributions of a fitted tree for encoded rows (missing cells
    already filled in), walking one row at a time from ``root``: ``<=
    threshold`` goes left, and a nominal category with no grown child stops
    at its node.  A row gets the Laplace-1 smoothed class counts of the node
    it stops at.  Returns the distributions and how many rows stopped at an
    ungrown category."""
    out, stopped = [], 0
    for row in rows:
        node = root
        while node.attr is not None:
            if node.threshold is not None:
                node = node.left if row[node.attr] <= node.threshold else node.right
                continue
            child = node.children[int(row[node.attr])]
            if child is None:
                stopped += 1
                break
            node = child
        counts = [int(c) for c in node.counts]
        out.append([(c + 1) / (sum(counts) + n_classes) for c in counts])
    return out, stopped


def knn_distances_bf(qn, xn, qc, xc, distance):
    """The (queries x training rows) kNN distances as whole-matrix
    expressions: over the standardised numeric columns ``qn``/``xn``,
    ``(|q|^2 + |x|^2) - 2 q.x`` clipped at 0 (Euclidean, squared) or the
    sum of absolute differences column by column (Manhattan), then one per
    nominal column of ``qc``/``xc`` whose categories differ."""
    d = np.zeros((len(qn), len(xn)))
    if qn.shape[1]:
        if distance == "euclidean":
            d += ((qn * qn).sum(axis=1)[:, None] + (xn * xn).sum(axis=1)[None, :]
                  - 2.0 * qn @ xn.T)
            np.clip(d, 0.0, None, out=d)
        else:
            for j in range(qn.shape[1]):
                d += np.abs(qn[:, j][:, None] - xn[None, :, j])
    for j in range(qc.shape[1]):
        d += qc[:, j][:, None] != xc[None, :, j]
    return d


def knn_exact_distances_bf(qn, xn, qc, xc, distance):
    """The documented kNN distance of every (query, training row) pair, one
    float addition at a time in column order: ``(q - x)^2`` (Euclidean,
    squared) or ``|q - x|`` (Manhattan) per standardised numeric column of
    ``qn``/``xn``, then one per nominal column of ``qc``/``xc`` whose
    categories differ."""
    out = []
    for q_num, q_nom in zip(np.asarray(qn).tolist(), np.asarray(qc).tolist()):
        row = []
        for x_num, x_nom in zip(np.asarray(xn).tolist(), np.asarray(xc).tolist()):
            total = 0.0
            for a, b in zip(q_num, x_num):
                diff = a - b
                total += diff * diff if distance == "euclidean" else abs(diff)
            for a, b in zip(q_nom, x_nom):
                total += float(a != b)
            row.append(total)
        out.append(row)
    return out


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


def dense_data_bf(lines, attributes, first_lineno, parse_cell, error):
    """Reference reader of a dense ARFF data section, one cell at a time.

    ``lines`` are the text's lines after ``@data``, the first of them at
    line ``first_lineno``.  Returns the rows as a float matrix (NaN for a
    missing cell), or raises what the first bad line in file order gives:
    ``parse_cell(token, attribute, lineno)``'s error for a bad cell,
    ``error(lineno, message)`` for a row of the wrong width."""
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        cells = split_quoted_bf(line)
        if len(cells) != len(attributes):
            raise error(lineno, f"row has {len(cells)} values, "
                                f"expected {len(attributes)}")
        rows.append([parse_cell(token, attr, lineno)
                     for token, attr in zip(cells, attributes)])
    return np.array(rows, dtype=float).reshape(len(rows), len(attributes))
