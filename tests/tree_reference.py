"""The two tree growers that `trees.grow_tree` replaced, kept as the
references it is compared with, and the level-wise walk that
`Tree.predict` replaced, kept as its reference.

The presorted grower (`grow_tree`) argsorts every column once per tree,
carries one sorted row list per feature through every split, and scans
each feature's sorted rows. A bootstrap sample is a copy of the matrix
with repeated rows.

The column-bincount grower (`bincount_grow_tree`) takes the encoded
matrix and row weights, as `trees.grow_tree` does, but every node
bincounts all of a column's distinct values.

Both keep the purity test that `trees.grow_tree` replaced: a node is pure
when its SSE, computed as a BLAS dot less s^2/n, is at most 1e-12. On 0/1
labels that is the test that both classes are present; on real targets
it can call a node pure whose targets differ, which `trees.grow_tree`
splits, so the growers agree on real targets only where no node's
targets differ by so little.
"""

from __future__ import annotations

import numpy as np

from wifi_proximity.trees import Tree

_LEAF = -1
_PURE_SSE = 1e-12
_MIN_HESSIAN = 1e-16


def _best_cut(vals: np.ndarray, t: np.ndarray, min_leaf: int, gini: bool):
    """Best cut of one feature's sorted values under either criterion.

    Returns (gain, threshold, left_count) or None. Every cut gets a score
    to maximize: for variance, sum over children of (sum t)^2 / n, whose
    excess over the parent's is the SSE decrease; for Gini on 0/1 targets,
    minus the weighted impurity sum n_child * gini(child), which is
    2 p (n_child - p) / n_child. Thresholds are midpoints of consecutive
    distinct values and the smallest one wins ties.
    """
    n = len(vals)
    cum = np.cumsum(t)
    total = cum[-1]
    nl = np.arange(1, n, dtype=float)
    nr = n - nl
    sl = cum[:-1]
    sr = total - sl
    if gini:
        score = -(2.0 * sl * (nl - sl) / nl + 2.0 * sr * (nr - sr) / nr)
        parent = -(2.0 * total * (n - total) / n)
    else:
        score = sl * sl / nl + sr ** 2 / nr
        parent = total * total / n
    mids = (vals[:-1] + vals[1:]) * 0.5
    valid = (mids > vals[:-1]) & (mids < vals[1:])
    if min_leaf > 1:
        k = np.arange(1, n)
        valid &= (k >= min_leaf) & (n - k >= min_leaf)
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)
    i = int(np.argmax(score))
    gain = float(score[i] - parent)
    if gain <= 0.0:
        return None
    return gain, float(mids[i]), i + 1


def grow_tree(X: np.ndarray, y: np.ndarray, *, criterion: str,
              hess: np.ndarray | None = None,
              max_depth: int | None = None,
              min_samples_leaf: int = 1,
              min_samples_split: int = 2,
              max_features: int | None = None,
              rng: np.random.Generator | None = None) -> Tree:
    """Grow one tree on the full row set of X.

    criterion "variance" fits real targets y; leaves output sum(y)/sum(hess)
    (a Newton step) when hess is given, else the mean. criterion "gini"
    expects y in {0,1} and leaves output the positive fraction.

    max_features, when set, samples that many candidate features per node
    from rng (consumed in depth-first pre-order, left subtree first).
    """
    if criterion not in ("variance", "gini"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_features is not None and rng is None:
        raise ValueError("max_features requires an rng")
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot grow a tree on zero rows")
    gini = criterion == "gini"

    # row indices sorted per feature once; partitions inherit the order
    orders = [np.argsort(X[:, j], kind="stable").astype(np.int32) for j in range(d)]
    mask = np.zeros(n, dtype=bool)

    feature_l: list[int] = []
    threshold_l: list[float] = []
    left_l: list[int] = []
    right_l: list[int] = []
    value_l: list[float] = []
    nsamp_l: list[int] = []
    gain_l: list[float] = []

    def leaf_value(rows: np.ndarray) -> float:
        num = float(y[rows].sum())
        if hess is None:
            return num / len(rows)
        return num / max(float(hess[rows].sum()), _MIN_HESSIAN)

    def new_node(parent: int, is_left: bool) -> int:
        node_id = len(feature_l)
        feature_l.append(_LEAF)
        threshold_l.append(0.0)
        left_l.append(_LEAF)
        right_l.append(_LEAF)
        value_l.append(0.0)
        nsamp_l.append(0)
        gain_l.append(0.0)
        if parent >= 0:
            (left_l if is_left else right_l)[parent] = node_id
        return node_id

    stack = [(-1, False, 0, orders)]
    while stack:
        parent, is_left, depth, idx = stack.pop()
        node = new_node(parent, is_left)
        rows = idx[0]
        n_node = len(rows)
        nsamp_l[node] = n_node

        splittable = n_node >= min_samples_split and n_node >= 2 * min_samples_leaf
        if max_depth is not None and depth >= max_depth:
            splittable = False
        if splittable:
            # on 0/1 targets this is the test that both classes are present
            t_node = y[rows]
            s = float(t_node.sum())
            splittable = float(t_node @ t_node) - s * s / n_node > _PURE_SSE

        best = None  # (gain, feature, threshold, left_count)
        if splittable:
            if max_features is not None and max_features < d:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = range(d)
            for j in feats:
                res = _best_cut(X[idx[j], j], y[idx[j]], min_samples_leaf, gini)
                if res is not None and (best is None or res[0] > best[0]):
                    best = (res[0], j, res[1], res[2])

        if best is None:
            value_l[node] = leaf_value(rows)
            continue

        gain, j_star, thr, left_count = best
        feature_l[node] = j_star
        threshold_l[node] = thr
        gain_l[node] = gain

        left_rows = idx[j_star][:left_count]
        mask[left_rows] = True
        left_idx = []
        right_idx = []
        for j in range(d):
            m = mask[idx[j]]
            left_idx.append(idx[j][m])
            right_idx.append(idx[j][~m])
        mask[left_rows] = False

        # push right first so the left subtree is built first
        stack.append((node, False, depth + 1, right_idx))
        stack.append((node, True, depth + 1, left_idx))

    return Tree(
        feature=np.array(feature_l, dtype=np.int32),
        threshold=np.array(threshold_l, dtype=float),
        left=np.array(left_l, dtype=np.int32),
        right=np.array(right_l, dtype=np.int32),
        value=np.array(value_l, dtype=float),
        n_samples=np.array(nsamp_l, dtype=np.int64),
        gain=np.array(gain_l, dtype=float),
    )


# The column-bincount grower that the node-local one replaced, kept verbatim
# but for its names: every node gathers with a 2-d fancy index and bincounts
# all of a column's values, and a cut's threshold is taken from the masked
# midpoints of all present values.

def _bincount_best_cut(vals: np.ndarray, count: np.ndarray, tsum: np.ndarray, gini: bool):
    """Best cut of one feature from the node's row count and target sum at
    each of the column's sorted distinct values `vals` (absent ones skipped).

    Returns (gain, threshold, code) or None; rows of code <= `code` go left.

    Every cut gets a score to maximize: for variance, sum over children of
    (sum t)^2 / n, whose excess over the parent's is the SSE decrease; for
    Gini on 0/1 targets, minus the weighted impurity sum n_child *
    gini(child), which is 2 p (n_child - p) / n_child. Thresholds are
    midpoints of consecutive present values and the smallest one wins ties.
    """
    present = np.flatnonzero(count)
    if len(present) < 2:
        return None
    vals = vals[present]
    cum_n = np.cumsum(count[present])
    cum = np.cumsum(tsum[present])
    n = cum_n[-1]
    total = cum[-1]
    nl = cum_n[:-1]
    nr = n - nl
    sl = cum[:-1]
    sr = total - sl
    if gini:
        score = -(2.0 * sl * (nl - sl) / nl + 2.0 * sr * (nr - sr) / nr)
        parent = -(2.0 * total * (n - total) / n)
    else:
        score = sl * sl / nl + sr ** 2 / nr
        parent = total * total / n
    mids = (vals[:-1] + vals[1:]) * 0.5
    valid = (mids > vals[:-1]) & (mids < vals[1:])
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)
    i = int(np.argmax(score))
    gain = float(score[i] - parent)
    if gain <= 0.0:
        return None
    return gain, float(mids[i]), int(present[i])


def bincount_grow_tree(codes: np.ndarray, values: list[np.ndarray], y: np.ndarray, *,
              criterion: str,
              weight: np.ndarray | None = None,
              hess: np.ndarray | None = None,
              max_depth: int | None = None,
              max_features: int | None = None,
              rng: np.random.Generator | None = None,
              leaves: list | None = None) -> Tree:
    """Grow one tree on the rows of a matrix encoded by encode_columns.

    criterion "variance" fits real targets y; leaves output sum(y)/sum(hess)
    (a Newton step) when hess is given, else the mean. criterion "gini"
    expects y in {0,1} and leaves output the positive fraction.

    weight, when given, holds integer row multiplicities: row i counts
    weight[i] times.

    max_features, when below the column count, samples that many candidate
    features per node from rng (consumed in depth-first pre-order, left
    subtree first).

    leaves, when given, receives one (node, rows) pair per leaf: the leaf's
    index and the rows of non-zero weight that reach it.
    """
    if criterion not in ("variance", "gini"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_features is not None and rng is None:
        raise ValueError("max_features requires an rng")
    n, d = codes.shape
    gini = criterion == "gini"
    if weight is None:
        weight = np.ones(n, dtype=np.int64)
    wy = y * weight
    if hess is not None:
        hess = hess * weight
    root = np.flatnonzero(weight)
    if len(root) == 0:
        raise ValueError("cannot grow a tree on zero rows")

    feature_l: list[int] = []
    threshold_l: list[float] = []
    left_l: list[int] = []
    right_l: list[int] = []
    value_l: list[float] = []
    nsamp_l: list[int] = []
    gain_l: list[float] = []

    def new_node(parent: int, is_left: bool) -> int:
        node_id = len(feature_l)
        feature_l.append(_LEAF)
        threshold_l.append(0.0)
        left_l.append(_LEAF)
        right_l.append(_LEAF)
        value_l.append(0.0)
        nsamp_l.append(0)
        gain_l.append(0.0)
        if parent >= 0:
            (left_l if is_left else right_l)[parent] = node_id
        return node_id

    stack = [(-1, False, 0, root)]
    while stack:
        parent, is_left, depth, rows = stack.pop()
        node = new_node(parent, is_left)
        w_node = weight[rows]
        n_node = int(w_node.sum())
        nsamp_l[node] = n_node
        t_node = wy[rows]
        s = float(t_node.sum())

        # on 0/1 targets the SSE test is the test that both classes are present
        splittable = (max_depth is None or depth < max_depth) and (
            float(t_node @ y[rows]) - s * s / n_node > _PURE_SSE)

        best = None  # (gain, feature, threshold, code)
        if splittable:
            if max_features is not None and max_features < d:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = range(d)
            for j in feats:
                col = codes[rows, j]
                k = len(values[j])
                res = _bincount_best_cut(values[j], np.bincount(col, w_node, k),
                                         np.bincount(col, t_node, k), gini)
                if res is not None and (best is None or res[0] > best[0]):
                    best = (res[0], j, res[1], res[2])

        if best is None:
            den = n_node if hess is None else max(float(hess[rows].sum()), _MIN_HESSIAN)
            value_l[node] = s / den
            if leaves is not None:
                leaves.append((node, rows))
            continue

        gain, j_star, thr, code = best
        feature_l[node] = j_star
        threshold_l[node] = thr
        gain_l[node] = gain

        go_left = codes[rows, j_star] <= code
        # push right first so the left subtree is built first
        stack.append((node, False, depth + 1, rows[~go_left]))
        stack.append((node, True, depth + 1, rows[go_left]))

    return Tree(
        feature=np.array(feature_l, dtype=np.int32),
        threshold=np.array(threshold_l, dtype=float),
        left=np.array(left_l, dtype=np.int32),
        right=np.array(right_l, dtype=np.int32),
        value=np.array(value_l, dtype=float),
        n_samples=np.array(nsamp_l, dtype=np.int64),
        gain=np.array(gain_l, dtype=float),
    )

def predict_levelwise(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value reached by each row, walking every row down one level
    at a time."""
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int32)
    if n == 0:
        return np.empty(0)
    while True:
        feat = tree.feature[node]
        active = np.nonzero(feat != _LEAF)[0]
        if len(active) == 0:
            break
        cur = node[active]
        go_left = X[active, feat[active]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]
