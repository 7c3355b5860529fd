"""Binary decision trees grown from scratch, shared by both ensemble learners.

One grower and one split search serve two criteria: variance reduction on
real-valued targets (regression trees for boosting, with Newton leaf values
when a hessian is given) and Gini impurity on binary labels (classification
trees for the forest, with class-fraction leaves). The criteria differ only
in how a cut is scored.

The split search is exact over each column's distinct values: columns are
coded once per fit (`encode_columns`), a node holds one row-index array,
and a `bincount` of its rows' codes gives each value's count and target
sum. Integer row weights stand for repeated rows, as in a bootstrap.

Determinism contract: splits are chosen by strictly-greater gain
comparisons scanning features in ascending index order, and within a
feature the smallest qualifying threshold wins, so rebuilding from the
same data, hyperparameters and rng state reproduces the tree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LEAF = -1
_PURE_SSE = 1e-12
_MIN_HESSIAN = 1e-16


@dataclass(frozen=True, slots=True)
class Tree:
    """Flattened binary tree; index 0 is the root.

    feature[i] is -1 at leaves, where threshold is 0.0 and value holds the
    leaf output. gain[i] is the split's impurity decrease in summed-over-
    samples units (n_node * mean-impurity decrease), 0.0 at leaves.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    gain: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value reached by each row."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int32)
        if n == 0:
            return np.empty(0)
        while True:
            feat = self.feature[node]
            active = np.nonzero(feat != _LEAF)[0]
            if len(active) == 0:
                break
            cur = node[active]
            go_left = X[active, feat[active]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]

    def importance_sums(self, n_features: int) -> np.ndarray:
        """Per-feature sum of split gains, for impurity-based importance."""
        sums = np.zeros(n_features)
        internal = self.feature != _LEAF
        np.add.at(sums, self.feature[internal], self.gain[internal])
        return sums

    def as_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "n_samples": self.n_samples.tolist(),
            "gain": self.gain.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(
            feature=np.array(d["feature"], dtype=np.int32),
            threshold=np.array(d["threshold"], dtype=float),
            left=np.array(d["left"], dtype=np.int32),
            right=np.array(d["right"], dtype=np.int32),
            value=np.array(d["value"], dtype=float),
            n_samples=np.array(d["n_samples"], dtype=np.int64),
            gain=np.array(d["gain"], dtype=float),
        )


def encode_columns(X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each column's sorted distinct values, and the (n, d) int32 matrix of
    every cell's index into its column's values."""
    values = []
    codes = np.empty(X.shape, dtype=np.int32, order="F")
    for j in range(X.shape[1]):
        uniq, inv = np.unique(X[:, j], return_inverse=True)
        values.append(uniq)
        codes[:, j] = inv
    return values, codes


def _best_cut(vals: np.ndarray, count: np.ndarray, tsum: np.ndarray, gini: bool):
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


def grow_tree(codes: np.ndarray, values: list[np.ndarray], y: np.ndarray, *,
              criterion: str,
              weight: np.ndarray | None = None,
              hess: np.ndarray | None = None,
              max_depth: int | None = None,
              max_features: int | None = None,
              rng: np.random.Generator | None = None) -> Tree:
    """Grow one tree on the rows of a matrix encoded by encode_columns.

    criterion "variance" fits real targets y; leaves output sum(y)/sum(hess)
    (a Newton step) when hess is given, else the mean. criterion "gini"
    expects y in {0,1} and leaves output the positive fraction.

    weight, when given, holds integer row multiplicities: row i counts
    weight[i] times.

    max_features, when below the column count, samples that many candidate
    features per node from rng (consumed in depth-first pre-order, left
    subtree first).
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
                res = _best_cut(values[j], np.bincount(col, w_node, k),
                                np.bincount(col, t_node, k), gini)
                if res is not None and (best is None or res[0] > best[0]):
                    best = (res[0], j, res[1], res[2])

        if best is None:
            den = n_node if hess is None else max(float(hess[rows].sum()), _MIN_HESSIAN)
            value_l[node] = s / den
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
