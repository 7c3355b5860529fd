"""Binary decision trees grown from scratch, shared by both ensemble learners.

One grower and one split search serve two criteria: variance reduction on
real-valued targets (regression trees for boosting, with Newton leaf values
when a hessian is given) and Gini impurity on binary labels (classification
trees for the forest, with class-fraction leaves). The criteria differ only
in how a cut is scored.

The split search is exact over each column's distinct values: columns are
coded once per fit (`encode_columns`), a node holds one row-index array,
and a `bincount` of its rows' codes gives each value's count and target
sum. A node with under a quarter as many rows as a column has values
first recodes its rows over the values they hold, so a node's split
search costs in proportion to its rows, not to its columns' distinct
values; only the winning cut's threshold is computed. Integer row
weights stand for repeated rows, as in a bootstrap. The grower can hand
out each leaf's rows, so boosting updates its training scores without
predicting. It keeps one entry per node, in pre-order, and builds the
arrays with the dtypes on `Tree`'s fields, as `Tree.from_dict` does.

Prediction routes row sets the same way: each internal node splits its
row array with one comparison and each leaf writes its value into its
rows. `Tree.check` rejects a tree that could not be routed, such as one
read from a damaged model file.

Determinism contract: splits are chosen by strictly-greater gain
comparisons scanning features in ascending index order, and within a
feature the smallest qualifying threshold wins, so rebuilding from the
same data, hyperparameters and rng state reproduces the tree exactly. A
node is pure when its targets are all equal, a test no rounding decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

_LEAF = -1
_MIN_HESSIAN = 1e-16


@dataclass(frozen=True, slots=True)
class Tree:
    """Flattened binary tree; index 0 is the root.

    feature[i] is -1 at leaves, where threshold is 0.0 and value holds the
    leaf output. gain[i] is the split's impurity decrease in summed-over-
    samples units (n_node * mean-impurity decrease), 0.0 at leaves. Each
    field's metadata holds its array's dtype.
    """

    feature: np.ndarray = field(metadata={"dtype": np.int32})
    threshold: np.ndarray = field(metadata={"dtype": float})
    left: np.ndarray = field(metadata={"dtype": np.int32})
    right: np.ndarray = field(metadata={"dtype": np.int32})
    value: np.ndarray = field(metadata={"dtype": float})
    n_samples: np.ndarray = field(metadata={"dtype": np.int64})
    gain: np.ndarray = field(metadata={"dtype": float})

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value reached by each row.

        Rows travel down the tree as index arrays: an internal node splits
        its rows with one comparison on its feature, and a leaf writes its
        value into its rows. Children have larger indices than their
        parent (see check), so every path ends at a leaf.
        """
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            j = self.feature[node]
            if j == _LEAF:
                out[rows] = self.value[node]
            elif len(rows):
                go_left = X[:, j][rows] <= self.threshold[node]
                stack.append((self.right[node], rows.compress(~go_left)))
                stack.append((self.left[node], rows.compress(go_left)))
        return out

    def importance_sums(self, n_features: int) -> np.ndarray:
        """Per-feature sum of split gains, for impurity-based importance."""
        sums = np.zeros(n_features)
        internal = self.feature != _LEAF
        np.add.at(sums, self.feature[internal], self.gain[internal])
        return sums

    def as_dict(self) -> dict:
        """Every array as a list, keyed by field name, as a model file holds it."""
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        """Raises ValueError where an index or count is not an integer,
        which the integer arrays would otherwise truncate."""
        arrays = {}
        for f in fields(cls):
            entries, dtype = d[f.name], np.dtype(f.metadata["dtype"])
            if dtype.kind == "i" and len(entries) and np.array(entries).dtype.kind not in "iu":
                raise ValueError(f"{f.name} holds an entry that is not an integer")
            arrays[f.name] = np.array(entries, dtype=dtype)
        return cls(**arrays)

    def check(self, n_features: int) -> None:
        """Raise ValueError unless this is a well-formed tree on n_features
        columns: seven 1-d arrays of one non-zero length, features in
        [-1, n_features), an internal node's children after it, -1
        children at leaves, finite thresholds, values and gains, and at
        least one sample at every node, as grow_tree makes them."""
        n = len(self.feature)
        if n == 0 or any(getattr(self, f.name).shape != (n,) for f in fields(self)):
            raise ValueError("node arrays are empty or differ in length")
        if ((self.feature < _LEAF) | (self.feature >= n_features)).any():
            raise ValueError(f"a feature index lies outside [-1, {n_features})")
        node = np.arange(n)
        leaf = self.feature == _LEAF
        for name, child in (("left", self.left), ("right", self.right)):
            if (child[leaf] != _LEAF).any():
                raise ValueError(f"a leaf has a {name} child")
            if ((child[~leaf] <= node[~leaf]) | (child[~leaf] >= n)).any():
                raise ValueError(f"a {name} child does not lie after its "
                                 "parent in the tree")
        for name in ("threshold", "value", "gain"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"a {name} is not finite")
        if (self.n_samples < 1).any():
            raise ValueError("a node holds no sample")


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
    each of the sorted distinct values `vals` (absent ones skipped).

    Returns (gain, threshold, code) or None; rows of code <= `code` go left.

    Every cut gets a score to maximize: for variance, sum over children of
    (sum t)^2 / n, whose excess over the parent's is the SSE decrease; for
    Gini on 0/1 targets, minus the weighted impurity sum n_child *
    gini(child), which is 2 p (n_child - p) / n_child. Thresholds are
    midpoints of consecutive present values and the smallest one wins ties.
    Only the winning cut's midpoint is computed, unless it rounds onto an
    end (see _valid_argmax).
    """
    present = count.nonzero()[0]
    if len(present) < 2:
        return None
    if len(present) < len(count):
        vals, count, tsum = vals[present], count[present], tsum[present]
    cum_n = count.cumsum()
    cum = tsum.cumsum()
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
    i = int(score.argmax())
    mid = (vals[i] + vals[i + 1]) * 0.5
    if not vals[i] < mid < vals[i + 1]:
        i = _valid_argmax(vals, score)
        if i is None:
            return None
        mid = (vals[i] + vals[i + 1]) * 0.5
    gain = float(score[i] - parent)
    if gain <= 0.0:
        return None
    return gain, float(mid), int(present[i])


def _valid_argmax(vals: np.ndarray, score: np.ndarray) -> int | None:
    """Index of the best-scoring cut of the sorted distinct values `vals`
    whose midpoint lies strictly between its two values, or None if none
    does. Only values one ulp apart have a midpoint that rounds onto an
    end, so _best_cut falls back to this mask only for them."""
    mids = (vals[:-1] + vals[1:]) * 0.5
    valid = (mids > vals[:-1]) & (mids < vals[1:])
    if not valid.any():
        return None
    return int(np.argmax(np.where(valid, score, -np.inf)))


def grow_tree(codes: np.ndarray, values: list[np.ndarray], y: np.ndarray, *,
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
    # float weights, as bincount would convert them on every call
    weight = np.ones(n) if weight is None else weight.astype(float)
    wy = y * weight
    if hess is not None:
        hess = hess * weight
    root = np.flatnonzero(weight)
    if len(root) == 0:
        raise ValueError("cannot grow a tree on zero rows")

    def gather(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # a node of all n rows (a root without zero weights) holds them in
        # order, so the array itself stands for the gathered copy
        return a if len(rows) == n else a.take(rows)

    # one [feature, threshold, left, right, value, n_samples, gain] entry
    # per node, in pre-order; a child's index goes into its parent's slot
    nodes: list[list] = []
    stack = [(None, 0, 0, root)]  # (parent entry, child slot, depth, rows)
    while stack:
        parent, slot, depth, rows = stack.pop()
        node = len(nodes)
        if parent is not None:
            parent[slot] = node
        w_node = gather(weight, rows)
        n_node = int(w_node.sum())
        entry = [_LEAF, 0.0, _LEAF, _LEAF, 0.0, n_node, 0.0]
        nodes.append(entry)
        t_node = gather(wy, rows)
        s = float(t_node.sum())

        # a node is pure when its targets are all equal (max - min is 0); a
        # test on its rounded SSE would turn on the summation order
        splittable = (max_depth is None or depth < max_depth) and np.ptp(gather(y, rows)) > 0

        best = None  # (gain, feature, threshold, code)
        if splittable:
            if max_features is not None and max_features < d:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = range(d)
            for j in feats:
                col = gather(codes[:, j], rows)
                vals = values[j]
                local = None
                if 4 * len(rows) < len(vals):
                    # few rows on many values: count over the node's own
                    # values; each bin still adds its rows in row order
                    local, col = np.unique(col, return_inverse=True)
                    vals = vals.take(local)
                k = len(vals)
                res = _best_cut(vals, np.bincount(col, w_node, k),
                                np.bincount(col, t_node, k), gini)
                if res is not None and (best is None or res[0] > best[0]):
                    code = res[2] if local is None else int(local[res[2]])
                    best = (res[0], j, res[1], code)

        if best is None:
            den = n_node if hess is None else max(float(gather(hess, rows).sum()), _MIN_HESSIAN)
            entry[4] = s / den
            if leaves is not None:
                leaves.append((node, rows))
            continue

        gain, j_star, thr, code = best
        entry[0], entry[1], entry[6] = j_star, thr, gain
        go_left = gather(codes[:, j_star], rows) <= code
        # push right first so the left subtree is built first
        stack.append((entry, 3, depth + 1, rows.compress(~go_left)))
        stack.append((entry, 2, depth + 1, rows.compress(go_left)))

    return Tree(*(np.array(column, dtype=f.metadata["dtype"])
                  for f, column in zip(fields(Tree), zip(*nodes))))
