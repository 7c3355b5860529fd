"""Tree growing: split selection, leaf values, determinism."""

import numpy as np
import pytest

from wifi_proximity.trees import Tree, _best_cut, grow_tree

X6 = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
Y6 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


class TestVarianceTrees:
    def test_perfect_split_on_hand_data(self):
        tree = grow_tree(X6, Y6, criterion="variance", max_depth=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(2.5)
        left, right = tree.left[0], tree.right[0]
        assert tree.value[left] == pytest.approx(0.0)
        assert tree.value[right] == pytest.approx(1.0)
        assert tree.n_samples[0] == 6

    def test_newton_leaves_divide_by_hessian_sum(self):
        hess = np.full(6, 0.25)
        g = np.array([-0.5, -0.5, -0.5, 0.5, 0.5, 0.5])
        tree = grow_tree(X6, g, criterion="variance", hess=hess, max_depth=1)
        # leaf = sum(g)/sum(h) = +-1.5/0.75 = +-2
        assert sorted(tree.value[tree.feature == -1]) == pytest.approx([-2.0, 2.0])

    def test_pure_target_is_a_leaf(self):
        tree = grow_tree(X6, np.zeros(6), criterion="variance")
        assert tree.n_nodes == 1 and tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(0.0)

    def test_gain_is_sse_decrease(self):
        tree = grow_tree(X6, Y6, criterion="variance", max_depth=1)
        # parent SSE 6*0.25=1.5; children are pure: decrease is 1.5
        assert tree.gain[0] == pytest.approx(1.5)

    def test_best_of_two_features_wins(self):
        X = np.column_stack([np.array([0, 1, 0, 1, 0, 1.0]), X6[:, 0]])
        tree = grow_tree(X, Y6, criterion="variance", max_depth=1)
        assert tree.feature[0] == 1  # the informative feature

    def test_predict_routes_by_threshold(self):
        tree = grow_tree(X6, Y6, criterion="variance", max_depth=1)
        out = tree.predict(np.array([[2.4], [2.6], [-10.0], [99.0]]))
        assert out == pytest.approx([0.0, 1.0, 0.0, 1.0])
        # boundary goes left (<= threshold)
        assert tree.predict(np.array([[2.5]]))[0] == pytest.approx(0.0)


class TestGiniTrees:
    def test_perfect_split(self):
        tree = grow_tree(X6, Y6, criterion="gini", max_depth=1)
        assert tree.threshold[0] == pytest.approx(2.5)
        assert sorted(tree.value[tree.feature == -1]) == pytest.approx([0.0, 1.0])

    def test_leaf_outputs_positive_fraction(self):
        X = np.array([[0.0], [0.0], [0.0], [0.0]])
        y = np.array([1.0, 0.0, 1.0, 1.0])
        tree = grow_tree(X, y, criterion="gini")
        assert tree.n_nodes == 1
        assert tree.value[0] == pytest.approx(0.75)

    def test_gini_gain_on_hand_data(self):
        tree = grow_tree(X6, Y6, criterion="gini", max_depth=1)
        # parent 6*gini(0.5)=3.0; pure children: decrease 3.0
        assert tree.gain[0] == pytest.approx(3.0)


class TestConstraints:
    def test_max_depth_zero_is_a_stump(self):
        tree = grow_tree(X6, Y6, criterion="variance", max_depth=0)
        assert tree.n_nodes == 1

    def test_min_samples_leaf(self):
        tree = grow_tree(X6, Y6, criterion="variance", min_samples_leaf=3,
                         max_depth=None)
        leaf_sizes = tree.n_samples[tree.feature == -1]
        assert (leaf_sizes >= 3).all()

    def test_min_samples_split(self):
        tree = grow_tree(X6, Y6, criterion="variance", min_samples_split=7)
        assert tree.n_nodes == 1

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(X6, Y6, criterion="entropy")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(np.empty((0, 1)), np.empty(0), criterion="variance")

    def test_max_features_requires_rng(self):
        with pytest.raises(ValueError):
            grow_tree(X6, Y6, criterion="gini", max_features=1)

    def test_constant_feature_cannot_split(self):
        X = np.zeros((6, 1))
        tree = grow_tree(X, Y6, criterion="gini")
        assert tree.n_nodes == 1


class TestDeterminism:
    def random_problem(self, seed, n=300, d=6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.5, size=n) > 0).astype(float)
        return X, y

    def test_rebuild_is_identical(self):
        X, y = self.random_problem(0)
        t1 = grow_tree(X, y, criterion="gini", max_depth=6)
        t2 = grow_tree(X, y, criterion="gini", max_depth=6)
        assert t1.as_dict() == t2.as_dict()

    def test_max_features_reproducible_from_seed(self):
        X, y = self.random_problem(2)
        t1 = grow_tree(X, y, criterion="gini", max_depth=4, max_features=2,
                       rng=np.random.default_rng(42))
        t2 = grow_tree(X, y, criterion="gini", max_depth=4, max_features=2,
                       rng=np.random.default_rng(42))
        assert t1.as_dict() == t2.as_dict()


class TestTreeStructure:
    def test_importance_sums_collect_gains(self):
        X, y = TestDeterminism().random_problem(3)
        tree = grow_tree(X, y, criterion="gini", max_depth=4)
        sums = tree.importance_sums(X.shape[1])
        internal = tree.feature != -1
        assert sums.sum() == pytest.approx(tree.gain[internal].sum())
        assert (sums >= 0).all()

    def test_round_trip_as_dict(self):
        tree = grow_tree(X6, Y6, criterion="variance", max_depth=2)
        clone = Tree.from_dict(tree.as_dict())
        X_probe = np.linspace(-1, 6, 40).reshape(-1, 1)
        assert np.array_equal(tree.predict(X_probe), clone.predict(X_probe))

    def test_predictions_piecewise_constant_partition(self):
        X, y = TestDeterminism().random_problem(4, n=200, d=3)
        tree = grow_tree(X, y, criterion="variance", max_depth=3)
        # every training row lands in a leaf whose value is a mean of y
        pred = tree.predict(X)
        assert pred.min() >= 0.0 - 1e-12 and pred.max() <= 1.0 + 1e-12

    def test_split_thresholds_are_affine_stable(self):
        # positive affine rescaling of a feature preserves the partition,
        # because split gains depend only on the induced row ordering
        X, y = TestDeterminism().random_problem(5, n=250, d=4)
        tree = grow_tree(X, y, criterion="variance", max_depth=4)
        X2 = X.copy()
        X2[:, 2] = 3.0 * X2[:, 2] + 10.0
        tree2 = grow_tree(X2, y, criterion="variance", max_depth=4)
        probe = TestDeterminism().random_problem(6, n=100, d=4)[0]
        probe2 = probe.copy()
        probe2[:, 2] = 3.0 * probe2[:, 2] + 10.0
        assert np.array_equal(tree.predict(probe), tree2.predict(probe2))


# The two per-criterion scans that _best_cut replaced, kept verbatim as the
# reference: the merged scan must return the same bits on every input.

def _scan_variance(vals: np.ndarray, t: np.ndarray, min_leaf: int):
    """Best variance-reduction cut of one feature's sorted values.

    Returns (gain, threshold, left_count) or None. Gain is the SSE
    decrease; thresholds are midpoints of consecutive distinct values and
    the smallest one wins ties.
    """
    n = len(vals)
    cum = np.cumsum(t)
    total = cum[-1]
    nl = np.arange(1, n, dtype=float)
    gl = cum[:-1]
    score = gl * gl / nl + (total - gl) ** 2 / (n - nl)
    mids = (vals[:-1] + vals[1:]) * 0.5
    valid = (mids > vals[:-1]) & (mids < vals[1:])
    if min_leaf > 1:
        k = np.arange(1, n)
        valid &= (k >= min_leaf) & (n - k >= min_leaf)
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)
    i = int(np.argmax(score))
    gain = float(score[i] - total * total / n)
    if gain <= 0.0:
        return None
    return gain, float(mids[i]), i + 1


def _scan_gini(vals: np.ndarray, t: np.ndarray, min_leaf: int):
    """Best Gini cut of one feature's sorted values; see _scan_variance."""
    n = len(vals)
    cum = np.cumsum(t)
    total = cum[-1]
    nl = np.arange(1, n, dtype=float)
    nr = n - nl
    pl = cum[:-1]
    pr = total - pl
    # weighted impurity sum: n_child * gini(child) = 2 p (n_child - p) / n_child
    cost = 2.0 * pl * (nl - pl) / nl + 2.0 * pr * (nr - pr) / nr
    mids = (vals[:-1] + vals[1:]) * 0.5
    valid = (mids > vals[:-1]) & (mids < vals[1:])
    if min_leaf > 1:
        k = np.arange(1, n)
        valid &= (k >= min_leaf) & (n - k >= min_leaf)
    if not valid.any():
        return None
    cost = np.where(valid, cost, np.inf)
    i = int(np.argmin(cost))
    gain = float(2.0 * total * (n - total) / n - cost[i])
    if gain <= 0.0:
        return None
    return gain, float(mids[i]), i + 1


def _sorted_values(rng, n):
    """Sorted feature values, mostly with few distinct levels (heavy ties)."""
    kind = rng.integers(4)
    if kind == 0:  # a handful of levels
        vals = rng.integers(0, rng.integers(1, 6), n) * 0.5
    elif kind == 1:  # levels one ulp apart: some midpoints equal an end
        vals = 1.0 + rng.integers(0, 3, n) * np.spacing(1.0)
    elif kind == 2:  # mostly one value with a few outliers
        vals = np.where(rng.random(n) < 0.8, 3.0, rng.normal(size=n))
    else:  # continuous
        vals = rng.normal(size=n)
    return np.sort(vals)


class TestBestCut:
    """_best_cut gives the same (gain, threshold, left_count) bits as the
    per-criterion scans it replaced."""

    CASES = 3000

    def test_variance_matches_reference(self):
        rng = np.random.default_rng(2016)
        splits = 0
        for _ in range(self.CASES):
            n = int(rng.integers(2, 50))
            vals = _sorted_values(rng, n)
            scale = rng.choice([1e-8, 1.0, 1e6])
            if rng.random() < 0.5:  # tied targets
                t = rng.integers(-2, 3, n) * 0.25 * scale
            else:
                t = rng.normal(size=n) * scale
            min_leaf = int(rng.integers(1, 4))
            want = _scan_variance(vals, t, min_leaf)
            assert _best_cut(vals, t, min_leaf, False) == want, (vals, t, min_leaf)
            splits += want is not None
        assert splits > self.CASES // 3

    def test_gini_matches_reference(self):
        rng = np.random.default_rng(2017)
        splits = 0
        for _ in range(self.CASES):
            n = int(rng.integers(2, 50))
            vals = _sorted_values(rng, n)
            t = (rng.random(n) < rng.random()).astype(float)
            min_leaf = int(rng.integers(1, 4))
            want = _scan_gini(vals, t, min_leaf)
            assert _best_cut(vals, t, min_leaf, True) == want, (vals, t, min_leaf)
            splits += want is not None
        assert splits > self.CASES // 3
