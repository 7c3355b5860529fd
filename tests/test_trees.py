"""Tree growing: split selection, leaf values, determinism."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from wifi_proximity import trees
from wifi_proximity.models import expit, fit_gbt
from wifi_proximity.trees import Tree, _best_cut, encode_columns, grow_tree

import tree_reference

X6 = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
Y6 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def grow(X, y, **kwargs):
    values, codes = encode_columns(X)
    return grow_tree(codes, values, y, **kwargs)


class TestVarianceTrees:
    def test_perfect_split_on_hand_data(self):
        tree = grow(X6, Y6, criterion="variance", max_depth=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(2.5)
        left, right = tree.left[0], tree.right[0]
        assert tree.value[left] == pytest.approx(0.0)
        assert tree.value[right] == pytest.approx(1.0)
        assert tree.n_samples[0] == 6

    def test_newton_leaves_divide_by_hessian_sum(self):
        hess = np.full(6, 0.25)
        g = np.array([-0.5, -0.5, -0.5, 0.5, 0.5, 0.5])
        tree = grow(X6, g, criterion="variance", hess=hess, max_depth=1)
        # leaf = sum(g)/sum(h) = +-1.5/0.75 = +-2
        assert sorted(tree.value[tree.feature == -1]) == pytest.approx([-2.0, 2.0])

    def test_pure_target_is_a_leaf(self):
        tree = grow(X6, np.zeros(6), criterion="variance")
        assert tree.n_nodes == 1 and tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(0.0)

    def test_purity_is_equal_targets_not_a_small_sse(self):
        """Targets 0.5 and 0.5 + 1e-7, whose SSE of 1.5e-14 lies below any
        tolerance a rounded SSE could be held to, split; equal ones do not."""
        y = np.where(Y6 == 1.0, 0.5 + 1e-7, 0.5)
        tree = grow(X6, y, criterion="variance")
        assert tree.n_nodes == 3 and tree.threshold[0] == 2.5
        assert tree.value[1:].tolist() == [0.5, 0.5 + 1e-7]
        assert grow(X6, np.full(6, 0.5 + 1e-7), criterion="variance").n_nodes == 1

    def test_gain_is_sse_decrease(self):
        tree = grow(X6, Y6, criterion="variance", max_depth=1)
        # parent SSE 6*0.25=1.5; children are pure: decrease is 1.5
        assert tree.gain[0] == pytest.approx(1.5)

    def test_best_of_two_features_wins(self):
        X = np.column_stack([np.array([0, 1, 0, 1, 0, 1.0]), X6[:, 0]])
        tree = grow(X, Y6, criterion="variance", max_depth=1)
        assert tree.feature[0] == 1  # the informative feature

    def test_predict_routes_by_threshold(self):
        tree = grow(X6, Y6, criterion="variance", max_depth=1)
        out = tree.predict(np.array([[2.4], [2.6], [-10.0], [99.0]]))
        assert out == pytest.approx([0.0, 1.0, 0.0, 1.0])
        # boundary goes left (<= threshold)
        assert tree.predict(np.array([[2.5]]))[0] == pytest.approx(0.0)


class TestGiniTrees:
    def test_perfect_split(self):
        tree = grow(X6, Y6, criterion="gini", max_depth=1)
        assert tree.threshold[0] == pytest.approx(2.5)
        assert sorted(tree.value[tree.feature == -1]) == pytest.approx([0.0, 1.0])

    def test_leaf_outputs_positive_fraction(self):
        X = np.array([[0.0], [0.0], [0.0], [0.0]])
        y = np.array([1.0, 0.0, 1.0, 1.0])
        tree = grow(X, y, criterion="gini")
        assert tree.n_nodes == 1
        assert tree.value[0] == pytest.approx(0.75)

    def test_gini_gain_on_hand_data(self):
        tree = grow(X6, Y6, criterion="gini", max_depth=1)
        # parent 6*gini(0.5)=3.0; pure children: decrease 3.0
        assert tree.gain[0] == pytest.approx(3.0)


class TestConstraints:
    def test_max_depth_zero_is_a_stump(self):
        tree = grow(X6, Y6, criterion="variance", max_depth=0)
        assert tree.n_nodes == 1

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            grow(X6, Y6, criterion="entropy")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            grow(np.empty((0, 1)), np.empty(0), criterion="variance")

    def test_max_features_requires_rng(self):
        with pytest.raises(ValueError):
            grow(X6, Y6, criterion="gini", max_features=1)

    def test_constant_feature_cannot_split(self):
        X = np.zeros((6, 1))
        tree = grow(X, Y6, criterion="gini")
        assert tree.n_nodes == 1


class TestDeterminism:
    def random_problem(self, seed, n=300, d=6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.5, size=n) > 0).astype(float)
        return X, y

    def test_rebuild_is_identical(self):
        X, y = self.random_problem(0)
        t1 = grow(X, y, criterion="gini", max_depth=6)
        t2 = grow(X, y, criterion="gini", max_depth=6)
        assert t1.as_dict() == t2.as_dict()

    def test_max_features_reproducible_from_seed(self):
        X, y = self.random_problem(2)
        t1 = grow(X, y, criterion="gini", max_depth=4, max_features=2,
                  rng=np.random.default_rng(42))
        t2 = grow(X, y, criterion="gini", max_depth=4, max_features=2,
                  rng=np.random.default_rng(42))
        assert t1.as_dict() == t2.as_dict()


class TestTreeStructure:
    def test_importance_sums_collect_gains(self):
        X, y = TestDeterminism().random_problem(3)
        tree = grow(X, y, criterion="gini", max_depth=4)
        sums = tree.importance_sums(X.shape[1])
        internal = tree.feature != -1
        assert sums.sum() == pytest.approx(tree.gain[internal].sum())
        assert (sums >= 0).all()

    def test_round_trip_as_dict(self):
        tree = grow(X6, Y6, criterion="variance", max_depth=2)
        clone = Tree.from_dict(tree.as_dict())
        X_probe = np.linspace(-1, 6, 40).reshape(-1, 1)
        assert np.array_equal(tree.predict(X_probe), clone.predict(X_probe))
        for f in fields(Tree):  # both carry the dtypes declared on the fields
            dtype = np.dtype(f.metadata["dtype"])
            assert getattr(tree, f.name).dtype == getattr(clone, f.name).dtype == dtype

    @pytest.mark.parametrize("name,at_leaf,bad,message", [
        ("value", True, np.nan, "a value is not finite"),
        ("gain", False, np.inf, "a gain is not finite"),
        ("n_samples", True, 0, "a node holds no sample"),
    ], ids=["nan_value", "inf_gain", "empty_node"])
    def test_check_refuses_what_the_grower_never_makes(self, name, at_leaf, bad, message):
        tree = grow(X6, Y6, criterion="variance", max_depth=2)
        tree.check(1)
        column = getattr(tree, name).copy()
        column[np.flatnonzero((tree.feature == -1) == at_leaf)[0]] = bad
        with pytest.raises(ValueError, match=message):
            replace(tree, **{name: column}).check(1)

    def test_predictions_piecewise_constant_partition(self):
        X, y = TestDeterminism().random_problem(4, n=200, d=3)
        tree = grow(X, y, criterion="variance", max_depth=3)
        # every training row lands in a leaf whose value is a mean of y
        pred = tree.predict(X)
        assert pred.min() >= 0.0 - 1e-12 and pred.max() <= 1.0 + 1e-12

    def test_split_thresholds_are_affine_stable(self):
        # positive affine rescaling of a feature preserves the partition,
        # because split gains depend only on the induced row ordering
        X, y = TestDeterminism().random_problem(5, n=250, d=4)
        tree = grow(X, y, criterion="variance", max_depth=4)
        X2 = X.copy()
        X2[:, 2] = 3.0 * X2[:, 2] + 10.0
        tree2 = grow(X2, y, criterion="variance", max_depth=4)
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


def _sorted_values(rng, n, kind=None):
    """Sorted feature values, mostly with few distinct levels (heavy ties).
    kind is drawn from 0-3 unless given; kind 4 is drawn only when given."""
    if kind is None:
        kind = rng.integers(4)
    if kind == 0:  # a handful of levels
        vals = rng.integers(0, rng.integers(1, 6), n) * 0.5
    elif kind == 1:  # levels one ulp apart: some midpoints equal an end
        vals = 1.0 + rng.integers(0, 3, n) * np.spacing(1.0)
    elif kind == 2:  # mostly one value with a few outliers
        vals = np.where(rng.random(n) < 0.8, 3.0, rng.normal(size=n))
    elif kind == 3:  # continuous
        vals = rng.normal(size=n)
    else:  # levels one ulp apart beside continuous ones
        vals = 1.0 + np.where(rng.random(n) < 0.5,
                              rng.integers(0, 3, n) * np.spacing(1.0),
                              rng.normal(size=n))
    return np.sort(vals)


def _value_arrays(rng, gini, kind=None):
    """One feature's sorted distinct values with the per-value row counts
    (zero where a value is absent at the node) and target sums."""
    vals = np.unique(_sorted_values(rng, int(rng.integers(1, 30)), kind))
    k = len(vals)
    count = rng.integers(1, 5, k) * (rng.random(k) < 0.8)
    if gini:  # positives per value
        tsum = np.floor(rng.random(k) * (count + 1))
    else:
        scale = rng.choice([1e-8, 1.0, 1e6])
        if rng.random() < 0.5:  # tied targets
            tsum = rng.integers(-2, 3, k) * 0.25 * scale
        else:
            tsum = rng.normal(size=k) * scale
        tsum = np.where(count > 0, tsum, 0.0)
    if rng.random() < 0.5:  # row weights, as a bootstrap gives
        count = count.astype(float)
    return vals, count, tsum


def _expand(vals, count, tsum, gini):
    """The node's rows in value order: value k repeated count[k] times.

    Gini rows are tsum[k] ones, then zeros. A variance value's first row
    carries the value's whole target sum and the others 0.0, so the row
    prefix sums at value boundaries equal the per-value prefix sums bit
    for bit.
    """
    n_rows = count.astype(int)
    rows = np.repeat(vals, n_rows)
    t = np.zeros(len(rows))
    starts = np.cumsum(n_rows) - n_rows
    for k in np.flatnonzero(n_rows):
        if gini:
            t[starts[k]:starts[k] + int(tsum[k])] = 1.0
        else:
            t[starts[k]] = tsum[k]
    return rows, t


@pytest.fixture
def fallbacks(monkeypatch):
    """What _valid_argmax returns, once for each time _best_cut falls back
    to it because the winning cut's midpoint rounds onto an end."""
    seen = []
    valid_argmax = trees._valid_argmax

    def spy(vals, score):
        seen.append(valid_argmax(vals, score))
        return seen[-1]

    monkeypatch.setattr(trees, "_valid_argmax", spy)
    return seen


class TestBestCut:
    """The per-value _best_cut gives the same gain and threshold bits as the
    per-criterion row scans it replaced, run on the node's rows, and its
    cut code leaves as many rows on the left."""

    CASES = 3000

    def check(self, seed, gini, reference, kind=None):
        rng = np.random.default_rng(seed)
        splits = 0
        for _ in range(self.CASES):
            vals, count, tsum = _value_arrays(rng, gini, kind)
            if not count.any():
                continue
            rows, t = _expand(vals, count, tsum, gini)
            want = reference(rows, t, 1)
            got = _best_cut(vals, count, tsum, gini)
            case = (vals, count, tsum)
            if want is None:
                assert got is None, case
                continue
            assert got is not None and got[:2] == want[:2], case
            assert count[:got[2] + 1].sum() == want[2], case
            splits += 1
        assert splits > self.CASES // 3

    def test_variance_matches_reference(self, fallbacks):
        self.check(2016, False, _scan_variance)
        assert fallbacks  # reached by the one-ulp values (kind 1)

    def test_gini_matches_reference(self, fallbacks):
        self.check(2017, True, _scan_gini)
        assert fallbacks

    @pytest.mark.parametrize("gini", [False, True])
    def test_fallback_finds_cuts_beside_one_ulp_values(self, fallbacks, gini):
        self.check(2018 + gini, gini, _scan_gini if gini else _scan_variance, kind=4)
        assert any(i is not None for i in fallbacks)


def _tied_problem(rng, n, d):
    """Columns of a few levels each (heavy ties), the first continuous."""
    X = rng.integers(0, rng.integers(2, 8, d), size=(n, d)) * 0.5
    X[:, 0] = rng.normal(size=n)
    return X


class TestGrowerMatchesReference:
    """The per-value grower against the presorted one it replaced."""

    PROBLEMS = 60

    def problems(self, seed):
        rng = np.random.default_rng(seed)
        for s in range(self.PROBLEMS):
            n = int(rng.integers(5, 300))
            d = int(rng.integers(1, 7))
            yield s, rng, n, d, _tied_problem(rng, n, d), [None, 2, 8][s % 3]

    def test_gini_bootstrap_weights_match_duplicated_rows(self):
        for s, rng, n, d, X, depth in self.problems(1):
            y = (X[:, -1] + rng.normal(size=n) > 1.0).astype(float)
            k = max(1, math.isqrt(d))
            rng_ref = np.random.default_rng([s, 1])
            rows = rng_ref.integers(0, n, size=n)
            want = tree_reference.grow_tree(
                X[rows], y[rows], criterion="gini", max_depth=depth,
                max_features=k if k < d else None, rng=rng_ref)
            rng_new = np.random.default_rng([s, 1])
            weight = np.bincount(rng_new.integers(0, n, size=n), minlength=n)
            got = grow(X, y, criterion="gini", weight=weight, max_depth=depth,
                       max_features=k, rng=rng_new)
            assert got.as_dict() == want.as_dict(), s
            assert rng_new.random() == rng_ref.random(), s

    @pytest.mark.parametrize("with_hess", [False, True])
    def test_variance_matches_on_dyadic_targets(self, with_hess):
        # multiples of 2**-10: every sum is exact in any order
        for s, rng, n, d, X, depth in self.problems(2):
            t = rng.integers(-512, 513, n) / 1024.0
            hess = rng.integers(1, 257, n) / 1024.0 if with_hess else None
            want = tree_reference.grow_tree(X, t, criterion="variance",
                                            hess=hess, max_depth=depth)
            got = grow(X, t, criterion="variance", hess=hess, max_depth=depth)
            assert got.as_dict() == want.as_dict(), s

    @pytest.mark.parametrize("with_hess", [False, True])
    def test_variance_predictions_agree_on_float_targets(self, with_hess):
        # sums are taken per value first, so only the last bits may differ
        for s, rng, n, d, X, depth in self.problems(3):
            t = rng.normal(size=n)
            hess = rng.uniform(0.01, 0.25, n) if with_hess else None
            want = tree_reference.grow_tree(X, t, criterion="variance",
                                            hess=hess, max_depth=depth)
            got = grow(X, t, criterion="variance", hess=hess, max_depth=depth)
            np.testing.assert_allclose(got.predict(X), want.predict(X),
                                       rtol=0, atol=1e-12, err_msg=str(s))


def _many_valued_problem(rng, n, d):
    """Columns of about 0.8 n distinct values with some ties, but for a
    first column of a few levels when d > 1."""
    X = rng.integers(0, 2 * n, size=(n, d)) / 7.0
    if d > 1:
        X[:, 0] = rng.integers(0, 4, n) * 0.5
    return X


class TestGrowerMatchesColumnBincount:
    """The grower against the column-bincount one it replaced, whose every
    node counts all of a column's values: the trees are equal to the last
    bit, on float targets too."""

    PROBLEMS = 60

    def problems(self, seed, many_valued):
        rng = np.random.default_rng(seed)
        make = _many_valued_problem if many_valued else _tied_problem
        for s in range(self.PROBLEMS):
            n = int(rng.integers(5, 300))
            d = int(rng.integers(1, 7))
            yield s, rng, n, d, make(rng, n, d), [None, 2, 8][s % 3]

    @staticmethod
    def grow_both(X, y, seed=None, **kwargs):
        """[(tree, rng), (reference tree, its rng)] and the column values.
        Each grower draws from its own generator of the same seed, so the
        two rngs must end in one state."""
        values, codes = encode_columns(X)
        out = []
        for grow_fn in (grow_tree, tree_reference.bincount_grow_tree):
            rng = None if seed is None else np.random.default_rng(seed)
            out.append((grow_fn(codes, values, y, rng=rng, **kwargs), rng))
        return out, values

    @pytest.fixture
    def searches(self, monkeypatch):
        """The `vals` of each _best_cut call: a column's own values array,
        or the node's values when the node counts over those alone."""
        seen = []
        best_cut = trees._best_cut

        def spy(vals, *args):
            seen.append(vals)
            return best_cut(vals, *args)

        monkeypatch.setattr(trees, "_best_cut", spy)
        return seen

    @staticmethod
    def node_local_share(searches, values):
        node_local = [not any(v is col for col in values) for v in searches]
        return sum(node_local) / len(node_local)

    @pytest.mark.parametrize("many_valued", [False, True])
    @pytest.mark.parametrize("with_hess", [False, True])
    def test_variance_on_float_targets(self, searches, many_valued, with_hess):
        shares = []
        for s, rng, n, d, X, depth in self.problems(4, many_valued):
            t = rng.normal(size=n)
            hess = rng.uniform(0.01, 0.25, n) if with_hess else None
            searches.clear()
            ((got, _), (want, _)), values = self.grow_both(
                X, t, criterion="variance", hess=hess, max_depth=depth)
            assert got.as_dict() == want.as_dict(), s
            if depth is None and searches:
                shares.append(self.node_local_share(searches, values))
        if many_valued:  # most searches of a deep tree count node-local values
            assert np.median(shares) > 0.5

    @pytest.mark.parametrize("many_valued", [False, True])
    def test_gini_bootstrap_weights(self, searches, many_valued):
        shares = []
        for s, rng, n, d, X, depth in self.problems(5, many_valued):
            x = X[:, -1]
            y = (x + rng.normal(scale=x.std() + 0.5, size=n) > np.median(x)).astype(float)
            weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
            searches.clear()
            ((got, rng_new), (want, rng_ref)), values = self.grow_both(
                X, y, seed=[s, 1], criterion="gini", weight=weight,
                max_depth=depth, max_features=max(1, math.isqrt(d)))
            assert got.as_dict() == want.as_dict(), s
            assert rng_new.random() == rng_ref.random(), s
            if depth is None and searches:
                shares.append(self.node_local_share(searches, values))
        if many_valued:
            assert np.median(shares) > 0.5


class TestEncodeColumns:
    def test_codes_index_sorted_distinct_values(self):
        X = TestDeterminism().random_problem(7, n=50, d=3)[0].round(1)
        values, codes = encode_columns(X)
        assert codes.shape == X.shape and codes.dtype == np.int32
        for j, vals in enumerate(values):
            assert np.array_equal(vals, np.unique(X[:, j]))
            assert np.array_equal(vals[codes[:, j]], X[:, j])


class TestPredictMatchesLevelwise:
    """Row-set routing against the level-wise walk it replaced."""

    def trees(self, seed):
        rng = np.random.default_rng(seed)
        for s in range(30):
            n = int(rng.integers(5, 300))
            d = int(rng.integers(1, 7))
            X = _tied_problem(rng, n, d)
            depth = [None, 2, 8][s % 3]
            t = rng.normal(size=n)
            yield X, grow(X, t, criterion="variance", hess=rng.uniform(0.01, 0.25, n),
                          max_depth=depth)
            y = (X[:, -1] + rng.normal(size=n) > 1.0).astype(float)
            weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
            yield X, grow(X, y, criterion="gini", weight=weight, max_depth=depth,
                          max_features=max(1, math.isqrt(d)), rng=rng)

    @staticmethod
    def at_thresholds(tree, X, rng):
        """Rows of X with cells set to the tree's own thresholds, so that
        some rows sit exactly on a cut."""
        out = X[rng.integers(0, len(X), size=2 * len(X))]
        split = np.flatnonzero(tree.feature >= 0)
        if len(split):
            picks = split[rng.integers(0, len(split), size=out.shape)]
            hit = rng.random(out.shape) < 0.5
            for (i, k), node in np.ndenumerate(picks):
                if hit[i, k]:
                    out[i, tree.feature[node]] = tree.threshold[node]
        return out

    def test_bit_identical_on_training_rows_and_thresholds(self):
        rng = np.random.default_rng(99)
        at_cut = 0
        for X, tree in self.trees(5):
            on_cuts = self.at_thresholds(tree, X, rng)
            for rows in (X, on_cuts, X[:0]):
                got = tree.predict(rows)
                want = tree_reference.predict_levelwise(tree, rows)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
            at_cut += int(np.isin(on_cuts, tree.threshold[tree.feature >= 0]).any())
        assert at_cut > 40

    def test_single_leaf_tree(self):
        tree = grow(X6, np.full(6, 0.25), criterion="variance")
        assert tree.n_nodes == 1
        for rows in (X6, X6[:0]):
            assert np.array_equal(tree.predict(rows),
                                  tree_reference.predict_levelwise(tree, rows))

    def test_fit_gbt_trees_are_unchanged(self):
        """fit_gbt updates scores from the grower's leaf rows; the trees equal
        those of boosting on the level-wise predictions, through the same
        logistic that fit_gbt uses."""
        rng = np.random.default_rng(11)
        for _ in range(4):
            n, d = int(rng.integers(50, 300)), int(rng.integers(1, 6))
            X = _tied_problem(rng, n, d)
            y = (X[:, 0] + rng.normal(size=n) > 0).astype(float)
            params = {"n_trees": 15, "max_depth": 3, "learning_rate": 0.3}
            model = fit_gbt(X, y, params)
            F = np.full(n, model.base_score)
            values, codes = encode_columns(X)
            for got in model.trees:
                p = expit(F)
                raw = grow_tree(codes, values, y - p, criterion="variance",
                                hess=p * (1.0 - p), max_depth=3)
                want = replace(raw, value=raw.value * 0.3)
                assert got.as_dict() == want.as_dict()
                F = F + tree_reference.predict_levelwise(want, X)
