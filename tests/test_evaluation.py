"""AUC, precision/recall, stratified reporting, and the learning curve."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import rankdata

from wifi_proximity.evaluation import (
    BtRssiBin,
    StratumResult,
    _auc_or_none,
    auc_roc,
    iso_week_key,
    learning_curve,
    midranks,
    miss_rate_vs_bt_rssi,
    prf_at_threshold,
    stratified_report,
    tercile_assignment,
)
from wifi_proximity.features import FEATURE_NAMES
from wifi_proximity.models import ThresholdClassifier, fit_threshold

from oracles import oracle_auc


def greater(threshold):
    return ThresholdClassifier("s", threshold, "greater-is-positive", 0.0)


class TestAuc:
    def test_worked_example(self):
        # (0.35>0.1) + (0.8>0.1) + (0.8>0.4) = 3 of 4 pos-neg pairs
        assert auc_roc([0.1, 0.35, 0.4, 0.8], [0, 1, 0, 1]) == pytest.approx(0.75)

    def test_ties_count_half(self):
        assert auc_roc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_random_sets_match_pair_counting(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 80))
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc_roc(scores, labels) == pytest.approx(
                oracle_auc(scores.tolist(), labels.tolist()), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_perfect_and_inverted(self):
        assert auc_roc([0.9, 0.1], [1, 0]) == pytest.approx(1.0)
        assert auc_roc([0.1, 0.9], [1, 0]) == pytest.approx(0.0)

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc_roc([0.1, np.nan, 0.9], [1, 0, 1]))


# few distinct values, so that ties are common; NaN and the signed zeros
score_lists = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, np.inf, -np.inf, np.nan]) |
                  st.floats(allow_nan=False), max_size=40)


class TestMidranks:
    @settings(max_examples=300, deadline=None)
    @given(values=score_lists)
    @example(values=[0.3])
    @example(values=[])
    @example(values=[1.0, 1.0, 1.0])
    @example(values=[0.5, np.nan, 0.5])
    def test_match_scipy_rankdata(self, values):
        got, want = midranks(values), rankdata(values)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(values=score_lists, labels=st.lists(st.integers(0, 1), min_size=40, max_size=40))
    def test_auc_matches_rankdata_bit_for_bit(self, values, labels):
        labels = np.array(labels[:len(values)])
        if len(set(labels.tolist())) < 2:
            return
        pos = labels == 1
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        want = float((rankdata(values)[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                     / (n_pos * n_neg))
        assert np.array_equal(auc_roc(values, labels), want, equal_nan=True)


class TestPrf:
    def test_confusion_matrix_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            scores = rng.random(n)
            labels = rng.integers(0, 2, size=n)
            thr = float(rng.random())
            res = prf_at_threshold(scores, labels, greater(thr))
            pred = scores > thr
            tp = int((pred & (labels == 1)).sum())
            fp = int((pred & (labels == 0)).sum())
            fn = int((~pred & (labels == 1)).sum())
            assert (res.tp, res.fp, res.fn) == (tp, fp, fn)
            if tp + fp:
                assert res.precision == pytest.approx(tp / (tp + fp))
            else:
                assert res.precision == 0.0 and res.zero_predicted
            if tp + fn:
                assert res.recall == pytest.approx(tp / (tp + fn))

    def test_f1_harmonic_mean(self):
        res = prf_at_threshold([0.9, 0.9, 0.1], [1, 0, 1], greater(0.5))
        # precision 1/2, recall 1/2
        assert res.f1 == pytest.approx(0.5)


class TestTerciles:
    def test_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 10, 100, 101, 1000):
            t = tercile_assignment(rng.random(n))
            counts = [int((t == k).sum()) for k in range(3)]
            assert max(counts) - min(counts) <= 1

    def test_order_respected(self):
        vals = np.array([5.0, 1.0, 9.0, 2.0, 7.0, 3.0])
        t = tercile_assignment(vals)
        assert t[np.argsort(vals)].tolist() == [0, 0, 1, 1, 2, 2]


class TestIsoWeek:
    def test_matches_datetime(self):
        from datetime import datetime, timezone
        rng = np.random.default_rng(4)
        for ts in rng.integers(0, 2_000_000_000, 50):
            y, w, _ = datetime.fromtimestamp(int(ts), tz=timezone.utc).isocalendar()
            assert iso_week_key(int(ts)) == f"{y}-W{w:02d}"


class TestStratifiedReport:
    def build(self, n=300, seed=5):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        scores = np.clip(labels * 0.4 + rng.random(n) * 0.6, 0, 1)
        union = rng.integers(1, 30, size=n)
        campus = rng.integers(0, 2, size=n)
        hours = rng.integers(0, 168, size=n)
        ts = rng.integers(1_600_000_000, 1_602_000_000, size=n)
        return scores, labels, union, campus, hours, ts

    def test_per_stratum_auc_recomputed_standalone(self):
        scores, labels, union, campus, hours, ts = self.build()
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=union, at_campus=campus,
                                hours=hours, ts=ts)
        terciles = tercile_assignment(union)
        for k, stratum in enumerate(rep.strata["union_tercile"]):
            m = terciles == k
            assert stratum.n == int(m.sum())
            assert stratum.auc == pytest.approx(auc_roc(scores[m], labels[m]))
        for stratum in rep.strata["at_campus"]:
            m = campus == (1 if stratum.key == "on_campus" else 0)
            assert stratum.auc == pytest.approx(auc_roc(scores[m], labels[m]))

    def test_single_class_stratum_reported_as_undefined(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        labels = np.array([0, 1, 0, 1])
        campus = np.array([0, 0, 0, 1])  # on-campus stratum is all-positive
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=np.array([1, 2, 3, 4]),
                                at_campus=campus,
                                hours=np.zeros(4), ts=np.zeros(4, dtype=int))
        by_key = {s.key: s for s in rep.strata["at_campus"]}
        assert by_key["on_campus"].auc is None
        assert by_key["on_campus"].n == 1  # present, not dropped

    def test_tercile_edges_cover_groups(self):
        scores, labels, union, campus, hours, ts = self.build(seed=6)
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=union, at_campus=campus,
                                hours=hours, ts=ts)
        edges = rep.tercile_edges
        assert edges[0][0] == union.min() and edges[2][1] == union.max()
        assert edges[0][1] <= edges[1][0] and edges[1][1] <= edges[2][0]

    def test_fewer_rows_than_terciles_rejected(self):
        with pytest.raises(ValueError, match="terciles"):
            stratified_report(np.array([0.2, 0.8]), np.array([0, 1]),
                              classifier=greater(0.5), union_sizes=np.array([1, 2]),
                              at_campus=np.zeros(2), hours=np.zeros(2),
                              ts=np.zeros(2, dtype=int))

    def test_as_dict_serializes(self):
        scores, labels, union, campus, hours, ts = self.build(seed=7, n=50)
        bt = np.where(labels == 1, -60.0, np.nan)
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=union, at_campus=campus,
                                hours=hours, ts=ts, bt_rssi=bt)
        d = rep.as_dict()
        assert d["n"] == 50
        assert isinstance(d["strata"]["week"], list)
        assert d["miss_rate_by_bt_rssi"] is not None


def reference_strata(scores, labels, keys):
    """The per-row grouping stratified_report replaced: one mask over every
    row per distinct key."""
    out = []
    for key in sorted(set(keys)):
        m = np.array([k == key for k in keys])
        out.append(StratumResult(
            key=str(key), n=int(m.sum()), n_pos=int(labels[m].sum()),
            auc=_auc_or_none(scores[m], labels[m])))
    return tuple(out)


def reference_terciles(scores, labels, union):
    """Union terciles and their edges, one mask per tercile code."""
    codes = tercile_assignment(union)
    strata, edges = [], []
    for k, key in enumerate(("tercile_small", "tercile_mid", "tercile_large")):
        m = codes == k
        strata.append(StratumResult(key=key, n=int(m.sum()), n_pos=int(labels[m].sum()),
                                    auc=_auc_or_none(scores[m], labels[m])))
        edges.append((float(union[m].min()), float(union[m].max())))
    return tuple(strata), tuple(edges)


def reference_miss_rate(scores, labels, bt_rssi, classifier):
    """The 5 dB bins of the positives that carry an RSSI, one mask per bin."""
    keep = (labels == 1) & ~np.isnan(bt_rssi)
    if not keep.any():
        return None
    missed = classifier.predict(scores[keep]) == 0
    lo_of = np.floor(bt_rssi[keep] / 5) * 5
    bins = []
    for lo in sorted(set(lo_of.tolist())):
        m = lo_of == lo
        bins.append(BtRssiBin(lo=int(lo), hi=int(lo) + 5, n=int(m.sum()),
                              missed=int(missed[m].sum())))
    return tuple(bins)


# 2020-12-31 is in ISO week 2020-W53 and 2021-01-04 starts 2021-W01
NEW_YEAR_TS = (1609372800 - 5 * 86400, 1609718400 + 9 * 86400)


@st.composite
def report_case(draw):
    n = draw(st.integers(3, 40))  # a row per union tercile at least
    column = lambda elements: np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    labels = column(st.integers(0, 1))
    labels[:2] = [0, 1]
    scores = column(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
    campus = column(st.sampled_from([0.0, 1.0]))
    # half-hours too, so that two values can share a key
    hours = column(st.integers(0, 2 * 167).map(lambda k: k / 2))
    ts = column(st.integers(*NEW_YEAR_TS)).astype(np.int64)
    tz_offset_s = draw(st.sampled_from([0, 3600, -3600, 86399, -86399])
                       | st.integers(-86399, 86399))
    # few sizes, so that ties straddle the tercile cuts
    union = column(st.integers(1, 6))
    # on and just off the 5 dB bin edges; NaN on negatives and on some positives
    bt_rssi = column(st.sampled_from([-65.0, -60.000001, -60.0, -59.999999, -55.0])
                     | st.floats(-100.0, -1.0))
    bt_rssi[(labels == 0) | column(st.booleans())] = np.nan
    return scores, labels, campus, hours, ts, tz_offset_s, union, bt_rssi


class TestStrataMatchPerRowReference:
    @given(report_case())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis(self, case):
        scores, labels, campus, hours, ts, tz_offset_s, union, bt_rssi = case
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=union, at_campus=campus,
                                hours=hours, ts=ts, tz_offset_s=tz_offset_s,
                                bt_rssi=bt_rssi)
        strata, edges = reference_terciles(scores, labels, union)
        assert rep.strata["union_tercile"] == strata
        assert rep.tercile_edges == edges
        assert rep.miss_rate_by_bt_rssi == reference_miss_rate(
            scores, labels, bt_rssi, greater(0.5))
        assert rep.strata["at_campus"] == reference_strata(
            scores, labels, ["on_campus" if c else "off_campus" for c in campus])
        assert rep.strata["week"] == reference_strata(
            scores, labels, [iso_week_key(int(t), tz_offset_s) for t in ts])
        assert rep.strata["hour_of_week"] == reference_strata(
            scores, labels, [f"how_{int(h):03d}" for h in hours])

    def test_week_strata_span_the_iso_year_boundary(self):
        ts = np.array([1609372800, 1609372800 + 3 * 86400, 1609718400, 1609718400])
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        labels = np.array([0, 1, 0, 1])
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=np.arange(4), at_campus=np.zeros(4),
                                hours=np.zeros(4), ts=ts, tz_offset_s=-3600)
        # an hour west of UTC, midnight on 2021-01-04 is still Sunday in W53
        assert [(s.key, s.n) for s in rep.strata["week"]] == [("2020-W53", 4)]
        rep = stratified_report(scores, labels, classifier=greater(0.5),
                                union_sizes=np.arange(4), at_campus=np.zeros(4),
                                hours=np.zeros(4), ts=ts)
        assert [(s.key, s.n, s.auc) for s in rep.strata["week"]] == [
            ("2020-W53", 2, 1.0), ("2021-W01", 2, 1.0)]


class TestMissRate:
    def test_hand_binning(self):
        scores = np.array([0.9, 0.1, 0.9, 0.1, 0.9])
        rssi = np.array([-62, -63, -78, -51, -90])
        bins = miss_rate_vs_bt_rssi(scores, rssi, greater(0.5))
        by_lo = {b.lo: b for b in bins}
        assert set(by_lo) == {-65, -80, -55, -90}
        assert by_lo[-65].n == 2 and by_lo[-65].missed == 1
        assert by_lo[-65].miss_rate == pytest.approx(0.5)
        assert by_lo[-90].missed == 0
        assert all(b.hi == b.lo + 5 for b in bins)

    def test_empty_input(self):
        assert miss_rate_vs_bt_rssi([], [], greater(0.5)) == ()


class TestLearningCurve:
    def pool(self, seed=8, n=800):
        # canonical 16-wide matrix: the curve fits imputation per subsample,
        # which targets the spearman/pearson columns
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, len(FEATURE_NAMES)))
        y = (expit(2 * X[:, 0]) > rng.random(n)).astype(float)
        for name in ("spearman", "pearson"):
            col = FEATURE_NAMES.index(name)
            X[rng.random(n) < 0.2, col] = np.nan
        return X, y

    def test_shapes_and_stats(self):
        X, y = self.pool()
        out = learning_curve(X[:600], y[:600], X[600:], y[600:],
                             sizes=(50, 150), kinds=("gbt",),
                             params_by_kind={"gbt": {"n_trees": 5, "max_depth": 2}},
                             repetitions=4, seed=0)
        assert set(out) == {"gbt"}
        assert set(out["gbt"]) == {50, 150}
        cell = out["gbt"][150]
        assert len(cell["aucs"]) == 4
        assert cell["median"] == pytest.approx(float(np.median(cell["aucs"])))
        assert cell["q25"] <= cell["median"] <= cell["q75"]

    def test_deterministic(self):
        X, y = self.pool(seed=9)
        kw = dict(sizes=(60,), kinds=("gbt",),
                  params_by_kind={"gbt": {"n_trees": 3, "max_depth": 2}},
                  repetitions=3, seed=1)
        a = learning_curve(X[:500], y[:500], X[500:], y[500:], **kw)
        b = learning_curve(X[:500], y[:500], X[500:], y[500:], **kw)
        assert a == b

    def test_parallel_matches_serial(self):
        # jobs is accepted and ignored: the fits run on one thread
        X, y = self.pool(seed=10)
        kw = dict(sizes=(60,), kinds=("gbt",),
                  params_by_kind={"gbt": {"n_trees": 3, "max_depth": 2}},
                  repetitions=3, seed=1)
        a = learning_curve(X[:500], y[:500], X[500:], y[500:], jobs=1, **kw)
        b = learning_curve(X[:500], y[:500], X[500:], y[500:], jobs=4, **kw)
        assert a == b

    def test_oversized_request_rejected(self):
        X, y = self.pool()
        with pytest.raises(ValueError):
            learning_curve(X[:100], y[:100], X[100:], y[100:], sizes=(101,))


class TestThresholdIntegration:
    def test_fit_threshold_feeds_report(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, size=200)
        scores = labels * 0.5 + rng.random(200) * 0.5
        clf = fit_threshold(scores, labels, "model_score")
        rep = stratified_report(scores, labels, classifier=clf,
                                union_sizes=rng.integers(1, 20, 200),
                                at_campus=rng.integers(0, 2, 200),
                                hours=rng.integers(0, 168, 200),
                                ts=rng.integers(0, 10 ** 9, 200))
        assert rep.threshold == clf.threshold
        assert rep.f1 == pytest.approx(clf.train_f1)
