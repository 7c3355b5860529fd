"""The 16 pairwise features against brute-force oracles, plus imputation."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr, stdtrit

from wifi_proximity.features import (
    FEATURE_NAMES,
    FeatureVector,
    ImputationState,
    PopularityIndex,
    PopularityIndexError,
    _significant_rows,
    apply_imputation,
    correlation_p,
    extract_features,
    fit_imputation,
    hour_of_week,
    model_matrix,
    rssi_correlations,
    rssi_distances,
    top_ap_features,
)
from wifi_proximity.records import CandidatePair, OverlapView, intersect

import matrix_reference
from conftest import ap, mac, random_pair, scan, to_array
from oracles import oracle_features, oracle_hour_of_week, oracle_popularity

INT_FEATURES = {"overlap", "non_overlap", "union", "top_ap", "top_ap_6db",
                "hour_of_week", "min_popularity", "max_popularity",
                "at_home", "at_campus"}


def make_background(rng, pair, n_extra=30):
    """Records to build a PopularityIndex from: the pair's own scans plus
    extra users hitting the same router pool near the interaction time."""
    records = [pair.scan_a, pair.scan_b]
    for k in range(n_extra):
        ts = pair.ts + int(rng.integers(-400, 401))
        n = int(rng.integers(0, 6))
        idx = rng.choice(40, size=n, replace=False)
        records.append(scan(f"bg{k}", ts, [ap(int(i), -70) for i in idx]))
    return records


def make_home_map(rng, pair):
    """Each user's home is one of their own routers half the time."""
    from oracles import oracle_month
    month = oracle_month(pair.ts)
    home_map = {}
    for user, sc in ((pair.user_a, pair.scan_a), (pair.user_b, pair.scan_b)):
        if sc.aps and rng.random() < 0.5:
            pick = sc.aps[int(rng.integers(0, len(sc.aps)))].bssid
            home_map[(user, month)] = pick
        else:
            home_map[(user, month)] = mac(999)
    return home_map


def assert_matches_oracle(vec, expected):
    for name in FEATURE_NAMES:
        got = getattr(vec, name)
        want = expected[name]
        if name in ("spearman", "pearson"):
            if want is None or got is None:
                assert got is None and want is None, (name, got, want)
            else:
                assert got == pytest.approx(want, abs=1e-9), name
        elif name in INT_FEATURES:
            assert got == want, (name, got, want)
        else:
            assert got == pytest.approx(want, abs=1e-9), name


class TestFeatureOracle:
    def test_200_random_pairs_match(self):
        rng = np.random.default_rng(17)
        for k in range(200):
            pair = random_pair(rng, label=int(rng.random() < 0.4),
                               campus_ssid="dtu" if k % 3 == 0 else None)
            records = make_background(rng, pair)
            home_map = make_home_map(rng, pair)
            popularity = PopularityIndex(records)
            vec = extract_features(pair, popularity, home_map)
            expected = oracle_features(pair, records, home_map)
            assert_matches_oracle(vec, expected)

    def test_correlations_match_oracle_on_500_views(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 500:
            n = int(rng.integers(3, 21))
            common = tuple((mac(i), int(rng.integers(-95, 0)),
                            int(rng.integers(-95, 0))) for i in range(n))
            view = OverlapView(common=common, only_a=0, only_b=0)
            xs = [r_a for _, r_a, _ in common]
            ys = [r_b for _, _, r_b in common]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            from scipy import stats
            sp, pe = rssi_correlations(view)
            r_p, p_p = stats.pearsonr(xs, ys)
            r_s, p_s = stats.spearmanr(xs, ys)
            want_p = float(r_p) if p_p < 0.05 else None
            want_s = float(r_s) if p_s < 0.05 else None
            if want_p is None:
                assert pe is None
            else:
                assert pe == pytest.approx(want_p, abs=1e-9)
            if want_s is None:
                assert sp is None
            else:
                assert sp == pytest.approx(want_s, abs=1e-9)
            checked += 1


class TestCorrelationDiscipline:
    def view(self, xs, ys):
        return OverlapView(common=tuple((mac(i), x, y)
                                        for i, (x, y) in enumerate(zip(xs, ys))),
                           only_a=0, only_b=0)

    def test_fewer_than_three_common_is_missing(self):
        assert rssi_correlations(self.view([-50, -60], [-55, -65])) == (None, None)
        assert rssi_correlations(self.view([], [])) == (None, None)

    def test_zero_variance_either_side_is_missing(self):
        assert rssi_correlations(self.view([-50] * 5, [-50, -60, -70, -40, -30])) \
            == (None, None)
        assert rssi_correlations(self.view([-50, -60, -70, -40, -30], [-9] * 5)) \
            == (None, None)

    def test_perfect_correlation_is_significant(self):
        sp, pe = rssi_correlations(self.view([-70, -60, -50], [-72, -62, -52]))
        assert sp == 1.0 and pe == 1.0

    def test_insignificant_coefficient_dropped(self):
        # three nearly-uncorrelated points: p is far above 0.05
        sp, pe = rssi_correlations(self.view([-70, -60, -50], [-60, -70, -58]))
        assert sp is None and pe is None


def scipy_p(t, df):
    """The oracle: scipy's two-sided Student-t p-value, 2 stdtr(df, -t).
    At df = 1 it is the Cauchy closed form atan(1/t) / (pi/2) below
    t = 1e-5 and above t = 1e150, where scipy's value is off: by up to
    4e-9 relative below (against mpmath at 40 digits), and 0 once t^2
    overflows."""
    t, df = np.broadcast_arrays(t, df)
    cauchy = np.arctan2(1.0, t) / (np.pi / 2)
    return np.where((df == 1) & ((t < 1e-5) | (t > 1e150)), cauchy, 2.0 * stdtr(df, -t))


def scipy_p_of_r(r, n):
    """scipy_p of the t that r gives over n points: |r| sqrt(df / (1 - r^2))
    with df = n - 2, and 1 - r^2 taken as (1 - |r|)(1 + |r|); 0 at |r| = 1."""
    r, n = np.broadcast_arrays(np.abs(r), n)
    q = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore"):
        t = r * np.sqrt((n - 2) / q)
    return np.where(q == 0.0, 0.0, scipy_p(t, n - 2))


class TestTwoSidedP:
    N = np.arange(3, 2003)[:, None]
    R = np.concatenate([[0.0], np.geomspace(1e-8, 0.5, 100),
                        1.0 - np.geomspace(0.5, 2.0 ** -52, 150)[1:],
                        [np.nextafter(1.0, 0.0), 1.0]])

    def test_matches_scipy_for_df_up_to_2000(self):
        got = correlation_p(self.R, self.N)
        want = scipy_p_of_r(self.R, self.N)
        assert (got[:, 0] == 1.0).all() and (got[:, -1] == 0.0).all()
        assert np.array_equal(correlation_p(-self.R, self.N), got)
        shown = want >= 1e-300
        np.testing.assert_allclose(got[shown], want[shown], rtol=1e-11, atol=0)
        assert got[~shown].max() < 2e-300

    def test_nan_r_is_nan_for_any_n(self):
        p = correlation_p([[np.nan, 0.5], [np.nan, np.nan]], [1, 5])
        assert np.isnan(p[:, 0]).all() and np.isnan(p[1, 1])
        assert p[0, 1] == pytest.approx(float(scipy_p_of_r(0.5, 5)), rel=1e-11)

    def test_a_value_does_not_depend_on_its_batch(self):
        rng = np.random.default_rng(5)
        r = np.concatenate([self.R, -self.R])[rng.integers(0, 2 * len(self.R), 400)]
        n = rng.integers(3, 2003, 400)
        batch = correlation_p(r, n)
        assert [float(correlation_p(x, k)) for x, k in zip(r, n)] == batch.tolist()

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 0.01, 0.05, 0.5, 0.999])
    def test_keeps_and_drops_as_scipy_does(self, alpha):
        """_significant_rows keeps r exactly where scipy's p is below alpha,
        outside a 1e-11 relative band around alpha. Each overlap size's r
        is probed densely around its critical value."""
        n = np.arange(3, 203)[:, None]
        t_crit = -stdtrit(n - 2, alpha / 2)
        r_crit = t_crit / np.sqrt(n - 2 + t_crit ** 2)
        steps = np.geomspace(1e-14, 0.1, 60)
        r = np.clip(r_crit * np.concatenate([1.0 - steps, [1.0], 1.0 + steps]), -1.0, 1.0)
        r = np.hstack([r, -r])
        kept = ~np.isnan(_significant_rows(r, n, alpha))
        q = 1.0 - r * r
        with np.errstate(divide="ignore"):
            t = np.abs(r) * np.sqrt((n - 2) / q)
        want = np.where(q <= 0.0, 0.0, scipy_p(t, n - 2))
        outside = np.abs(want - alpha) > 1e-11 * alpha
        assert kept[outside].any() and not kept[outside].all()
        assert np.array_equal(kept[outside], want[outside] < alpha)


class TestDistances:
    def test_zero_overlap_gives_zeros(self):
        assert rssi_distances(OverlapView((), 3, 4)) == (0.0, 0.0)

    def test_hand_example(self):
        view = OverlapView(common=((mac(1), -50, -53), (mac(2), -60, -56)),
                           only_a=0, only_b=0)
        man, euc = rssi_distances(view)
        assert man == pytest.approx((3 + 4) / 2)
        assert euc == pytest.approx(5 / 2)

    @given(st.lists(st.tuples(st.integers(-95, -1), st.integers(-95, -1)),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_euclidean_never_exceeds_manhattan(self, pairs):
        view = OverlapView(common=tuple((mac(i), a, b)
                                        for i, (a, b) in enumerate(pairs)),
                           only_a=0, only_b=0)
        man, euc = rssi_distances(view)
        assert euc <= man + 1e-12


class TestTopAp:
    def test_shared_strongest_router(self):
        a = scan("a", 0, [ap(1, -40), ap(2, -70)])
        b = scan("b", 0, [ap(1, -45), ap(3, -80)])
        assert top_ap_features(a, b) == (1, 1)

    def test_different_strongest_but_within_6db(self):
        a = scan("a", 0, [ap(1, -40), ap(2, -44)])
        b = scan("b", 0, [ap(2, -50), ap(3, -90)])
        top, near = top_ap_features(a, b)
        assert top == 0 and near == 1

    def test_top_ap_implies_top_ap_6db(self):
        rng = np.random.default_rng(5)
        from conftest import random_scan
        for _ in range(300):
            a = random_scan(rng, "a", 0)
            b = random_scan(rng, "b", 0)
            top, near = top_ap_features(a, b)
            assert top <= near

    def test_empty_scans_give_zero(self):
        a = scan("a", 0, [])
        b = scan("b", 0, [ap(1, -50)])
        assert top_ap_features(a, b) == (0, 0)

    def test_tied_maxima_count(self):
        a = scan("a", 0, [ap(1, -40), ap(2, -40)])
        b = scan("b", 0, [ap(2, -40), ap(3, -40)])
        assert top_ap_features(a, b)[0] == 1


class TestHourOfWeek:
    @given(st.integers(0, 2_000_000_000), st.sampled_from([0, 3600, -7200, 7200]))
    @settings(max_examples=200, deadline=None)
    def test_matches_datetime_oracle(self, ts, tz):
        assert hour_of_week(ts, tz) == oracle_hour_of_week(ts, tz)

    def test_monday_midnight_is_zero(self):
        assert hour_of_week(1600041600) == 0  # 2020-09-14 was a Monday

    def test_range(self):
        rng = np.random.default_rng(1)
        hows = [hour_of_week(int(t)) for t in rng.integers(0, 2 ** 31, 500)]
        assert all(0 <= h <= 167 for h in hows)


class TestPopularity:
    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(8)
        records = []
        for k in range(200):
            n = int(rng.integers(0, 5))
            idx = rng.choice(15, size=n, replace=False)
            records.append(scan(f"u{int(rng.integers(0, 12))}",
                                int(rng.integers(0, 5000)),
                                [ap(int(i), -70) for i in idx]))
        index = PopularityIndex(records)
        for _ in range(100):
            b = mac(int(rng.integers(0, 15)))
            lo = int(rng.integers(0, 4500))
            hi = lo + int(rng.integers(0, 1000))
            assert index.count_users(b, lo, hi) == oracle_popularity(records, b, lo, hi)

    def test_window_bounds_inclusive(self):
        records = [scan("u1", 100, [ap(1, -50)]), scan("u2", 200, [ap(1, -50)])]
        index = PopularityIndex(records)
        assert index.count_users(mac(1), 100, 200) == 2
        assert index.count_users(mac(1), 101, 200) == 1
        assert index.count_users(mac(1), 100, 199) == 1

    def test_unknown_bssid_is_zero(self):
        index = PopularityIndex([])
        assert index.count_users(mac(1), 0, 100) == 0

    def test_low_popularity_flags_index_mismatch(self):
        # index built without the pair's own scans: common router appears
        # to have <2 users, which can only be a pipeline wiring bug
        pair = CandidatePair("u1", "u2", scan("u1", 100, [ap(1, -50)]),
                             scan("u2", 100, [ap(1, -55)]), 100, 0)
        index = PopularityIndex([scan("u9", 100, [ap(1, -60)])])
        with pytest.raises(PopularityIndexError):
            extract_features(pair, index, {})


class TestInvariants:
    """Algebraic relations that hold for every candidate."""

    def test_bulk_random_candidates(self):
        rng = np.random.default_rng(30)
        for _ in range(400):
            pair = random_pair(rng, label=int(rng.random() < 0.4))
            records = make_background(rng, pair, n_extra=5)
            vec = extract_features(pair, PopularityIndex(records), {})
            assert vec.overlap + vec.non_overlap == vec.union
            assert vec.jaccard * vec.union == pytest.approx(vec.overlap)
            assert vec.euclidean <= vec.manhattan + 1e-12
            assert vec.top_ap <= vec.top_ap_6db
            assert 0 <= vec.hour_of_week <= 167
            assert vec.min_popularity <= vec.max_popularity

    def test_symmetry_under_scan_swap(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pair = random_pair(rng)
            records = make_background(rng, pair, n_extra=5)
            home_map = make_home_map(rng, pair)
            swapped = CandidatePair(
                user_a=pair.user_a, user_b=pair.user_b,
                scan_a=scan(pair.user_a, pair.scan_b.ts, pair.scan_b.aps),
                scan_b=scan(pair.user_b, pair.scan_a.ts, pair.scan_a.aps),
                ts=pair.ts, label=pair.label, bt_rssi=pair.bt_rssi)
            # homes swap with the scans so at_home sees the same union
            swapped_homes = {
                (pair.user_a, m): b for (u, m), b in home_map.items()
                if u == pair.user_b}
            swapped_homes.update({
                (pair.user_b, m): b for (u, m), b in home_map.items()
                if u == pair.user_a})
            index = PopularityIndex(records)
            v1 = extract_features(pair, index, home_map)
            v2 = extract_features(swapped, index, swapped_homes)
            assert v1 == v2


class TestImputation:
    def matrix(self, spearman_col, pearson_col):
        n = len(spearman_col)
        m = np.zeros((n, len(FEATURE_NAMES)))
        m[:, FEATURE_NAMES.index("spearman")] = spearman_col
        m[:, FEATURE_NAMES.index("pearson")] = pearson_col
        return m

    def test_hand_set_means(self):
        train = self.matrix([0.5, 0.7, np.nan], [0.2, np.nan, 0.4])
        state = fit_imputation(train)
        assert state.spearman_mean == pytest.approx(0.6)
        assert state.pearson_mean == pytest.approx(0.3)
        assert state.n_missing_spearman == 1 and state.n_missing_pearson == 1

    def test_training_means_applied_at_test_time(self):
        train = self.matrix([0.5, 0.7], [0.1, 0.3])
        state = fit_imputation(train)
        test = self.matrix([np.nan, 0.9, np.nan], [np.nan, np.nan, 0.8])
        out = apply_imputation(test, state)
        s, p = FEATURE_NAMES.index("spearman"), FEATURE_NAMES.index("pearson")
        assert out[0, s] == pytest.approx(0.6) and out[2, s] == pytest.approx(0.6)
        assert out[1, s] == pytest.approx(0.9)   # present values untouched
        assert out[0, p] == pytest.approx(0.2) and out[1, p] == pytest.approx(0.2)
        assert out[2, p] == pytest.approx(0.8)
        assert not np.isnan(out).any()
        # the input is not mutated
        assert np.isnan(test[0, s])

    def test_state_round_trips_as_dict(self):
        state = ImputationState(0.25, -0.5, 3, 7)
        assert ImputationState(**asdict(state)) == state

    def test_all_missing_column_filled_with_zero(self):
        train = self.matrix([np.nan, np.nan], [0.1, 0.2])
        state = fit_imputation(train)
        assert (state.spearman_mean, state.n_missing_spearman) == (0.0, 2)
        assert (state.pearson_mean, state.n_missing_pearson) == (pytest.approx(0.15), 0)
        col = FEATURE_NAMES.index("spearman")
        assert (apply_imputation(train, state)[:, col] == 0.0).all()

    def test_nan_outside_correlations_rejected(self):
        train = self.matrix([0.5, 0.7], [0.1, 0.3])
        state = fit_imputation(train)
        bad = self.matrix([0.5], [0.1])
        bad[0, FEATURE_NAMES.index("jaccard")] = np.nan
        with pytest.raises(ValueError, match="outside"):
            apply_imputation(bad, state)


@st.composite
def matrix_cases(draw):
    """(X, train rows, gathered rows, names, NaN cell or None): finite
    features with drawn missing correlations, one of them possibly missing
    on every train row, and possibly a NaN outside the correlation columns
    in a gathered cell."""
    n = draw(st.integers(1, 10))
    X = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * len(FEATURE_NAMES),
                               max_size=n * len(FEATURE_NAMES)))).reshape(n, -1)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    k = draw(st.integers(1, n))
    train_rows = perm[:k]
    for name in ("spearman", "pearson"):
        col = FEATURE_NAMES.index(name)
        X[draw(st.lists(st.booleans(), min_size=n, max_size=n)), col] = np.nan
    if draw(st.booleans()):
        X[train_rows, FEATURE_NAMES.index(draw(st.sampled_from(["spearman", "pearson"])))] = np.nan
    rows = train_rows if k == n or draw(st.booleans()) else perm[k:]
    names = draw(st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, unique=True))
    others = [name for name in names if name not in ("spearman", "pearson")]
    cell = None
    if others and draw(st.booleans()):
        cell = (draw(st.sampled_from(rows.tolist())),
                FEATURE_NAMES.index(draw(st.sampled_from(others))))
        X[cell] = np.nan
    return X, train_rows, rows, names, cell


class TestModelMatrix:
    @settings(max_examples=300, deadline=None)
    @given(matrix_cases())
    def test_equals_the_whole_matrix_imputed_then_selected(self, case):
        """Bit for bit: imputing every row, selecting the named columns and
        taking the rows, as train and evaluate did; a NaN outside the
        correlation columns raises in both."""
        X, train_rows, rows, names, cell = case
        state = fit_imputation(X, train_rows)
        assert repr(state) == repr(matrix_reference.fit_imputation(X[train_rows]))
        if cell is not None:
            for build in (lambda: model_matrix(X, rows, names, state),
                          lambda: matrix_reference.evaluate_matrix(X, rows, names, state)):
                with pytest.raises(ValueError, match="outside"):
                    build()
            return
        got = model_matrix(X, rows, names, state)
        want = matrix_reference.evaluate_matrix(X, rows, names, state)
        assert got.flags.f_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_a_correlation_missing_on_every_train_row_is_zero(self):
        X = np.ones((3, len(FEATURE_NAMES)))
        X[:2, FEATURE_NAMES.index("pearson")] = np.nan
        state = fit_imputation(X, np.array([1, 0]))
        assert (state.pearson_mean, state.n_missing_pearson) == (0.0, 2)
        out = model_matrix(X, np.array([0, 2]), ["pearson", "jaccard"], state)
        assert out.tolist() == [[0.0, 1.0], [1.0, 1.0]]


class TestVectorLayout:
    def test_to_array_order_and_nan(self):
        vec = FeatureVector(overlap=2, non_overlap=1, union=3, jaccard=2 / 3,
                            spearman=None, pearson=None, manhattan=1.0,
                            euclidean=0.5, top_ap=1, top_ap_6db=1,
                            hour_of_week=10, min_popularity=2, max_popularity=5,
                            adamic_adar=1.1, at_home=0, at_campus=1)
        arr = to_array(vec)
        assert len(arr) == 16
        assert arr[FEATURE_NAMES.index("overlap")] == 2
        assert math.isnan(arr[FEATURE_NAMES.index("spearman")])
        assert arr[FEATURE_NAMES.index("at_campus")] == 1
