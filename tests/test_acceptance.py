"""Acceptance gate: ten checks covering oracle equivalence, algebraic
invariants, the end-to-end synthetic experiment, and reproducibility.

Each criterion is one test, so `pytest -v tests/test_acceptance.py`
reports exactly one pass/fail line per criterion. Criteria 5-8 and 10
share one full-size pipeline run (default world: 200 users, 500
routers, 7 days) built once per module in a temporary directory.
"""

import time

import numpy as np
import pytest
from scipy import stats

from wifi_proximity import fileio
from wifi_proximity.cli import main
from wifi_proximity.evaluation import auc_roc, learning_curve
from wifi_proximity.features import (
    FEATURE_NAMES,
    FeatureTable,
    PopularityIndex,
    apply_imputation,
    extract_features,
    fit_imputation,
)
from wifi_proximity.ingest import filter_ambiguous_macs
from wifi_proximity.models import (
    feature_importance,
    fit_model,
    fit_threshold,
    load_model,
)
from wifi_proximity.pairing import split_indices
from wifi_proximity.records import CandidatePair

from conftest import ap, mac, random_pair, records_of, scan, scans_of
from ingest_reference import ambiguous_macs, collect_ssid_sets
from oracles import oracle_auc, oracle_best_f1, oracle_features, oracle_month
from synthgen_reference import load_ground_truth

INT_EXACT = {"overlap", "non_overlap", "union", "top_ap", "top_ap_6db",
             "hour_of_week", "min_popularity", "max_popularity",
             "at_home", "at_campus"}


def _random_case(rng, k):
    """A candidate pair plus the background records and homes that the
    feature extractor needs, with campus SSIDs and homes mixed in."""
    pair = random_pair(rng, label=int(rng.random() < 0.4),
                       campus_ssid="dtu" if k % 3 == 0 else None)
    records = [pair.scan_a, pair.scan_b]
    for j in range(12):
        ts = pair.ts + int(rng.integers(-400, 401))
        idx = rng.choice(40, size=int(rng.integers(0, 6)), replace=False)
        records.append(scan(f"bg{j}", ts, [ap(int(i), -70) for i in idx]))
    month = oracle_month(pair.ts)
    home_map = {}
    for user, sc in ((pair.user_a, pair.scan_a), (pair.user_b, pair.scan_b)):
        if sc.aps and rng.random() < 0.5:
            home_map[(user, month)] = sc.aps[int(rng.integers(len(sc.aps)))].bssid
        else:
            home_map[(user, month)] = mac(999)
    return pair, records, home_map


def _default_split(n):
    """The half/half split the train stage uses under default settings."""
    train_count = max(1, min(n - 1, int(round(0.5 * n))))
    return split_indices(n, train_count, 0)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One pipeline run on the default world, timed end to end."""
    d = tmp_path_factory.mktemp("full_world")
    base = ["--dir", str(d)]
    t0 = time.monotonic()
    for stage in ("generate", "clean", "pair", "featurize"):
        assert main([stage] + base) == 0, stage
    for fs in ("FULL", "SIMPLE", "NEARME"):
        assert main(["train"] + base + ["--featureset", fs]) == 0, fs
        assert main(["evaluate"] + base + ["--featureset", fs]) == 0, fs
    assert main(["report"] + base) == 0
    return d, time.monotonic() - t0


def test_01_features_match_brute_force_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for k in range(1000):
        pair, records, home_map = _random_case(rng, k)
        vec = extract_features(pair, PopularityIndex(records), home_map)
        want = oracle_features(pair, records, home_map)
        for name in FEATURE_NAMES:
            got = getattr(vec, name)
            if name in ("spearman", "pearson"):
                if got is None or want[name] is None:
                    assert got is None and want[name] is None, (k, name)
                else:
                    assert abs(got - want[name]) <= 1e-9, (k, name)
            elif name in INT_EXACT:
                assert got == want[name], (k, name)
            else:
                assert abs(got - want[name]) <= 1e-9, (k, name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"1000-pair oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 1000 pairs, 16 features within 1e-9, {elapsed:.1f}s")


def test_02_metric_oracles():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(2, 1001))
        y = rng.integers(0, 2, n)
        while y.min() == y.max():
            y = rng.integers(0, 2, n)
        if k % 2:
            s = rng.integers(-5, 6, n).astype(float) / 2.0  # force heavy ties
        else:
            s = rng.normal(size=n)
        worst = max(worst, abs(auc_roc(s, y) - oracle_auc(s.tolist(), y.tolist())))
    assert worst <= 1e-12, worst

    for k in range(200):
        n = int(rng.integers(4, 151))
        y = rng.integers(0, 2, n)
        while y.min() == y.max():
            y = rng.integers(0, 2, n)
        if k % 2:
            s = rng.integers(0, 12, n).astype(float)
        else:
            s = rng.normal(size=n)
        clf = fit_threshold(s, y)
        want = oracle_best_f1(s.tolist(), y.tolist())
        assert abs(clf.train_f1 - want) <= 1e-12, (k, clf.train_f1, want)
    print(f"criterion 2 PASS: auc within {worst:.2e} of pair counting on 200 sets, "
          "train F1 matches exhaustive sweep on 200 sets")


def test_03_algebraic_invariants_and_symmetry():
    rng = np.random.default_rng(3003)
    for k in range(10000):
        pair = random_pair(rng, label=k % 2,
                           campus_ssid="dtu" if k % 5 == 0 else None)
        month = oracle_month(pair.ts)
        home_map = {(pair.user_a, month): mac(1), (pair.user_b, month): mac(999)}
        index = PopularityIndex([pair.scan_a, pair.scan_b])
        v = extract_features(pair, index, home_map)
        assert v.overlap + v.non_overlap == v.union
        assert abs(v.jaccard * v.union - v.overlap) <= 1e-9
        assert v.euclidean <= v.manhattan + 1e-12
        assert v.top_ap_6db >= v.top_ap
        swapped = CandidatePair(
            user_a=pair.user_a, user_b=pair.user_b,
            scan_a=scan(pair.user_a, pair.scan_b.ts, pair.scan_b.aps),
            scan_b=scan(pair.user_b, pair.scan_a.ts, pair.scan_a.aps),
            ts=pair.ts, label=pair.label, bt_rssi=pair.bt_rssi)
        swapped_homes = {
            (pair.user_a, month): home_map[(pair.user_b, month)],
            (pair.user_b, month): home_map[(pair.user_a, month)]}
        assert extract_features(swapped, index, swapped_homes) == v, k
    print("criterion 3 PASS: invariants and swap symmetry on 10000 candidates")


def test_04_imputation_preserves_training_means():
    sp, pe = FEATURE_NAMES.index("spearman"), FEATURE_NAMES.index("pearson")
    train = np.zeros((4, len(FEATURE_NAMES)))
    train[:, sp] = [1.0, 0.2, np.nan, np.nan]   # mean of observed = 0.6
    train[:, pe] = [0.3, np.nan, 0.3, np.nan]   # mean of observed = 0.3
    state = fit_imputation(train)
    assert state.spearman_mean == 0.6
    assert state.pearson_mean == 0.3
    test = np.zeros((2, len(FEATURE_NAMES)))
    test[:, sp] = [np.nan, -0.5]
    test[:, pe] = [0.9, np.nan]
    out = apply_imputation(test, state)
    assert out[0, sp] == 0.6 and out[1, pe] == 0.3   # exact stored means
    assert out[1, sp] == -0.5 and out[0, pe] == 0.9  # observed untouched
    print("criterion 4 PASS: stored training means are applied verbatim")


def test_05_end_to_end_default_world(default_run):
    d, elapsed = default_run
    _, _, rows = fileio.read_csv(d / "candidates.csv", fileio.SCHEMA_CANDIDATES)
    n_cand = len(rows)
    share = sum(int(r[5]) for r in rows) / n_cand
    report = fileio.read_json(d / "report.json", fileio.SCHEMA_REPORT)
    jac = report["single_features"]["jaccard"]["test_auc"]
    aucs = {}
    for fs in ("full", "simple", "nearme"):
        doc = fileio.read_json(d / f"eval_{fs}_gbt.json", fileio.SCHEMA_EVAL)
        aucs[fs] = doc["test"]["auc"]

    assert 1e5 <= n_cand <= 3e5, n_cand
    assert 0.21 <= share <= 0.41, share
    assert jac >= 0.75, jac
    assert aucs["full"] >= jac, (aucs["full"], jac)
    assert aucs["simple"] >= aucs["nearme"] - 0.01, aucs
    assert elapsed < 600.0, elapsed
    print(f"criterion 5 PASS: {n_cand} candidates ({share:.1%} positive), "
          f"jaccard auc {jac:.4f}, full {aucs['full']:.4f}, "
          f"simple {aucs['simple']:.4f} vs nearme {aucs['nearme']:.4f}, "
          f"{elapsed:.0f}s")


def test_06_learning_curve_saturates(default_run):
    d, _ = default_run
    feats = FeatureTable.load(d / "features.npz")
    X, y = feats.X, feats.label
    train_idx, test_idx = _default_split(len(y))
    curve = learning_curve(X[train_idx], y[train_idx], X[test_idx], y[test_idx],
                           sizes=(100, 1000, 10000), kinds=("gbt",),
                           repetitions=20, seed=0)
    med = [curve["gbt"][s]["median"] for s in (100, 1000, 10000)]
    assert med[1] >= med[0] - 0.01, med
    assert med[2] >= med[1] - 0.01, med
    full = fileio.read_json(d / "eval_full_gbt.json", fileio.SCHEMA_EVAL)
    gain = full["test"]["auc"] - med[2]
    assert gain < 0.02, (full["test"]["auc"], med)
    print(f"criterion 6 PASS: medians {[round(m, 4) for m in med]}, "
          f"gain to full {gain:+.4f}")


def test_07_miss_rate_falls_with_bt_signal(default_run):
    d, _ = default_run
    doc = fileio.read_json(d / "eval_full_gbt.json", fileio.SCHEMA_EVAL)
    bins = doc["test"]["miss_rate_by_bt_rssi"]
    assert len(bins) >= 3, "too few populated rssi bins to test a trend"
    centers = [(b["lo"] + b["hi"]) / 2.0 for b in bins]
    rates = [b["miss_rate"] for b in bins]
    res = stats.spearmanr(centers, rates)
    assert res.statistic < 0, res
    assert res.pvalue < 0.05, res
    print(f"criterion 7 PASS: spearman {res.statistic:.3f} over {len(bins)} bins, "
          f"p {res.pvalue:.2e}")


def test_08_importance_normalized_and_jaccard_ranks_high(default_run):
    d, _ = default_run
    model, _ = load_model(d / "model_full_gbt.json")
    imp = feature_importance(model)
    assert abs(sum(imp.values()) - 1.0) <= 1e-9

    feats = FeatureTable.load(d / "features.npz")
    X, y = feats.X, feats.label
    train_idx, _ = _default_split(len(y))
    Xp, yp = X[train_idx], y[train_idx]
    rng = np.random.default_rng(808)
    hits = 0
    for r in range(30):
        idx = rng.choice(len(yp), size=10000, replace=False)
        state = fit_imputation(Xp[idx])
        m = fit_model("gbt", apply_imputation(Xp[idx], state), yp[idx],
                      seed=r, feature_names=FEATURE_NAMES,
                      featureset="FULL")
        w = feature_importance(m)
        assert abs(sum(w.values()) - 1.0) <= 1e-9
        top4 = sorted(w, key=w.get, reverse=True)[:4]
        hits += "jaccard" in top4
    assert hits >= 24, hits
    print(f"criterion 8 PASS: importance sums to 1, jaccard in top 4 in "
          f"{hits}/30 rounds")


def test_09_same_seed_runs_are_byte_identical(tmp_path):
    conf = tmp_path / "world.conf"
    conf.write_text(
        "world.n_users = 40\nworld.n_routers = 120\nworld.days = 2\n"
        "world.n_buildings = 2\nworld.n_venues = 2\nworld.area_m = 1200.0\n")

    def run_all(sub, jobs):
        sub.mkdir()
        base = ["--dir", str(sub), "--config", str(conf),
                "--seed", "3", "--jobs", str(jobs)]
        for stage in ("generate", "clean", "pair", "featurize",
                      "train", "evaluate", "report"):
            assert main([stage] + base) == 0, (stage, jobs)

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_all(a, jobs=8)
    run_all(b, jobs=8)
    run_all(c, jobs=1)
    names = ["wifi.jsonl", "bluetooth.jsonl", "ground_truth.jsonl",
             "cleaned.jsonl", "scans.npz", "cleaning_report.json",
             "home_routers.json", "candidates.csv", "features.csv",
             "model_full_gbt.json", "eval_full_gbt.json", "report.json",
             "candidates.npz", "features.npz"]
    for name in names:
        blob = (a / name).read_bytes()
        assert blob == (b / name).read_bytes(), f"{name} differs between runs"
        assert blob == (c / name).read_bytes(), f"{name} differs serial vs parallel"
    print(f"criterion 9 PASS: {len(names)} artifacts byte-identical across "
          "two jobs=8 runs and one jobs=1 run")


def test_10_ambiguity_filter_and_home_recovery(default_run):
    # (a) a constructed log where exactly two MACs cross the 5-SSID line
    bad0, bad1 = mac(0), mac(1)
    records = []
    for j in range(7):
        aps = [ap(0, -60, ssid=f"net{min(j, 4)}"),       # 5 distinct ssids
               ap(1, -62, ssid=f"m{j}"),                 # 7 distinct ssids
               ap(2, -64, ssid=f"ok{j % 4}"),            # 4: below the line
               ap(3, -66)]                               # single blank ssid
        records.append(scan(f"u{j % 2}", 1000 + 100 * j, aps))
    assert ambiguous_macs(collect_ssid_sets(records)) == {bad0, bad1}
    scans, rep = filter_ambiguous_macs(scans_of(records))
    filtered = records_of(scans)
    assert rep.ambiguous_macs == 2
    assert rep.removed_observations == 14
    assert rep.total_observations == 28
    for before, after in zip(records, filtered):
        assert after.user == before.user and after.ts == before.ts
        want = tuple(a for a in before.aps if a.bssid not in (bad0, bad1))
        assert after.aps == want

    # (b) detected homes against the generator's planted ones
    d, _ = default_run
    truth = load_ground_truth(d / "ground_truth.jsonl")
    doc = fileio.read_json(d / "home_routers.json", fileio.SCHEMA_HOMES)
    ok = {}
    for e in doc["homes"]:
        hit = truth.homes.get(e["user"]) == e["bssid"]
        ok[e["user"]] = ok.get(e["user"], True) and hit
    recovered = sum(ok.get(u, False) for u in truth.homes) / len(truth.homes)
    assert recovered >= 0.95, recovered
    print(f"criterion 10 PASS: filter removed exactly the planted MACs, "
          f"home recovery {recovered:.1%}")
