"""The batch feature kernel against the per-pair reference, bit for bit."""

import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from wifi_proximity import fileio
from wifi_proximity.cli import main
from wifi_proximity.fileio import DataError
from wifi_proximity.features import (
    FEATURE_NAMES,
    FeatureTable,
    PopularityIndex,
    PopularityIndexError,
    _WindowPopularity,
    _pearson_coefficient,
    extract_feature_matrix,
    extract_features,
    rssi_correlations,
)
from wifi_proximity.ingest import WifiScans as ScanTable, month_key, parse_wifi_log
from wifi_proximity.pairing import CandidateTable
from wifi_proximity.records import RSSI_MIN, TS_END, CandidatePair, OverlapView

from conftest import ap, mac, records_of, scan, to_array, world_conf
from feature_reference import _WindowUsers
from ingest_reference import scan_table_from_records
from oracles import oracle_popularity

T0 = 1601510400 - 600  # ten minutes before 2020-10-01 00:00 UTC


def reference_matrix(records, pairs, home_map, **kwargs):
    """extract_features row by row over (scan index a, scan index b, ts)."""
    index = PopularityIndex(records)
    rows = []
    for i, j, ts in pairs:
        pair = CandidatePair(records[i].user, records[j].user, records[i],
                             records[j], ts, 0)
        rows.append(to_array(extract_features(pair, index, home_map, **kwargs)))
    return np.array(rows).reshape(len(pairs), 16)


def batch_matrix(records, pairs, home_map, **kwargs):
    table = scan_table_from_records(records)
    a, b, ts = (np.array(col, dtype=np.int64).reshape(-1) for col in zip(*pairs))
    return extract_feature_matrix(table, a, b, ts, home_map, **kwargs)


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    diff = np.argwhere(got.view(np.int64) != want.view(np.int64))
    assert len(diff) == 0, [(int(r), int(c), got[r, c], want[r, c])
                            for r, c in diff[:5]]


@st.composite
def worlds(draw):
    """Scans over a small router pool with narrow RSSIs (many ties), the
    pairs to featurize, homes, and a time zone."""
    n_scans = draw(st.integers(2, 8))
    records = []
    for _ in range(n_scans):
        user = draw(st.sampled_from(["u0", "u1", "u2", "u3"]))
        ts = T0 + draw(st.integers(0, 1200))
        routers = draw(st.lists(st.integers(0, 31), unique=True, max_size=28))
        aps = [ap(i, draw(st.integers(-62, -55)), "dtu" if i % 5 == 0 else "")
               for i in routers]
        records.append(scan(user, ts, aps))
    order = [(i, j) for i in range(n_scans) for j in range(n_scans)
             if records[i].user < records[j].user]
    if not order:  # one user only: add a partner
        records.append(scan("u9", T0, [ap(0, -60)]))
        order = [(0, n_scans)]
    picks = draw(st.lists(st.sampled_from(order), min_size=1, max_size=6))
    pairs = [(i, j, min(records[i].ts, records[j].ts)) for i, j in picks]
    tz = draw(st.sampled_from([0, 3600, -7200]))
    home_map = {}
    for user in {rec.user for rec in records}:
        for ts in (T0, T0 + 1200):
            router = draw(st.integers(0, 40))
            home_map[(user, month_key(ts, tz))] = mac(router)
    return records, pairs, home_map, tz


@given(worlds(), st.sampled_from([60, 300, 900]))
@settings(max_examples=150, deadline=None)
def test_hypothesis_worlds_match_per_pair(world, window):
    records, pairs, home_map, tz = world
    kwargs = dict(tz_offset_s=tz, popularity_window_s=window)
    try:
        want = reference_matrix(records, pairs, home_map, **kwargs)
    except PopularityIndexError as exc:
        with pytest.raises(PopularityIndexError) as got:
            batch_matrix(records, pairs, home_map, **kwargs)
        assert str(got.value) == str(exc)
        return
    assert_bit_identical(batch_matrix(records, pairs, home_map, **kwargs), want)


def test_overlap_sizes_from_0_to_32_match_per_pair():
    rng = np.random.default_rng(41)
    records, pairs = [], []
    for k in range(400):
        n_common = k % 33
        common = rng.choice(64, size=n_common, replace=False)
        extra = rng.choice(np.arange(64, 96), size=2 * int(rng.integers(0, 4)),
                           replace=False)
        half = len(extra) // 2
        ts = T0 + int(rng.integers(0, 600))
        lo, hi = (-95, -20) if k % 2 else (-61, -58)  # wide, or full of ties
        rssi_a = rng.integers(lo, hi, size=n_common)
        rssi_b = rssi_a + rng.integers(-3, 4, size=n_common)  # correlated
        if k % 3 == 0:
            rssi_b = rng.integers(lo, hi, size=n_common)
        side_a = [ap(int(i), int(r)) for i, r in zip(common, rssi_a)]
        side_b = [ap(int(i), int(r)) for i, r in zip(common, rssi_b)]
        side_a += [ap(int(i), int(rng.integers(lo, hi))) for i in extra[:half]]
        side_b += [ap(int(i), int(rng.integers(lo, hi))) for i in extra[half:]]
        records += [scan("a", ts, side_a), scan("b", ts + 30, side_b)]
        pairs.append((2 * k, 2 * k + 1, ts))
    records.append(scan("c", T0, []))
    records.append(scan("d", T0, [ap(1, -50)]))
    pairs.append((len(records) - 2, len(records) - 1, T0))  # an empty scan
    want = reference_matrix(records, pairs, {})
    got = batch_matrix(records, pairs, {})
    assert_bit_identical(got, want)
    overlaps = got[:, 0]
    assert {0, 1, 2}.issubset(overlaps) and overlaps.max() >= 16
    # correlations are kept on some long overlaps
    assert not np.isnan(got[overlaps >= 16, 5]).all()


def correlation_columns(vectors):
    """(spearman, pearson) columns of extract_feature_matrix for pairs whose
    common routers read the given (a, b) RSSI vectors, router i reading
    a[i] and b[i]."""
    records = []
    for a, b in vectors:
        records += [scan("a", T0, [ap(i, int(r)) for i, r in enumerate(a)]),
                    scan("b", T0, [ap(i, int(r)) for i, r in enumerate(b)])]
    pairs = [(2 * k, 2 * k + 1, T0) for k in range(len(vectors))]
    got = batch_matrix(records, pairs, {})
    return got[:, FEATURE_NAMES.index("spearman")], got[:, FEATURE_NAMES.index("pearson")]


@st.composite
def rssi_vectors(draw):
    """3 to 40 RSSIs, in a band narrow enough for ties or wide, not all equal."""
    lo = draw(st.integers(-95, -22))
    hi = draw(st.integers(lo + 1, min(lo + 60, -20)))
    a = np.array(draw(st.lists(st.integers(lo, hi), min_size=3, max_size=40)))
    assume(a.min() < a.max())
    return a


@given(rssi_vectors(), st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_collinear_integer_rssis_correlate_exactly(a, slope, shift):
    b = slope * a
    b -= b.max() + shift  # an RSSI, at most 0
    want = float(np.sign(slope))
    assert _pearson_coefficient(a, b) == want
    spearman, pearson = correlation_columns([(a, b)])
    assert pearson[0] == want and spearman[0] == want


@given(rssi_vectors(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_permuting_the_common_routers_keeps_the_correlations_bits(a, random):
    rng = np.random.default_rng(random.getrandbits(32))
    b = a + rng.integers(-9, 10, size=len(a))
    perm = rng.permutation(len(a))
    bits = lambda r: np.float64(r).view(np.int64)
    assert bits(_pearson_coefficient(a[perm], b[perm])) == bits(_pearson_coefficient(a, b))
    got, want = correlation_columns([(a[perm], b[perm])]), correlation_columns([(a, b)])
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


def exact_r(a, b) -> float:
    """Pearson's r of two integer sequences from Python-int sums."""
    a, b, n = [int(x) for x in a], [int(x) for x in b], len(a)
    cov = n * sum(x * y for x, y in zip(a, b)) - sum(a) * sum(b)
    va = n * sum(x * x for x in a) - sum(a) ** 2
    vb = n * sum(y * y for y in b) - sum(b) ** 2
    return float(cov) / math.sqrt(float(va) * float(vb))


@pytest.mark.filterwarnings("error")
def test_a_pair_past_the_int64_bound_keeps_exact_sums():
    # 100,000 routers at the RSSI extremes: the doubled ranks' variance term
    # n·Σr² − (Σr)² is about 2.5e19, past int64's 9.2e18
    n = 100_000
    rng = np.random.default_rng(3)
    a = np.where(rng.random(n) < 0.5, RSSI_MIN, 0)
    b = np.where(rng.random(n) < 0.2, RSSI_MIN - a, a)
    ranks = lambda x: (2 * rankdata(x)).astype(np.int64)
    want = (exact_r(ranks(a), ranks(b)), exact_r(a, b))
    assert 0.3 < want[1] < 0.9
    view = OverlapView(common=tuple((mac(i), int(x), int(y))
                                    for i, (x, y) in enumerate(zip(a, b))),
                       only_a=0, only_b=0)
    assert rssi_correlations(view) == want
    assert _pearson_coefficient(a, b) == want[1]
    spearman, pearson = correlation_columns([(a, b)])
    assert (spearman[0], pearson[0]) == want


def test_low_popularity_raises_as_per_pair():
    # the interaction time is far from both scans, so neither counts
    records = [scan("u1", T0, [ap(1, -50), ap(2, -60)]),
               scan("u2", T0, [ap(1, -55), ap(2, -65)])]
    pairs = [(0, 1, T0), (0, 1, T0 + 5000)]
    with pytest.raises(PopularityIndexError) as want:
        reference_matrix(records, pairs, {})
    with pytest.raises(PopularityIndexError) as got:
        batch_matrix(records, pairs, {})
    assert str(got.value) == str(want.value)
    assert f"ts={T0 + 5000}" in str(got.value)


@st.composite
def popularity_cases(draw):
    """Scans of three users over three routers at a window's edges around
    a centre time, with repeat sightings, duplicated (user, ts) scans and
    scans without APs; the window; and query times at the centre, at its
    window's edges and one second past them, and before the first scan
    and after the last."""
    window = draw(st.sampled_from([1, 300, 3600, TS_END]))
    centre = draw(st.sampled_from([0, 10 ** 9, TS_END - 1] if window == TS_END else
                                  [window + 2, 10 ** 9, TS_END - window - 2]))
    edges = [-window - 1, -window, -window + 1, 0, window - 1, window, window + 1]
    offsets = st.one_of(st.sampled_from(edges), st.integers(-2 * window - 2, 2 * window + 2))

    def at(offset):
        return min(max(centre + offset, 0), TS_END - 1)

    def routers():
        return [ap(i, -50) for i in draw(st.lists(st.integers(0, 2), unique=True, max_size=3))]

    records = [scan(draw(st.sampled_from(["u0", "u1", "u2"])), at(draw(offsets)), routers())
               for _ in range(draw(st.integers(1, 10)))]
    for rec in draw(st.lists(st.sampled_from(records), max_size=3)):
        records.append(scan(rec.user, rec.ts, routers()))
    times = [rec.ts for rec in records]
    queries = [at(draw(offsets)) for _ in range(3)] + [at(0)]
    queries += [t for t in (min(times) - window - 1, max(times) + window + 1)
                if 0 <= t < TS_END]
    return records, window, queries


@given(popularity_cases())
@settings(max_examples=300, deadline=None)
def test_popularity_counts_distinct_users_as_the_oracle_does(case):
    records, window, queries = case
    table = scan_table_from_records(records)
    query_ts = np.array(queries, dtype=np.int64)
    code = np.repeat(np.arange(len(table.bssids)), len(queries))
    ts = np.tile(query_ts, len(table.bssids))
    popularity = _WindowPopularity(table, table.entry_rows(), query_ts, window)
    want = [oracle_popularity(records, table.bssids[b], t - window, t + window)
            for b, t in zip(code.tolist(), ts.tolist())]
    assert popularity.count(code, ts).tolist() == want


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, tiny_world):
    d = tmp_path_factory.mktemp("batch")
    conf = d / "world.conf"
    conf.write_text(world_conf(tiny_world))
    base = ["--dir", str(d), "--config", str(conf)]
    for stage in ("generate", "clean", "pair"):
        assert main([stage] + base) == 0, stage
    return d, base


def test_every_tiny_world_candidate_matches_per_pair(tiny_run):
    d, _ = tiny_run
    records = records_of(parse_wifi_log(fileio.iter_jsonl(d / "cleaned.jsonl")).records)
    row_of = {(rec.user, rec.ts): i for i, rec in enumerate(records)}
    homes = fileio.read_json(d / "home_routers.json", fileio.SCHEMA_HOMES)["homes"]
    home_map = {(h["user"], h["month"]): h["bssid"] for h in homes}
    _, _, cand = fileio.read_csv(d / "candidates.csv", fileio.SCHEMA_CANDIDATES)
    pairs = [(row_of[(r[0], int(r[2]))], row_of[(r[1], int(r[3]))], int(r[4]))
             for r in cand]
    assert len(pairs) > 1000
    want = reference_matrix(records, pairs, home_map)
    assert_bit_identical(batch_matrix(records, pairs, home_map), want)


def run_hash(d):
    return fileio.read_json(d / "home_routers.json", fileio.SCHEMA_HOMES)["config_hash"]


def test_featurize_low_popularity_exits_3_without_features(tiny_run, tmp_path, capsys):
    src, src_base = tiny_run
    for name in ("scans.npz", "home_routers.json"):
        (tmp_path / name).write_bytes((src / name).read_bytes())
    h = run_hash(src)
    n_scans = len(ScanTable.load(src / "scans.npz", h).ts)
    cands = CandidateTable.load(src / "candidates.npz", h, n_scans)
    k = np.flatnonzero(cands.label == 0)[-1]  # a negative: it shares a router
    cands.ts[k] += 10 ** 6  # far from both scans
    cands.save(tmp_path / "candidates.npz", h, n_scans)
    assert main(["featurize", "--dir", str(tmp_path)] + src_base[2:]) == 3
    assert "has popularity 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "candidates.npz", "home_routers.json", "scans.npz"]


def test_featurize_missing_scan_exits_3_without_features(tiny_run, tmp_path):
    src, src_base = tiny_run
    for name in ("candidates.npz", "home_routers.json"):
        (tmp_path / name).write_bytes((src / name).read_bytes())
    records = records_of(parse_wifi_log(fileio.iter_jsonl(src / "cleaned.jsonl")).records)
    cands = CandidateTable.load(src / "candidates.npz", run_hash(src), len(records))
    row = cands.row_a[len(cands.ts) // 2]
    kept = records[:row] + records[row + 1:]
    scan_table_from_records(kept).save(tmp_path / "scans.npz", run_hash(src))
    base = ["--dir", str(tmp_path)] + src_base[2:]
    assert main(["featurize"] + base) == 3
    for name in ("features.npz", "features.csv"):
        assert not (tmp_path / name).exists()
        assert not (tmp_path / (name + ".tmp")).exists()


def assert_same_table(got, want):
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, list):
            assert type(a) is list and a == b, field.name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name


@pytest.fixture(scope="module")
def tiny_tables(tiny_run):
    """The tiny world's scan, candidate and feature tables, as pair and
    featurize build them."""
    d, _ = tiny_run
    scans = ScanTable.load(d / "scans.npz", run_hash(d))
    cands = CandidateTable.load(d / "candidates.npz", run_hash(d), len(scans))
    homes = fileio.read_json(d / "home_routers.json", fileio.SCHEMA_HOMES)["homes"]
    home_map = {(h["user"], h["month"]): h["bssid"] for h in homes}
    X = extract_feature_matrix(scans, cands.row_a, cands.row_b, cands.ts, home_map)
    return scans, cands, FeatureTable(X, cands.label, cands.ts, cands.bt_rssi)


def scan_count(table) -> tuple:
    """What save and load take after the hash: for a candidate table, the
    rows of the smallest scan table that holds its scans."""
    if not isinstance(table, CandidateTable):
        return ()
    return (1 + int(max(table.row_a.max(initial=0), table.row_b.max(initial=0))),)


def saved_and_loaded(table, path, h="abc123abc123"):
    """table written by its save and read back by its load."""
    table.save(path, h, *scan_count(table))
    return type(table).load(path, h, *scan_count(table))


@pytest.mark.parametrize("table_of", [
    lambda tiny: scan_table_from_records([]),
    lambda tiny: scan_table_from_records(
        [scan("u1\x00", 10, [ap(3, -50, "dtu\x00"), ap(1, -61, "caf\u00e9 \u2615")]),
         scan("u1", 10, []),
         scan("\u00fc2", 5, [ap(1, -70, "")])]),
    lambda tiny: scan_table_from_records(
        [scan("u1", 0, [ap(1, 0), ap(2, RSSI_MIN)]), scan("u2", TS_END - 1, [])]),
    lambda tiny: tiny[0],
    lambda tiny: CandidateTable.concatenate([]),
    lambda tiny: tiny[1],
    lambda tiny: FeatureTable(np.empty((0, len(FEATURE_NAMES))), np.empty(0, np.int64),
                              np.empty(0, np.int64), np.empty(0)),
    lambda tiny: tiny[2],
], ids=["zero_scans", "nul_and_non_ascii", "ts_and_rssi_at_their_bounds",
        "scans_tiny_world", "candidates_zero_rows",
        "candidates_tiny_world", "features_zero_rows", "features_tiny_world"])
def test_scan_file_round_trips(tmp_path, tiny_tables, table_of):
    table = table_of(tiny_tables)
    got = saved_and_loaded(table, tmp_path / "table.npz")
    assert_same_table(got, table)
    if isinstance(table, ScanTable) and table.users[:1] == ["u1\x00"]:
        assert got.users == ["u1\x00", "u1", "\u00fc2"]
        assert "dtu\x00" in got.ssids and "caf\u00e9 \u2615" in got.ssids


@pytest.mark.parametrize("fault,message", [
    ("missing", "arrays "), ("extra", "arrays "), ("dtype", " is not a 1-d "),
    ("rank", " is not a 1-d "), ("length", "array lengths disagree"),
], ids=["missing", "extra", "dtype", "rank", "length"])
@pytest.mark.parametrize("kind,array", [(0, "rssi"), (1, "bt_rssi"), (2, "label")],
                         ids=["scans", "candidates", "features"])
def test_table_archives_reject_arrays_off_their_fields(tmp_path, tiny_tables, kind, array,
                                                       fault, message):
    """load_table's checks, on every table: the archive holds exactly the
    table's arrays, each of its field's dtype and rank, and each length
    group has one length. The error names the file."""
    table = tiny_tables[kind]
    path = tmp_path / "table.npz"
    table.save(path, "abc123abc123", *scan_count(table))
    with np.load(path) as archive:
        arrays = dict(archive)
    header = json.loads(arrays.pop("header").tobytes())
    column = arrays.pop(array)
    if fault == "extra":
        arrays["extra"], arrays[array] = column, column
    elif fault == "dtype":
        arrays[array] = column.astype(np.float32)
    elif fault == "rank":
        arrays[array] = column[:, None]
    elif fault == "length":
        arrays[array] = column[:-1]
    fileio.write_npz(path, header.pop("schema"), header.pop("config_hash"), header, arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        type(table).load(path, "abc123abc123", *scan_count(table))


def test_scan_file_of_the_tiny_world_is_its_cleaned_scans(tiny_run):
    src, _ = tiny_run
    records = records_of(parse_wifi_log(fileio.iter_jsonl(src / "cleaned.jsonl")).records)
    assert_same_table(ScanTable.load(src / "scans.npz", run_hash(src)),
                      scan_table_from_records(records))


@pytest.mark.parametrize("corrupt", [
    lambda t: {"offsets": t.offsets[:-1]},
    lambda t: {"offsets": t.offsets + 1},
    lambda t: {"offsets": np.concatenate([t.offsets[:-1], t.offsets[-1:] - 1])},
    lambda t: {"offsets": np.array([0, 4, 3], dtype=np.int64)},
    lambda t: {"user": t.user[:-1]},
    lambda t: {"ssid": t.ssid[1:]},
    lambda t: {"user": np.full_like(t.user, len(t.users))},
    lambda t: {"bssid": t.bssid - 1},
    lambda t: {"ssid": t.ssid + len(t.ssids)},
    lambda t: {"rssi": t.rssi.astype(np.int64)},
    lambda t: {"ts": t.ts.reshape(1, -1)},
    lambda t: {"users": [1] * len(t.users)},
    lambda t: {"bssid": t.bssid[[1, 0, 2]]},
    lambda t: {"bssid": t.bssid[[0, 0, 2]]},
    lambda t: {"bssids": t.bssids[::-1]},
    lambda t: {"users": [t.users[0]] * len(t.users)},
    lambda t: {"bssids": [t.bssids[0]] * len(t.bssids)},
    lambda t: {"ssids": [t.ssids[0]] * len(t.ssids)},
    lambda t: {"ts": np.full_like(t.ts, -1)},
    lambda t: {"ts": np.full_like(t.ts, TS_END)},
    lambda t: {"rssi": np.full_like(t.rssi, 1)},
], ids=["offsets_short", "offsets_from_1", "offsets_end", "offsets_falling",
        "user_short", "ssid_short", "user_code", "bssid_code", "ssid_code",
        "rssi_dtype", "ts_2d", "users_not_str", "row_out_of_order",
        "bssid_repeated_in_row", "bssids_unsorted", "users_repeat", "bssids_repeat",
        "ssids_repeat", "ts_negative", "ts_end", "rssi_positive"])
def test_scan_file_rejects_inconsistent_tables(tmp_path, corrupt):
    records = [scan("u1", 10, [ap(1, -50, "a"), ap(2, -60, "b")]),
               scan("u2", 20, [ap(2, -55, "b")])]
    table = scan_table_from_records(records)
    replace(table, **corrupt(table)).save(tmp_path / "scans.npz", "h")
    with pytest.raises(DataError):
        ScanTable.load(tmp_path / "scans.npz", "h")


@pytest.mark.parametrize("blob", [b"", b"not an archive", b"PK\x03\x04" + b"\0" * 40],
                         ids=["empty", "text", "zip_magic"])
def test_scan_file_rejects_unreadable_archives(tmp_path, blob):
    (tmp_path / "scans.npz").write_bytes(blob)
    with pytest.raises(DataError):
        ScanTable.load(tmp_path / "scans.npz")


@pytest.mark.parametrize("window", [1, 300, TS_END])
def test_popularity_of_every_tiny_world_query_is_the_replaced_count(tiny_run, window):
    d, _ = tiny_run
    table = ScanTable.load(d / "scans.npz", run_hash(d))
    cands = CandidateTable.load(d / "candidates.npz", run_hash(d), len(table.ts))
    cp, ea, _ = table.common(cands.row_a, cands.row_b)
    code, ts = table.bssid[ea], cands.ts[cp]
    rows = table.entry_rows()
    got = _WindowPopularity(table, rows, cands.ts, window).count(code, ts)
    replaced = _WindowUsers(table, rows, cands.ts, window)
    # in slices: the replaced count gathers every sighting of every window
    want = np.concatenate([replaced.count(code[lo:lo + 1024], ts[lo:lo + 1024])
                           for lo in range(0, len(code), 1024)])
    assert len(code) > 1000
    assert got.tolist() == want.tolist()


def test_largest_delta_t_counts_each_router_over_the_whole_log(tiny_run, tmp_path):
    # popularity keys span the query times, so TS_END, the largest
    # delta_t_s, keeps them within int64
    src, src_base = tiny_run
    for name in ("wifi.jsonl", "bluetooth.jsonl"):
        (tmp_path / name).write_bytes((src / name).read_bytes())
    base = ["--dir", str(tmp_path)] + src_base[2:] + ["--delta-t", str(TS_END)]
    for stage in ("clean", "pair", "featurize", "report"):
        assert main([stage] + base) == 0, stage
    h = run_hash(tmp_path)
    table = ScanTable.load(tmp_path / "scans.npz", h)
    cands = CandidateTable.load(tmp_path / "candidates.npz", h, len(table.ts))
    X = FeatureTable.load(tmp_path / "features.npz", h).X
    records = records_of(table)
    users_of = {}
    for rec in records:
        for a in rec.aps:
            users_of.setdefault(a.bssid, set()).add(rec.user)
    columns = [FEATURE_NAMES.index(name)
               for name in ("min_popularity", "max_popularity", "adamic_adar")]
    assert len(cands.ts) > 1000
    for i, (a, b) in enumerate(zip(cands.row_a.tolist(), cands.row_b.tolist())):
        common = sorted(records[a].bssids() & records[b].bssids())
        pops = [len(users_of[bssid]) for bssid in common]
        adamic_adar = 0.0
        for p in pops:
            adamic_adar += 1.0 / np.log(p)
        want = [min(pops), max(pops), adamic_adar] if pops else [0, 0, 0.0]
        assert X[i, columns].tolist() == want, i
