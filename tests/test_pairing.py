"""Hour windows, candidate generation, and train/test splitting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairing_reference as reference
from ingest_reference import scan_table_from_records
from pairing_reference import BluetoothSighting
from wifi_proximity import fileio, pairing
from wifi_proximity.cli import main
from wifi_proximity.ingest import BluetoothSightings, parse_bluetooth_log, parse_wifi_log
from wifi_proximity.pairing import WINDOW_S, build_hour_windows, split_indices
from wifi_proximity.records import CandidatePair

from conftest import ap, records_of, scan, sightings_of, world_conf


def bt(user, ts, peer=None, mac=None, rssi=-60):
    return BluetoothSighting(user=user, ts=ts, peer=peer, mac=mac, rssi=rssi)


def sighting_table(sightings) -> BluetoothSightings:
    """The table parse_bluetooth_log makes of these sightings' log lines."""
    lines = [json.dumps({"user": s.user, "ts": s.ts, "seen": [
        {"peer": s.peer, "rssi": s.rssi} if s.peer else {"mac": s.mac, "rssi": s.rssi}]})
        for s in sightings]
    return parse_bluetooth_log(enumerate(lines, start=1), strict=True).records


def coded_sightings(sightings, users) -> BluetoothSightings:
    """The sightings between two of users, coded as indices into users:
    the form generate_candidates takes."""
    code = {user: i for i, user in enumerate(users)}
    kept = [s for s in sightings if s.user in code and s.peer in code]
    return BluetoothSightings(
        list(users), np.array([code[s.user] for s in kept], dtype=np.int32),
        np.array([code[s.peer] for s in kept], dtype=np.int32),
        np.array([s.ts for s in kept], dtype=np.int64),
        np.array([s.rssi for s in kept], dtype=np.int16))


def window_sets(windows, users) -> list[tuple[int, frozenset]]:
    """Each window as its start and the set of its active users' ids."""
    return [(start, frozenset(users[u] for u in active.tolist()))
            for start, active in windows]


def table_candidates(wifi, sightings, delta_t, rows=None):
    """pairing.generate_candidates over the scans ``rows`` of wifi (all of
    them by default), each candidate as the CandidatePair of its scans."""
    table = scan_table_from_records(wifi)
    rows = range(len(wifi)) if rows is None else rows
    return candidate_pairs(wifi, pairing.generate_candidates(
        table, np.array(rows, dtype=np.int64), coded_sightings(sightings, table.users),
        delta_t))


def candidate_pairs(wifi, cands) -> list[CandidatePair]:
    """The CandidatePair of each row of a CandidateTable over wifi's scans."""
    return [
        CandidatePair(wifi[a].user, wifi[b].user, wifi[a], wifi[b], ts, label,
                      None if np.isnan(bt_rssi) else int(bt_rssi))
        for a, b, ts, label, bt_rssi in zip(cands.row_a.tolist(), cands.row_b.tolist(),
                                            cands.ts.tolist(), cands.label.tolist(),
                                            cands.bt_rssi.tolist())
    ]


def generate_candidates(wifi, sightings, delta_t):
    return table_candidates(wifi, sightings, delta_t)


def brute_windows(sightings):
    """Naive per-hour set construction, independent of build_hour_windows."""
    hours = sorted({(s.ts // WINDOW_S) * WINDOW_S for s in sightings
                    if s.peer is not None})
    out = []
    for h in hours:
        inside = [s for s in sightings
                  if s.peer is not None and h <= s.ts < h + WINDOW_S]
        active = {s.user for s in inside} & {s.peer for s in inside}
        if active:
            out.append((h, frozenset(active)))
    return out


def hour_windows(sightings) -> list[tuple[int, frozenset]]:
    """build_hour_windows over these sightings, as window_sets."""
    table = sighting_table(sightings)
    return window_sets(build_hour_windows(table), table.users)


class TestHourWindows:
    def test_random_sightings_match_brute_force(self):
        rng = np.random.default_rng(3)
        users = [f"u{i}" for i in range(8)]
        sightings = []
        for _ in range(400):
            u, p = rng.choice(len(users), size=2, replace=False)
            peer = users[p] if rng.random() < 0.9 else None
            m = None if peer else "ff:ee:dd:00:00:01"
            sightings.append(bt(users[u], int(rng.integers(0, 6 * WINDOW_S)),
                                peer=peer, mac=m))
        assert hour_windows(sightings) == brute_windows(sightings)

    def test_active_needs_both_saw_and_was_seen(self):
        # u1 sees u2; u2 never scans anyone, u1 is never seen
        assert hour_windows([bt("u1", 100, peer="u2")]) == []

    def test_mutual_pair_is_active(self):
        windows = hour_windows([bt("u1", 100, peer="u2"), bt("u2", 150, peer="u1")])
        assert windows == [(0, {"u1", "u2"})]

    def test_nonparticipant_sightings_ignored(self):
        assert hour_windows([bt("u1", 100, mac="ff:ee:dd:00:00:01"),
                             bt("u2", 100, mac="ff:ee:dd:00:00:02")]) == []

    def test_windows_align_to_the_hour(self):
        windows = hour_windows([
            bt("u1", WINDOW_S + 5, peer="u2"), bt("u2", 2 * WINDOW_S - 1, peer="u1")])
        assert [start for start, _ in windows] == [WINDOW_S]

    def test_window_of_users_without_scans_counts(self):
        # u2 and u3 are active at hour 1 but have no scans: their window
        # counts, and yields no candidates
        wifi = [scan("u1", 100, [ap(1, -50)]), scan("u2", 150, [ap(1, -60)])]
        sightings = sighting_table([bt("u1", 100, peer="u2"), bt("u2", 120, peer="u1"),
                                    bt("u3", WINDOW_S + 5, peer="u4"),
                                    bt("u4", WINDOW_S + 9, peer="u3")])
        windows, cands = pairing.pair_windows(scan_table_from_records(wifi), sightings)
        assert [start for start, _ in windows] == [0, WINDOW_S]
        assert cands.row_a.tolist() == [0] and cands.label.tolist() == [1]


class TestGenerateCandidates:
    def test_positive_pair_with_bt_support(self):
        wifi = [scan("u1", 1000, [ap(1, -50)]), scan("u2", 1100, [ap(2, -60)])]
        sightings = [bt("u1", 1050, peer="u2", rssi=-55)]
        out = generate_candidates(wifi, sightings, delta_t=300)
        assert len(out) == 1
        c = out[0]
        assert c.label == 1 and c.bt_rssi == -55
        assert (c.user_a, c.user_b) == ("u1", "u2")
        assert c.ts == 1000  # min of the two scan timestamps

    def test_negative_needs_common_router(self):
        wifi = [scan("u1", 1000, [ap(1, -50)]), scan("u2", 1100, [ap(2, -60)])]
        assert generate_candidates(wifi, [], delta_t=300) == []
        wifi2 = [scan("u1", 1000, [ap(1, -50)]), scan("u2", 1100, [ap(1, -60)])]
        out = generate_candidates(wifi2, [], delta_t=300)
        assert len(out) == 1 and out[0].label == 0 and out[0].bt_rssi is None

    def test_gap_beyond_delta_t_rejected(self):
        wifi = [scan("u1", 1000, [ap(1, -50)]), scan("u2", 1301, [ap(1, -60)])]
        assert generate_candidates(wifi, [], delta_t=300) == []

    def test_nearest_scan_wins(self):
        # u2 has two scans inside delta_t; only the nearest pairs with u1's
        wifi = [scan("u1", 1000, [ap(1, -50)]),
                scan("u2", 900, [ap(1, -60)]), scan("u2", 1050, [ap(1, -61)])]
        out = generate_candidates(wifi, [], delta_t=300)
        assert len(out) == 1
        assert out[0].scan_b.ts == 1050

    def test_each_scan_of_a_pairs_at_most_once(self):
        wifi = [scan("u1", 1000, [ap(1, -50)]), scan("u1", 1200, [ap(1, -51)]),
                scan("u2", 1100, [ap(1, -60)])]
        out = generate_candidates(wifi, [], delta_t=300)
        assert len(out) == 2  # one per u1 scan, both matched to u2@1100
        assert {c.scan_a.ts for c in out} == {1000, 1200}

    def test_bt_rssi_is_strongest_within_delta_t(self):
        wifi = [scan("u1", 1000, [ap(1, -50)]), scan("u2", 1000, [ap(2, -60)])]
        sightings = [bt("u1", 900, peer="u2", rssi=-80),
                     bt("u2", 1100, peer="u1", rssi=-40),
                     bt("u1", 1400, peer="u2", rssi=-10)]  # outside delta_t
        out = generate_candidates(wifi, sightings, delta_t=300)
        assert out[0].bt_rssi == -40

    def test_sighting_anchored_at_interaction_ts(self):
        # ts = min(ts_a, ts_b) = 1000; sighting at 1350 lies outside
        wifi = [scan("u1", 1000, [ap(1, -50)]), scan("u2", 1300, [ap(1, -60)])]
        sightings = [bt("u1", 1350, peer="u2", rssi=-30)]
        out = generate_candidates(wifi, sightings, delta_t=300)
        assert len(out) == 1 and out[0].label == 0

    def test_output_sorted_and_canonical(self):
        rng = np.random.default_rng(11)
        wifi = []
        for u in ("u3", "u1", "u2"):
            for k in range(5):
                wifi.append(scan(u, int(rng.integers(0, 2000)), [ap(1, -50)]))
        out = generate_candidates(wifi, [], delta_t=600)
        keys = [(c.ts, c.user_a, c.user_b, c.scan_a.ts, c.scan_b.ts) for c in out]
        assert keys == sorted(keys)
        assert all(c.user_a < c.user_b for c in out)


T0 = 1_600_000_000


@st.composite
def candidate_windows(draw):
    """A window's scans and sightings on a 10 s grid: equal-distance ties,
    duplicate (user, ts) scans, scans with no APs, sightings exactly
    delta_t (and one second more) from a scan, and one-user windows."""
    users = draw(st.lists(st.sampled_from(["u0", "u1", "u1\x00", "u2"]),
                          min_size=1, max_size=4, unique=True))
    delta_t = draw(st.sampled_from([0, 10, 20, 50]))
    records = []
    for _ in range(draw(st.integers(0, 14))):
        routers = draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
        records.append(scan(draw(st.sampled_from(users)),
                            T0 + 10 * draw(st.integers(0, 20)),
                            [ap(i, -50 - i) for i in routers]))
    sightings = []
    for _ in range(draw(st.integers(0, 8))):
        user = draw(st.sampled_from(users))
        peer = draw(st.sampled_from(users + [None]))
        offset = draw(st.sampled_from([0, delta_t, -delta_t, delta_t + 1,
                                       -delta_t - 1]))
        sightings.append(bt(user, T0 + 10 * draw(st.integers(0, 20)) + offset,
                            peer=peer, mac=None if peer else "ff:ee:dd:00:00:01",
                            rssi=draw(st.integers(-90, -20))))
    rows = draw(st.permutations(range(len(records))))
    rows = rows[:draw(st.integers(0, len(rows)))]
    return records, rows, sightings, delta_t


H0 = 444_445 * WINDOW_S  # an hour's start


@st.composite
def candidate_hours(draw):
    """Scans and sightings over three hours, on a 300 s grid: users with
    sightings and no scans, outside devices, and sightings exactly
    delta_t (and one second more) from a scan or an hour's edge."""
    users = ["u0", "u1", "u1\x00", "u2"]
    scanners = draw(st.lists(st.sampled_from(users), min_size=1, unique=True))
    delta_t = draw(st.sampled_from([0, 60, 300]))
    # grid steps, half of them at an hour's edge
    steps = st.one_of(st.sampled_from([0, 11, 12, 24, 35]), st.integers(0, 35))
    records = []
    for _ in range(draw(st.integers(0, 30))):
        routers = draw(st.lists(st.integers(0, 5), unique=True, max_size=3))
        records.append(scan(draw(st.sampled_from(scanners)), H0 + 300 * draw(steps),
                            [ap(i, -50 - i) for i in routers]))
    sightings = []
    for _ in range(draw(st.integers(0, 30))):
        peer = draw(st.sampled_from(users + [None]))
        offset = draw(st.sampled_from([0, delta_t, -delta_t, delta_t + 1,
                                       -delta_t - 1]))
        sightings.append(bt(draw(st.sampled_from(users)), H0 + 300 * draw(steps) + offset,
                            peer=peer, mac=None if peer else "ff:ee:dd:00:00:01",
                            rssi=draw(st.integers(-90, -20))))
    return records, sightings, delta_t


def reference_candidates(records, sightings, delta_t) -> list[CandidatePair]:
    """The reference's candidates of every hour window, window after window:
    of the records of the window's active users in its hour, in record
    order, and the sightings within delta_t of the hour."""
    out = []
    for start, active in brute_windows(sightings):
        scans = [rec for rec in records
                 if rec.ts // WINDOW_S * WINDOW_S == start and rec.user in active]
        near = [s for s in sightings
                if start - delta_t <= s.ts < start + WINDOW_S + delta_t]
        out += reference.generate_candidates(scans, near, delta_t)
    return out


class TestMatchesRecordReference:
    """The table-based generator against tests/pairing_reference.py."""

    @given(candidate_hours())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_hours(self, case):
        records, sightings, delta_t = case
        windows, cands = pairing.pair_windows(
            scan_table_from_records(records), sighting_table(sightings), delta_t)
        assert len(windows) == len(brute_windows(sightings))
        want = reference_candidates(records, sightings, delta_t)
        assert candidate_pairs(records, cands) == want

    @given(candidate_windows())
    @settings(max_examples=400, deadline=None)
    def test_hypothesis_windows(self, window):
        records, rows, sightings, delta_t = window
        want = reference.generate_candidates(
            [records[i] for i in rows], sightings, delta_t)
        assert table_candidates(records, sightings, delta_t, rows) == want

    def test_tiny_world(self, tmp_path, tiny_world):
        (tmp_path / "world.conf").write_text(world_conf(tiny_world))
        base = ["--dir", str(tmp_path), "--config", str(tmp_path / "world.conf")]
        for stage in ("generate", "clean", "pair"):
            assert main([stage] + base) == 0, stage
        records = records_of(
            parse_wifi_log(fileio.iter_jsonl(tmp_path / "cleaned.jsonl")).records)
        parsed = parse_bluetooth_log(fileio.iter_jsonl(tmp_path / "bluetooth.jsonl")).records
        sightings = sorted(sightings_of(parsed), key=lambda s: s.ts)
        delta_t = 300
        rows = []
        for start, active in window_sets(build_hour_windows(parsed), parsed.users):
            scans = [i for i, rec in enumerate(records)
                     if rec.ts // WINDOW_S * WINDOW_S == start and rec.user in active]
            lo, hi = start - delta_t, start + WINDOW_S + delta_t
            near = [s for s in sightings if lo <= s.ts < hi]
            want = reference.generate_candidates([records[i] for i in scans], near, delta_t)
            assert table_candidates(records, near, delta_t, scans) == want
            rows += [[c.user_a, c.user_b, str(c.scan_a.ts), str(c.scan_b.ts), str(c.ts),
                      str(c.label), "" if c.bt_rssi is None else str(c.bt_rssi)]
                     for c in want]
        assert len(rows) > 1000
        _, _, written = fileio.read_csv(tmp_path / "candidates.csv",
                                        fileio.SCHEMA_CANDIDATES)
        assert written == rows


class TestSplits:
    def test_partition(self):
        train, test = split_indices(100, 30, seed=1)
        assert len(train) == 30 and len(test) == 70
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(100))
        assert set(train.tolist()).isdisjoint(test.tolist())
        assert list(train) == sorted(train) and list(test) == sorted(test)

    def test_deterministic(self):
        a, b, c = (split_indices(50, 20, seed=s) for s in (5, 5, 6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    def test_oversized_train_rejected(self):
        with pytest.raises(ValueError):
            split_indices(10, 11, seed=0)

    def test_class_proportions_near_population(self):
        # hypergeometric: sample of 5000 from 10000 with 3000 positives
        labels = np.array([1] * 3000 + [0] * 7000)
        tr, _ = split_indices(10000, 5000, seed=2)
        got = labels[tr].mean()
        # 5 sigma of the hypergeometric draw
        sigma = np.sqrt(0.3 * 0.7 / 5000 * (10000 - 5000) / (10000 - 1))
        assert abs(got - 0.3) < 5 * sigma

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 59))
    @settings(max_examples=25, deadline=None)
    def test_split_is_partition_for_any_seed(self, seed, train_size):
        tr, te = split_indices(60, train_size, seed)
        assert len(tr) == train_size
        assert sorted(np.concatenate([tr, te]).tolist()) == list(range(60))
