"""The synthetic world: layout, radio, truth, and the emitted files."""

import json
import math
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from wifi_proximity import synthgen
from wifi_proximity.evaluation import class_counts, mann_whitney_u
from wifi_proximity.fileio import DataError, iter_jsonl, read_jsonl_header
from wifi_proximity.fileio import SCHEMA_BLUETOOTH, SCHEMA_GROUND_TRUTH, SCHEMA_WIFI
from wifi_proximity.ingest import (
    build_home_router_map,
    parse_bluetooth_log,
    parse_wifi_log,
)
from wifi_proximity.records import DAY_S, RSSI_MIN, TS_END
from wifi_proximity.synthgen import (
    WEEKDAY_HOUR_PROFILE,
    WEEKEND_HOUR_PROFILE,
    GroundTruth,
    WorldConfig,
    assign_groups,
    build_layout,
    calibrate_stats,
    generate,
)

import synthgen_reference
from synthgen_reference import load_ground_truth
from conftest import TINY_WORLD_STATS, records_of, sightings_of


class TestWorldConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_users": 0},
        {"days": -1},
        {"campus_fraction": 1.5},
        {"bt_detect_prob": -0.1},
        {"scan_period_s": 7},          # does not divide an hour
        {"meeting_min_slots": 0},
        {"meeting_max_slots": 1, "meeting_min_slots": 5},
        {"group_size_cycle": (1, 3)},  # singleton groups disallowed
        {"group_size_cycle": ()},
        {"wifi_detect_floor_dbm": RSSI_MIN - 1},  # readings would not fit an int16
        {"wifi_detect_floor_dbm": float("nan")},
        {"wifi_detect_floor_dbm": float("-inf")},
        {"wifi_detect_floor_dbm": float("inf")},
        {"scan_period_s": 7200},       # divides a day, not an hour
        {"path_loss_exponent": 0.0},   # the model divides by it
        {"path_loss_exponent": -2.0},
        {"path_loss_exponent": float("inf")},
        {"path_loss_exponent": float("nan")},
        {"p0_dbm": float("nan")},
        {"p0_dbm": float("inf")},
        {"noise_sigma_db": float("inf")},
        {"noise_sigma_db": -1.0},
        {"device_noise_sigma_db": float("nan")},
        {"device_noise_sigma_db": -0.5},
        {"bt_range_m": -5.0},          # the Bluetooth radio
        {"bt_range_m": 0.0},
        {"bt_range_m": float("nan")},
        {"bt_path_exponent": 0.0},
        {"bt_path_exponent": float("inf")},
        {"bt_rssi_at_1m": float("nan")},
        {"bt_rssi_at_1m": float("-inf")},
        {"bt_noise_sigma_db": -1.0},
        {"bt_noise_sigma_db": float("inf")},
        {"site_pitch_m": 0.0},         # the layout and the schedules
        {"dense_complex_units": 0},
        {"n_venues": -1},
        {"rooms_per_building": 0},
        {"street_routers_per_dense_complex": -1},
        {"weekday_meeting_rate": -1.0},
        {"weekend_meeting_rate": float("nan")},
        {"area_m": float("inf")},
        {"area_m": float("nan")},
        {"building_radius_m": float("nan")},
        {"start_ts": -1},
        {"start_ts": 253402214000},    # the last day would pass TS_END
        {"seed": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorldConfig(**kwargs)

    def test_the_last_start_ts_that_fits_is_accepted(self):
        cfg = WorldConfig(days=2, start_ts=TS_END - 2 * DAY_S)
        assert cfg.start_ts + cfg.n_slots * cfg.scan_period_s == TS_END

    def test_slot_arithmetic(self):
        cfg = WorldConfig(days=2, scan_period_s=300)
        assert cfg.slots_per_day == 288
        assert cfg.n_slots == 576

    @pytest.mark.parametrize("period", [300, 900, 1800, 3600])
    def test_everyone_is_home_until_six_at_any_scan_period(self, period):
        cfg = WorldConfig(seed=3, n_users=24, n_routers=80, days=2, n_buildings=2,
                          n_venues=2, area_m=1200.0, scan_period_s=period)
        layout, _, positions, _ = synthgen._world(cfg)
        night = (np.arange(cfg.n_slots) % cfg.slots_per_day) * period < 6 * 3600
        assert night.sum() == cfg.days * 6 * 3600 // period
        assert (positions[:, night] == layout.home_pos[:, None]).all()

    def test_a_tiny_path_loss_exponent_generates(self, tmp_path):
        cfg = INFINITE_REACH
        paths = [tmp_path / name for name in ("w.jsonl", "b.jsonl", "t.jsonl")]
        generate(cfg, *paths)
        scans = parse_wifi_log(iter_jsonl(paths[0]), strict=True).records
        assert (np.diff(scans.offsets) == cfg.n_routers).all()
        assert (scans.rssi == cfg.p0_dbm).all()

    def test_as_dict_replace_round_trip(self):
        cfg = WorldConfig(seed=4, n_users=30)
        d = asdict(cfg)
        assert d["seed"] == 4 and d["group_size_cycle"] == (3, 4, 5, 4)
        assert WorldConfig(**d) == cfg
        cfg2 = replace(cfg, n_users=40)
        assert cfg2.n_users == 40 and cfg2.seed == 4
        assert cfg.n_users == 30  # original untouched
        with pytest.raises(ValueError, match="n_users"):
            replace(cfg, n_users=0)  # the checks run again

    def test_hour_profiles_cover_the_day(self):
        assert len(WEEKDAY_HOUR_PROFILE) == 24
        assert len(WEEKEND_HOUR_PROFILE) == 24


class TestLayout:
    def layout(self, **kwargs):
        base = dict(seed=3, n_users=24, n_routers=80, days=1,
                    n_buildings=2, n_venues=2, area_m=1200.0)
        base.update(kwargs)
        cfg = WorldConfig(**base)
        return cfg, build_layout(cfg, np.random.default_rng(0))

    def test_budget_and_identifiers(self):
        cfg, layout = self.layout()
        assert layout.router_pos.shape == (80, 2)
        assert len(set(layout.router_bssid)) == 80
        assert len(layout.router_ssid) == 80

    def test_every_user_has_a_colocated_home_router(self):
        cfg, layout = self.layout()
        assert layout.home_router_idx.shape == (24,)
        for u in range(24):
            assert np.allclose(layout.router_pos[layout.home_router_idx[u]],
                               layout.home_pos[u])
            assert layout.router_ssid[layout.home_router_idx[u]] == f"home-{u:03d}"

    def test_campus_router_share(self):
        cfg, layout = self.layout()
        n_campus = sum(1 for s in layout.router_ssid if s == cfg.campus_ssid)
        assert n_campus == round(cfg.campus_fraction * cfg.n_routers)

    def test_no_venues_still_spends_budget(self):
        cfg, layout = self.layout(n_venues=0)
        assert layout.router_pos.shape == (80, 2)

    def test_too_small_budget_rejected(self):
        # the config refuses a world that build_layout cannot lay out
        with pytest.raises(ValueError, match="n_users"):
            WorldConfig(seed=3, n_users=50, n_routers=40, days=1)

    def test_street_routers_sit_away_from_homes(self):
        # home-router detection relies on the user's own router beating any
        # shared street router on per-bin visibility
        cfg, layout = self.layout()
        street = [i for i, s in enumerate(layout.router_ssid)
                  if s.startswith("street-")]
        if street:
            d = np.linalg.norm(
                layout.home_pos[:, None, :] - layout.router_pos[street][None, :, :],
                axis=2)
            assert d.min() > 20.0


class TestGroups:
    def test_cycle_sizes(self):
        cfg = WorldConfig(n_users=12, group_size_cycle=(3, 4, 5))
        groups = assign_groups(cfg)
        assert [len(g) for g in groups] == [3, 4, 5]
        assert sorted(u for g in groups for u in g) == list(range(12))

    def test_no_singleton_remainder(self):
        cfg = WorldConfig(n_users=7, group_size_cycle=(3, 3))
        groups = assign_groups(cfg)
        assert sorted(len(g) for g in groups) == [3, 4]
        assert all(len(g) >= 2 for g in groups)


class TestMeetings:
    def meetings(self, period):
        cfg = WorldConfig(seed=5, n_users=60, n_routers=160, days=3, n_buildings=2,
                          n_venues=2, area_m=1400.0, scan_period_s=period)
        layout = build_layout(cfg, synthgen._substream(cfg.seed, synthgen._STREAM_LAYOUT))
        is_goer = np.arange(cfg.n_users) % 2 == 0
        _, _, _, day_building = synthgen.build_plans(
            cfg, layout, is_goer, synthgen._substream(cfg.seed, synthgen._STREAM_PLANS))
        rng = synthgen._substream(cfg.seed, synthgen._STREAM_MEETINGS)
        return cfg, synthgen.schedule_meetings(cfg, layout, assign_groups(cfg), is_goer,
                                               day_building, rng)

    @pytest.mark.parametrize("period", [300, 900, 1800, 3600])
    def test_meeting_lengths_in_hours_do_not_follow_the_scan_period(self, period):
        # lengths count 5-minute units; placing them in slots rounds each
        # end down, which moves a length by less than one slot
        cfg, meetings = self.meetings(period)
        assert len(meetings) > 20
        hours = np.array([(m.end_slot - m.start_slot) * period / 3600 for m in meetings])
        lo, hi = cfg.meeting_min_slots / 12, cfg.meeting_max_slots / 12
        assert (hours > lo - period / 3600).all() and (hours < hi + period / 3600).all()
        assert all(0 <= m.start_slot <= m.end_slot <= cfg.n_slots for m in meetings)

    def test_meetings_start_at_the_same_times_at_every_scan_period(self):
        # the draws do not depend on the period; only the slot grid does
        _, fine = self.meetings(300)
        for period in (900, 1800, 3600):
            _, coarse = self.meetings(period)
            assert [m.start_slot * 300 // period for m in fine] == \
                [m.start_slot for m in coarse]


class TestBluetoothAndTruth:
    @staticmethod
    def by_user(table):
        """The table's sightings as {user index: [(ts, peer id, rssi)]}."""
        out = {u: [] for u in range(len(table.users))}
        for s in sightings_of(table):
            out[table.users.index(s.user)].append((s.ts, s.peer, s.rssi))
        return out

    def pinned_world(self):
        """Two users standing together all day; a third far away."""
        cfg = WorldConfig(seed=1, n_users=3, n_routers=10, days=1,
                          bt_detect_prob=1.0)
        n = cfg.n_slots
        positions = np.zeros((3, n, 2))
        positions[0, :] = [100.0, 100.0]
        positions[1, :] = [103.0, 104.0]   # 5 m away, inside bt range
        positions[2, :] = [900.0, 900.0]
        phases = np.array([0, 30, 60])
        return cfg, positions, phases

    def test_pinned_pair_always_detected(self):
        cfg, positions, phases = self.pinned_world()
        sightings, (ts, a, b, d) = synthgen.bluetooth_and_truth(
            cfg, positions, ["u0", "u1", "u2"], phases)
        sightings = self.by_user(sightings)
        assert len(sightings[0]) == cfg.n_slots
        assert len(sightings[1]) == cfg.n_slots
        assert sightings[2] == []
        assert all(peer == "u1" for _, peer, _ in sightings[0])
        # truth records the pair with its true distance every slot
        assert ts.tolist() == [cfg.start_ts + k * cfg.scan_period_s for k in range(cfg.n_slots)]
        assert (a == 0).all() and (b == 1).all() and (d == 5.0).all()

    def test_sightings_carry_the_observer_phase(self):
        cfg, positions, phases = self.pinned_world()
        sightings, _ = synthgen.bluetooth_and_truth(
            cfg, positions, ["u0", "u1", "u2"], phases)
        sightings = self.by_user(sightings)
        assert all(ts % cfg.scan_period_s == 0 for ts, _, _ in sightings[0])
        assert all(ts % cfg.scan_period_s == 30 for ts, _, _ in sightings[1])

    def test_bt_rssi_decays_with_distance(self):
        cfg = WorldConfig(seed=2, n_users=4, n_routers=10, days=1,
                          bt_detect_prob=1.0)
        n = cfg.n_slots
        positions = np.zeros((4, n, 2))
        positions[1, :] = [1.0, 0.0]   # 1 m from u0
        positions[2, :] = [9.0, 0.0]   # 9 m from u0
        positions[3, :] = [500.0, 0.0]
        phases = np.zeros(4, dtype=int)
        sightings, _ = synthgen.bluetooth_and_truth(
            cfg, positions, ["u0", "u1", "u2", "u3"], phases)
        sightings = self.by_user(sightings)
        near = [r for _, peer, r in sightings[0] if peer == "u1"]
        far = [r for _, peer, r in sightings[0] if peer == "u2"]
        assert np.mean(near) > np.mean(far)
        assert max(r for _, _, r in sightings[0]) <= -1

    def test_detection_probability_thins_sightings(self):
        cfg, positions, phases = self.pinned_world()
        cfg2 = replace(cfg, bt_detect_prob=0.5)
        sightings, (ts, _, _, _) = synthgen.bluetooth_and_truth(
            cfg2, positions, ["u0", "u1", "u2"], phases)
        sightings = self.by_user(sightings)
        n = cfg2.n_slots
        assert 0.3 * n < len(sightings[0]) < 0.7 * n
        assert len(ts) == n  # truth is unaffected by detection


def proximity_of(truth: GroundTruth,
                 user_ids: list[str]) -> dict[int, list[tuple[str, str, float]]]:
    """The truth columns as per-slot lists of (id a, id b, round(d, 2)),
    the form of synthgen_reference's truth, in column order."""
    out: dict[int, list[tuple[str, str, float]]] = {}
    for ts, a, b, d in zip(truth.ts.tolist(), truth.a.tolist(), truth.b.tolist(),
                           truth.distance.tolist()):
        out.setdefault(ts, []).append((user_ids[a], user_ids[b], round(d, 2)))
    return out


def pair_intervals(proximity: dict[int, list[tuple[str, str, float]]],
                   period_s: int) -> dict[tuple[str, str], list[tuple[int, int]]]:
    """Merge per-slot proximity into [start, end) episodes per pair."""
    slots_by_pair: dict[tuple[str, str], list[int]] = {}
    for ts, pairs in proximity.items():
        for ua, ub, _ in pairs:
            slots_by_pair.setdefault((ua, ub), []).append(ts)
    episodes: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for key, slots in slots_by_pair.items():
        slots.sort()
        runs: list[tuple[int, int]] = []
        start = prev = slots[0]
        for ts in slots[1:]:
            if ts - prev > period_s:
                runs.append((start, prev + period_s))
                start = ts
            prev = ts
        runs.append((start, prev + period_s))
        episodes[key] = runs
    return episodes


class TestGroundTruthEpisodes:
    def test_pair_intervals_merge_consecutive_slots(self):
        proximity = {
            1000: [("a", "b", 2.0)],
            1300: [("a", "b", 2.0)],
            1600: [("a", "b", 2.0)],
            4000: [("a", "b", 2.0)],
        }
        episodes = pair_intervals(proximity, period_s=300)
        assert episodes[("a", "b")] == [(1000, 1900), (4000, 4300)]


@pytest.fixture(scope="module")
def generated(tmp_path_factory, tiny_world):
    d = tmp_path_factory.mktemp("world")
    paths = (d / "wifi.jsonl", d / "bluetooth.jsonl", d / "truth.jsonl")
    scans, truth = generate(tiny_world, *paths, config_hash="testhash")
    return tiny_world, paths, scans, truth


@pytest.fixture(scope="module")
def world(generated):
    cfg, paths, _, truth = generated
    return cfg, paths, truth


class TestGeneratedFiles:
    def test_headers_and_schemas(self, world):
        _, (wifi, bt, truth), _ = world
        assert read_jsonl_header(wifi, SCHEMA_WIFI, "testhash")
        assert read_jsonl_header(bt, SCHEMA_BLUETOOTH, "testhash")
        assert read_jsonl_header(truth, SCHEMA_GROUND_TRUTH, "testhash")

    def test_wifi_rows_parse_and_count(self, world):
        cfg, (wifi, _, _), _ = world
        records = records_of(parse_wifi_log(iter_jsonl(wifi), strict=True).records)
        assert len(records) == cfg.n_users * cfg.n_slots
        users = {r.user for r in records}
        assert len(users) == cfg.n_users

    def test_rssi_within_radio_bounds(self, world):
        cfg, (wifi, _, _), _ = world
        for rec in records_of(parse_wifi_log(iter_jsonl(wifi), strict=True).records):
            for a in rec.aps:
                assert cfg.wifi_detect_floor_dbm <= a.rssi <= -1

    def test_truth_file_line_types(self, world):
        cfg, (_, _, truth), _ = world
        homes = 0
        slots = 0
        for _, line in iter_jsonl(truth):
            obj = json.loads(line)
            if "user" in obj:
                assert set(obj) == {"user", "home_bssid"}
                homes += 1
            else:
                assert set(obj) == {"ts", "pairs"}
                slots += 1
        assert homes == cfg.n_users
        assert slots > 0

    def test_load_ground_truth_round_trip(self, generated):
        _, (_, _, truth_path), scans, truth = generated
        loaded = load_ground_truth(truth_path)
        assert loaded.homes == truth.homes
        assert loaded.proximity == proximity_of(truth, scans.users)

    def test_load_ground_truth_rejects_a_line_that_is_not_utf8(self, world, tmp_path):
        _, (_, _, truth_path), _ = world
        bad = tmp_path / "truth.jsonl"
        bad.write_bytes(truth_path.read_bytes() + b'{"user": "u\xff", "home_bssid": "x"}\n')
        with pytest.raises(DataError, match=f"{bad}:"):
            load_ground_truth(bad)

    def test_bluetooth_sightings_parse(self, world):
        _, (_, bt, _), _ = world
        res = parse_bluetooth_log(iter_jsonl(bt), strict=True)
        assert len(res.records) and (res.records.peer >= 0).all()

    def test_bluetooth_ts_within_dilated_truth(self, generated):
        cfg, (_, bt, _), scans, truth = generated
        episodes = pair_intervals(proximity_of(truth, scans.users), cfg.scan_period_s)
        res = parse_bluetooth_log(iter_jsonl(bt), strict=True)
        for s in sightings_of(res.records):
            key = tuple(sorted((s.user, s.peer)))
            assert any(lo <= s.ts < hi + cfg.scan_period_s
                       for lo, hi in episodes[key]), (s, episodes[key])

    def test_home_recovery_on_tiny_world(self, world):
        cfg, (wifi, _, _), truth = world
        records = parse_wifi_log(iter_jsonl(wifi)).records
        homes = build_home_router_map(records, bin_minutes=10)
        detected = {u: b for (u, _m), b in homes.items()}
        hits = sum(1 for u, b in truth.homes.items() if detected.get(u) == b)
        assert hits / len(truth.homes) >= 0.9

    def test_proximate_pairs_overlap_more(self, generated):
        cfg, _, scans, truth = generated
        stats = calibrate_stats(cfg, scans, truth)
        assert stats["proximate_overlap_mean"] > stats["distant_overlap_mean"]
        assert stats["overlap_mannwhitney_p"] < 0.01

    def test_calibration_stats_unchanged(self, generated):
        # the figures the record-based parse of wifi.jsonl gave on the tiny world
        cfg, _, scans, truth = generated
        assert calibrate_stats(cfg, scans, truth) == TINY_WORLD_STATS

    def test_overlaps_count_the_routers_two_scans_share(self, generated):
        _, _, scans, _ = generated
        rng = np.random.default_rng(3)
        dyads = rng.integers(0, len(scans), (2, 500))
        dyads[1, :50] = dyads[0, :50]  # a scan shares all its routers with itself
        routers = np.split(scans.bssid, scans.offsets[1:-1])
        want = [len(set(routers[a]) & set(routers[b])) for a, b in dyads.T.tolist()]
        assert synthgen._overlaps(scans, dyads).tolist() == want
        assert want[:50] == np.diff(scans.offsets)[dyads[0, :50]].tolist()
        assert synthgen._overlaps(scans, dyads[:, :0]).tolist() == []

    def test_calibration_stats_sane(self, generated):
        cfg, _, scans, truth = generated
        stats = calibrate_stats(cfg, scans, truth)
        assert stats["n_scans"] == cfg.n_users * cfg.n_slots
        assert 1.0 < stats["mean_aps"] < 20.0
        assert 0.0 <= stats["empty_fraction"] < 0.3

    def test_no_draw_when_no_distant_dyad_can_be_accepted(self, tmp_path, monkeypatch):
        """Two users, close at each of the 5 truth slots: every distant
        draw would be rejected, so none is made, and the figures stay."""
        cfg = WorldConfig(seed=0, n_users=2, n_routers=80, days=1, scan_period_s=3600,
                          n_buildings=2, n_venues=2, area_m=1200.0)
        scans, truth = generate(cfg, *(tmp_path / n for n in ("w.jsonl", "b.jsonl", "t.jsonl")))
        assert np.unique(truth.ts, return_counts=True)[1].tolist() == [1] * 5

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"calibrate_stats drew with rng.{name}")

        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
        assert calibrate_stats(cfg, scans, truth) == {
            "n_scans": 48, "mean_aps": 3.6666666666666665, "median_aps": 1.0,
            "empty_fraction": 0.020833333333333332, "proximate_overlap_mean": 9.2,
            "n_proximate": 5, "distant_overlap_mean": 0.0, "n_distant": 0}

    def test_a_world_with_one_truth_slot_counts_its_dyads(self, tmp_path):
        """Four users close at the one truth slot of a 30-minute scan
        period: each dyad's scans at that slot are found."""
        cfg = WorldConfig(seed=16, n_users=4, n_routers=80, days=1, scan_period_s=1800,
                          n_buildings=2, n_venues=2, area_m=1200.0)
        scans, truth = generate(cfg, *(tmp_path / n for n in ("w.jsonl", "b.jsonl", "t.jsonl")))
        assert np.unique(truth.ts, return_counts=True)[1].tolist() == [6]
        stats = calibrate_stats(cfg, scans, truth)
        assert (stats["n_proximate"], stats["n_distant"]) == (6, 0)


class TestOrders:
    """The orders that wifi_scans and calibrate_stats rely on: index order
    is id order for routers and users, and the scan table holds one scan
    per user and slot, user after user."""

    def test_bssids_sort_in_index_order(self):
        idx = [0, 1, 254, 255, 256, 257, 65534, 65535, 65536, 65537, (1 << 24) - 2,
               (1 << 24) - 1]
        names = [synthgen._bssid(i) for i in idx]
        assert names == sorted(names) and len(set(names)) == len(names)

    @pytest.mark.parametrize("n_users", [1, 999, 1000, 1001, 12345])
    def test_user_ids_sort_in_index_order(self, n_users):
        ids = [synthgen._user_id(i, n_users) for i in range(n_users)]
        assert ids == sorted(ids) and len(set(ids)) == n_users

    def test_row_of_a_users_scan_at_a_slot(self, generated):
        cfg, _, scans, _ = generated
        rows = np.arange(cfg.n_users * cfg.n_slots)
        u, k = np.divmod(rows, cfg.n_slots)
        assert len(scans.ts) == len(rows)
        assert np.array_equal(scans.user, u)
        assert scans.users == [synthgen._user_id(i, cfg.n_users) for i in range(cfg.n_users)]
        slot = cfg.start_ts + k * cfg.scan_period_s
        assert ((slot <= scans.ts) & (scans.ts < slot + cfg.scan_period_s)).all()


def calibrated_p(x, y) -> float:
    """calibrate_stats' p-value for proximate overlaps x and distant ones
    y, fed through stand-ins for the world, the scans and the truth: five
    users with a scan at every slot, of whom users 0 and 1 are close at
    each of the len(x) truth slots, whose common APs number x for those
    dyads and y for the drawn distant ones, in order."""
    n_users, n_slots = 5, len(x)  # most draws pick a distant dyad
    samples = iter([x, y])

    def overlaps(scans, dyads):
        counts = next(samples)
        assert dyads.shape == (2, len(counts))
        return np.array(counts)

    scans = SimpleNamespace(offsets=np.arange(n_users * n_slots + 1))
    truth = GroundTruth(homes={}, ts=np.arange(n_slots) * 300, a=np.zeros(n_slots, int),
                        b=np.ones(n_slots, int), distance=np.ones(n_slots))
    cfg = SimpleNamespace(n_users=n_users, n_slots=n_slots, start_ts=0, scan_period_s=300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthgen, "DISTANT_PAIRS", len(y))  # so len(y) distant dyads are drawn
        mp.setattr(synthgen, "_overlaps", overlaps)
        stats = calibrate_stats(cfg, scans, truth)
    assert (stats["n_proximate"], stats["n_distant"]) == (len(x), len(y))
    return stats["overlap_mannwhitney_p"]


@st.composite
def overlap_samples(draw):
    """Proximate and distant overlaps from small ranges, so that values
    tie, with at most max(200, len(x)) distant ones: calibrate_stats draws
    as many distant dyads as the proximate ones, but at least 200."""
    top = draw(st.sampled_from([0, 1, 3, 10, 1000]))
    values = st.integers(0, top)
    x = draw(st.lists(values, min_size=1, max_size=300))
    shift = draw(st.integers(0, 2))
    y = draw(st.lists(values, min_size=1, max_size=max(200, len(x))))
    return [v + shift for v in x], y


@settings(max_examples=150, deadline=None)
@given(samples=overlap_samples())
@example(samples=([4] * 30, [4] * 200))  # every overlap ties: p = 1
@example(samples=([2, 3], [0, 1, 5]))    # no tie in a sample of 8 or fewer
def test_overlap_test_matches_scipys_asymptotic_mannwhitneyu(samples):
    """U exactly and p to 1e-12 relative against scipy's asymptotic form,
    the one it picks unless a sample of 8 or fewer has no ties; there
    calibrate_stats still gives the asymptotic p."""
    x, y = samples
    want = mannwhitneyu(x, y, alternative="greater", method="asymptotic")
    _, pos, neg = class_counts(x + y, [1] * len(x) + [0] * len(y))
    assert mann_whitney_u(pos, neg) == want.statistic
    assert calibrated_p(x, y) == pytest.approx(want.pvalue, rel=1e-12, abs=1e-300)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path, tiny_world):
        filesets = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            paths = (d / "wifi.jsonl", d / "bt.jsonl", d / "truth.jsonl")
            generate(tiny_world, *paths)
            filesets.append([p.read_bytes() for p in paths])
        assert filesets[0] == filesets[1]

    def test_different_seed_differs(self, tmp_path, tiny_world):
        blobs = []
        for seed in (1, 2):
            d = tmp_path / str(seed)
            d.mkdir()
            paths = (d / "wifi.jsonl", d / "bt.jsonl", d / "truth.jsonl")
            generate(replace(tiny_world, seed=seed), *paths)
            blobs.append(paths[0].read_bytes())
        assert blobs[0] != blobs[1]


class TestEmptyArea:
    def test_far_from_routers_scans_are_empty(self, tmp_path):
        # one building of routers, users whose homes absorb the rest of the
        # budget; a user walking far out of range must log empty scans, so
        # the generator keeps rows rather than dropping them
        cfg = WorldConfig(seed=5, n_users=4, n_routers=20, days=1,
                          n_buildings=1, n_venues=0, area_m=5000.0,
                          site_pitch_m=1000.0)
        paths = (tmp_path / "w.jsonl", tmp_path / "b.jsonl", tmp_path / "t.jsonl")
        generate(cfg, *paths)
        records = records_of(parse_wifi_log(iter_jsonl(paths[0]), strict=True).records)
        assert len(records) == cfg.n_users * cfg.n_slots
        by_count = sum(1 for r in records if not r.aps)
        assert by_count > 0


# Worlds at the edges of wifi_scans' reach grids (synthgen._reach_grid);
# test_the_grid_worlds_reach_their_edges checks that each still does.
# every router is heard at p0, however far: each reach overflows to inf
INFINITE_REACH = WorldConfig(seed=1, n_users=4, n_routers=12, days=1, scan_period_s=3600,
                             n_buildings=2, n_venues=2, area_m=1200.0, path_loss_exponent=1e-9,
                             noise_sigma_db=0.0, device_noise_sigma_db=0.0)
# home routers alone, on a 64 m site grid: routers, and users at home, lie
# on corners of the 32 m cells, which start at the routers' lower left
ON_CELL_CORNERS = WorldConfig(seed=0, n_users=6, n_routers=6, days=1, scan_period_s=1800,
                              campus_fraction=0.0, n_venues=0, area_m=320.0,
                              site_pitch_m=64.0)
# sites 1 km apart: a user out walking leaves the routers' bounding box,
# and either hears a router from outside it or logs an empty scan
OFF_THE_GRID = WorldConfig(seed=5, n_users=4, n_routers=20, days=1, scan_period_s=300,
                           n_buildings=1, n_venues=0, area_m=5000.0, site_pitch_m=1000.0)
# no shadowing, so the cutoff, where the mean level is the floor, lies at
# 29.17 m; a neighbour's router 30 m away is heard at rint(-90.24) = -90
# dBm, in the first block too, which the user spends at home: a scan
# hears what the radio model says, however little its block's slots spread
BEYOND_THE_CUTOFF = WorldConfig(seed=0, n_users=4, n_routers=12, days=1, scan_period_s=300,
                                n_buildings=2, n_venues=2, area_m=1200.0, p0_dbm=-60.7,
                                path_loss_exponent=2.0, wifi_detect_floor_dbm=-90.0,
                                noise_sigma_db=0.0, device_noise_sigma_db=0.0)


def test_the_grid_worlds_reach_their_edges():
    """Each world above is still an example of its edge."""
    assert np.isinf(synthgen._squared_reach(INFINITE_REACH, np.zeros(1))).all()

    layout, _, positions, _ = synthgen._world(ON_CELL_CORNERS)

    def on_corners(xy):
        return (np.mod(xy - layout.router_pos.min(axis=0), synthgen._CELL_M) == 0).all(axis=-1)

    assert on_corners(layout.router_pos).sum() >= 2 and on_corners(positions).sum() >= 50

    cfg = OFF_THE_GRID
    layout, user_ids, positions, phases = synthgen._world(cfg)
    lo, hi = layout.router_pos.min(axis=0), layout.router_pos.max(axis=0)
    outside = ((positions < lo) | (positions > hi)).any(axis=-1).ravel()
    scans = synthgen.wifi_scans(cfg, layout, positions, user_ids, phases)
    assert (np.diff(scans.offsets)[outside] > 0).any()
    assert (np.diff(scans.offsets)[outside] == 0).any()

    cfg = BEYOND_THE_CUTOFF
    layout, user_ids, positions, phases = synthgen._world(cfg)
    cutoff = 10.0 ** ((cfg.p0_dbm - cfg.wifi_detect_floor_dbm) / (10.0 * cfg.path_loss_exponent))
    home = positions[:, 0]
    assert (positions[:, :64] == home[:, None]).all()  # the first block, at home
    d = np.hypot(*(home[:, None] - layout.router_pos).transpose(2, 0, 1))
    level = np.rint(cfg.p0_dbm - 10.0 * cfg.path_loss_exponent * np.log10(np.maximum(d, 1.0)))
    assert ((d > cutoff) & (level >= cfg.wifi_detect_floor_dbm)).any()
    scans = synthgen.wifi_scans(cfg, layout, positions, user_ids, phases)
    user, slot = np.divmod(scans.entry_rows(), cfg.n_slots)
    first = slot < 64
    assert (d[user[first], scans.bssid[first]] > cutoff).any()


# Small worlds: few users and routers and one day of slots of 5 minutes
# to an hour (the schedules need a slot an hour at least), so that each
# example generates in well under a second.
small_worlds = st.builds(
    lambda seed, n_users, spare, period, p0, exponent, floor, noise, device, bt_range:
        WorldConfig(seed=seed, n_users=n_users, n_routers=2 * n_users + spare, days=1,
                    scan_period_s=period, n_buildings=2, n_venues=2, area_m=1200.0,
                    p0_dbm=p0, path_loss_exponent=exponent, wifi_detect_floor_dbm=floor,
                    noise_sigma_db=noise, device_noise_sigma_db=device,
                    bt_range_m=bt_range),
    seed=st.integers(0, 2 ** 32 - 1),
    n_users=st.integers(2, 8),
    spare=st.integers(0, 12),
    period=st.sampled_from([300, 900, 1800, 3600]),
    p0=st.floats(-70.0, -30.0),
    exponent=st.floats(1.5, 4.5),
    floor=st.floats(-100.0, -60.0),  # fractional too: int() truncates it
    noise=st.floats(0.0, 6.0),
    device=st.floats(0.0, 6.0),
    bt_range=st.floats(0.5, 400.0),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=small_worlds)
# no router is ever heard: every scan is empty
@example(cfg=WorldConfig(seed=1, n_users=4, n_routers=12, days=1, scan_period_s=1800,
                         n_buildings=2, n_venues=2, area_m=1200.0, p0_dbm=-200.0))
@example(cfg=OFF_THE_GRID)
@example(cfg=INFINITE_REACH)
@example(cfg=ON_CELL_CORNERS)
@example(cfg=BEYOND_THE_CUTOFF)
# every reading clips to -1 dBm, so a scan's RSSIs all tie
@example(cfg=WorldConfig(seed=2, n_users=5, n_routers=20, days=1, scan_period_s=1800,
                         n_buildings=2, n_venues=2, area_m=1200.0, p0_dbm=60.0,
                         wifi_detect_floor_dbm=-1.0))
# everyone is within Bluetooth range of everyone
@example(cfg=WorldConfig(seed=3, n_users=6, n_routers=14, days=1, scan_period_s=3600,
                         n_buildings=2, n_venues=2, area_m=1200.0, bt_range_m=1e6))
# no shadowing and a fractional floor: a user at home hears their own
# router at exactly p0, so those cells sit on the rint boundary, -80.5
@example(cfg=WorldConfig(seed=6, n_users=4, n_routers=14, days=1, scan_period_s=1800,
                         n_buildings=2, n_venues=2, area_m=1200.0, p0_dbm=-80.5,
                         wifi_detect_floor_dbm=-80.5, noise_sigma_db=0.0,
                         device_noise_sigma_db=0.0))
@example(cfg=WorldConfig(seed=8, n_users=6, n_routers=20, days=1, scan_period_s=900,
                         n_buildings=2, n_venues=2, area_m=1200.0, p0_dbm=-60.0,
                         path_loss_exponent=2.0, wifi_detect_floor_dbm=-80.5,
                         noise_sigma_db=0.0, device_noise_sigma_db=0.0))
# the tiny world and test_acceptance.py's test_09 world: a few thousand
# truth entries each
@example(cfg=WorldConfig(seed=7, n_users=24, n_routers=80, days=2, n_buildings=2,
                         n_venues=2, area_m=1200.0))
@example(cfg=WorldConfig(seed=3, n_users=40, n_routers=120, days=2, n_buildings=2,
                         n_venues=2, area_m=1200.0))
def test_generated_logs_match_the_reference(tmp_path, cfg):
    """The three raw logs are the bytes the per-scan writer and the
    all-pairs Bluetooth search give, and so is the returned truth: its
    columns, as per-slot lists, hold the reference's slots, ids and
    order, and its round(d, 2) distances."""
    got, want = tmp_path / "got", tmp_path / "want"
    for d in (got, want):
        d.mkdir(exist_ok=True)
    names = ("wifi.jsonl", "bluetooth.jsonl", "truth.jsonl")
    scans, truth = generate(cfg, *(got / n for n in names), config_hash="h")
    reference = synthgen_reference.generate(cfg, *(want / n for n in names),
                                            config_hash="h")
    assert truth.homes == reference.homes
    assert list(proximity_of(truth, scans.users).items()) == list(reference.proximity.items())
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def heard(scans):
    """The bssid codes of every scan's entries, in code order within a scan."""
    return scans.bssid[np.lexsort((scans.bssid, scans.entry_rows()))]


@settings(max_examples=30, deadline=None)
@given(cfg=small_worlds)
@example(cfg=BEYOND_THE_CUTOFF)
def test_a_scan_hears_the_same_routers_wherever_the_rest_of_its_block_lies(cfg):
    """Moving every user's last slot of the first block 1 km away leaves
    the routers that each earlier slot of the block hears unchanged."""
    layout, user_ids, positions, phases = synthgen._world(cfg)
    last = min(64, cfg.n_slots) - 1
    moved = positions.copy()
    moved[:, last, 0] += 1000.0
    kept = np.arange(cfg.n_users * cfg.n_slots) % cfg.n_slots < last
    here, there = (synthgen.wifi_scans(cfg, layout, p, user_ids, phases)
                   for p in (positions, moved))
    assert np.array_equal(np.diff(here.offsets)[kept], np.diff(there.offsets)[kept])
    assert np.array_equal(heard(here)[kept[here.entry_rows()]],
                          heard(there)[kept[there.entry_rows()]])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=small_worlds)
def test_device_noise_never_decides_what_a_scan_hears(tmp_path, cfg):
    """A world generated without device noise and with 6 dB of it hears
    the same routers in every scan: the noise moves RSSIs only."""
    paths = [tmp_path / name for name in ("w.jsonl", "b.jsonl", "t.jsonl")]
    quiet, loud = (generate(replace(cfg, device_noise_sigma_db=sigma), *paths)[0]
                   for sigma in (0.0, 6.0))
    assert np.array_equal(quiet.offsets, loud.offsets)
    assert np.array_equal(heard(quiet), heard(loud))


class CountedNormals:
    """A Generator that counts the values its normal draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def normal(self, *args, **kwargs):
        values = self.rng.normal(*args, **kwargs)
        self.drawn += np.size(values)
        return values


@pytest.mark.parametrize("cfg", [
    WorldConfig(seed=7, n_users=24, n_routers=80, days=2, n_buildings=2, n_venues=2,
                area_m=1200.0),
    WorldConfig(days=1, seed=3),
], ids=["tiny", "town"])
def test_device_noise_is_drawn_once_per_heard_cell(monkeypatch, cfg):
    """Each user's device-noise stream draws one value per entry of that
    user's scans, and none for the cells a scan does not hear."""
    world = synthgen._world(cfg)
    streams: dict[int, CountedNormals] = {}
    substream = synthgen._substream

    def counted(seed, *tags):
        rng = substream(seed, *tags)
        if tags[0] == synthgen._STREAM_WIFI_NOISE:
            rng = streams[tags[1]] = CountedNormals(rng)
        return rng

    monkeypatch.setattr(synthgen, "_substream", counted)
    layout, user_ids, positions, phases = world
    scans = synthgen.wifi_scans(cfg, layout, positions, user_ids, phases)
    entries = np.bincount(scans.user[scans.entry_rows()], minlength=cfg.n_users)
    assert [streams[u].drawn for u in range(cfg.n_users)] == entries.tolist()


def assert_bluetooth_lines_round_trip(cfg):
    """The generated sightings, written by BluetoothSightings.lines and
    parsed strictly, are the same sightings."""
    _, user_ids, positions, phases = synthgen._world(cfg)
    table, _ = synthgen.bluetooth_and_truth(cfg, positions, user_ids, phases)
    parsed = parse_bluetooth_log(enumerate(table.lines(), 2), strict=True).records
    assert sightings_of(parsed) == sightings_of(table)
    return table


@settings(max_examples=30, deadline=None)
@given(cfg=small_worlds)
# two users who are never in range: an empty table, and no lines
@example(cfg=WorldConfig(seed=0, n_users=2, n_routers=4, days=1, scan_period_s=3600,
                         n_buildings=2, n_venues=2, area_m=1200.0, bt_range_m=0.5))
def test_generated_bluetooth_lines_round_trip(cfg):
    assert_bluetooth_lines_round_trip(cfg)


def test_town_bluetooth_lines_round_trip():
    assert len(assert_bluetooth_lines_round_trip(WorldConfig(days=1, seed=3))) > 10000


def assert_returned_scans_are_written(cfg, d):
    """The WifiScans that generate returns are the scans a strict parse
    reads back from the wifi.jsonl it wrote."""
    paths = [d / name for name in ("w.jsonl", "b.jsonl", "t.jsonl")]
    scans, _ = generate(cfg, *paths)
    parsed = parse_wifi_log(iter_jsonl(paths[0]), strict=True).records
    assert records_of(scans) == records_of(parsed)
    return scans


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=small_worlds)
def test_returned_scans_are_the_written_scans(tmp_path, cfg):
    assert_returned_scans_are_written(cfg, tmp_path)


def test_town_returned_scans_are_the_written_scans(tmp_path):
    scans = assert_returned_scans_are_written(WorldConfig(days=1, seed=3), tmp_path)
    assert len(scans) == 57600


def test_a_bt_level_below_the_rssi_range_clips_to_rssi_min(tmp_path):
    """Sighting RSSIs are clipped to [RSSI_MIN, -1], so a strict parse reads
    every line of the Bluetooth log."""
    cfg = WorldConfig(seed=7, n_users=8, n_routers=24, days=1, n_buildings=2, n_venues=2,
                      area_m=1200.0, bt_rssi_at_1m=-40000.0)
    paths = [tmp_path / name for name in ("w.jsonl", "b.jsonl", "t.jsonl")]
    generate(cfg, *paths)
    sightings = parse_bluetooth_log(iter_jsonl(paths[1]), strict=True).records
    assert len(sightings) and (sightings.rssi == RSSI_MIN).all()


def test_scans_with_no_router_in_reach_match_the_reference():
    """Blocks of slots spent far outside the town, where no router is in
    reach, give empty scans, as the per-scan writer's do."""
    cfg = WorldConfig(seed=4, n_users=3, n_routers=10, days=1, n_buildings=1,
                      n_venues=1, area_m=1200.0)
    layout, user_ids, positions, phases = synthgen._world(cfg)
    positions[1, :100] = 1e6          # a whole block of 64 slots and part of the next
    positions[2, 64:128] += 5e5
    got = list(synthgen.wifi_scans(cfg, layout, positions, user_ids, phases).lines())
    want = [json.dumps(row, separators=(",", ":")) for row in
            synthgen_reference.wifi_scan_rows(cfg, layout, positions, user_ids, phases)]
    assert got == want
    assert got[cfg.n_slots].endswith('"aps":[]}')


@settings(max_examples=200, deadline=None)
@given(p0=st.floats(-120.0, 60.0), exponent=st.floats(0.5, 6.0),
       floor=st.floats(-150.0, -1.0), seed=st.integers(0, 2 ** 32 - 1))
@example(p0=-80.5, exponent=2.8, floor=-80.5, seed=0)
@example(p0=-48.0, exponent=2.0, floor=-92.0, seed=1)  # an even floor: -92.5 rounds up
def test_every_heard_cell_lies_within_reach(p0, exponent, floor, seed):
    """Cells drawn on and around the boundary of the floor: each that the
    radio model hears lies within _squared_reach of its router."""
    cfg = WorldConfig(p0_dbm=p0, path_loss_exponent=exponent, wifi_detect_floor_dbm=floor)
    rng = np.random.default_rng(seed)
    n = 20000
    d = 10.0 ** rng.uniform(-1.0, 4.0, n)
    theta = rng.uniform(0.0, 2 * math.pi, n)
    dx, dy = d * np.cos(theta), d * np.sin(theta)
    d = np.hypot(dx, dy)

    def mean_rssi(d):
        # wifi_scans' expression
        return cfg.p0_dbm - 10.0 * cfg.path_loss_exponent * np.log10(np.maximum(d, 1.0))

    # a field that puts base on the lowest level heard, ceil(floor) - 0.5,
    # give or take a few ulps or a little more
    field = math.ceil(cfg.wifi_detect_floor_dbm) - 0.5 - mean_rssi(d)
    field += np.where(rng.random(n) < 0.5, rng.integers(-4, 5, n) * np.spacing(field),
                      rng.uniform(-0.6, 0.6, n))
    heard = np.rint(mean_rssi(d) + field) >= cfg.wifi_detect_floor_dbm
    assert heard.any()
    reach2 = synthgen._squared_reach(cfg, field)
    assert ((dx * dx + dy * dy)[heard] <= reach2[heard]).all()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       span=st.sampled_from([0.0, 64.0, 1e3, 1e6]),
       reach=st.sampled_from([1.0, 40.0, 300.0, 1e4, math.inf]))
@example(seed=0, n=12, span=1e6, reach=math.inf)
def test_a_reach_grid_lists_each_router_in_the_cell_of_every_point_within_reach(
        seed, n, span, reach):
    """Points on and a few ulps either side of the edges of the routers'
    reach, and points off the grid: each router within reach of a point,
    by wifi_scans' squared-distance test, is listed in the point's cell.
    Each cell lists its routers in index order, and the grid keeps to
    its budget."""
    rng = np.random.default_rng(seed)
    # half of the routers on the corners of 32 m cells
    rpos = rng.uniform(-span, span, (n, 2))
    rpos[::2] = np.round(rpos[::2] / synthgen._CELL_M) * synthgen._CELL_M
    reach2 = np.maximum(reach * rng.uniform(0.5, 1.5, n), 1.0) ** 2
    r = np.where(np.isinf(reach2), span + 1e3, np.sqrt(reach2))
    angle = rng.uniform(0.0, 2 * math.pi, (n, 8))
    angle[:, :4] = np.arange(4) * math.pi / 2   # along the axes
    edge = rpos[:, None] + r[:, None, None] * np.stack((np.cos(angle), np.sin(angle)), axis=-1)
    points = np.concatenate([
        (edge + rng.integers(-3, 4, edge.shape) * np.spacing(edge)).reshape(-1, 2),
        rng.uniform(-3 * span - 1e3, 3 * span + 1e3, (50, 2))])

    origin = rpos.min(axis=0)
    cell, shape, counts, routers = synthgen._reach_grid(rpos, reach2, origin,
                                                        rpos.max(axis=0) - origin)
    assert shape.prod() + len(routers) <= synthgen._GRID_BUDGET * n
    first = np.concatenate(([0], np.cumsum(counts)))
    xy = synthgen._cells(points, origin, cell, shape).astype(np.int64)
    for point, key in zip(points, xy[:, 1] * shape[0] + xy[:, 0]):
        listed = routers[first[key]:first[key + 1]]
        assert (np.diff(listed) > 0).all()
        dx, dy = point[0] - rpos[:, 0], point[1] - rpos[:, 1]
        assert np.isin(np.flatnonzero(dx * dx + dy * dy <= reach2), listed).all()
