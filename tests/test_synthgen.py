"""The synthetic world: layout, radio, truth, and the emitted files."""

import json
import math

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from wifi_proximity import synthgen
from wifi_proximity.fileio import iter_jsonl, read_jsonl_header
from wifi_proximity.fileio import SCHEMA_BLUETOOTH, SCHEMA_GROUND_TRUTH, SCHEMA_WIFI
from wifi_proximity.ingest import (
    build_home_router_map,
    parse_bluetooth_log,
    parse_wifi_log,
)
from wifi_proximity.synthgen import (
    WEEKDAY_HOUR_PROFILE,
    WEEKEND_HOUR_PROFILE,
    GroundTruth,
    WorldConfig,
    assign_groups,
    build_layout,
    calibrate_stats,
    generate,
    load_ground_truth,
)


class TestWorldConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_users": 0},
        {"days": -1},
        {"campus_fraction": 1.5},
        {"bt_detect_prob": -0.1},
        {"scan_period_s": 7},          # does not divide a day
        {"meeting_min_slots": 0},
        {"meeting_max_slots": 1, "meeting_min_slots": 5},
        {"group_size_cycle": (1, 3)},  # singleton groups disallowed
        {"group_size_cycle": ()},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorldConfig(**kwargs)

    def test_slot_arithmetic(self):
        cfg = WorldConfig(days=2, scan_period_s=300)
        assert cfg.slots_per_day == 288
        assert cfg.n_slots == 576

    def test_as_dict_replace_round_trip(self):
        cfg = WorldConfig(seed=4, n_users=30)
        d = cfg.as_dict()
        assert d["seed"] == 4 and d["group_size_cycle"] == [3, 4, 5, 4]
        cfg2 = cfg.replace(n_users=40)
        assert cfg2.n_users == 40 and cfg2.seed == 4
        assert cfg.n_users == 30  # original untouched

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
        cfg = WorldConfig(seed=3, n_users=50, n_routers=40, days=1)
        with pytest.raises(ValueError):
            build_layout(cfg, np.random.default_rng(0))

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


class TestBluetoothAndTruth:
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
        sightings, proximity = synthgen.bluetooth_and_truth(
            cfg, positions, ["u0", "u1", "u2"], phases)
        assert len(sightings[0]) == cfg.n_slots
        assert len(sightings[1]) == cfg.n_slots
        assert sightings[2] == []
        assert all(peer == "u1" for _, peer, _ in sightings[0])
        # truth records the pair with its true distance every slot
        assert len(proximity) == cfg.n_slots
        for ts, pairs in proximity.items():
            assert pairs == [("u0", "u1", 5.0)]

    def test_sightings_carry_the_observer_phase(self):
        cfg, positions, phases = self.pinned_world()
        sightings, _ = synthgen.bluetooth_and_truth(
            cfg, positions, ["u0", "u1", "u2"], phases)
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
        near = [r for _, peer, r in sightings[0] if peer == "u1"]
        far = [r for _, peer, r in sightings[0] if peer == "u2"]
        assert np.mean(near) > np.mean(far)
        assert max(r for _, _, r in sightings[0]) <= -1

    def test_detection_probability_thins_sightings(self):
        cfg, positions, phases = self.pinned_world()
        cfg2 = cfg.replace(bt_detect_prob=0.5)
        sightings, proximity = synthgen.bluetooth_and_truth(
            cfg2, positions, ["u0", "u1", "u2"], phases)
        n = cfg2.n_slots
        assert 0.3 * n < len(sightings[0]) < 0.7 * n
        assert len(proximity) == n  # truth is unaffected by detection


class TestGroundTruthEpisodes:
    def test_pair_intervals_merge_consecutive_slots(self):
        proximity = {
            1000: [("a", "b", 2.0)],
            1300: [("a", "b", 2.0)],
            1600: [("a", "b", 2.0)],
            4000: [("a", "b", 2.0)],
        }
        gt = GroundTruth(homes={}, proximity=proximity)
        episodes = gt.pair_intervals(period_s=300)
        assert episodes[("a", "b")] == [(1000, 1900), (4000, 4300)]


@pytest.fixture(scope="module")
def world(tmp_path_factory, tiny_world):
    d = tmp_path_factory.mktemp("world")
    paths = (d / "wifi.jsonl", d / "bluetooth.jsonl", d / "truth.jsonl")
    truth = generate(tiny_world, *paths, config_hash="testhash")
    return tiny_world, paths, truth


class TestGeneratedFiles:
    def test_headers_and_schemas(self, world):
        _, (wifi, bt, truth), _ = world
        assert read_jsonl_header(wifi, SCHEMA_WIFI, "testhash")
        assert read_jsonl_header(bt, SCHEMA_BLUETOOTH, "testhash")
        assert read_jsonl_header(truth, SCHEMA_GROUND_TRUTH, "testhash")

    def test_wifi_rows_parse_and_count(self, world):
        cfg, (wifi, _, _), _ = world
        records = parse_wifi_log(iter_jsonl(wifi), strict=True).records
        assert len(records) == cfg.n_users * cfg.n_slots
        users = {r.user for r in records}
        assert len(users) == cfg.n_users

    def test_rssi_within_radio_bounds(self, world):
        cfg, (wifi, _, _), _ = world
        for rec in parse_wifi_log(iter_jsonl(wifi), strict=True).records:
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

    def test_load_ground_truth_round_trip(self, world):
        cfg, (_, _, truth_path), truth = world
        loaded = load_ground_truth(truth_path)
        assert loaded.homes == truth.homes
        assert loaded.proximity == truth.proximity

    def test_bluetooth_sightings_parse(self, world):
        _, (_, bt, _), _ = world
        res = parse_bluetooth_log(iter_jsonl(bt), strict=True)
        assert res.records
        assert all(s.peer is not None for s in res.records)

    def test_bluetooth_ts_within_dilated_truth(self, world):
        cfg, (_, bt, _), truth = world
        episodes = truth.pair_intervals(cfg.scan_period_s)
        res = parse_bluetooth_log(iter_jsonl(bt), strict=True)
        for s in res.records:
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

    def test_proximate_pairs_overlap_more(self, world):
        cfg, (wifi, _, truth_path), _ = world
        stats = calibrate_stats(wifi, truth_path, seed=1)
        assert stats["proximate_overlap_mean"] > stats["distant_overlap_mean"]
        assert stats["overlap_mannwhitney_p"] < 0.01

    def test_calibration_stats_sane(self, world):
        cfg, (wifi, _, _), _ = world
        stats = calibrate_stats(wifi)
        assert stats["n_scans"] == cfg.n_users * cfg.n_slots
        assert 1.0 < stats["mean_aps"] < 20.0
        assert 0.0 <= stats["empty_fraction"] < 0.3


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
            generate(tiny_world.replace(seed=seed), *paths)
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
        records = parse_wifi_log(iter_jsonl(paths[0]), strict=True).records
        assert len(records) == cfg.n_users * cfg.n_slots
        by_count = sum(1 for r in records if not r.aps)
        assert by_count > 0
