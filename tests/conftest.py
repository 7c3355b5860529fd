"""Shared builders for scan fixtures and random-candidate generators."""

from __future__ import annotations

import json

import numpy as np
import pytest

from pairing_reference import BluetoothSighting
from wifi_proximity.features import FEATURE_NAMES
from wifi_proximity.ingest import BluetoothSightings, WifiScans, parse_wifi_log
from wifi_proximity.records import ApObservation, CandidatePair, WifiScanRecord
from wifi_proximity.synthgen import WorldConfig


# calibrate_stats on the tiny world: the figures that a record-based parse
# of its wifi.jsonl gave
TINY_WORLD_STATS = {
    "n_scans": 13824, "mean_aps": 4.048755787037037, "median_aps": 4.0,
    "empty_fraction": 0.016059027777777776,
    "proximate_overlap_mean": 6.727556596409055,
    "distant_overlap_mean": 0.6830601092896175,
    "n_proximate": 1281, "n_distant": 1281, "overlap_mannwhitney_p": 0.0,
}


def to_array(vec) -> np.ndarray:
    """A FeatureVector's values in FEATURE_NAMES order, a missing
    correlation as NaN: a row of extract_feature_matrix."""
    return np.array([np.nan if v is None else float(v)
                     for v in (getattr(vec, name) for name in FEATURE_NAMES)])


def mac(i: int) -> str:
    """Deterministic distinct bssid for index i."""
    return f"aa:bb:cc:{(i >> 16) & 0xFF:02x}:{(i >> 8) & 0xFF:02x}:{i & 0xFF:02x}"


def ap(i: int, rssi: int, ssid: str = "") -> ApObservation:
    return ApObservation(bssid=mac(i), ssid=ssid, rssi=rssi)


def scan(user: str, ts: int, aps) -> WifiScanRecord:
    return WifiScanRecord(user=user, ts=ts, aps=tuple(aps))


def scans_of(records) -> WifiScans:
    """The WifiScans that parse_wifi_log makes of these records' log lines."""
    lines = [json.dumps({"user": rec.user, "ts": rec.ts,
                         "aps": [{"bssid": a.bssid, "ssid": a.ssid, "rssi": a.rssi}
                                 for a in rec.aps]})
             for rec in records]
    return parse_wifi_log(enumerate(lines, start=1), strict=True).records


def records_of(scans: WifiScans) -> list[WifiScanRecord]:
    """One WifiScanRecord per row of scans, its APs in entry order."""
    bounds = scans.offsets.tolist()
    aps = [ApObservation(scans.bssids[b], scans.ssids[s], r) for b, s, r in
           zip(scans.bssid.tolist(), scans.ssid.tolist(), scans.rssi.tolist())]
    return [WifiScanRecord(scans.users[user], ts, tuple(aps[lo:hi]))
            for user, ts, lo, hi in zip(scans.user.tolist(), scans.ts.tolist(),
                                        bounds, bounds[1:])]


def sightings_of(sightings: BluetoothSightings) -> list[BluetoothSighting]:
    """One BluetoothSighting per row of sightings; an outside device has
    neither peer nor mac, as the table keeps no macs."""
    users = sightings.users
    return [BluetoothSighting(users[user], ts, users[peer] if peer >= 0 else None, None, rssi)
            for user, peer, ts, rssi in zip(sightings.user.tolist(), sightings.peer.tolist(),
                                            sightings.ts.tolist(), sightings.rssi.tolist())]


def random_scan(rng: np.random.Generator, user: str, ts: int,
                pool_size: int = 40, max_aps: int = 15,
                campus_ssid: str | None = None) -> WifiScanRecord:
    """Scan over a shared router pool so pairs overlap often."""
    n = int(rng.integers(0, max_aps + 1))
    idx = rng.choice(pool_size, size=n, replace=False)
    aps = []
    for i in idx:
        ssid = ""
        if campus_ssid is not None and i % 7 == 0:
            ssid = campus_ssid
        aps.append(ap(int(i), int(rng.integers(-95, 0)), ssid))
    return scan(user, ts, aps)


def random_pair(rng: np.random.Generator, label: int = 0,
                campus_ssid: str | None = None) -> CandidatePair:
    ts_a = int(rng.integers(0, 10 ** 9))
    ts_b = ts_a + int(rng.integers(-300, 301))
    sa = random_scan(rng, "ua", ts_a, campus_ssid=campus_ssid)
    sb = random_scan(rng, "ub", max(ts_b, 0), campus_ssid=campus_ssid)
    bt = int(rng.integers(-90, -20)) if label == 1 else None
    return CandidatePair(user_a="ua", user_b="ub", scan_a=sa, scan_b=sb,
                         ts=min(sa.ts, sb.ts), label=label, bt_rssi=bt)


def world_conf(world: WorldConfig) -> str:
    """A pipeline config file's text that generates ``world``."""
    keys = ("n_users", "n_routers", "days", "n_buildings", "n_venues", "area_m")
    return "".join(f"world.{k} = {getattr(world, k)}\n" for k in keys) + \
        f"seed = {world.seed}\n"


@pytest.fixture(scope="session")
def tiny_world() -> WorldConfig:
    """Small world for unit tests: quick to generate, still has meetings."""
    return WorldConfig(seed=7, n_users=24, n_routers=80, days=2,
                       n_buildings=2, n_venues=2, area_m=1200.0)
