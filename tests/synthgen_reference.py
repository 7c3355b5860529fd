"""The per-scan WiFi writer, the all-pairs Bluetooth search with its
per-user sighting lists, and the dict-row Bluetooth and truth writer
that `synthgen.generate` replaced, kept as the reference they are
compared with.

`wifi_scan_rows` yields one dict per scan and evaluates the radio model
on every (slot, router) cell, with no pruning, drawing a device-noise
value for each visible one; `bluetooth_and_truth` measures
every user pair in every slot and keeps each user's sightings as a list
of (ts, peer id, rssi) tuples; `write_bluetooth_and_truth` groups them
into dict rows. Every dict row is encoded with `json.dumps` and compact
separators (`encoded`). `generate` below writes the three raw logs from
these three and from the parts of `synthgen` that did not change;
`synthgen.generate`, which builds an `ingest.BluetoothSightings` table
and writes it with `BluetoothSightings.lines`, must write the same bytes
and return the same truth: its homes, and its truth columns entry for
entry as this `GroundTruth`'s per-slot lists, which hold each distance
as `round(d, 2)`.

`load_ground_truth` reads a written truth log back into a `GroundTruth`,
for the tests that check it against the scans and the sightings.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from wifi_proximity import fileio, synthgen
from wifi_proximity.fileio import SCHEMA_BLUETOOTH, SCHEMA_GROUND_TRUTH, SCHEMA_WIFI
from wifi_proximity.synthgen import (
    _STREAM_BLUETOOTH,
    _STREAM_WIFI_FIELD,
    _STREAM_WIFI_NOISE,
    Layout,
    WorldConfig,
    _substream,
)


@dataclass
class GroundTruth:
    """True homes and per-slot close-proximity pairs (distance in meters)."""

    homes: dict[str, str]
    proximity: dict[int, list[tuple[str, str, float]]]


def encoded(rows: Iterable[dict]) -> Iterator[str]:
    """Each row's JSON text, as `json.dumps` gives it with compact separators."""
    return (json.dumps(row, separators=(",", ":")) for row in rows)


def bluetooth_and_truth(
    cfg: WorldConfig,
    positions: np.ndarray,
    user_ids: list[str],
    phases: np.ndarray,
) -> tuple[dict[int, list[tuple[int, str, int]]], dict[int, list[tuple[str, str, float]]]]:
    """Scan-period Bluetooth detections plus the true proximity table.

    For every slot, every ordered pair within bt_range_m yields a sighting
    with probability bt_detect_prob per direction; sighting RSSI decays
    log-linearly with distance. All pairs within range enter the truth
    table regardless of detection.
    """
    n_users, n_slots = positions.shape[:2]
    rng = _substream(cfg.seed, _STREAM_BLUETOOTH)
    iu, jv = np.triu_indices(n_users, k=1)
    sightings: dict[int, list[tuple[int, str, int]]] = {u: [] for u in range(n_users)}
    proximity: dict[int, list[tuple[str, str, float]]] = {}

    for t in range(n_slots):
        pos = positions[:, t]
        diff = pos[iu] - pos[jv]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        close = dist < cfg.bt_range_m
        if not close.any():
            continue
        a_idx = iu[close]
        b_idx = jv[close]
        d = dist[close]
        slot_ts = cfg.start_ts + t * cfg.scan_period_s
        proximity[slot_ts] = [
            (user_ids[a], user_ids[b], round(float(dd), 2))
            for a, b, dd in zip(a_idx, b_idx, d)
        ]
        detect = rng.random((len(d), 2)) < cfg.bt_detect_prob
        noise = rng.normal(0.0, cfg.bt_noise_sigma_db, (len(d), 2))
        base = cfg.bt_rssi_at_1m - 10.0 * cfg.bt_path_exponent * np.log10(
            np.maximum(d, 0.3)
        )
        rssi = np.minimum(-1, np.rint(base[:, None] + noise)).astype(int)
        for k in range(len(d)):
            a, b = int(a_idx[k]), int(b_idx[k])
            if detect[k, 0]:
                sightings[a].append((slot_ts + int(phases[a]), user_ids[b], int(rssi[k, 0])))
            if detect[k, 1]:
                sightings[b].append((slot_ts + int(phases[b]), user_ids[a], int(rssi[k, 1])))
    return sightings, proximity


def wifi_scan_rows(
    cfg: WorldConfig,
    layout: Layout,
    positions: np.ndarray,
    user_ids: list[str],
    phases: np.ndarray,
) -> Iterator[dict]:
    """Per-user scan rows, user-major then time-major.

    Work is vectorized over fixed blocks of slots, and the radio model is
    evaluated on every (slot, router) cell of the block: a scan hears
    each router that the model puts at or over the floor. The device
    noise is drawn once per visible cell, in row-major (slot, router)
    order, from the user's own stream.
    """
    rpos = layout.router_pos
    n_slots = cfg.n_slots
    field = _substream(cfg.seed, _STREAM_WIFI_FIELD).normal(
        0.0, cfg.noise_sigma_db, (len(rpos), n_slots)
    )

    for uidx in range(cfg.n_users):
        rng = _substream(cfg.seed, _STREAM_WIFI_NOISE, uidx)
        pos = positions[uidx]
        out: list[tuple[int, list[tuple[str, str, int]]]] = []
        block = 64
        for s0 in range(0, n_slots, block):
            s1 = min(n_slots, s0 + block)
            chunk = pos[s0:s1]
            d = np.hypot(
                chunk[:, 0][:, None] - rpos[:, 0][None, :],
                chunk[:, 1][:, None] - rpos[:, 1][None, :],
            )
            mean_rssi = cfg.p0_dbm - 10.0 * cfg.path_loss_exponent * np.log10(
                np.maximum(d, 1.0)
            )
            base = mean_rssi + field[:, s0:s1].T
            visible = np.rint(base) >= cfg.wifi_detect_floor_dbm
            # one device-noise draw per visible cell, in row-major (t, j)
            # order; sensitivity-limited readings pile up at the floor
            noise = np.zeros(d.shape)
            noise[visible] = rng.normal(0.0, cfg.device_noise_sigma_db, int(visible.sum()))
            rssi = np.rint(base + noise)
            rssi = np.clip(rssi, cfg.wifi_detect_floor_dbm, -1.0)
            for t in range(s0, s1):
                row = np.nonzero(visible[t - s0])[0]
                aps = [
                    (layout.router_bssid[j], layout.router_ssid[j], int(rssi[t - s0, j]))
                    for j in row
                ]
                aps.sort(key=lambda item: (-item[2], item[0]))
                out.append((t, aps))
        uid = user_ids[uidx]
        phase = int(phases[uidx])
        for t, aps in out:
            yield {
                "user": uid,
                "ts": cfg.start_ts + t * cfg.scan_period_s + phase,
                "aps": [{"bssid": b, "ssid": s, "rssi": r} for b, s, r in aps],
            }


def write_bluetooth_and_truth(
    cfg: WorldConfig,
    layout: Layout,
    user_ids: list[str],
    sightings: dict[int, list[tuple[int, str, int]]],
    proximity: dict[int, list[tuple[str, str, float]]],
    bluetooth_path,
    truth_path,
    cfg_hash: str,
) -> GroundTruth:
    """Write the Bluetooth log and the truth file; return the truth."""

    def bt_rows() -> Iterator[dict]:
        for uidx in range(cfg.n_users):
            by_ts: dict[int, list[tuple[str, int]]] = {}
            for ts, peer, rssi in sightings[uidx]:
                by_ts.setdefault(ts, []).append((peer, rssi))
            for ts in sorted(by_ts):
                seen = sorted(by_ts[ts])
                yield {
                    "user": user_ids[uidx],
                    "ts": ts,
                    "seen": [{"peer": p, "rssi": r} for p, r in seen],
                }

    fileio.write_jsonl(bluetooth_path, SCHEMA_BLUETOOTH, cfg_hash, encoded(bt_rows()))

    homes = {
        user_ids[u]: layout.router_bssid[int(layout.home_router_idx[u])]
        for u in range(cfg.n_users)
    }

    def truth_rows() -> Iterator[dict]:
        for uid in user_ids:
            yield {"user": uid, "home_bssid": homes[uid]}
        for ts in sorted(proximity):
            pairs = [[ua, ub, d] for ua, ub, d in sorted(proximity[ts])]
            yield {"ts": ts, "pairs": pairs}

    fileio.write_jsonl(truth_path, SCHEMA_GROUND_TRUTH, cfg_hash, encoded(truth_rows()))
    return GroundTruth(homes=homes, proximity=proximity)


def generate(cfg: WorldConfig, wifi_path, bluetooth_path, truth_path,
             config_hash: str | None = None) -> GroundTruth:
    """synthgen.generate with the three functions above in place of its own."""
    cfg_hash = config_hash or fileio.config_hash(asdict(cfg))
    layout, user_ids, positions, phases = synthgen._world(cfg)
    sightings, proximity = bluetooth_and_truth(cfg, positions, user_ids, phases)
    fileio.write_jsonl(wifi_path, SCHEMA_WIFI, cfg_hash,
                       encoded(wifi_scan_rows(cfg, layout, positions, user_ids, phases)))
    return write_bluetooth_and_truth(
        cfg, layout, user_ids, sightings, proximity, bluetooth_path, truth_path, cfg_hash)


def load_ground_truth(path) -> GroundTruth:
    """Read the truth JSONL that `synthgen.generate` wrote."""
    fileio.read_jsonl_header(path, SCHEMA_GROUND_TRUTH)
    homes: dict[str, str] = {}
    proximity: dict[int, list[tuple[str, str, float]]] = {}
    for line_no, line in fileio.iter_jsonl(path):
        try:
            doc = json.loads(line.encode("utf-8"))  # lone surrogates: bytes not UTF-8
        except (ValueError, RecursionError) as exc:
            raise fileio.DataError(f"{path}:{line_no}: bad JSON: {exc}") from exc
        if "home_bssid" in doc:
            homes[doc["user"]] = doc["home_bssid"]
        elif "pairs" in doc:
            proximity[int(doc["ts"])] = [
                (ua, ub, float(d)) for ua, ub, d in doc["pairs"]
            ]
        else:
            raise fileio.DataError(f"{path}:{line_no}: unknown ground-truth row")
    return GroundTruth(homes=homes, proximity=proximity)
