"""Deterministic synthetic town: agents, schedules, radio, ground truth.

The world is a square town holding residential complexes, campus
buildings that all broadcast one shared SSID, and a handful of venues.
Agents follow weekday/weekend schedules (campus study rooms, errands,
evenings out) and meet in small friend groups driven by an hour-of-week
intensity profile. A log-distance path-loss model turns agent positions
into WiFi scans; short-range Bluetooth sightings between agents provide
the proximity ground truth.

Everything is driven by named substreams of one seed, so identical
configs produce byte-identical output files.

The WiFi scans are built as an ``ingest.WifiScans`` table, a user at a
time, and written by ``WifiScans.lines``, the encoder of cleaned.jsonl;
no object is made per scan. The radio model is computed only on the
(slot, router) pairs that a uniform grid of the routers' reach boxes,
one per block of slots, puts near each other, and device noise is drawn
only for the cells a scan hears. Each slot's Bluetooth contacts come
from a sweep along x over the sorted users, so only pairs within a band
of ``bt_range_m`` are measured; the rest of the Bluetooth model runs
once over all slots' pairs. The sightings are an
``ingest.BluetoothSightings`` table in log order, written by
``BluetoothSightings.lines``, so ``ingest`` alone knows both logs'
formats. The truth is columns of (slot, user a, user b, distance), its
rows written as JSON text. ``generate`` returns the scans and the
truth, and ``calibrate_stats`` (``--stats``) reads no file: from the
world config it computes the row of each user's scan at each truth
slot, counts overlaps by finding each (dyad, router) key of a dyad's
first scan among those of its second, draws at most
``DISTANT_PAIRS`` distant dyads from the ``STATS_SEED`` stream, and
tests the two samples on one ``evaluation.class_counts``.

The code relies on the orders that the town fixes: users and routers
are numbered by index, ``_user_id`` and ``_bssid`` name them so that
index order is string order, and the scan table holds one scan per user
and slot, user after user.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from . import fileio
from .evaluation import class_counts, mann_whitney_u
from .fileio import (
    SCHEMA_BLUETOOTH,
    SCHEMA_GROUND_TRUTH,
    SCHEMA_WIFI,
)
from .ingest import BluetoothSightings, WifiScans, _ranges
from .records import DAY_S, RSSI_MIN, TS_END

TAU = 2.0 * math.pi

# rng substream tags: one parent seed, disjoint children per concern
_STREAM_LAYOUT = 0
_STREAM_MEETINGS = 1
_STREAM_PLANS = 2
_STREAM_BLUETOOTH = 3
_STREAM_POSITIONS = 4
_STREAM_WIFI_NOISE = 5
_STREAM_PHASES = 6
_STREAM_WIFI_FIELD = 7

# build_plans draws its times in units of 5 minutes, whatever the scan period
_PLAN_UNIT_S = 300

# the town's layout and behaviour that no knob sets. The config hash covers
# them beside WorldConfig's fields, so that a world's hash does not depend
# on which of its values are knobs
FIXED = {
    "room_ring_m": 30.0,
    "room_radius_m": 7.0,
    # venue districts span a detection radius, so a visitor's AP set
    # depends on where in the district they stand
    "venue_radius_m": 45.0,
    "visitor_radius_m": 30.0,
    "dense_home_fraction": 0.5,
    "complex_pitch_m": 30.0,
    "meeting_attendance": 0.8,
    "loose_meeting_prob": 0.3,
    "meeting_venue_prob": 0.55,
    "venue_evening_prob_weekday": 0.30,
    "venue_evening_prob_weekend": 0.35,
    "weekend_outing_prob": 0.55,
    "errand_prob": 0.6,
    "walk_prob": 0.3,
}

# calibrate_stats draws at most this many distant dyads, from this seed
DISTANT_PAIRS, STATS_SEED = 20000, 0

# wifi_scans' reach grids: the side of a cell, in metres, which _reach_grid
# doubles while a grid would hold more than _GRID_BUDGET cells and entries
# per router
_CELL_M = 32.0
_GRID_BUDGET = 256


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for the synthetic town. Defaults give a week of campus life.

    ``dataclasses.asdict`` plus ``FIXED``, the values of the town that no
    knob sets, gives the values that the config hash covers, and
    ``dataclasses.replace`` a variant, checked again by __post_init__.
    """

    seed: int = 0
    area_m: float = 2000.0
    n_routers: int = 500
    n_users: int = 200
    days: int = 7
    scan_period_s: int = 300
    start_ts: int = 1600041600  # a Monday 00:00 UTC

    # radio
    campus_fraction: float = 0.3
    path_loss_exponent: float = 2.8
    p0_dbm: float = -48.0
    # shadowing splits into an environmental field shared by everyone at
    # the same spot (walls, crowds) and a per-device sampling term. Whether
    # a beacon decodes at all is a channel property, so membership follows
    # the shared field; the reported dBm figure additionally carries the
    # device term, making values noisier than set membership.
    noise_sigma_db: float = 4.0
    device_noise_sigma_db: float = 3.0
    wifi_detect_floor_dbm: float = -92.0
    bt_range_m: float = 10.0
    bt_detect_prob: float = 0.8
    bt_rssi_at_1m: float = -45.0
    bt_path_exponent: float = 3.0
    bt_noise_sigma_db: float = 3.0
    campus_ssid: str = "dtu"

    # layout
    site_pitch_m: float = 200.0
    n_buildings: int = 10
    rooms_per_building: int = 9
    building_radius_m: float = 40.0
    n_venues: int = 6
    dense_complex_units: int = 12
    street_routers_per_dense_complex: int = 2

    # behaviour
    goer_fraction: float = 0.5
    group_size_cycle: tuple[int, ...] = (3, 4, 5, 4)
    weekday_meeting_rate: float = 1.3
    weekend_meeting_rate: float = 0.9
    # meeting lengths in 5-minute units, whatever the scan period (the
    # names predate that; renaming them would change every config hash)
    meeting_min_slots: int = 4
    meeting_max_slots: int = 24

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        # counts and lengths the code divides by or draws from, and the
        # radio model's loss, which must grow with distance
        for name in ("area_m", "n_routers", "n_users", "days", "scan_period_s",
                     "site_pitch_m", "rooms_per_building", "dense_complex_units",
                     "path_loss_exponent", "bt_range_m", "bt_path_exponent"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        for name in ("seed", "start_ts", "n_buildings", "n_venues",
                     "street_routers_per_dense_complex", "building_radius_m",
                     "weekday_meeting_rate", "weekend_meeting_rate", "noise_sigma_db",
                     "device_noise_sigma_db", "bt_noise_sigma_db"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("campus_fraction", "bt_detect_prob", "goer_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        # every generated ts lies in [0, TS_END), which ingest accepts
        if self.start_ts + self.days * DAY_S > TS_END:
            raise ValueError(f"start_ts + days * {DAY_S} must be <= {TS_END}, "
                             f"got start_ts {self.start_ts!r}")
        # the schedules place whole scans in every hour
        if 3600 % self.scan_period_s != 0:
            raise ValueError(f"scan_period_s must divide 3600, got {self.scan_period_s}")
        if self.meeting_min_slots < 1 or self.meeting_max_slots < self.meeting_min_slots:
            raise ValueError("meeting duration bounds are inconsistent")
        if not self.group_size_cycle or min(self.group_size_cycle) < 2:
            raise ValueError("group sizes must be at least 2")
        # generated RSSIs lie in [floor, -1], which ingest must accept
        if self.wifi_detect_floor_dbm < RSSI_MIN:
            raise ValueError(f"wifi_detect_floor_dbm must be >= {RSSI_MIN}, "
                             f"got {self.wifi_detect_floor_dbm!r}")
        if self.n_routers >= 1 << 24:
            raise ValueError(f"n_routers must be < {1 << 24}, the range of the bssids, "
                             f"got {self.n_routers!r}")
        _layout_counts(self)  # the budget and the area hold the layout

    @property
    def slots_per_day(self) -> int:
        return 86400 // self.scan_period_s

    @property
    def n_slots(self) -> int:
        return self.days * self.slots_per_day


@dataclass
class Layout:
    """Static geometry: router positions and the places agents can be."""

    router_pos: np.ndarray  # (R, 2)
    router_bssid: list[str]
    router_ssid: list[str]
    home_router_idx: np.ndarray  # (n_users,)
    home_pos: np.ndarray  # (n_users, 2)
    building_centers: np.ndarray  # (B, 2)
    room_centers: np.ndarray  # (B, rooms, 2)
    venue_centers: np.ndarray  # (V, 2)

    @property
    def n_buildings(self) -> int:
        return len(self.building_centers)

    @property
    def n_venues(self) -> int:
        return len(self.venue_centers)


@dataclass
class GroundTruth:
    """True homes, and every pair of users within Bluetooth range at a
    slot as four columns in (slot, a, b) order: the slot's start ts, the
    user indices a < b, and their distance in metres, unrounded."""

    homes: dict[str, str]
    ts: np.ndarray
    a: np.ndarray
    b: np.ndarray
    distance: np.ndarray


def _substream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _bssid(idx: int) -> str:
    if not 0 <= idx < 1 << 24:
        raise ValueError("router index out of MAC range")
    return f"02:00:00:{(idx >> 16) & 0xFF:02x}:{(idx >> 8) & 0xFF:02x}:{idx & 0xFF:02x}"


def _user_id(idx: int, n_users: int) -> str:
    width = max(3, len(str(n_users - 1)))
    return f"u{idx:0{width}d}"


def _disc_points(rng: np.random.Generator, center: np.ndarray, radius: float, n: int) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * TAU
    return center + np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _layout_counts(cfg: WorldConfig) -> tuple[int, ...]:
    """build_layout's counts: campus and street routers, the routers left
    for venues or else the town, buildings, venues, users in dense
    complexes, and dense and sparse complexes. ValueError naming the key
    when the budget lacks a home router per user, or the site grid a site
    per building, venue and complex."""
    n_campus = int(round(cfg.campus_fraction * cfg.n_routers))
    spare = cfg.n_routers - n_campus - cfg.n_users
    if spare < 0:
        raise ValueError(f"n_users must be <= n_routers less its {n_campus} campus routers, "
                         f"one home router each, got n_users {cfg.n_users}, "
                         f"n_routers {cfg.n_routers}")

    n_dense_users = int(round(FIXED["dense_home_fraction"] * cfg.n_users))
    n_dense_cplx = math.ceil(n_dense_users / cfg.dense_complex_units) if n_dense_users else 0
    n_sparse_users = cfg.n_users - n_dense_users
    n_sparse_cplx = math.ceil(n_sparse_users / 2) if n_sparse_users else 0

    n_street = min(spare, cfg.street_routers_per_dense_complex * n_dense_cplx)
    spare -= n_street
    n_venues = min(cfg.n_venues, spare) if spare > 0 else 0
    n_buildings = max(1, min(cfg.n_buildings, n_campus)) if n_campus else 0

    # the length of build_layout's np.arange of grid coordinates, as a
    # float: a tiny pitch may give an infinite grid
    pitch = cfg.site_pitch_m
    side = float(np.ceil(max(0.0, (cfg.area_m - pitch / 2.0 + 1e-9 - pitch / 2.0) / pitch)))
    n_sites_needed = n_buildings + n_venues + n_dense_cplx + n_sparse_cplx
    if n_sites_needed > side * side:
        raise ValueError(f"area_m {cfg.area_m:g} holds {side * side:.0f} sites at site_pitch_m "
                         f"{pitch:g}, need {n_sites_needed}")
    return (n_campus, n_street, spare, n_buildings, n_venues, n_dense_users,
            n_dense_cplx, n_sparse_cplx)


def build_layout(cfg: WorldConfig, rng: np.random.Generator) -> Layout:
    """Place sites on a coarse grid, then routers and homes inside them."""
    (n_campus, n_street, spare, n_buildings, n_venues, n_dense_users,
     n_dense_cplx, n_sparse_cplx) = _layout_counts(cfg)
    venue_router_counts = [0] * n_venues
    n_scatter = spare
    if n_venues:
        # venues get unequal router counts: absolute overlap counts then
        # depend on which venue a pair met at, while set ratios do not
        weights = np.arange(1, n_venues + 1, dtype=float)
        shares = np.floor(spare * weights / weights.sum()).astype(int)
        shares[: spare - int(shares.sum())] += 1
        venue_router_counts = shares.tolist()
        n_scatter = 0

    # jitter-free site grid: far enough apart that sites never share APs
    pitch = cfg.site_pitch_m
    coords = np.arange(pitch / 2.0, cfg.area_m - pitch / 2.0 + 1e-9, pitch)
    sites = np.array([(x, y) for x in coords for y in coords])
    order = rng.permutation(len(sites))[:n_buildings + n_venues + n_dense_cplx + n_sparse_cplx]
    building_centers, venue_centers, dense_centers, sparse_centers = np.split(
        sites[order], np.cumsum([n_buildings, n_venues, n_dense_cplx]))

    router_pos: list[np.ndarray] = []
    router_ssid: list[str] = []

    for b, center in enumerate(building_centers):
        share = n_campus // n_buildings + (1 if b < n_campus % n_buildings else 0)
        router_pos.append(_disc_points(rng, center, cfg.building_radius_m, share))
        router_ssid.extend([cfg.campus_ssid] * share)

    room_centers = np.zeros((n_buildings, cfg.rooms_per_building, 2))
    for b, center in enumerate(building_centers):
        angles = TAU * np.arange(cfg.rooms_per_building) / cfg.rooms_per_building
        room_centers[b, :, 0] = center[0] + FIXED["room_ring_m"] * np.cos(angles)
        room_centers[b, :, 1] = center[1] + FIXED["room_ring_m"] * np.sin(angles)

    for v, center in enumerate(venue_centers):
        k = venue_router_counts[v]
        router_pos.append(_disc_points(rng, center, FIXED["venue_radius_m"], k))
        router_ssid.extend([f"venue-{v:02d}-{j}" for j in range(k)])

    # homes laid out on small grids inside each complex
    def _complex_homes(center: np.ndarray, units: int, columns: int) -> np.ndarray:
        rows = math.ceil(units / columns)
        ix = np.arange(units) % columns
        iy = np.arange(units) // columns
        offx = (ix - (columns - 1) / 2.0) * FIXED["complex_pitch_m"]
        offy = (iy - (rows - 1) / 2.0) * FIXED["complex_pitch_m"]
        return center + np.column_stack((offx, offy))

    unit_spots: list[np.ndarray] = []
    street_pos: list[np.ndarray] = []
    street_left = n_street
    placed = 0
    for center in dense_centers:
        units = min(cfg.dense_complex_units, n_dense_users - placed)
        unit_spots.append(_complex_homes(center, units, columns=4))
        placed += units
        take = min(cfg.street_routers_per_dense_complex, street_left)
        if take:
            # down the street from the complex: outside the home grid, so a
            # user's own router always beats them on per-bin visibility
            theta = rng.random(take) * TAU
            ring = center + 80.0 * np.column_stack((np.cos(theta), np.sin(theta)))
            street_pos.append(ring)
            street_left -= take
    for center in sparse_centers:
        units = min(2, cfg.n_users - placed)
        unit_spots.append(_complex_homes(center, units, columns=2))
        placed += units

    # users draw homes at random so friend groups are spread across town
    all_units = np.vstack(unit_spots)
    home_pos = all_units[rng.permutation(cfg.n_users)]

    first_home_router = sum(len(p) for p in router_pos)
    router_pos.append(home_pos.copy())
    router_ssid.extend([f"home-{u:03d}" for u in range(cfg.n_users)])
    home_idx = list(range(first_home_router, first_home_router + cfg.n_users))

    for block in street_pos:
        start = sum(len(p) for p in router_pos)
        router_pos.append(block)
        router_ssid.extend([f"street-{start + j:03d}" for j in range(len(block))])

    if n_scatter:
        start = sum(len(p) for p in router_pos)
        router_pos.append(rng.random((n_scatter, 2)) * cfg.area_m)
        router_ssid.extend([f"town-{start + j:03d}" for j in range(n_scatter)])

    all_pos = np.vstack([p for p in router_pos if len(p)])
    if len(all_pos) != cfg.n_routers:
        raise AssertionError("router budget accounting is off")
    bssids = [_bssid(i) for i in range(len(all_pos))]

    return Layout(
        router_pos=all_pos,
        router_bssid=bssids,
        router_ssid=router_ssid,
        home_router_idx=np.array(home_idx, dtype=np.int64),
        home_pos=home_pos,
        building_centers=building_centers,
        room_centers=room_centers,
        venue_centers=venue_centers,
    )


def assign_groups(cfg: WorldConfig) -> list[list[int]]:
    """Partition users into friend groups by cycling the size pattern."""
    groups: list[list[int]] = []
    cycle = cfg.group_size_cycle
    i = 0
    remaining = cfg.n_users
    next_user = 0
    while remaining > 0:
        size = min(cycle[i % len(cycle)], remaining)
        if remaining - size == 1:
            size += 1  # do not leave a singleton behind
        groups.append(list(range(next_user, next_user + size)))
        next_user += size
        remaining -= size
        i += 1
    return groups


def _weekday(cfg: WorldConfig, day: int) -> int:
    return int((cfg.start_ts // 86400 + 3 + day) % 7)


# relative meeting intensity per local hour; zero overnight
WEEKDAY_HOUR_PROFILE = np.array(
    [0, 0, 0, 0, 0, 0, 0, 0.5, 1.5, 3, 4, 4, 3.5, 4, 4, 4, 3.5, 3, 3.5, 4, 3, 2, 1, 0.3]
)
WEEKEND_HOUR_PROFILE = np.array(
    [0, 0, 0, 0, 0, 0, 0, 0, 0.3, 1, 2, 3, 3.5, 3.5, 3, 3, 2.5, 2.5, 3, 3.5, 3, 2, 1, 0.5]
)


@dataclass
class Meeting:
    start_slot: int
    end_slot: int
    attendees: list[int]
    anchor: np.ndarray
    offsets: np.ndarray  # (len(attendees), 2)


def schedule_meetings(
    cfg: WorldConfig,
    layout: Layout,
    groups: list[list[int]],
    is_goer: np.ndarray,
    day_building: dict[int, np.ndarray],
    rng: np.random.Generator,
) -> list[Meeting]:
    """Draw group meetings from the weekday/weekend hour intensity tables.

    Start and length are drawn in 5-minute plan units, as build_plans
    draws its times, and placed in slots by build_plans' floor rule.
    """
    units = DAY_S // _PLAN_UNIT_S  # plan units per day
    per_hour = 3600 // _PLAN_UNIT_S
    meetings: list[Meeting] = []
    for day in range(cfg.days):
        weekend = _weekday(cfg, day) >= 5
        profile = WEEKEND_HOUR_PROFILE if weekend else WEEKDAY_HOUR_PROFILE
        weights = profile / profile.sum()
        rate = cfg.weekend_meeting_rate if weekend else cfg.weekday_meeting_rate
        for group in groups:
            count = int(rng.poisson(rate))
            taken: list[tuple[int, int]] = []
            for _ in range(count):
                placed = None
                for _attempt in range(6):
                    hour = int(rng.choice(24, p=weights))
                    start = hour * per_hour + int(rng.integers(0, per_hour))
                    dur = int(rng.integers(cfg.meeting_min_slots, cfg.meeting_max_slots + 1))
                    if start + dur > units:
                        continue
                    if any(start < e and s < start + dur for s, e in taken):
                        continue
                    placed = (start, start + dur)
                    break
                if placed is None:
                    continue
                taken.append(placed)
                start, end = placed

                attending = [m for m in group if rng.random() < FIXED["meeting_attendance"]]
                absent = [m for m in group if m not in attending]
                extra = rng.permutation(len(absent)) if absent else []
                for k in extra:
                    if len(attending) >= 2:
                        break
                    attending.append(absent[int(k)])
                if len(attending) < 2:
                    continue
                attending.sort()

                hour = start // per_hour
                goers = [a for a in attending if is_goer[a]]
                anchor = None
                if not weekend and 8 <= hour < 17 and goers and layout.n_buildings:
                    bldg = int(day_building[goers[0]][day])
                    room = int(rng.integers(cfg.rooms_per_building))
                    anchor = layout.room_centers[bldg, room]
                elif (
                    hour >= 17
                    and layout.n_venues
                    and rng.random() < FIXED["meeting_venue_prob"]
                ):
                    # somewhere in the venue district, not always its center
                    center = layout.venue_centers[int(rng.integers(layout.n_venues))]
                    r = 0.5 * FIXED["venue_radius_m"] * math.sqrt(rng.random())
                    phi = rng.random() * TAU
                    anchor = center + r * np.array([math.cos(phi), math.sin(phi)])
                if anchor is None:
                    anchor = layout.home_pos[attending[0]]

                loose = rng.random() < FIXED["loose_meeting_prob"]
                lo, hi = (1.5, 6.0) if loose else (0.4, 1.8)
                radii = rng.uniform(lo, hi, len(attending))
                theta = rng.random(len(attending)) * TAU
                offsets = np.column_stack((radii * np.cos(theta), radii * np.sin(theta)))
                meetings.append(
                    Meeting(
                        start_slot=(day * units + start) * _PLAN_UNIT_S // cfg.scan_period_s,
                        end_slot=(day * units + end) * _PLAN_UNIT_S // cfg.scan_period_s,
                        attendees=attending,
                        anchor=np.asarray(anchor, dtype=float),
                        offsets=offsets,
                    )
                )
    return meetings


def _slot(hour: float) -> int:
    """The plan unit at an hour of the day."""
    return int(hour * (3600 // _PLAN_UNIT_S))


def build_plans(
    cfg: WorldConfig,
    layout: Layout,
    is_goer: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Daily routines for every user: home, campus blocks, errands, evenings.

    Returns per-slot anchor arrays (x, y, jitter radius) of shape
    (n_users, n_slots) and, for campus goers, the building chosen per day.
    Each plan interval, in plan units, covers the slots from its start's
    floor to its end's, clamped to the days.
    """
    S = DAY_S // _PLAN_UNIT_S  # plan units per day
    n_slots = cfg.n_slots

    def u(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    day_building: dict[int, np.ndarray] = {}
    for uidx in range(cfg.n_users):
        if is_goer[uidx] and layout.n_buildings:
            day_building[uidx] = rng.integers(0, layout.n_buildings, cfg.days)

    ax = np.zeros((cfg.n_users, n_slots))
    ay = np.zeros((cfg.n_users, n_slots))
    jr = np.zeros((cfg.n_users, n_slots))

    def roam_point() -> np.ndarray:
        return rng.random(2) * cfg.area_m

    for uidx in range(cfg.n_users):
        def put(u0: int, u1: int, xy: np.ndarray, jitter: float) -> None:
            s0 = max(0, min(n_slots, u0 * _PLAN_UNIT_S // cfg.scan_period_s))
            s1 = max(0, min(n_slots, u1 * _PLAN_UNIT_S // cfg.scan_period_s))
            if s1 > s0:
                ax[uidx, s0:s1], ay[uidx, s0:s1], jr[uidx, s0:s1] = xy[0], xy[1], jitter

        put(0, cfg.days * S, layout.home_pos[uidx], 0.0)

        for day in range(cfg.days):
            base = day * S
            weekend = _weekday(cfg, day) >= 5

            def venue_trip(start: int, dur: int, p_venue: float) -> None:
                if dur < 2:
                    return
                to_venue = layout.n_venues and rng.random() < p_venue
                spot = (
                    layout.venue_centers[int(rng.integers(layout.n_venues))]
                    if to_venue
                    else roam_point()
                )
                jitter = FIXED["visitor_radius_m"] if to_venue else 0.0
                put(base + start, base + start + 1, roam_point(), 0.0)
                put(base + start + 1, base + start + dur - 1, spot, jitter)
                put(base + start + dur - 1, base + start + dur, roam_point(), 0.0)

            if weekend:
                if rng.random() < FIXED["weekend_outing_prob"]:
                    start = u(_slot(11), _slot(15))
                    venue_trip(start, u(12, 36), p_venue=0.75)
                elif rng.random() < FIXED["walk_prob"]:
                    venue_trip(u(_slot(13), _slot(16)), u(6, 18), p_venue=0.0)
                p_evening = FIXED["venue_evening_prob_weekend"]
            elif is_goer[uidx] and layout.n_buildings:
                bldg = int(day_building[uidx][day])
                leave = _slot(8) + u(-6, 6)
                arrive = leave + u(1, 3)
                block1_end = _slot(12.5) + u(-3, 3)
                block2_end = _slot(17) + u(0, 8)
                home_back = block2_end + u(1, 3)
                room1 = int(rng.integers(cfg.rooms_per_building))
                room2 = int(rng.integers(cfg.rooms_per_building))
                rooms = layout.room_centers[bldg]
                put(base + leave, base + arrive, roam_point(), 0.0)
                put(base + arrive, base + block1_end, rooms[room1], FIXED["room_radius_m"])
                put(base + block1_end, base + block2_end, rooms[room2], FIXED["room_radius_m"])
                put(base + block2_end, base + home_back, roam_point(), 0.0)
                p_evening = FIXED["venue_evening_prob_weekday"]
            else:
                if rng.random() < FIXED["errand_prob"]:
                    start = u(_slot(10), _slot(15))
                    venue_trip(start, u(9, 25), p_venue=0.5)
                elif rng.random() < FIXED["walk_prob"]:
                    venue_trip(u(_slot(13), _slot(16)), u(6, 18), p_venue=0.0)
                p_evening = FIXED["venue_evening_prob_weekday"]

            if rng.random() < p_evening:
                start = _slot(19) + u(0, 10)
                dur = u(10, 28)
                dur = min(dur, S - start - 2)
                venue_trip(start, dur, p_venue=1.0)

    return ax, ay, jr, day_building


def materialize_positions(
    cfg: WorldConfig,
    ax: np.ndarray,
    ay: np.ndarray,
    jr: np.ndarray,
) -> np.ndarray:
    """Apply per-slot jitter draws to anchors; one rng substream per user."""
    positions = np.stack((ax, ay), axis=-1)
    for uidx in range(cfg.n_users):
        rng = _substream(cfg.seed, _STREAM_POSITIONS, uidx)
        mask = jr[uidx] > 0
        k = int(mask.sum())
        if k:
            r = jr[uidx][mask] * np.sqrt(rng.random(k))
            theta = rng.random(k) * TAU
            positions[uidx, mask, 0] += r * np.cos(theta)
            positions[uidx, mask, 1] += r * np.sin(theta)
    return positions


def _close_pairs(pos: np.ndarray, range_m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user pairs (a, b), a < b, closer than range_m, in np.triu_indices
    order, with their distances.

    A sweep along x finds candidates: after sorting the users by x, each
    one's partners lie within a band of range_m plus a slack that covers
    rounding in the band's edge. The band only prefilters; each
    candidate's distance is computed as for an all-pairs search.
    """
    n = len(pos)
    order = np.argsort(pos[:, 0], kind="stable")
    xs = pos[order, 0]
    band = range_m + 1.0 + 1e-9 * float(np.abs(xs).max(initial=0.0))
    hi = np.searchsorted(xs, xs + band, side="right")
    counts = np.maximum(hi - np.arange(1, n + 1), 0)
    # the partners of sorted user i are sorted users i + 1 onwards
    first, second = _ranges(np.arange(1, n + 1), counts)
    a = np.minimum(order[first], order[second])
    b = np.maximum(order[first], order[second])
    diff = pos[a] - pos[b]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    close = np.flatnonzero(dist < range_m)
    close = close[np.argsort(a[close] * n + b[close])]
    return a[close], b[close], dist[close]


def bluetooth_and_truth(
    cfg: WorldConfig,
    positions: np.ndarray,
    user_ids: list[str],
    phases: np.ndarray,
) -> tuple[BluetoothSightings, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Scan-period Bluetooth detections plus the true proximity pairs.

    For every slot, every ordered pair within bt_range_m yields a sighting
    with probability bt_detect_prob per direction; sighting RSSI decays
    log-linearly with distance and is clipped to [RSSI_MIN, -1]. All pairs
    within range enter the truth regardless of detection, as the columns
    (slot ts, user a, user b, distance), a < b user indices, in (slot, a,
    b) order. The sightings are a BluetoothSightings table in log order,
    coded by index into user_ids. Only the pair search and the draws run
    slot by slot: each slot's pairs draw their detections, then their
    noise, as (pairs, 2) arrays from the one Bluetooth stream.
    """
    rng = _substream(cfg.seed, _STREAM_BLUETOOTH)
    n_slots = positions.shape[1]
    parts = []  # per slot: a, b, distance, detection draws, noise draws
    for t in range(n_slots):
        a, b, d = _close_pairs(positions[:, t], cfg.bt_range_m)
        parts.append((a, b, d, rng.random((len(d), 2)),
                      rng.normal(0.0, cfg.bt_noise_sigma_db, (len(d), 2))))
    a, b, d, detect, noise = map(np.concatenate, zip(*parts))
    slot_ts = cfg.start_ts + np.repeat(np.arange(n_slots, dtype=np.int64) * cfg.scan_period_s,
                                       [len(part[2]) for part in parts])

    base = cfg.bt_rssi_at_1m - 10.0 * cfg.bt_path_exponent * np.log10(np.maximum(d, 0.3))
    level = np.clip(np.rint(base[:, None] + noise), RSSI_MIN, -1).astype(np.int64)
    # in column 0 of detect and level a sees b, in column 1 b sees a
    hit = (detect < cfg.bt_detect_prob).T.ravel()
    user, peer = np.concatenate((a, b))[hit], np.concatenate((b, a))[hit]
    ts = np.concatenate((slot_ts, slot_ts))[hit] + phases[user]
    # _user_id zero-pads the ids, so index order is string order and this
    # is log order: by user, then ts, then peer id
    order = np.lexsort((peer, ts, user))
    return BluetoothSightings(
        list(user_ids), user[order].astype(np.int32), peer[order].astype(np.int32),
        ts[order], level.T.ravel()[hit][order].astype(np.int16)), (slot_ts, a, b, d)


def _squared_reach(cfg: WorldConfig, field: np.ndarray) -> np.ndarray:
    """The squared distance within which a router under shadowing ``field``
    may be heard, never below 1 m: beyond it a cell cannot be visible.

    Visibility needs rint(base) >= floor, so base >= floor - 0.5, that is
    10 n log10(max(d, 1)) <= p0 + field - floor + 0.5. The relative slack
    covers the rounding of this bound and of the model's own arithmetic.
    """
    with np.errstate(over="ignore"):
        reach = 10.0 ** ((cfg.p0_dbm - cfg.wifi_detect_floor_dbm + 0.5 + field)
                         / (10.0 * cfg.path_loss_exponent))
        return np.maximum(reach, 1.0) ** 2 * (1.0 + 1e-6)


def _cells(x: np.ndarray, origin, cell, n) -> np.ndarray:
    """The grid column or row of each coordinate x, as a float, clipped to
    [0, n): a point off the grid takes the nearest cell, and an infinite
    coordinate an end cell. Each rounded step is monotone, so a point
    between two others lies in a cell between theirs."""
    return np.clip(np.floor((x - origin) / cell), 0, n - 1)


def _reach_grid(rpos: np.ndarray, reach2: np.ndarray, origin: np.ndarray,
                extent: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """A uniform grid from origin over extent, and the routers whose reach
    box touches each cell: (cell side, cells per axis, routers per cell,
    int32 routers). Cell ``row * nx + column`` holds the next run of
    routers, in index order.

    A box reaches a little further than sqrt(reach2), by more than the
    rounding of the squared-distance test and of the box's own edges, so
    a slot within reach of a router lies, by _cells' monotonicity, in a
    cell of its box. The cell side starts at _CELL_M and doubles while the
    grid would hold more than _GRID_BUDGET cells and entries per router,
    which also bounds a grid whose reaches overflow to inf.
    """
    half = (np.sqrt(reach2) * (1.0 + 1e-9) + 1e-9 * np.abs(rpos).max())[:, None]
    cell = _CELL_M
    while True:
        n = extent // cell + 1
        lo = _cells(rpos - half, origin, cell, n)
        width = _cells(rpos + half, origin, cell, n) - lo + 1
        if n[0] * n[1] + (width[:, 0] * width[:, 1]).sum() <= _GRID_BUDGET * len(rpos):
            break
        cell *= 2
    n, lo, width = n.astype(np.int64), lo.astype(np.int64), width.astype(np.int64)
    count = width[:, 0] * width[:, 1]
    # the k-th cell of a router's box, row by row
    router, k = _ranges(np.zeros(len(rpos), dtype=np.int64), count)
    lo, width = lo[router], width[router, 0]
    key = (lo[:, 1] + k // width) * n[0] + lo[:, 0] + k % width
    # stable, so that each cell keeps its routers in index order
    order = np.argsort(key, kind="stable")
    return cell, n, np.bincount(key, minlength=n[0] * n[1]), router[order].astype(np.int32)


def wifi_scans(
    cfg: WorldConfig,
    layout: Layout,
    positions: np.ndarray,
    user_ids: list[str],
    phases: np.ndarray,
) -> WifiScans:
    """Every user's scans as a WifiScans table, user-major then time-major.

    User codes are user indices; the bssid and ssid tables are the
    layout's, so an entry's bssid and ssid codes are both its router's
    index. A scan lists its routers by descending RSSI, then by bssid.

    A slot hears every router that the radio model puts at or over the
    floor. The slots fall in fixed blocks of 64, and a router can be
    heard only inside its reach at its peak field over the block
    (``_squared_reach``). Each block's grid (``_reach_grid``) holds its
    routers' reach boxes, each slot looks up the routers of its cell, and
    the reach test and the radio model are computed only on those (slot,
    router) pairs. Whether a cell is heard depends on the shared
    shadowing field alone; the user's device-noise stream then draws one
    value per heard cell, in slot-then-router order, so the noise moves
    RSSIs and never which routers a scan hears.
    """
    rpos = layout.router_pos
    n_slots = cfg.n_slots
    field = _substream(cfg.seed, _STREAM_WIFI_FIELD).normal(
        0.0, cfg.noise_sigma_db, (len(rpos), n_slots)
    )
    block = 64
    block_starts = range(0, n_slots, block)
    # (router, block): the squared reach at the block's peak field
    reach2 = _squared_reach(cfg, np.maximum.reduceat(field, block_starts, axis=1))
    slot_block = np.arange(n_slots) // block

    # every block's grid, in one table of the routers of each cell; a
    # slot's cell is key0 + row * nx + column, with its block's key0
    origin = rpos.min(axis=0)
    extent = rpos.max(axis=0) - origin
    cells, shapes, counts, members = zip(*(
        _reach_grid(rpos, reach2[:, b], origin, extent) for b in range(len(block_starts))))
    cell = np.array(cells)[slot_block, None]
    shape = np.array(shapes)[slot_block]
    key0 = np.cumsum([0] + [nx * ny for nx, ny in shapes])[slot_block]
    first = np.cumsum(np.concatenate([[0], *counts]))
    members = np.concatenate(members)
    del counts

    rx, ry = rpos.T.copy()
    rows, routers, levels = ([np.zeros(0, np.int64)] for _ in range(3))
    for uidx in range(cfg.n_users):
        rng = _substream(cfg.seed, _STREAM_WIFI_NOISE, uidx)
        pos = positions[uidx]
        xy = _cells(pos, origin, cell, shape).astype(np.int64)
        key = key0 + xy[:, 1] * shape[:, 0] + xy[:, 0]
        count = first[key + 1] - first[key]
        # slot after slot, each slot's routers in index order
        t, member = _ranges(first[key], count)
        router = members[member]
        del member
        dx, dy = pos[t, 0] - rx[router], pos[t, 1] - ry[router]
        near = np.flatnonzero(dx * dx + dy * dy <= reach2[router, slot_block[t]])
        t, router = t[near], router[near]
        mean_rssi = cfg.p0_dbm - 10.0 * cfg.path_loss_exponent * np.log10(
            np.maximum(np.hypot(dx[near], dy[near]), 1.0)
        )
        base = mean_rssi + field[router, t]
        visible = np.flatnonzero(np.rint(base) >= cfg.wifi_detect_floor_dbm)
        t, router, base = t[visible], router[visible], base[visible]
        # one device-noise draw per heard cell, in slot-then-router order;
        # sensitivity-limited readings pile up at the floor
        rssi = np.rint(base + rng.normal(0.0, cfg.device_noise_sigma_db, len(t)))
        rssi = np.clip(rssi, cfg.wifi_detect_floor_dbm, -1.0)
        # whole dBm, truncated as int() does a fractional floor
        level = rssi.astype(np.int64)
        # by slot, then descending level: -level lies in [1, -RSSI_MIN], and
        # a stable sort keeps the routers of a tie in index order, which is
        # bssid order, as _bssid names them; a scan's routers are distinct,
        # so the order is total
        order = np.argsort(t * (1 - RSSI_MIN) - level, kind="stable")
        rows.append(uidx * n_slots + t[order])
        routers.append(router[order])
        levels.append(level[order])
    del first, members

    n_rows = cfg.n_users * n_slots
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.concatenate(rows), minlength=n_rows), out=offsets[1:])
    router = np.concatenate(routers).astype(np.int32)
    user = np.repeat(np.arange(cfg.n_users, dtype=np.int32), n_slots)
    ts = (cfg.start_ts + np.tile(np.arange(n_slots, dtype=np.int64) * cfg.scan_period_s,
                                 cfg.n_users)
          + np.asarray(phases, dtype=np.int64)[user])
    return WifiScans(
        users=list(user_ids), user=user, ts=ts, offsets=offsets,
        bssids=list(layout.router_bssid), bssid=router,
        ssids=list(layout.router_ssid), ssid=router,
        rssi=np.concatenate(levels).astype(np.int16),
    )


def _world(cfg: WorldConfig) -> tuple[Layout, list[str], np.ndarray, np.ndarray]:
    """The layout, user ids, per-slot positions and scan phases of a world."""
    rng_layout = _substream(cfg.seed, _STREAM_LAYOUT)
    layout = build_layout(cfg, rng_layout)

    n_goers = int(round(cfg.goer_fraction * cfg.n_users))
    is_goer = np.zeros(cfg.n_users, dtype=bool)
    goer_pick = rng_layout.permutation(cfg.n_users)[:n_goers]
    is_goer[goer_pick] = True

    groups = assign_groups(cfg)
    user_ids = [_user_id(u, cfg.n_users) for u in range(cfg.n_users)]

    rng_plans = _substream(cfg.seed, _STREAM_PLANS)
    ax, ay, jr, day_building = build_plans(cfg, layout, is_goer, rng_plans)

    rng_meet = _substream(cfg.seed, _STREAM_MEETINGS)
    meetings = schedule_meetings(cfg, layout, groups, is_goer, day_building, rng_meet)
    for m in meetings:
        for k, uidx in enumerate(m.attendees):
            spot = m.anchor + m.offsets[k]
            ax[uidx, m.start_slot : m.end_slot] = spot[0]
            ay[uidx, m.start_slot : m.end_slot] = spot[1]
            jr[uidx, m.start_slot : m.end_slot] = 0.0

    positions = materialize_positions(cfg, ax, ay, jr)
    phases = _substream(cfg.seed, _STREAM_PHASES).integers(
        0, cfg.scan_period_s, cfg.n_users
    )
    return layout, user_ids, positions, phases


def _write_truth(cfg: WorldConfig, layout: Layout, user_ids: list[str],
                 pairs: tuple[np.ndarray, ...], truth_path, cfg_hash: str) -> GroundTruth:
    """Write the truth file and return the truth, whose pairs are
    bluetooth_and_truth's columns. Rows are built as JSON text: each id
    is encoded once with json.dumps, and a distance as repr of Python's
    round(d, 2), as json formats a float; one row per slot with a pair."""
    truth = GroundTruth({user_ids[u]: layout.router_bssid[int(layout.home_router_idx[u])]
                         for u in range(cfg.n_users)}, *pairs)
    quoted = [json.dumps(uid) for uid in user_ids]

    def truth_rows() -> Iterator[str]:
        for u, uid in enumerate(user_ids):
            yield f'{{"user":{quoted[u]},"home_bssid":{json.dumps(truth.homes[uid])}}}'
        cells = [f"[{quoted[a]},{quoted[b]},{round(d, 2)!r}]" for a, b, d in
                 zip(truth.a.tolist(), truth.b.tolist(), truth.distance.tolist())]
        # each slot's run of pairs; a ts is never negative, so -1 marks both ends
        bounds = np.flatnonzero(np.diff(truth.ts, prepend=-1, append=-1)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield f'{{"ts":{int(truth.ts[lo])},"pairs":[{",".join(cells[lo:hi])}]}}'

    fileio.write_jsonl(truth_path, SCHEMA_GROUND_TRUTH, cfg_hash, truth_rows())
    return truth


def generate(
    cfg: WorldConfig,
    wifi_path,
    bluetooth_path,
    truth_path,
    config_hash: str | None = None,
) -> tuple[WifiScans, GroundTruth]:
    """Simulate the world, write its WiFi, Bluetooth and truth files, return (scans, truth)."""
    cfg_hash = config_hash or fileio.config_hash({**asdict(cfg), **FIXED})
    layout, user_ids, positions, phases = _world(cfg)
    sightings, pairs = bluetooth_and_truth(cfg, positions, user_ids, phases)
    scans = wifi_scans(cfg, layout, positions, user_ids, phases)
    fileio.write_jsonl(wifi_path, SCHEMA_WIFI, cfg_hash, scans.lines())
    fileio.write_jsonl(bluetooth_path, SCHEMA_BLUETOOTH, cfg_hash, sightings.lines())
    return scans, _write_truth(cfg, layout, user_ids, pairs, truth_path, cfg_hash)


def _overlaps(scans: WifiScans, dyads: np.ndarray) -> np.ndarray:
    """The number of routers that rows dyads[0, i] and dyads[1, i] of scans
    share, for every i: the (i, router) keys of row dyads[0, i] found among
    those of row dyads[1, i], so no whole-table copy is made."""
    n_bssid = max(len(scans.bssids), 1)
    keys = []
    for rows in dyads:
        starts = scans.offsets[rows]
        owner, entry = _ranges(starts, scans.offsets[rows + 1] - starts)
        keys.append(owner * n_bssid + scans.bssid[entry])
    # a scan lists each of its routers once, so each side's keys are unique
    shared = keys[0][np.isin(*keys, assume_unique=True)]
    return np.bincount(shared // n_bssid, minlength=dyads.shape[1])


def calibrate_stats(cfg: WorldConfig, scans: WifiScans, truth: GroundTruth) -> dict:
    """APs-per-scan moments, the share of empty scans, and the AP overlap
    (``_overlaps``) of truly proximate dyads against random distant
    ones, with a one-sided Mann-Whitney p-value, of what generate returns
    for the world ``cfg``.

    The truth's columns hold user indices, and generate writes one scan
    per user and slot, user after user, so user u's scan at a truth slot
    is row ``u * cfg.n_slots + (slot - cfg.start_ts) // cfg.scan_period_s``.
    Distant dyads are drawn from default_rng([STATS_SEED, 7]), as many as
    the proximate ones but at least 200 and at most DISTANT_PAIRS, in at
    most 20 x DISTANT_PAIRS draws; a dyad in the truth at the slot is
    rejected. When every (dyad, slot) triple would be rejected, none is
    drawn.
    """
    arr = np.diff(scans.offsets)
    out: dict = {"n_scans": len(arr), "mean_aps": float(arr.mean()),
                 "median_aps": float(np.median(arr)), "empty_fraction": float((arr == 0).mean())}

    # the truth slots, and the number of each dyad's slot among them
    slots, slot_of = np.unique(truth.ts, return_inverse=True)
    # at[u, k]: the row of user u's scan at slot k
    at = (np.arange(cfg.n_users)[:, None] * cfg.n_slots
          + (slots - cfg.start_ts) // cfg.scan_period_s)
    near = np.array((at[truth.a, slot_of], at[truth.b, slot_of]))  # (2, dyads): each side's row

    seen = set(zip(truth.a.tolist(), truth.b.tolist(), slot_of.tolist()))
    # the (dyad, slot) triples that a draw can accept: those not in the truth
    n_acceptable = len(slots) * math.comb(cfg.n_users, 2) - len(seen)
    want = min(DISTANT_PAIRS, max(200, len(slot_of))) if n_acceptable else 0
    rng = np.random.default_rng([STATS_SEED, 7])
    drawn: list[tuple[int, int]] = []
    for _ in range(20 * DISTANT_PAIRS):
        if len(drawn) >= want:
            break
        ua, ub = sorted(rng.integers(0, cfg.n_users, 2).tolist())
        if ua == ub:
            continue
        k = int(rng.integers(len(slots)))
        if (ua, ub, k) not in seen:
            drawn.append((at[ua, k], at[ub, k]))
    proximate = _overlaps(scans, near)
    distant = _overlaps(scans, np.array(drawn, dtype=np.int64).reshape(-1, 2).T)

    for name, counts in (("proximate", proximate), ("distant", distant)):
        out[f"{name}_overlap_mean"] = float(counts.mean()) if len(counts) else 0.0
        out[f"n_{name}"] = len(counts)
    if len(proximate) and len(distant):
        # scipy's mannwhitneyu(proximate, distant, alternative="greater") in
        # its asymptotic form: U's normal tail with the tie-corrected variance
        # and a continuity correction; p = 1 when every overlap ties
        n1, n2 = len(proximate), len(distant)
        n = n1 + n2
        _, pos, neg = class_counts(np.r_[proximate, distant], np.repeat([1, 0], [n1, n2]))
        ties = pos + neg
        # ties @ ...: a sum of integer products, exact in any order below 2**53
        sd = math.sqrt(n1 * n2 / 12 * ((n + 1) - float(ties @ (ties * ties - 1)) / (n * (n - 1))))
        z = (mann_whitney_u(pos, neg) - n1 * n2 / 2 - 0.5) / sd if sd else -math.inf
        out["overlap_mannwhitney_p"] = 0.5 * math.erfc(z * math.sqrt(0.5))
    return out
