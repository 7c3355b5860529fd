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
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator

import numpy as np

from . import fileio
from .fileio import (
    SCHEMA_BLUETOOTH,
    SCHEMA_GROUND_TRUTH,
    SCHEMA_WIFI,
)

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

# interval kinds in per-slot anchor arrays
_KIND_FIXED = 0  # position exactly at anchor
_KIND_JITTER = 1  # position uniform in a disc around anchor


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for the synthetic town. Defaults give a week of campus life."""

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
    room_ring_m: float = 30.0
    room_radius_m: float = 7.0
    n_venues: int = 6
    # venue districts span a detection radius, so a visitor's AP set
    # depends on where in the district they stand
    venue_radius_m: float = 45.0
    visitor_radius_m: float = 30.0
    dense_home_fraction: float = 0.5
    dense_complex_units: int = 12
    complex_pitch_m: float = 30.0
    street_routers_per_dense_complex: int = 2

    # behaviour
    goer_fraction: float = 0.5
    group_size_cycle: tuple[int, ...] = (3, 4, 5, 4)
    weekday_meeting_rate: float = 1.3
    weekend_meeting_rate: float = 0.9
    meeting_attendance: float = 0.8
    meeting_min_slots: int = 4
    meeting_max_slots: int = 24
    loose_meeting_prob: float = 0.3
    meeting_venue_prob: float = 0.55
    venue_evening_prob_weekday: float = 0.30
    venue_evening_prob_weekend: float = 0.35
    weekend_outing_prob: float = 0.55
    errand_prob: float = 0.6
    walk_prob: float = 0.3

    def __post_init__(self) -> None:
        for name in ("area_m", "n_routers", "n_users", "days", "scan_period_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "campus_fraction",
            "bt_detect_prob",
            "dense_home_fraction",
            "goer_fraction",
            "loose_meeting_prob",
            "meeting_venue_prob",
            "venue_evening_prob_weekday",
            "venue_evening_prob_weekend",
            "weekend_outing_prob",
            "errand_prob",
            "walk_prob",
            "meeting_attendance",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if 86400 % self.scan_period_s != 0:
            raise ValueError("scan_period_s must divide 86400")
        if self.meeting_min_slots < 1 or self.meeting_max_slots < self.meeting_min_slots:
            raise ValueError("meeting duration bounds are inconsistent")
        if not self.group_size_cycle or min(self.group_size_cycle) < 2:
            raise ValueError("group sizes must be at least 2")

    @property
    def slots_per_day(self) -> int:
        return 86400 // self.scan_period_s

    @property
    def n_slots(self) -> int:
        return self.days * self.slots_per_day

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def replace(self, **kwargs) -> "WorldConfig":
        merged = {f.name: getattr(self, f.name) for f in fields(self)}
        merged.update(kwargs)
        return WorldConfig(**merged)


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
    """True homes and per-slot close-proximity pairs (distance in meters)."""

    homes: dict[str, str]
    proximity: dict[int, list[tuple[str, str, float]]]

    def pair_intervals(self, period_s: int) -> dict[tuple[str, str], list[tuple[int, int]]]:
        """Merge per-slot proximity into [start, end) episodes per pair."""
        slots_by_pair: dict[tuple[str, str], list[int]] = {}
        for ts, pairs in self.proximity.items():
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


def build_layout(cfg: WorldConfig, rng: np.random.Generator) -> Layout:
    """Place sites on a coarse grid, then routers and homes inside them."""
    n_campus = int(round(cfg.campus_fraction * cfg.n_routers))
    n_home = cfg.n_users
    spare = cfg.n_routers - n_campus - n_home
    if spare < 0:
        raise ValueError("router budget too small for one home router per user")

    n_dense_users = int(round(cfg.dense_home_fraction * cfg.n_users))
    n_dense_cplx = math.ceil(n_dense_users / cfg.dense_complex_units) if n_dense_users else 0
    n_sparse_users = cfg.n_users - n_dense_users
    n_sparse_cplx = math.ceil(n_sparse_users / 2) if n_sparse_users else 0

    n_street = min(spare, cfg.street_routers_per_dense_complex * n_dense_cplx)
    spare -= n_street
    n_venues = min(cfg.n_venues, spare) if spare > 0 else 0
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

    n_buildings = max(1, min(cfg.n_buildings, n_campus)) if n_campus else 0

    # jitter-free site grid: far enough apart that sites never share APs
    pitch = cfg.site_pitch_m
    coords = np.arange(pitch / 2.0, cfg.area_m - pitch / 2.0 + 1e-9, pitch)
    sites = np.array([(x, y) for x in coords for y in coords])
    n_sites_needed = n_buildings + n_venues + n_dense_cplx + n_sparse_cplx
    if n_sites_needed > len(sites):
        raise ValueError(
            f"area {cfg.area_m:.0f} m holds {len(sites)} sites, need {n_sites_needed}"
        )
    order = rng.permutation(len(sites))[:n_sites_needed]
    sites = sites[order]
    cursor = 0

    building_centers = sites[cursor : cursor + n_buildings]
    cursor += n_buildings
    venue_centers = sites[cursor : cursor + n_venues]
    cursor += n_venues
    dense_centers = sites[cursor : cursor + n_dense_cplx]
    cursor += n_dense_cplx
    sparse_centers = sites[cursor : cursor + n_sparse_cplx]

    router_pos: list[np.ndarray] = []
    router_ssid: list[str] = []

    for b, center in enumerate(building_centers):
        share = n_campus // n_buildings + (1 if b < n_campus % n_buildings else 0)
        router_pos.append(_disc_points(rng, center, cfg.building_radius_m, share))
        router_ssid.extend([cfg.campus_ssid] * share)

    room_centers = np.zeros((n_buildings, cfg.rooms_per_building, 2))
    for b, center in enumerate(building_centers):
        angles = TAU * np.arange(cfg.rooms_per_building) / cfg.rooms_per_building
        room_centers[b, :, 0] = center[0] + cfg.room_ring_m * np.cos(angles)
        room_centers[b, :, 1] = center[1] + cfg.room_ring_m * np.sin(angles)

    for v, center in enumerate(venue_centers):
        k = venue_router_counts[v]
        router_pos.append(_disc_points(rng, center, cfg.venue_radius_m, k))
        router_ssid.extend([f"venue-{v:02d}-{j}" for j in range(k)])

    # homes laid out on small grids inside each complex
    def _complex_homes(center: np.ndarray, units: int, columns: int) -> np.ndarray:
        rows = math.ceil(units / columns)
        ix = np.arange(units) % columns
        iy = np.arange(units) // columns
        offx = (ix - (columns - 1) / 2.0) * cfg.complex_pitch_m
        offy = (iy - (rows - 1) / 2.0) * cfg.complex_pitch_m
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
        building_centers=np.asarray(building_centers, dtype=float).reshape(-1, 2),
        room_centers=room_centers,
        venue_centers=np.asarray(venue_centers, dtype=float).reshape(-1, 2),
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
        members = list(range(next_user, next_user + size))
        if size == 1 and groups:
            groups[-1].extend(members)
        else:
            groups.append(members)
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
    """Draw group meetings from the weekday/weekend hour intensity tables."""
    slots = cfg.slots_per_day
    per_slot = slots // 24
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
                    start = hour * per_slot + int(rng.integers(0, per_slot))
                    dur = int(rng.integers(cfg.meeting_min_slots, cfg.meeting_max_slots + 1))
                    if start + dur > slots:
                        continue
                    if any(start < e and s < start + dur for s, e in taken):
                        continue
                    placed = (start, start + dur)
                    break
                if placed is None:
                    continue
                taken.append(placed)
                start, end = placed

                attending = [m for m in group if rng.random() < cfg.meeting_attendance]
                absent = [m for m in group if m not in attending]
                extra = rng.permutation(len(absent)) if absent else []
                for k in extra:
                    if len(attending) >= 2:
                        break
                    attending.append(absent[int(k)])
                if len(attending) < 2:
                    continue
                attending.sort()

                hour = start // per_slot
                goers = [a for a in attending if is_goer[a]]
                anchor = None
                if not weekend and 8 <= hour < 17 and goers and layout.n_buildings:
                    bldg = int(day_building[goers[0]][day])
                    room = int(rng.integers(cfg.rooms_per_building))
                    anchor = layout.room_centers[bldg, room]
                elif (
                    hour >= 17
                    and layout.n_venues
                    and rng.random() < cfg.meeting_venue_prob
                ):
                    # somewhere in the venue district, not always its center
                    center = layout.venue_centers[int(rng.integers(layout.n_venues))]
                    r = 0.5 * cfg.venue_radius_m * math.sqrt(rng.random())
                    phi = rng.random() * TAU
                    anchor = center + r * np.array([math.cos(phi), math.sin(phi)])
                if anchor is None:
                    anchor = layout.home_pos[attending[0]]

                loose = rng.random() < cfg.loose_meeting_prob
                lo, hi = (1.5, 6.0) if loose else (0.4, 1.8)
                radii = rng.uniform(lo, hi, len(attending))
                theta = rng.random(len(attending)) * TAU
                offsets = np.column_stack((radii * np.cos(theta), radii * np.sin(theta)))
                meetings.append(
                    Meeting(
                        start_slot=day * slots + start,
                        end_slot=day * slots + end,
                        attendees=attending,
                        anchor=np.asarray(anchor, dtype=float),
                        offsets=offsets,
                    )
                )
    return meetings


class _PlanWriter:
    """Fills per-slot anchor arrays for one user."""

    def __init__(self, n_slots: int) -> None:
        self.ax = np.zeros(n_slots, dtype=np.float64)
        self.ay = np.zeros(n_slots, dtype=np.float64)
        self.jr = np.zeros(n_slots, dtype=np.float64)
        self.n_slots = n_slots

    def put(self, s0: int, s1: int, xy: np.ndarray, jitter: float) -> None:
        s0 = max(0, min(self.n_slots, s0))
        s1 = max(0, min(self.n_slots, s1))
        if s1 <= s0:
            return
        self.ax[s0:s1] = xy[0]
        self.ay[s0:s1] = xy[1]
        self.jr[s0:s1] = jitter


def _slot(hour: float) -> int:
    return int(hour * 12)


def build_plans(
    cfg: WorldConfig,
    layout: Layout,
    is_goer: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Daily routines for every user: home, campus blocks, errands, evenings.

    Returns per-slot anchor arrays (x, y, jitter radius) of shape
    (n_users, n_slots) and, for campus goers, the building chosen per day.
    """
    S = cfg.slots_per_day
    n_slots = cfg.n_slots
    per_slot = S // 24

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
        plan = _PlanWriter(n_slots)
        home = layout.home_pos[uidx]
        plan.put(0, n_slots, home, 0.0)

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
                jitter = cfg.visitor_radius_m if to_venue else 0.0
                plan.put(base + start, base + start + 1, roam_point(), 0.0)
                plan.put(base + start + 1, base + start + dur - 1, spot, jitter)
                plan.put(base + start + dur - 1, base + start + dur, roam_point(), 0.0)

            if weekend:
                if rng.random() < cfg.weekend_outing_prob:
                    start = u(_slot(11), _slot(15))
                    venue_trip(start, u(12, 36), p_venue=0.75)
                elif rng.random() < cfg.walk_prob:
                    venue_trip(u(_slot(13), _slot(16)), u(6, 18), p_venue=0.0)
                p_evening = cfg.venue_evening_prob_weekend
            elif is_goer[uidx] and layout.n_buildings:
                bldg = int(day_building[uidx][day])
                leave = _slot(8) + u(-6, 6)
                arrive = leave + u(1, 3)
                block1_end = _slot(12.5) + u(-3, 3)
                block2_end = _slot(17) + u(0, 8)
                home_back = block2_end + u(1, 3)
                room1 = int(rng.integers(cfg.rooms_per_building))
                room2 = int(rng.integers(cfg.rooms_per_building))
                plan.put(base + leave, base + arrive, roam_point(), 0.0)
                plan.put(
                    base + arrive,
                    base + block1_end,
                    layout.room_centers[bldg, room1],
                    cfg.room_radius_m,
                )
                plan.put(
                    base + block1_end,
                    base + block2_end,
                    layout.room_centers[bldg, room2],
                    cfg.room_radius_m,
                )
                plan.put(base + block2_end, base + home_back, roam_point(), 0.0)
                p_evening = cfg.venue_evening_prob_weekday
            else:
                if rng.random() < cfg.errand_prob:
                    start = u(_slot(10), _slot(15))
                    venue_trip(start, u(9, 25), p_venue=0.5)
                elif rng.random() < cfg.walk_prob:
                    venue_trip(u(_slot(13), _slot(16)), u(6, 18), p_venue=0.0)
                p_evening = cfg.venue_evening_prob_weekday

            if rng.random() < p_evening:
                start = _slot(19) + u(0, 10)
                dur = u(10, 28)
                dur = min(dur, S - start - 2)
                venue_trip(start, dur, p_venue=1.0)

        ax[uidx] = plan.ax
        ay[uidx] = plan.ay
        jr[uidx] = plan.jr

    return ax, ay, jr, day_building


def materialize_positions(
    cfg: WorldConfig,
    ax: np.ndarray,
    ay: np.ndarray,
    jr: np.ndarray,
) -> np.ndarray:
    """Apply per-slot jitter draws to anchors; one rng substream per user."""
    positions = np.empty((cfg.n_users, cfg.n_slots, 2))
    for uidx in range(cfg.n_users):
        rng = _substream(cfg.seed, _STREAM_POSITIONS, uidx)
        x = ax[uidx].copy()
        y = ay[uidx].copy()
        mask = jr[uidx] > 0
        k = int(mask.sum())
        if k:
            r = jr[uidx][mask] * np.sqrt(rng.random(k))
            theta = rng.random(k) * TAU
            x[mask] += r * np.cos(theta)
            y[mask] += r * np.sin(theta)
        positions[uidx, :, 0] = x
        positions[uidx, :, 1] = y
    return positions


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

    Work is vectorized over runs of slots that share an anchor: the
    candidate router set is looked up once per run, then distances and
    shadowing noise are drawn for the whole run at once.
    """
    # beyond this mean-path distance a router cannot clear the floor
    margin = 4.0 * cfg.noise_sigma_db
    cutoff = 10.0 ** (
        (cfg.p0_dbm - (cfg.wifi_detect_floor_dbm - margin))
        / (10.0 * cfg.path_loss_exponent)
    )
    rpos = layout.router_pos
    n_slots = cfg.n_slots
    field = _substream(cfg.seed, _STREAM_WIFI_FIELD).normal(
        0.0, cfg.noise_sigma_db, (len(rpos), n_slots)
    )

    for uidx in range(cfg.n_users):
        rng = _substream(cfg.seed, _STREAM_WIFI_NOISE, uidx)
        pos = positions[uidx]
        # fixed-size slot blocks: one candidate lookup covers the block
        out: list[tuple[int, list[tuple[str, str, int]]]] = []
        block = 64
        for s0 in range(0, n_slots, block):
            s1 = min(n_slots, s0 + block)
            chunk = pos[s0:s1]
            center = chunk.mean(axis=0)
            spread = np.max(np.hypot(*(chunk - center).T)) if s1 > s0 else 0.0
            d_center = np.hypot(*(rpos - center).T)
            cand = np.nonzero(d_center <= cutoff + spread)[0]
            if len(cand) == 0:
                for t in range(s0, s1):
                    out.append((t, []))
                continue
            d = np.hypot(
                chunk[:, 0][:, None] - rpos[cand, 0][None, :],
                chunk[:, 1][:, None] - rpos[cand, 1][None, :],
            )
            mean_rssi = cfg.p0_dbm - 10.0 * cfg.path_loss_exponent * np.log10(
                np.maximum(d, 1.0)
            )
            base = mean_rssi + field[cand, s0:s1].T
            visible = np.rint(base) >= cfg.wifi_detect_floor_dbm
            # sensitivity-limited readings pile up at the floor
            rssi = np.rint(
                base + rng.normal(0.0, cfg.device_noise_sigma_db, d.shape)
            )
            rssi = np.clip(rssi, cfg.wifi_detect_floor_dbm, -1.0)
            for t in range(s0, s1):
                row = np.nonzero(visible[t - s0])[0]
                aps = [
                    (layout.router_bssid[cand[j]], layout.router_ssid[cand[j]], int(rssi[t - s0, j]))
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


def generate(
    cfg: WorldConfig,
    wifi_path,
    bluetooth_path,
    truth_path,
    config_hash: str | None = None,
) -> GroundTruth:
    """Simulate the world and emit WiFi, Bluetooth, and truth files."""
    cfg_hash = config_hash or fileio.config_hash(cfg.as_dict())
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

    sightings, proximity = bluetooth_and_truth(cfg, positions, user_ids, phases)

    fileio.write_jsonl(
        wifi_path,
        SCHEMA_WIFI,
        cfg_hash,
        wifi_scan_rows(cfg, layout, positions, user_ids, phases),
    )

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

    fileio.write_jsonl(bluetooth_path, SCHEMA_BLUETOOTH, cfg_hash, bt_rows())

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

    fileio.write_jsonl(truth_path, SCHEMA_GROUND_TRUTH, cfg_hash, truth_rows())
    return GroundTruth(homes=homes, proximity=proximity)


def load_ground_truth(path) -> GroundTruth:
    """Read the truth JSONL produced by generate()."""
    fileio.read_jsonl_header(path, SCHEMA_GROUND_TRUTH)
    homes: dict[str, str] = {}
    proximity: dict[int, list[tuple[str, str, float]]] = {}
    for line_no, line in fileio.iter_jsonl(path):
        try:
            doc = json.loads(line)
        except ValueError as exc:
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


def calibrate_stats(
    wifi_path,
    truth_path=None,
    max_distant_pairs: int = 20000,
    seed: int = 0,
) -> dict:
    """Summary statistics of a generated WiFi file, for tuning the world.

    Reports APs-per-scan moments, the share of empty scans, and, when the
    truth file is given, AP-set overlap for truly proximate dyads versus
    randomly drawn distant ones (Mann-Whitney one-sided p-value).
    """
    from scipy.stats import mannwhitneyu

    from .ingest import parse_wifi_log

    counts: list[int] = []
    by_user: dict[str, list[tuple[int, frozenset]]] = {}
    for rec in parse_wifi_log(fileio.iter_jsonl(wifi_path)).records:
        counts.append(len(rec.aps))
        by_user.setdefault(rec.user, []).append((rec.ts, rec.bssids()))

    arr = np.array(counts) if counts else np.zeros(0, dtype=int)
    out: dict = {
        "n_scans": int(arr.size),
        "mean_aps": float(arr.mean()) if arr.size else 0.0,
        "median_aps": float(np.median(arr)) if arr.size else 0.0,
        "empty_fraction": float((arr == 0).mean()) if arr.size else 0.0,
    }
    if truth_path is None:
        return out

    truth = load_ground_truth(truth_path)
    ts_index: dict[str, np.ndarray] = {}
    for user, rows in by_user.items():
        rows.sort()
        ts_index[user] = np.array([ts for ts, _ in rows], dtype=np.int64)

    def scan_at(user: str, slot_ts: int, period: int) -> frozenset | None:
        rows = by_user.get(user)
        if not rows:
            return None
        idx = int(np.searchsorted(ts_index[user], slot_ts))
        if idx >= len(rows) or rows[idx][0] >= slot_ts + period:
            return None
        return rows[idx][1]

    slot_list = sorted(truth.proximity)
    period = 300
    if len(slot_list) > 1:
        gaps = np.diff(np.array(slot_list))
        period = int(gaps.min())

    proximate: list[int] = []
    seen_keys = set()
    for slot_ts in slot_list:
        for ua, ub, _ in truth.proximity[slot_ts]:
            seen_keys.add((ua, ub, slot_ts))
            sa = scan_at(ua, slot_ts, period)
            sb = scan_at(ub, slot_ts, period)
            if sa is not None and sb is not None:
                proximate.append(len(sa & sb))

    users = sorted(by_user)
    rng = np.random.default_rng([seed, 7])
    distant: list[int] = []
    guard = 0
    while len(distant) < min(max_distant_pairs, max(200, len(proximate))):
        guard += 1
        if guard > 20 * max_distant_pairs:
            break
        ua, ub = (users[int(i)] for i in rng.integers(0, len(users), 2))
        if ua == ub:
            continue
        if ua > ub:
            ua, ub = ub, ua
        slot_ts = int(rng.choice(slot_list)) if slot_list else 0
        if (ua, ub, slot_ts) in seen_keys:
            continue
        sa = scan_at(ua, slot_ts, period)
        sb = scan_at(ub, slot_ts, period)
        if sa is None or sb is None:
            continue
        distant.append(len(sa & sb))

    out["proximate_overlap_mean"] = float(np.mean(proximate)) if proximate else 0.0
    out["distant_overlap_mean"] = float(np.mean(distant)) if distant else 0.0
    out["n_proximate"] = len(proximate)
    out["n_distant"] = len(distant)
    if proximate and distant:
        stat = mannwhitneyu(proximate, distant, alternative="greater")
        out["overlap_mannwhitney_p"] = float(stat.pvalue)
    return out
