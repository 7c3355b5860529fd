"""Candidate-pair construction from co-temporal WiFi scans.

The day is cut into one-hour windows. Within a window only
Bluetooth-active users are considered: people who both saw at least one
participant and were seen by at least one participant in that hour.
Positives are scan pairs backed by a Bluetooth sighting near the
interaction time; negatives must share at least one router, which keeps
the task close to the deployed setting instead of random dyads.

``pair_windows`` runs this window by window over an ``ingest.WifiScans``
table in bssid order, as scans.npz holds it, and an
``ingest.BluetoothSightings`` table, on codes and arrays: no object is
built per sighting or per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import fileio
from .fileio import DataError
from .ingest import BluetoothSightings, WifiScans, _ranges
from .records import LABEL_NEGATIVE, LABEL_POSITIVE

WINDOW_S = 3600


def build_hour_windows(sightings: BluetoothSightings) -> list[tuple[int, np.ndarray]]:
    """One window per hour containing at least one Bluetooth-active user:
    its start, aligned to the hour, and its active users' codes, ascending.

    A user is active iff, within the hour, they appear as the scanner of
    a participant sighting and as a sighted peer. Sightings of outside
    devices (peer -1) do not count.
    """
    linked = sightings.peer >= 0
    hours, hour_of = np.unique(sightings.ts[linked] // WINDOW_S, return_inverse=True)
    n_users = max(len(sightings.users), 1)
    key = hour_of * n_users
    # the sorted (hour, user) keys of the users who saw and were seen in the hour
    active = np.intersect1d(key + sightings.user[linked], key + sightings.peer[linked])
    window, first = np.unique(active // n_users, return_index=True)
    return list(zip((hours[window] * WINDOW_S).tolist(),
                    np.split(active % n_users, first[1:])))


def pair_windows(table: WifiScans, sightings: BluetoothSightings, delta_t: int = 300):
    """The sightings' hour windows and the CandidateTable of their candidates,
    window after window: generate_candidates over the rows of each window's
    active users in its hour, in table order, and the sightings within delta_t of it."""
    windows = build_hour_windows(sightings)
    codes = {name: i for i, name in enumerate(table.users)}
    # the table code of each sighting code, -1 for a user without scans;
    # the appended -1 is what peer -1, an outside device, maps to
    to_table = np.array([codes.get(name, -1) for name in sightings.users] + [-1])
    user, peer = to_table[sightings.user], to_table[sightings.peer]
    # the sightings between two users with scans, in time order
    near = np.flatnonzero((user >= 0) & (peer >= 0))
    near = near[np.argsort(sightings.ts[near], kind="stable")]
    user, peer, ts, rssi = user[near], peer[near], sightings.ts[near], sightings.rssi[near]
    hours = table.ts // WINDOW_S * WINDOW_S
    by_hour = np.argsort(hours, kind="stable")  # table order within an hour
    hours = hours[by_hour]
    parts = []
    for start, active in windows:
        first, last = np.searchsorted(hours, [start, start + WINDOW_S])
        in_hour = by_hour[first:last]
        rows = in_hour[np.isin(table.user[in_hour], to_table[active])]
        if len(rows):
            lo, hi = np.searchsorted(ts, [start - delta_t, start + WINDOW_S + delta_t])
            bt = BluetoothSightings(table.users, user[lo:hi], peer[lo:hi], ts[lo:hi], rssi[lo:hi])
            parts.append(generate_candidates(table, rows, bt, delta_t))
    return windows, CandidateTable.concatenate(parts)


def generate_candidates(table: WifiScans, rows, sightings: BluetoothSightings,
                        delta_t: int = 300) -> CandidateTable:
    """Build labeled candidate pairs from one window's scans and sightings.

    ``rows`` are the window's scans, as rows of ``table``; ``sightings``
    are its Bluetooth sightings, with user and peer coded as the table's
    users. For each unordered user pair, every scan of the
    lexicographically smaller user pairs with its nearest-in-time scan of
    the other user (the earlier one on an exact tie), provided the gap is
    at most ``delta_t``; this keeps one five-minute meeting from spawning
    near-identical samples for every scan cross product. A candidate is
    positive when some sighting between the two users (either direction)
    lies within ``delta_t`` of the interaction timestamp min(ts_a, ts_b);
    ``bt_rssi`` records the strongest such sighting. Negatives are kept
    only when the scans share a router.

    The candidates are sorted by (ts, user_a, user_b, ts_a, ts_b), with
    ``bt_rssi`` NaN on negatives.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return CandidateTable.concatenate([])
    # the window's users, ranked in string order; -1 for the others
    codes = sorted(set(table.user[rows].tolist()), key=table.users.__getitem__)
    n_users = len(codes)
    rank = np.full(len(table.users), -1, dtype=np.int64)
    rank[codes] = np.arange(n_users)

    # the window's scans by user, in string order, then by ts; lexsort is
    # stable, so scans with one user and ts keep their order in rows
    user, ts = rank[table.user[rows]], table.ts[rows]
    order = np.lexsort((ts, user))
    rows, user, ts = rows[order], user[order], ts[order]
    first = np.searchsorted(user, np.arange(n_users + 1))

    # sightings between two of the window's users: a pair of ranks a < b
    # is a * n_users + b
    a, b = np.sort([rank[sightings.user], rank[sightings.peer]], axis=0)
    mutual = (a >= 0) & (a != b)
    sight_pair = (a * n_users + b)[mutual]
    linked = np.zeros((n_users, n_users), dtype=bool)
    linked.flat[sight_pair] = True
    # cheap reject: users who share no sighting and no router in the window
    starts = table.offsets[rows]
    owner, entry = _ranges(starts, table.offsets[rows + 1] - starts)
    routers, router = np.unique(table.bssid[entry], return_inverse=True)
    heard = np.zeros((n_users, len(routers)), dtype=np.float32)
    heard[user[owner], router] = 1.0
    # sums of 0/1 products: > 0 exactly when one product is 1, in any order
    linked |= heard @ heard.T > 0
    user_a, user_b = np.nonzero(np.triu(linked, 1))

    # every scan of A, and the scan of B nearest to it in time: of B's
    # scans before and at or after it (one of them when the other does not
    # exist), the earlier wins an exact tie
    pair, scan_a = _ranges(first[user_a], first[user_a + 1] - first[user_a])
    user_b = user_b[pair]
    base, span = int(ts.min()), int(np.ptp(ts)) + 1
    pos = np.searchsorted(user * span + (ts - base),
                          user_b * span + (ts[scan_a] - base))
    before = np.maximum(pos - 1, first[user_b])
    after = np.minimum(pos, first[user_b + 1] - 1)
    scan_b = np.where(ts[scan_a] - ts[before] <= ts[after] - ts[scan_a], before, after)
    near = np.abs(ts[scan_a] - ts[scan_b]) <= delta_t
    user_a, user_b = user_a[pair[near]], user_b[near]
    scan_a, scan_b = scan_a[near], scan_b[near]
    pair_ts = np.minimum(ts[scan_a], ts[scan_b])

    bt_rssi = _strongest_sightings(user_a * n_users + user_b, pair_ts, delta_t,
                                   sight_pair, sightings.ts[mutual],
                                   sightings.rssi[mutual])
    shared = np.zeros(len(pair_ts), dtype=bool)
    shared[table.common(rows[scan_a], rows[scan_b])[0]] = True
    found = ~np.isnan(bt_rssi)
    keep = np.flatnonzero(found | shared)
    keep = keep[np.lexsort((ts[scan_b[keep]], ts[scan_a[keep]], user_b[keep],
                           user_a[keep], pair_ts[keep]))]
    return CandidateTable(
        row_a=rows[scan_a[keep]], row_b=rows[scan_b[keep]], ts=pair_ts[keep],
        label=np.where(found[keep], LABEL_POSITIVE, LABEL_NEGATIVE).astype(np.int64),
        bt_rssi=bt_rssi[keep])


@dataclass(frozen=True, slots=True)
class CandidateTable:
    """Candidate pairs as arrays, one element per candidate.

    ``pair`` saves them as candidates.npz; ``featurize`` loads it.
    ``row_a`` and ``row_b`` are rows of the scan table the candidates
    were built from, and ``bt_rssi`` is NaN on negatives. The fields are
    candidates.npz's form: see fileio.load_table.
    """

    row_a: np.ndarray = field(metadata={"dtype": np.int64, "group": "candidates"})
    row_b: np.ndarray = field(metadata={"dtype": np.int64, "group": "candidates"})
    ts: np.ndarray = field(metadata={"dtype": np.int64, "group": "candidates"})
    label: np.ndarray = field(metadata={"dtype": np.int64, "group": "candidates"})
    bt_rssi: np.ndarray = field(metadata={"dtype": np.float64, "group": "candidates"})

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def concatenate(cls, tables) -> "CandidateTable":
        """The rows of tables, one table after another; no rows for no tables."""
        return cls(**{f.name: np.concatenate([getattr(table, f.name) for table in tables]
                                             + [np.empty(0, dtype=f.metadata["dtype"])])
                      for f in fields(cls)})

    def save(self, path, cfg_hash: str, n_scans: int) -> None:
        """Write a candidate_arrays.v1 archive stamped with cfg_hash and
        the row count of the scan table."""
        fileio.save_table(path, fileio.SCHEMA_CANDIDATE_ARRAYS, cfg_hash, self,
                          {"scans": n_scans})

    @classmethod
    def load(cls, path, expect_hash: str | None, n_scans: int) -> "CandidateTable":
        """Read a table written by save, for a scan table of n_scans rows.

        Raises DataError unless load_table accepts the archive, it was
        built from a table of n_scans rows, and its rows lie inside the
        table and its labels are 0 or 1.
        """
        header, table = fileio.load_table(cls, path, fileio.SCHEMA_CANDIDATE_ARRAYS, expect_hash)
        if header.get("scans") != n_scans:
            raise DataError(
                f"{path}: built from {header.get('scans')} scans, the scan "
                f"table has {n_scans}; was it built from this cleaned input?")
        for rows in (table.row_a, table.row_b):
            if len(rows) and (rows.min() < 0 or rows.max() >= n_scans):
                raise DataError(f"{path}: a row lies outside the scan table")
        if ((table.label != 0) & (table.label != 1)).any():
            raise DataError(f"{path}: a label is neither 0 nor 1")
        return table


def _strongest_sightings(pair, ts, delta_t, sight_pair, sight_ts, sight_rssi):
    """Per query, the max RSSI of the pair's sightings with
    |ts_bt - ts| <= delta_t, as a float; NaN where there is none."""
    best = np.full(len(ts), np.nan)
    if len(sight_ts) == 0 or len(ts) == 0:
        return best
    base = min(int(sight_ts.min()), int(ts.min())) - delta_t
    span = max(int(sight_ts.max()), int(ts.max())) + delta_t - base + 1
    keys = sight_pair * span + (sight_ts - base)
    order = np.argsort(keys, kind="stable")
    keys, rssi = keys[order], sight_rssi[order]
    query = pair * span + (ts - base)
    lo = np.searchsorted(keys, query - delta_t, side="left")
    hi = np.searchsorted(keys, query + delta_t, side="right")
    count = hi - lo
    found = count > 0
    if found.any():
        _, index = _ranges(lo[found], count[found])
        starts = np.cumsum(count[found]) - count[found]
        best[found] = np.maximum.reduceat(rssi[index], starts)
    return best


def split_indices(n: int, train_size: int, seed: int):
    """Uniform random train indices without replacement; the rest is test.

    Deterministic for a given seed; both index arrays are sorted.
    """
    if train_size > n:
        raise ValueError(f"train_size {train_size} exceeds population {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return np.sort(perm[:train_size]), np.sort(perm[train_size:])
