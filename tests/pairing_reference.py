"""The record-based candidate generator that `pairing.generate_candidates`
replaced, kept as the reference the table-based one is compared with.

It takes one window's `WifiScanRecord` list and `BluetoothSighting`
list and returns `CandidatePair` objects; the table-based generator must
choose the same scans, labels and Bluetooth RSSIs, in the same order.
`BluetoothSighting` is the per-sighting record that ingest built before
it kept the sightings as an `ingest.BluetoothSightings` table.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from wifi_proximity.records import LABEL_NEGATIVE, LABEL_POSITIVE, CandidatePair


@dataclass(frozen=True, slots=True)
class BluetoothSighting:
    """One device seen in a Bluetooth scan.

    ``peer`` is set when the seen device belongs to a study participant;
    otherwise ``mac`` identifies an outside device. Never both.
    """

    user: str
    ts: int
    peer: str | None
    mac: str | None
    rssi: int


def _index_sightings(sightings):
    """Pair -> time-sorted (ts, rssi) lists for participant sightings."""
    by_pair: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for s in sightings:
        if s.peer is None or s.peer == s.user:
            continue
        key = (s.user, s.peer) if s.user < s.peer else (s.peer, s.user)
        insort(by_pair.setdefault(key, []), (s.ts, s.rssi))
    return by_pair


def generate_candidates(wifi, bt, delta_t: int = 300) -> list[CandidatePair]:
    """Build labeled candidate pairs from one window's scans and sightings.

    For each unordered user pair, every scan of the lexicographically
    smaller user pairs with its nearest-in-time scan of the other user,
    provided the gap is at most ``delta_t``; this keeps one five-minute
    meeting from spawning near-identical samples for every scan cross
    product. A candidate is positive when some sighting between the two
    users (either direction) lies within ``delta_t`` of the interaction
    timestamp min(ts_a, ts_b); ``bt_rssi`` records the strongest such
    sighting. Negatives are kept only when the scans share a router.
    """
    by_user: dict[str, list] = {}
    for rec in wifi:
        by_user.setdefault(rec.user, []).append(rec)

    users = sorted(by_user)
    scan_ts: dict[str, np.ndarray] = {}
    union_bssids: dict[str, frozenset] = {}
    for user in users:
        recs = by_user[user]
        recs.sort(key=lambda r: r.ts)
        scan_ts[user] = np.array([r.ts for r in recs], dtype=np.int64)
        union_bssids[user] = frozenset().union(*(r.bssids() for r in recs))

    bt_index = _index_sightings(bt)

    out = []
    for i, user_a in enumerate(users):
        recs_a = by_user[user_a]
        set_a = union_bssids[user_a]
        for user_b in users[i + 1:]:
            pair_bt = bt_index.get((user_a, user_b))
            # cheap reject: no sighting and no router either scan could share
            if pair_bt is None and set_a.isdisjoint(union_bssids[user_b]):
                continue
            recs_b = by_user[user_b]
            ts_b = scan_ts[user_b]
            pos = np.searchsorted(ts_b, scan_ts[user_a])
            for j, rec_a in enumerate(recs_a):
                rec_b = _nearest(recs_b, ts_b, pos[j], rec_a.ts)
                if rec_b is None or abs(rec_a.ts - rec_b.ts) > delta_t:
                    continue
                ts = min(rec_a.ts, rec_b.ts)
                bt_rssi = _strongest_sighting(pair_bt, ts, delta_t)
                if bt_rssi is None and rec_a.bssids().isdisjoint(rec_b.bssids()):
                    continue  # no overlap and no Bluetooth support
                label = LABEL_NEGATIVE if bt_rssi is None else LABEL_POSITIVE
                out.append(CandidatePair(
                    user_a=user_a, user_b=user_b,
                    scan_a=rec_a, scan_b=rec_b,
                    ts=ts, label=label, bt_rssi=bt_rssi,
                ))
    out.sort(key=lambda c: (c.ts, c.user_a, c.user_b, c.scan_a.ts, c.scan_b.ts))
    return out


def _nearest(recs_b, ts_b, pos, ts_a):
    """The scan of B closest in time to ts_a; earlier one wins exact ties."""
    if len(recs_b) == 0:
        return None
    lo = pos - 1
    if lo < 0:
        return recs_b[0]
    if pos >= len(recs_b):
        return recs_b[lo]
    if ts_a - ts_b[lo] <= ts_b[pos] - ts_a:
        return recs_b[lo]
    return recs_b[pos]


def _strongest_sighting(pair_bt, ts: int, delta_t: int):
    """Max RSSI over sightings with |ts_bt - ts| <= delta_t, else None."""
    if not pair_bt:
        return None
    best = None
    # pair_bt is sorted by ts; scan the [ts-delta_t, ts+delta_t] slice
    lo = bisect_left(pair_bt, ts - delta_t, key=itemgetter(0))
    for k in range(lo, len(pair_bt)):
        ts_bt, rssi = pair_bt[k]
        if ts_bt > ts + delta_t:
            break
        if best is None or rssi > best:
            best = rssi
    return best
