"""The window-expansion popularity count that `features._WindowPopularity`
replaced, kept as the reference it is compared with.

`_WindowUsers.count` finds each distinct (router, ts) query's window of
sightings with two binary searches, gathers every sighting in those
windows and counts the distinct (query, user) keys with one sort. The
interval count must give the same popularity for every query.
"""

from __future__ import annotations

import numpy as np

from wifi_proximity.ingest import WifiScans, _ranges


class _WindowUsers:
    """PopularityIndex.count_users for many (bssid code, ts) queries at once.

    Observations are sorted by the key ``code * span + (ts - base)``, so a
    query's window is one slice; the slices are gathered and their
    distinct users counted with one sort.
    """

    def __init__(self, table: WifiScans, rows: np.ndarray, query_ts: np.ndarray,
                 window_s: int):
        self.window_s = window_s
        self.base = min(int(table.ts.min()), int(query_ts.min())) - window_s
        self.span = max(int(table.ts.max()), int(query_ts.max())) + window_s - self.base + 1
        obs = table.ts[rows]
        obs += np.multiply(table.bssid, self.span, dtype=np.int64) - self.base
        self.uid = table.user[rows[np.argsort(obs)]]
        obs.sort()
        self.obs = obs
        self.n_users = max(len(table.users), 1)

    def count(self, code: np.ndarray, ts: np.ndarray) -> np.ndarray:
        queries, inverse = np.unique(code.astype(np.int64) * self.span + (ts - self.base),
                                     return_inverse=True)
        lo = np.searchsorted(self.obs, queries - self.window_s, side="left")
        hi = np.searchsorted(self.obs, queries + self.window_s, side="right")
        owner, index = _ranges(lo, hi - lo)
        distinct = np.unique(owner * self.n_users + self.uid[index])
        return np.bincount(distinct // self.n_users, minlength=len(queries))[inverse]
