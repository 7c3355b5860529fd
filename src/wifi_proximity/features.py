"""The 16 pairwise features computed for every candidate pair.

Categories: AP presence (overlap, non_overlap, union, jaccard), RSSI
(spearman, pearson, manhattan, euclidean), presence+RSSI (top_ap,
top_ap_6db), timing (hour_of_week), popularity (min/max popularity,
adamic_adar), location (at_home, at_campus).

Correlations are undefined with fewer than three common routers or when
one side reads every signal at the same level, and are dropped when not
statistically significant; such values stay missing until mean
imputation, whose means come from training data only. Significance is a
two-sided Student-t test, whose p-value ``two_sided_t_p`` computes in
numpy from the incomplete beta function's continued fraction, as numpy is
the package's one runtime dependency.

A router's popularity at an interaction is the number of distinct users
who scanned it within ``popularity_window_s`` (``delta_t_s`` in the
pipeline) of the interaction time, window ends included.

A model's input is ``model_matrix``: the rows of one split side and the
columns of one featureset, gathered once, column by column, into a
column-major array, with missing correlations set to the training means
that ``fit_imputation`` reads from the correlation columns of the train
rows. Neither copies the whole matrix.

``extract_feature_matrix`` computes all 16 for every candidate at once,
with whole-array kernels over an ``ingest.WifiScans`` table in bssid
order, the table ``clean`` saves as scans.npz; ``featurize`` uses it.
It counts popularity as the number of sightings that are their user's
first in the window, with two binary searches per distinct (router,
time) query (``_WindowPopularity``). The per-pair functions
(``extract_features`` and its parts) are the reference it matches bit
for bit. Both add the correlations' products with numpy's own sums: a
BLAS dot adds in the order of the kernel OpenBLAS picks for the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from .fileio import DataError
from .ingest import WifiScans, month_codes, month_key
from .records import RSSI_MIN, CandidatePair, OverlapView, WifiScanRecord, intersect

FEATURE_NAMES = [
    "overlap",
    "non_overlap",
    "union",
    "jaccard",
    "spearman",
    "pearson",
    "manhattan",
    "euclidean",
    "top_ap",
    "top_ap_6db",
    "hour_of_week",
    "min_popularity",
    "max_popularity",
    "adamic_adar",
    "at_home",
    "at_campus",
]

CORRELATION_FEATURES = ("spearman", "pearson")

DEFAULT_ALPHA = 0.05
DEFAULT_POPULARITY_WINDOW_S = 300
DEFAULT_CAMPUS_SSID = "dtu"
DEFAULT_TOP_AP_TOLERANCE_DB = 6


class PopularityIndexError(ValueError):
    """A common router with popularity < 2: the index and the candidates
    were built from different data."""


@dataclass(frozen=True, slots=True)
class FeatureVector:
    overlap: int
    non_overlap: int
    union: int
    jaccard: float
    spearman: float | None
    pearson: float | None
    manhattan: float
    euclidean: float
    top_ap: int
    top_ap_6db: int
    hour_of_week: int
    min_popularity: int
    max_popularity: int
    adamic_adar: float
    at_home: int
    at_campus: int


# ---------------------------------------------------------------------------
# AP presence
# ---------------------------------------------------------------------------

def ap_presence(view: OverlapView) -> tuple[int, int, int, float]:
    """(overlap, non_overlap, union, jaccard); jaccard is 0 on empty union."""
    overlap = view.size
    union = overlap + view.only_a + view.only_b
    jaccard = overlap / union if union > 0 else 0.0
    return overlap, union - overlap, union, jaccard


# ---------------------------------------------------------------------------
# RSSI
# ---------------------------------------------------------------------------

def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _pearson_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    da, db = a - a.mean(), b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        return math.nan
    return float(min(1.0, max(-1.0, (da * db).sum() / denom)))


def _half_beta_factors(k: np.ndarray) -> np.ndarray:
    """1 / ((k/2) B(k/2, 1/2)) for integers k >= 1: 2/pi at k = 1, 1/2 at
    k = 2, and (k + 1)/(k + 2) times that of k at k + 2."""
    steps = np.arange(k.max(initial=2) + 1.0)
    steps[3:] = (steps[3:] - 1.0) / steps[3:]
    steps[1:3] = 2.0 / np.pi, 0.5
    steps[1::2] = np.multiply.accumulate(steps[1::2])
    steps[2::2] = np.multiply.accumulate(steps[2::2])
    return steps[k]


def _beta_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of the regularized incomplete beta function
    I_x(a, b) (Numerical Recipes, 3rd ed., 6.4), by the modified Lentz
    method. Each element stops when its own last factor is within 1e-15
    of 1, so its value does not depend on the other elements."""
    def nonzero(v):
        return np.where(np.abs(v) < 1e-300, 1e-300, v)

    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    fraction = d.copy()
    c = np.ones_like(x)
    live = np.arange(len(x))
    m = 0
    while len(live):
        m += 1
        a_, b_, x_ = a[live], b[live], x[live]
        for coef in (m * (b_ - m) * x_ / ((a_ + (2 * m - 1)) * (a_ + 2 * m)),
                     -(a_ + m) * (a_ + b_ + m) * x_ / ((a_ + 2 * m) * (a_ + (2 * m + 1)))):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            fraction[live] *= d * c
        keep = np.abs(d * c - 1.0) > 1e-15
        live, c, d = live[keep], c[keep], d[keep]
    return fraction


def two_sided_t_p(t, df) -> np.ndarray:
    """P(|T| >= t) for Student's t with integer df >= 1, elementwise over
    the broadcast of t >= 0 and df; NaN where t is NaN.

    With z = cos^2(theta) = df / (df + t^2), p is the regularized
    incomplete beta I_z(df/2, 1/2). Its continued fraction is the upper
    tail itself, so p keeps its relative precision however small it is.
    That fraction converges fast only below z = (df + 2)/(df + 5), and
    above it p is 1 - I_{1-z}(1/2, df/2) instead, whose fraction does;
    there t < sqrt(3), so p > 0.08 and the subtraction costs little. Both
    are sin(theta) cos^df(theta) / ((df/2) B(df/2, 1/2)) times their
    fraction, the second also times df. Every step is elementwise, so a
    value does not depend on what else is in the call.
    """
    t, df = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(df))
    p = np.full(t.shape, np.nan)
    ok = ~np.isnan(t)
    t, k = t[ok], df[ok].astype(np.int64)
    kf = k.astype(float)
    root = np.sqrt(kf)
    far = t >= root
    # tan or cot of theta, at most 1, so nothing overflows, even at t = inf
    with np.errstate(divide="ignore"):
        u = np.where(far, root / t, t / root)
    w = np.sqrt(1.0 + u * u)
    cos, sin = np.where(far, u, 1.0) / w, np.where(far, 1.0, u) / w
    scale = _half_beta_factors(k) * sin * cos ** kf
    tail = cos * cos < (kf + 2.0) / (kf + 5.0)
    half = kf / 2.0
    fraction = _beta_fraction(np.where(tail, half, 0.5), np.where(tail, 0.5, half),
                              np.where(tail, cos * cos, sin * sin))
    p[ok] = np.where(tail, scale * fraction, 1.0 - kf * scale * fraction)
    return p


def _two_sided_p(r: float, n: int) -> float:
    # t approximation with n-2 degrees of freedom; |r|=1 degenerates to p=0
    df = n - 2
    if 1.0 - r * r <= 0.0:
        return 0.0
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    return float(two_sided_t_p(t, df))


def rssi_correlations(view: OverlapView, alpha: float = DEFAULT_ALPHA):
    """Spearman and Pearson correlation of the shared routers' RSSIs.

    Either value is missing (None) when fewer than three routers overlap,
    when one side's readings have zero variance, or when the coefficient
    is not significant at ``alpha``.
    """
    n = view.size
    if n < 3:
        return None, None
    a = np.array([r_a for _, r_a, _ in view.common], dtype=float)
    b = np.array([r_b for _, _, r_b in view.common], dtype=float)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return None, None
    pearson = _pearson_coefficient(a, b)
    spearman = _pearson_coefficient(_average_ranks(a), _average_ranks(b))

    def significant(r):
        if math.isnan(r) or _two_sided_p(r, n) >= alpha:
            return None
        return r

    return significant(spearman), significant(pearson)


def rssi_distances(view: OverlapView) -> tuple[float, float]:
    """Per-router l1 and l2 RSSI differences: sum|dA-dB|/N and sqrt(sum(dA-dB)^2)/N.

    Zero overlap yields (0, 0) by convention; only positives can reach
    that case and their correlations stay missing for imputation.
    """
    n = view.size
    if n == 0:
        return 0.0, 0.0
    diffs = np.array([r_a - r_b for _, r_a, r_b in view.common], dtype=float)
    manhattan = float(np.abs(diffs).sum()) / n
    # a sum of squared integers, exact in any order up to 2**53
    euclidean = float(math.sqrt(float(diffs @ diffs))) / n
    return manhattan, euclidean


# ---------------------------------------------------------------------------
# AP presence + RSSI
# ---------------------------------------------------------------------------

def top_ap_features(scan_a: WifiScanRecord, scan_b: WifiScanRecord,
                    tolerance_db: int = DEFAULT_TOP_AP_TOLERANCE_DB) -> tuple[int, int]:
    """Whether the two scans agree on their strongest router.

    top_ap: some bssid attains the maximum RSSI in both scans (any
    maximizer counts under ties). top_ap_6db: some common bssid is within
    ``tolerance_db`` of the top router on both sides. Empty scans give 0.
    """
    if not scan_a.aps or not scan_b.aps:
        return 0, 0
    max_a = max(ap.rssi for ap in scan_a.aps)
    max_b = max(ap.rssi for ap in scan_b.aps)
    near_a = {ap.bssid for ap in scan_a.aps if ap.rssi >= max_a - tolerance_db}
    near_b = {ap.bssid for ap in scan_b.aps if ap.rssi >= max_b - tolerance_db}
    top_a = {ap.bssid for ap in scan_a.aps if ap.rssi == max_a}
    top_b = {ap.bssid for ap in scan_b.aps if ap.rssi == max_b}
    top_ap = 1 if top_a & top_b else 0
    top_ap_6db = 1 if near_a & near_b else 0
    return top_ap, top_ap_6db


# ---------------------------------------------------------------------------
# Popularity
# ---------------------------------------------------------------------------

class PopularityIndex:
    """How many distinct users scanned each router near a given moment.

    Built in one pass over the cleaned scan records and then read-only.
    Queries are cached: co-temporal candidates hit the same (bssid, ts)
    pairs often.
    """

    def __init__(self, records):
        per_bssid_ts: dict[str, list[int]] = {}
        per_bssid_user: dict[str, list[int]] = {}
        user_ids: dict[str, int] = {}
        for rec in records:
            uid = user_ids.setdefault(rec.user, len(user_ids))
            for ap in rec.aps:
                per_bssid_ts.setdefault(ap.bssid, []).append(rec.ts)
                per_bssid_user.setdefault(ap.bssid, []).append(uid)
        self._ts: dict[str, np.ndarray] = {}
        self._uid: dict[str, np.ndarray] = {}
        for bssid, ts_list in per_bssid_ts.items():
            ts_arr = np.array(ts_list, dtype=np.int64)
            uid_arr = np.array(per_bssid_user[bssid], dtype=np.int32)
            order = np.argsort(ts_arr, kind="stable")
            self._ts[bssid] = ts_arr[order]
            self._uid[bssid] = uid_arr[order]
        self._cache: dict[tuple[str, int, int], int] = {}

    def count_users(self, bssid: str, lo_ts: int, hi_ts: int) -> int:
        """Distinct users with an observation of bssid in [lo_ts, hi_ts]."""
        key = (bssid, lo_ts, hi_ts)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ts = self._ts.get(bssid)
        if ts is None:
            count = 0
        else:
            lo = int(np.searchsorted(ts, lo_ts, side="left"))
            hi = int(np.searchsorted(ts, hi_ts, side="right"))
            count = 0 if hi <= lo else len(np.unique(self._uid[bssid][lo:hi]))
        self._cache[key] = count
        return count


def popularity_features(view: OverlapView, ts: int, popularity: PopularityIndex,
                        window_s: int = DEFAULT_POPULARITY_WINDOW_S):
    """(min_popularity, max_popularity, adamic_adar) over the common routers.

    Popularity of a router is the number of distinct users who scanned it
    within ``window_s`` of the interaction timestamp. The Adamic-Adar
    score sums 1/ln(popularity): rarely-seen shared routers weigh more.
    Empty overlap gives (0, 0, 0).
    """
    if view.size == 0:
        return 0, 0, 0.0
    pops = []
    for bssid, _, _ in view.common:
        p = popularity.count_users(bssid, ts - window_s, ts + window_s)
        if p < 2:
            raise _popularity_error(bssid, p, ts)
        pops.append(p)
    # left to right, as the batch kernel's bincount adds (sum() compensates
    # float rounding from Python 3.12 on)
    adamic_adar = 0.0
    for p in pops:
        adamic_adar += 1.0 / math.log(p)
    return min(pops), max(pops), adamic_adar


def _popularity_error(bssid: str, p: int, ts: int) -> PopularityIndexError:
    return PopularityIndexError(
        f"router {bssid} has popularity {p} at ts={ts}; both pair members "
        "scanned it, so the index was built from different records"
    )


# ---------------------------------------------------------------------------
# Timing and location
# ---------------------------------------------------------------------------

def hour_of_week(ts: int, tz_offset_s: int = 0) -> int:
    """Hours since local Monday 00:00, in 0..167."""
    hours = (ts + tz_offset_s) // 3600
    weekday = (hours // 24 + 3) % 7  # epoch day 0 was a Thursday
    return int(weekday * 24 + hours % 24)


def timing_location_features(pair: CandidatePair,
                             home_map: dict[tuple[str, str], str],
                             campus_ssid: str = DEFAULT_CAMPUS_SSID,
                             tz_offset_s: int = 0) -> tuple[int, int, int]:
    """(hour_of_week, at_home, at_campus) for a candidate pair.

    at_home: any router in the union is either user's home router for the
    meeting's calendar month. at_campus: any router in the union
    broadcasts the campus network name.
    """
    how = hour_of_week(pair.ts, tz_offset_s)
    month = month_key(pair.ts, tz_offset_s)
    homes = {home_map.get((pair.user_a, month)), home_map.get((pair.user_b, month))}
    homes.discard(None)
    union = pair.scan_a.bssids() | pair.scan_b.bssids()
    at_home = 1 if homes & union else 0
    at_campus = 0
    for ap in pair.scan_a.aps + pair.scan_b.aps:
        if ap.ssid == campus_ssid:
            at_campus = 1
            break
    return how, at_home, at_campus


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def extract_features(pair: CandidatePair, popularity: PopularityIndex,
                     home_map: dict[tuple[str, str], str],
                     campus_ssid: str = DEFAULT_CAMPUS_SSID,
                     tz_offset_s: int = 0,
                     alpha: float = DEFAULT_ALPHA,
                     popularity_window_s: int = DEFAULT_POPULARITY_WINDOW_S,
                     ) -> FeatureVector:
    """All 16 features of one candidate pair, correlations possibly missing."""
    view = intersect(pair.scan_a, pair.scan_b)
    overlap, non_overlap, union, jaccard = ap_presence(view)
    spearman, pearson = rssi_correlations(view, alpha)
    manhattan, euclidean = rssi_distances(view)
    top_ap, top_ap_6db = top_ap_features(pair.scan_a, pair.scan_b)
    min_pop, max_pop, adamic_adar = popularity_features(
        view, pair.ts, popularity, popularity_window_s)
    how, at_home, at_campus = timing_location_features(
        pair, home_map, campus_ssid, tz_offset_s)
    return FeatureVector(
        overlap=overlap, non_overlap=non_overlap, union=union, jaccard=jaccard,
        spearman=spearman, pearson=pearson,
        manhattan=manhattan, euclidean=euclidean,
        top_ap=top_ap, top_ap_6db=top_ap_6db,
        hour_of_week=how,
        min_popularity=min_pop, max_popularity=max_pop, adamic_adar=adamic_adar,
        at_home=at_home, at_campus=at_campus,
    )


# ---------------------------------------------------------------------------
# Batch kernel: all candidates at once
# ---------------------------------------------------------------------------

# candidates per block of the batch kernel; bounds its temporary arrays
_BLOCK_PAIRS = 2048


def _average_ranks_by_owner(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """_average_ranks within each owner's entries; ties share the mean rank.

    The values are RSSIs, int16 widened to int64, so value - RSSI_MIN
    lies in [0, 2**16) and one sort of owner * 2**16 + that orders the
    entries by (owner, value).
    """
    order = np.argsort(owner * 2 ** 16 + (values - RSSI_MIN), kind="stable")
    so, sv = owner[order], values[order]
    new_owner = np.ones(len(order), dtype=bool)
    new_owner[1:] = so[1:] != so[:-1]
    new_run = new_owner.copy()
    new_run[1:] |= sv[1:] != sv[:-1]
    pos = np.arange(len(order))
    owner_start = np.maximum.accumulate(np.where(new_owner, pos, 0))
    run_start = np.maximum.accumulate(np.where(new_run, pos, 0))
    run_last = np.flatnonzero(np.append(new_run[1:], True))
    run_end = run_last[np.cumsum(new_run) - 1]
    ranks = np.empty(len(order))
    ranks[order] = 0.5 * ((run_start - owner_start) + (run_end - owner_start)) + 1.0
    return ranks


def _pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_pearson_coefficient of every row pair of two (k, n) matrices.

    Each sum of products is numpy's own reduction along a row of length
    n, which adds in the order that ``(da * db).sum()`` does on one row,
    so each row rounds exactly as the per-pair function does, on any CPU.
    """
    n = a.shape[1]
    da = a - (a.sum(axis=1) / n)[:, None]
    db = b - (b.sum(axis=1) / n)[:, None]
    denom = np.sqrt((da * da).sum(axis=1) * (db * db).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip((da * db).sum(axis=1) / denom, -1.0, 1.0)
    return np.where(denom == 0.0, np.nan, r)


def _significant_rows(r: np.ndarray, n: np.ndarray, alpha: float) -> np.ndarray:
    """r where _two_sided_p says it is significant at alpha, else NaN; n,
    each pair's overlap size, broadcasts against r."""
    df = n - 2
    q = 1.0 - r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.abs(r) * np.sqrt(df / q)  # inf at |r| = 1, where p is 0
    p = two_sided_t_p(t, df)
    return np.where(np.isnan(r) | (p >= alpha), np.nan, r)


def _correlation_columns(cp, ra, rb, overlap, alpha):
    """(spearman, pearson) per pair, NaN where rssi_correlations gives None."""
    r = np.full((2, len(overlap)), np.nan)  # spearman, pearson
    rank_a = _average_ranks_by_owner(cp, ra)
    rank_b = _average_ranks_by_owner(cp, rb)
    starts = np.cumsum(overlap) - overlap
    for n in np.unique(overlap[overlap >= 3]).tolist():
        pairs = np.flatnonzero(overlap == n)
        idx = starts[pairs][:, None] + np.arange(n)
        a, b = ra[idx].astype(float), rb[idx].astype(float)
        varied = (a.min(axis=1) != a.max(axis=1)) & (b.min(axis=1) != b.max(axis=1))
        pairs, idx = pairs[varied], idx[varied]
        r[0, pairs] = _pearson_rows(rank_a[idx], rank_b[idx])
        r[1, pairs] = _pearson_rows(a[varied], b[varied])
    return _significant_rows(r, overlap, alpha)


class _WindowPopularity:
    """PopularityIndex.count_users for many (bssid code, ts) queries at once.

    A query (b, t) counts the distinct users who saw router b within
    [L, L + 2w], with L = t - w, as the number of sightings of b that are
    their user's first in that window. Sighting j, at t_j, is its user's
    first exactly when a_j < L <= t_j, where a_j is the larger of the
    user's previous sighting of b and t_j - 2w - 1. So the count is
    #{j of b: a_j < L} - #{j of b: t_j < L}: two binary searches into the
    sorted keys ``b * span + a_j`` and ``b * span + t_j``. Both times are
    clipped to [base, last query L], with base one below the first query
    L; that changes no comparison with a query's L, and keeps every key
    below n_bssids * (the range of query times + 2).
    """

    def __init__(self, table: WifiScans, rows: np.ndarray, query_ts: np.ndarray,
                 window_s: int):
        self.window_s = window_s
        self.base = int(query_ts.min()) - window_s - 1
        last = int(query_ts.max()) - window_s
        self.span = last - self.base + 1
        # entries in (bssid, user, ts) order: one sort of bssid * n_rows
        # plus the rank of the entry's row in (user, ts) order; each
        # per-entry array is dropped once used, as they set featurize's
        # peak memory
        by_user = np.lexsort((table.ts, table.user))
        rank = np.empty(len(by_user), dtype=np.int64)
        rank[by_user] = np.arange(len(by_user))
        n_rows = max(len(by_user), 1)
        key = np.multiply(table.bssid, n_rows, dtype=np.int64)
        key += rank[rows]
        del rank
        key.sort()
        code = key // n_rows
        key %= n_rows
        user = table.user[by_user][key]
        # a sighting's user saw the same router at the sighting before it
        same = (code[1:] == code[:-1]) & (user[1:] == user[:-1])
        del user
        seen = table.ts[by_user][key]
        del key, by_user
        first = seen - (2 * window_s + 1)
        np.maximum(first[1:], seen[:-1], out=first[1:], where=same)
        del same
        code *= self.span
        code -= self.base
        for times in (seen, first):
            np.clip(times, self.base, last, out=times)
            times += code
            times.sort()
        self.seen, self.first = seen, first

    def count(self, code: np.ndarray, ts: np.ndarray) -> np.ndarray:
        queries, inverse = np.unique(
            code.astype(np.int64) * self.span + (ts - self.window_s - self.base),
            return_inverse=True)
        counts = np.searchsorted(self.first, queries) - np.searchsorted(self.seen, queries)
        return counts[inverse]


def _overlap_columns(table: WifiScans, scan_a, scan_b, ts, row_max: np.ndarray,
                     popularity: _WindowPopularity,
                     alpha: float) -> dict[str, np.ndarray]:
    """The features of a block of pairs that depend on their common routers."""
    n_pairs = len(ts)
    offsets = table.offsets
    len_a = offsets[scan_a + 1] - offsets[scan_a]
    len_b = offsets[scan_b + 1] - offsets[scan_b]
    cp, ea, eb = table.common(scan_a, scan_b)
    code = table.bssid[ea]
    ra, rb = table.rssi[ea].astype(np.int64), table.rssi[eb].astype(np.int64)
    overlap = np.bincount(cp, minlength=n_pairs)
    union = len_a + len_b - overlap
    per_pair = np.maximum(overlap, 1)

    diff = (ra - rb).astype(float)
    spearman, pearson = _correlation_columns(cp, ra, rb, overlap, alpha)

    max_a, max_b = row_max[scan_a][cp], row_max[scan_b][cp]
    tol = DEFAULT_TOP_AP_TOLERANCE_DB
    top = (ra == max_a) & (rb == max_b)
    near = (ra >= max_a - tol) & (rb >= max_b - tol)

    mins = np.zeros(n_pairs, dtype=np.int64)
    maxs = np.zeros(n_pairs, dtype=np.int64)
    adamic_adar = np.zeros(n_pairs)
    if len(cp):
        pops = popularity.count(code, ts[cp])
        low = np.flatnonzero(pops < 2)
        if len(low):
            i = low[0]
            raise _popularity_error(table.bssids[code[i]], int(pops[i]), int(ts[cp[i]]))
        starts = (np.cumsum(overlap) - overlap)[overlap > 0]
        mins[overlap > 0] = np.minimum.reduceat(pops, starts)
        maxs[overlap > 0] = np.maximum.reduceat(pops, starts)
        values, which = np.unique(pops, return_inverse=True)
        inv_log = np.array([1.0 / math.log(v) for v in values.tolist()])
        # bincount adds each pair's terms left to right, as the loop does
        adamic_adar = np.bincount(cp, weights=inv_log[which], minlength=n_pairs)

    return {
        "overlap": overlap, "non_overlap": union - overlap, "union": union,
        "jaccard": overlap / np.maximum(union, 1),
        "spearman": spearman, "pearson": pearson,
        "manhattan": np.bincount(cp, weights=np.abs(diff), minlength=n_pairs) / per_pair,
        "euclidean": np.sqrt(np.bincount(cp, weights=diff * diff,
                                         minlength=n_pairs)) / per_pair,
        "top_ap": np.bincount(cp[top], minlength=n_pairs) > 0,
        "top_ap_6db": np.bincount(cp[near], minlength=n_pairs) > 0,
        "min_popularity": mins, "max_popularity": maxs, "adamic_adar": adamic_adar,
    }


def _home_matrix(table, month_ids, home_map) -> np.ndarray:
    """Home router code per (user, month) of the table, -1 where unknown."""
    user_ids = {u: i for i, u in enumerate(table.users)}
    bssid_ids = {b: i for i, b in enumerate(table.bssids)}
    homes = np.full((len(user_ids), len(month_ids)), -1, dtype=np.int64)
    for (user, month), bssid in home_map.items():
        if user in user_ids and month in month_ids and bssid in bssid_ids:
            homes[user_ids[user], month_ids[month]] = bssid_ids[bssid]
    return homes


def _context_columns(table: WifiScans, entry_rows, scan_a, scan_b, ts, home_map,
                     campus_ssid, tz_offset_s) -> dict[str, np.ndarray]:
    """hour_of_week, at_home and at_campus, as timing_location_features."""
    n_bssid = max(len(table.bssids), 1)
    hours = (ts + tz_offset_s) // 3600
    months, month = month_codes(ts, tz_offset_s)
    homes = _home_matrix(table, {m: i for i, m in enumerate(months)}, home_map)
    entry_key = np.multiply(entry_rows, n_bssid, dtype=np.int64) + table.bssid

    def scan_has(rows, codes):
        if len(entry_key) == 0:
            return np.zeros(len(rows), dtype=bool)
        keys = rows * n_bssid + codes
        at = np.minimum(np.searchsorted(entry_key, keys), len(entry_key) - 1)
        return (codes >= 0) & (entry_key[at] == keys)

    at_home = np.zeros(len(ts), dtype=bool)
    for rows in (scan_a, scan_b):
        home = homes[table.user[rows], month]
        at_home |= scan_has(scan_a, home) | scan_has(scan_b, home)
    campus = table.ssids.index(campus_ssid) if campus_ssid in table.ssids else -1
    campus_row = np.bincount(entry_rows[table.ssid == campus],
                             minlength=len(table.ts)) > 0
    return {
        "hour_of_week": (hours // 24 + 3) % 7 * 24 + hours % 24,
        "at_home": at_home,
        "at_campus": campus_row[scan_a] | campus_row[scan_b],
    }


def extract_feature_matrix(table: WifiScans, scan_a, scan_b, ts,
                           home_map: dict[tuple[str, str], str],
                           campus_ssid: str = DEFAULT_CAMPUS_SSID,
                           tz_offset_s: int = 0,
                           alpha: float = DEFAULT_ALPHA,
                           popularity_window_s: int = DEFAULT_POPULARITY_WINDOW_S,
                           ) -> np.ndarray:
    """The 16 features of every candidate, as extract_features gives them.

    Candidate i pairs table rows ``scan_a[i]`` and ``scan_b[i]`` at
    interaction time ``ts[i]``. Returns an (n, 16) float matrix in
    FEATURE_NAMES order with missing correlations as NaN, equal bit for
    bit to the fields of ``extract_features(...)`` row by row, with
    popularity counted over every row of the table: the sightings of a
    common router that are their user's first within
    ``popularity_window_s`` of ``ts[i]`` (see _WindowPopularity).
    Candidates are processed in blocks of _BLOCK_PAIRS.

    Raises:
        PopularityIndexError: a common router with popularity below 2.
    """
    scan_a = np.asarray(scan_a, dtype=np.int64)
    scan_b = np.asarray(scan_b, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    out = np.empty((len(ts), len(FEATURE_NAMES)))
    if len(ts) == 0:
        return out
    row_max = np.zeros(len(table.ts), dtype=np.int64)
    full = np.diff(table.offsets) > 0
    if full.any():
        row_max[full] = np.maximum.reduceat(table.rssi, table.offsets[:-1][full])
    entry_rows = table.entry_rows()
    columns = _context_columns(table, entry_rows, scan_a, scan_b, ts, home_map,
                               campus_ssid, tz_offset_s)
    for name, values in columns.items():
        out[:, FEATURE_NAMES.index(name)] = values
    del columns
    # built once the context columns are freed, which lowers featurize's peak memory
    popularity = _WindowPopularity(table, entry_rows, ts, popularity_window_s)
    del entry_rows
    for lo in range(0, len(ts), _BLOCK_PAIRS):
        block = slice(lo, lo + _BLOCK_PAIRS)
        columns = _overlap_columns(table, scan_a[block], scan_b[block], ts[block],
                                   row_max, popularity, alpha)
        for name, values in columns.items():
            out[block, FEATURE_NAMES.index(name)] = values
    return out


@dataclass(frozen=True, slots=True)
class FeatureTable:
    """The labeled feature matrix, one row per candidate.

    ``X`` holds the features in FEATURE_NAMES order, NaN where a
    correlation is missing; ``label`` is 0 or 1, ``ts`` the interaction
    time, and ``bt_rssi`` the supporting sighting's RSSI, NaN on
    negatives. ``featurize`` saves the table as features.npz; ``train``,
    ``evaluate`` and ``report`` load it. ``evaluate`` reads ``ts`` and
    ``bt_rssi`` for its strata. The fields are features.npz's form: see
    fileio.load_table.
    """

    X: np.ndarray = field(metadata={"dtype": np.float64, "ndim": 2, "group": "candidates"})
    label: np.ndarray = field(metadata={"dtype": np.int64, "group": "candidates"})
    ts: np.ndarray = field(metadata={"dtype": np.int64, "group": "candidates"})
    bt_rssi: np.ndarray = field(metadata={"dtype": np.float64, "group": "candidates"})

    def save(self, path, cfg_hash: str) -> None:
        """Write the table as a feature_arrays.v1 archive stamped with cfg_hash."""
        fileio.save_table(path, fileio.SCHEMA_FEATURE_ARRAYS, cfg_hash, self,
                          {"features": FEATURE_NAMES})

    @classmethod
    def load(cls, path, expect_hash: str | None = None) -> "FeatureTable":
        """Read a table written by save.

        Raises DataError unless load_table accepts the archive, it names
        this package's features, X has one column per feature, every
        value is finite or a missing correlation (NaN in a
        CORRELATION_FEATURES column), and the labels are 0 or 1.
        """
        header, table = fileio.load_table(cls, path, fileio.SCHEMA_FEATURE_ARRAYS, expect_hash)
        if header.get("features") != FEATURE_NAMES or table.X.shape[1] != len(FEATURE_NAMES):
            raise DataError(f"{path}: {table.X.shape[1]} columns of features "
                            f"{header.get('features')}, expected {FEATURE_NAMES}")
        usable = np.isfinite(table.X)
        for col in map(FEATURE_NAMES.index, CORRELATION_FEATURES):
            usable[:, col] |= np.isnan(table.X[:, col])
        if not usable.all():
            name = FEATURE_NAMES[np.flatnonzero(~usable.all(axis=0))[0]]
            raise DataError(f"{path}: {name} holds an infinite or missing value")
        if ((table.label != 0) & (table.label != 1)).any():
            raise DataError(f"{path}: a label is neither 0 nor 1")
        return table


# ---------------------------------------------------------------------------
# Imputation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ImputationState:
    """Training means used to fill missing correlation values.

    Fitted on training rows only and preserved, so test-time imputation
    never looks at test statistics. A model file holds its fields as the
    ``imputation`` object, written by ``dataclasses.asdict`` and read back
    by keyword, so a missing or unknown key is an error.
    """

    spearman_mean: float
    pearson_mean: float
    n_missing_spearman: int
    n_missing_pearson: int


def fit_imputation(matrix: np.ndarray, rows=slice(None)) -> ImputationState:
    """Means of the non-missing correlations in the given rows (an index
    array or a slice, every row by default) of a training matrix. Only
    the two correlation columns of those rows are read.

    A column with no value in the training rows is filled with 0.0: a
    correlation lies in [-1, 1], and a missing one means no significant
    correlation, whose null is 0.
    """
    state = {}
    for name in CORRELATION_FEATURES:
        col = matrix[rows, FEATURE_NAMES.index(name)]
        missing = np.isnan(col)
        valid = col[~missing]
        state[name] = (float(valid.mean()) if len(valid) else 0.0, int(missing.sum()))
    return ImputationState(
        spearman_mean=state["spearman"][0],
        pearson_mean=state["pearson"][0],
        n_missing_spearman=state["spearman"][1],
        n_missing_pearson=state["pearson"][1],
    )


def gather(matrix: np.ndarray, rows, cols) -> np.ndarray:
    """matrix[rows][:, cols] in one pass: each column's rows are copied
    into a column-major array, so no row-major copy of the rows is made.
    rows is an index array or a slice."""
    n = len(range(matrix.shape[0])[rows]) if isinstance(rows, slice) else len(rows)
    out = np.empty((n, len(cols)), order="F")
    for j, col in enumerate(cols):
        out[:, j] = matrix[rows, col]
    return out


def model_matrix(matrix: np.ndarray, rows, names, state: ImputationState) -> np.ndarray:
    """A model's input: the given rows (an index array or a slice) of the
    named columns of a FEATURE_NAMES-order matrix, gathered once into a
    column-major array, the layout in which trees read a column's rows
    fastest, with missing correlations set to the state's training means.

    Raises ValueError on a NaN in any other of those cells.
    """
    cols = [FEATURE_NAMES.index(name) for name in names]
    out = gather(matrix, rows, cols)
    means = {FEATURE_NAMES.index(name): getattr(state, f"{name}_mean")
             for name in CORRELATION_FEATURES}
    for column, col in zip(out.T, cols):
        missing = np.isnan(column)
        if col in means:
            column[missing] = means[col]
        elif missing.any():
            raise ValueError("matrix has missing values outside the correlation columns")
    return out


def apply_imputation(matrix: np.ndarray, state: ImputationState) -> np.ndarray:
    """Column-major copy of a whole matrix with missing correlations set to
    the stored means: model_matrix of every row and feature."""
    return model_matrix(matrix, slice(None), FEATURE_NAMES, state)
