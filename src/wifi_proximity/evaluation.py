"""Metrics and the analysis suite run on held-out candidates.

AUC ROC is the midrank statistic (probability a random positive outscores
a random negative, ties counting one half). The report slices test AUC by
union-size tercile, campus flag, calendar week and hour of week, bins the
missed positives by Bluetooth RSSI, and the learning-curve driver retrains
on growing subsamples against a fixed test set.

Every breakdown (terciles, strata, RSSI bins) is grouped by code: a key
is computed once per distinct value (per distinct local day for the
week), and one stable sort gathers each group's rows in their order.
"""

from __future__ import annotations

# unused here, but perfbench/tracing.py patches this name in every module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .features import apply_imputation, fit_imputation


def midranks(values) -> np.ndarray:
    """1-based ranks of values, ties sharing the mean of their ranks; all
    NaN when any value is NaN. The ranks scipy.stats.rankdata gives."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + (sizes + 1) / 2.0, sizes)
    return ranks


def auc_roc(scores, labels) -> float:
    """Midrank AUC; raises on single-class input."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _auc_or_none(scores: np.ndarray, labels: np.ndarray) -> float | None:
    try:
        return auc_roc(scores, labels)
    except ValueError:
        return None


@dataclass(frozen=True, slots=True)
class PrfResult:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    zero_predicted: bool

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1,
                "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
                "zero_predicted": self.zero_predicted}


def prf_at_threshold(scores, labels, classifier) -> PrfResult:
    """Precision, recall, F1 of a ThresholdClassifier's predictions.

    With no predicted positives, precision is undefined; it is reported
    as 0 with zero_predicted set.
    """
    labels = np.asarray(labels)
    pred = classifier.predict(scores)
    tp = int(((pred == 1) & (labels == 1)).sum())
    fp = int(((pred == 1) & (labels == 0)).sum())
    fn = int(((pred == 0) & (labels == 1)).sum())
    tn = int(((pred == 0) & (labels == 0)).sum())
    zero_predicted = (tp + fp) == 0
    precision = 0.0 if zero_predicted else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0.0 else (
        2.0 * precision * recall / (precision + recall))
    return PrfResult(precision, recall, f1, tp, fp, fn, tn, zero_predicted)


# ---------------------------------------------------------------------------
# Stratified report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StratumResult:
    key: str
    n: int
    n_pos: int
    auc: float | None

    def as_dict(self) -> dict:
        return {"key": self.key, "n": self.n, "n_pos": self.n_pos, "auc": self.auc}


@dataclass(frozen=True, slots=True)
class EvalReport:
    n: int
    n_pos: int
    n_neg: int
    auc: float
    threshold: float
    direction: str
    precision: float
    recall: float
    f1: float
    zero_predicted: bool
    strata: dict[str, tuple[StratumResult, ...]]
    tercile_edges: tuple[tuple[float, float], ...]
    miss_rate_by_bt_rssi: tuple["BtRssiBin", ...] | None

    def as_dict(self) -> dict:
        return {
            "n": self.n, "n_pos": self.n_pos, "n_neg": self.n_neg,
            "auc": self.auc,
            "threshold": self.threshold, "direction": self.direction,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "zero_predicted": self.zero_predicted,
            "strata": {group: [s.as_dict() for s in items]
                       for group, items in self.strata.items()},
            "tercile_edges": [list(e) for e in self.tercile_edges],
            "miss_rate_by_bt_rssi": (
                None if self.miss_rate_by_bt_rssi is None
                else [b.as_dict() for b in self.miss_rate_by_bt_rssi]),
        }


TERCILE_NAMES = ("tercile_small", "tercile_mid", "tercile_large")
BT_RSSI_BIN_DB = 5  # width of the miss-rate breakdown's RSSI bins, dB


def tercile_assignment(values: np.ndarray) -> np.ndarray:
    """0/1/2 per row by rank thirds; group sizes differ by at most one."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    out = np.empty(n, dtype=np.int8)
    base, rem = divmod(n, 3)
    start = 0
    for k in range(3):
        size = base + (1 if k < rem else 0)
        out[order[start:start + size]] = k
        start += size
    return out


def iso_week_key(ts: int, tz_offset_s: int = 0) -> str:
    dt = datetime.fromtimestamp(ts + tz_offset_s, tz=timezone.utc)
    year, week, _ = dt.isocalendar()
    return f"{year}-W{week:02d}"


def _group_rows(values, key_of) -> list[tuple[object, np.ndarray]]:
    """(key, ascending indices of the values with that key) per key.

    key_of is called once per distinct value, in ascending order. Keys
    come out in the order of the first value that gives each; no key_of
    used here decreases as the value grows, so that is key order.
    """
    uniq, inv = np.unique(values, return_inverse=True)
    rank: dict = {}
    code = np.array([rank.setdefault(key_of(v), len(rank)) for v in uniq.tolist()],
                    dtype=np.int64)[inv]
    order = np.argsort(code, kind="stable")
    bounds = np.cumsum(np.bincount(code, minlength=len(rank)))
    return list(zip(rank, np.split(order, bounds[:-1])))


def stratified_report(scores, labels, *, classifier, union_sizes, at_campus,
                      hours, ts, tz_offset_s: int = 0, bt_rssi=None) -> EvalReport:
    """Overall and per-stratum evaluation of one scored candidate set.

    classifier is the operating ThresholdClassifier (fitted on training
    scores). Strata with a single class get auc=None rather than being
    dropped. bt_rssi, when given, holds the Bluetooth RSSI of positives
    (NaN elsewhere) and enables the miss-rate breakdown. The three union
    terciles need at least three rows.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    union_sizes = np.asarray(union_sizes)
    ts = np.asarray(ts)
    if len(labels) < 3:
        raise ValueError(f"{len(labels)} rows, too few for the three union-size terciles")

    auc = auc_roc(scores, labels)
    prf = prf_at_threshold(scores, labels, classifier)

    groups = {
        "union_tercile": _group_rows(tercile_assignment(union_sizes),
                                     TERCILE_NAMES.__getitem__),
        "at_campus": _group_rows(at_campus, lambda c: "on_campus" if c else "off_campus"),
        # the ISO week of a local day: one datetime per distinct day
        "week": _group_rows((ts.astype(np.int64) + tz_offset_s) // 86400,
                            lambda day: iso_week_key(day * 86400)),
        "hour_of_week": _group_rows(hours, lambda h: f"how_{int(h):03d}"),
    }
    strata = {
        name: tuple(StratumResult(key=key, n=len(rows), n_pos=int(labels[rows].sum()),
                                  auc=_auc_or_none(scores[rows], labels[rows]))
                    for key, rows in group)
        for name, group in groups.items()
    }
    edges = tuple((float(union_sizes[rows].min()), float(union_sizes[rows].max()))
                  for _, rows in groups["union_tercile"])

    miss_bins = None
    if bt_rssi is not None:
        bt_rssi = np.asarray(bt_rssi, dtype=float)
        pos_mask = (labels == 1) & ~np.isnan(bt_rssi)
        if pos_mask.any():
            miss_bins = miss_rate_vs_bt_rssi(scores[pos_mask], bt_rssi[pos_mask], classifier)

    return EvalReport(
        n=len(labels), n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
        auc=auc, threshold=classifier.threshold, direction=classifier.direction,
        precision=prf.precision, recall=prf.recall, f1=prf.f1,
        zero_predicted=prf.zero_predicted,
        strata=strata, tercile_edges=edges, miss_rate_by_bt_rssi=miss_bins)


# ---------------------------------------------------------------------------
# Miss rate vs Bluetooth RSSI
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BtRssiBin:
    lo: int
    hi: int
    n: int
    missed: int

    @property
    def miss_rate(self) -> float:
        return self.missed / self.n

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "n": self.n,
                "missed": self.missed, "miss_rate": self.miss_rate}


def miss_rate_vs_bt_rssi(scores, bt_rssi, classifier) -> tuple[BtRssiBin, ...]:
    """Fraction of positives predicted negative, per right-open RSSI bin.

    All rows must be true positives carrying a Bluetooth RSSI. Bins are
    [lo, lo + BT_RSSI_BIN_DB) on multiples of BT_RSSI_BIN_DB, in
    ascending order; empty bins are omitted.
    """
    scores = np.asarray(scores, dtype=float)
    bt_rssi = np.asarray(bt_rssi, dtype=float)
    missed = classifier.predict(scores) == 0
    lo_of = (np.floor(bt_rssi / BT_RSSI_BIN_DB) * BT_RSSI_BIN_DB).astype(int)
    return tuple(BtRssiBin(lo=lo, hi=lo + BT_RSSI_BIN_DB, n=len(rows),
                           missed=int(missed[rows].sum()))
                 for lo, rows in _group_rows(lo_of, int))


# ---------------------------------------------------------------------------
# Learning curve
# ---------------------------------------------------------------------------

def _single_curve_run(kind, params, X_pool, y_pool, X_test, y_test,
                      size, rep, seed):
    from .models import fit_model, predict

    rng = np.random.default_rng([seed, size, rep])
    for _ in range(100):
        rows = rng.choice(len(y_pool), size=size, replace=False)
        if 0.0 < y_pool[rows].mean() < 1.0:
            break
    else:
        raise ValueError(f"could not draw a two-class subsample of size {size}")
    model_seed = int(rng.integers(2 ** 31))
    imp = fit_imputation(X_pool[rows])
    model = fit_model(kind, apply_imputation(X_pool[rows], imp), y_pool[rows],
                      params, seed=model_seed)
    return auc_roc(predict(model, apply_imputation(X_test, imp)), y_test)


def learning_curve(X_pool, y_pool, X_test, y_test, *, sizes,
                   kinds=("gbt",), params_by_kind=None, repetitions: int = 20,
                   seed: int = 0, jobs: int = 1) -> dict:
    """Test AUC distribution per (model kind, training size).

    X_pool and X_test are unimputed matrices; every repetition draws its
    own subsample with a seed derived from (seed, size, repetition), fits
    imputation on that subsample, trains, and scores the fixed test set.
    The fits run one at a time; jobs is ignored (perfbench still passes it).
    Returns kind -> size -> {"aucs", "median", "q25", "q75"}.
    """
    X_pool = np.ascontiguousarray(X_pool, dtype=float)
    y_pool = np.asarray(y_pool, dtype=float)
    # column-major, the layout in which trees read a column's rows fastest
    X_test = np.asfortranarray(X_test, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    params_by_kind = params_by_kind or {}
    if max(sizes) > len(y_pool):
        raise ValueError("largest size exceeds the training pool")

    out: dict = {}
    for kind in kinds:
        for size in sizes:
            for rep in range(repetitions):
                out.setdefault(kind, {}).setdefault(size, []).append(_single_curve_run(
                    kind, params_by_kind.get(kind), X_pool, y_pool, X_test, y_test,
                    size, rep, seed))
    for per_size in out.values():
        for size, aucs in per_size.items():
            q25, med, q75 = np.percentile(aucs, [25, 50, 75])
            per_size[size] = {"aucs": aucs, "median": float(med),
                              "q25": float(q25), "q75": float(q75)}
    return out
