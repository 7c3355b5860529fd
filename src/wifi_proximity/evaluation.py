"""Metrics and the analysis suite run on held-out candidates.

AUC ROC is the Mann-Whitney statistic (probability a random positive
outscores a random negative, ties counting one half), read from one count
of each class per distinct score. The report slices test AUC by
union-size tercile, campus flag, calendar week and hour of week, bins the
missed positives by Bluetooth RSSI, and the learning-curve driver retrains
on growing subsamples, each gathered by ``features.model_matrix``, against
a fixed test set.

Every breakdown (terciles, strata, RSSI bins) is grouped by code: a key
is computed once per distinct value (per distinct local day for the
week), and one stable sort gathers each group's rows in their order.
"""

from __future__ import annotations

# unused here, but perfbench/tracing.py patches this name in every module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .features import FEATURE_NAMES, apply_imputation, fit_imputation, model_matrix


def class_counts(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct scores, ascending with NaN last, and the label-1 and
    label-0 rows at each, as floats; raises ValueError unless every label
    is 0 or 1 and both occur."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    if not (pos | (labels == 0)).all():
        raise ValueError("labels must be 0 or 1")
    if pos.all() or not pos.any():
        raise ValueError("scoring needs both classes present")
    values, inv = np.unique(scores, return_inverse=True)
    pos_per_value = np.bincount(inv, weights=pos, minlength=len(values))
    return values, pos_per_value, np.bincount(inv, minlength=len(values)) - pos_per_value


def mann_whitney_u(pos, neg) -> float:
    """The label-1 rows' U over the label-0 rows from class_counts' counts,
    ties counting one half. Every term and partial sum is a multiple of 1/2
    below 2**53, so the sum is exact in any order."""
    return float(pos @ (np.cumsum(neg) - 0.5 * neg))


def auc_of_counts(values, pos, neg) -> float:
    """auc_roc from class_counts' output: the U over n_pos * n_neg."""
    if np.isnan(values[-1]):
        return float("nan")
    return mann_whitney_u(pos, neg) / (int(pos.sum()) * int(neg.sum()))


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, ties
    counting one half (the Mann-Whitney U over n_pos * n_neg); NaN when a
    score is NaN. Raises ValueError as class_counts does."""
    return auc_of_counts(*class_counts(scores, labels))


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


@dataclass(frozen=True, slots=True)
class EvalReport:
    """The test side of an eval file: ``dataclasses.asdict`` writes it,
    nested records and all, with its fields as keys in field order."""

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
    """Positives with Bluetooth RSSI in [lo, hi): n of them, missed ones
    predicted negative. miss_rate is derived, but a field, so that
    ``dataclasses.asdict`` writes it."""

    lo: int
    hi: int
    n: int
    missed: int

    miss_rate: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "miss_rate", self.missed / self.n)


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
    imp = fit_imputation(X_pool, rows)
    model = fit_model(kind, model_matrix(X_pool, rows, FEATURE_NAMES, imp), y_pool[rows],
                      params, seed=model_seed)
    return auc_roc(predict(model, apply_imputation(X_test, imp)), y_test)


def learning_curve(X_pool, y_pool, X_test, y_test, *, sizes,
                   kinds=("gbt",), params_by_kind=None, repetitions: int = 20,
                   seed: int = 0, jobs: int = 1) -> dict:
    """Test AUC distribution per (model kind, training size).

    X_pool and X_test are unimputed matrices; every repetition draws its
    own subsample with a seed derived from (seed, size, repetition), fits
    imputation on that subsample, trains on its model_matrix, and scores
    the fixed test set.
    The fits run one at a time; jobs is ignored (perfbench still passes it).
    Returns kind -> size -> {"aucs", "median", "q25", "q75"}. Raises
    ValueError when sizes is empty or its largest size exceeds the pool.
    """
    X_pool = np.asarray(X_pool, dtype=float)
    y_pool = np.asarray(y_pool, dtype=float)
    # column-major once, so that each repetition copies its columns whole
    X_test = np.asfortranarray(X_test, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    params_by_kind = params_by_kind or {}
    if not sizes:
        raise ValueError("sizes is empty: no training size to draw")
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
