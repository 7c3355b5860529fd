"""The per-feature calls by which `report` scored each feature before one
class count served each score vector, kept as the reference its
``single_features`` are compared with.

`fit_threshold` counts each class per distinct score and sweeps the cuts
for the best F1; `rank_auc` is the rank statistic over scipy's midranks;
the test F1 is `prf_at_threshold` at the fitted cut. Every feature column
is gathered by fancy indexing, once per call.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from wifi_proximity.evaluation import prf_at_threshold
from wifi_proximity.features import FEATURE_NAMES
from wifi_proximity.models import DIRECTION_GREATER, DIRECTION_LESS, ThresholdClassifier


def fit_threshold(scores, labels, feature_name: str = "") -> ThresholdClassifier:
    """Threshold and direction maximizing training F1; train_auc is left
    NaN, because rank_auc gives the training AUC here."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("fit_threshold needs both classes present")

    u, inv = np.unique(scores, return_inverse=True)
    pos_per_value = np.bincount(inv, weights=(labels == 1), minlength=len(u))
    neg_per_value = np.bincount(inv, weights=(labels == 0), minlength=len(u))
    thresholds = np.concatenate(([-np.inf], (u[:-1] + u[1:]) * 0.5, [np.inf]))

    # predicted positive = scores > thresholds[i] = values u[i:]
    suffix_pos = np.concatenate((np.cumsum(pos_per_value[::-1])[::-1], [0.0]))
    suffix_neg = np.concatenate((np.cumsum(neg_per_value[::-1])[::-1], [0.0]))
    f1_greater = 2.0 * suffix_pos / (suffix_pos + suffix_neg + n_pos)

    # predicted positive = scores < thresholds[i] = values u[:i]
    prefix_pos = np.concatenate(([0.0], np.cumsum(pos_per_value)))
    prefix_neg = np.concatenate(([0.0], np.cumsum(neg_per_value)))
    f1_less = 2.0 * prefix_pos / (prefix_pos + prefix_neg + n_pos)

    ig = int(np.argmax(f1_greater))
    il = int(np.argmax(f1_less))
    if f1_less[il] > f1_greater[ig]:
        return ThresholdClassifier(feature_name, float(thresholds[il]),
                                   DIRECTION_LESS, float(f1_less[il]), float("nan"))
    return ThresholdClassifier(feature_name, float(thresholds[ig]),
                               DIRECTION_GREATER, float(f1_greater[ig]), float("nan"))


def rank_auc(scores, labels) -> float:
    """Midrank AUC; raises on single-class input."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    return float((rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def single_features(X_imp: np.ndarray, y: np.ndarray, train_idx: np.ndarray,
                    test_idx: np.ndarray) -> dict:
    """report.json's single_features of an imputed matrix and its split."""
    single = {}
    for j, name in enumerate(FEATURE_NAMES):
        clf = fit_threshold(X_imp[train_idx, j], y[train_idx], feature_name=name)
        train_auc = rank_auc(X_imp[train_idx, j], y[train_idx])
        test_auc = rank_auc(X_imp[test_idx, j], y[test_idx])
        if clf.direction == "less-is-positive":
            train_auc, test_auc = 1.0 - train_auc, 1.0 - test_auc
        test_prf = prf_at_threshold(X_imp[test_idx, j], y[test_idx], clf)
        single[name] = {
            "direction": clf.direction,
            "threshold": clf.threshold,
            "train_auc": train_auc,
            "test_auc": test_auc,
            "train_f1": clf.train_f1,
            "test_f1": test_prf.f1,
        }
    return single
