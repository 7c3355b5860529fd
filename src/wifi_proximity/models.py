"""Classifiers over pairwise feature vectors.

Three families: single-feature threshold rules (the per-feature baseline),
gradient-boosted regression trees with logistic loss, and a random forest
of Gini classification trees. The ensembles are built on trees.grow_tree
and tuned, when asked, by stratified 5-fold grid search on validation AUC.
"""

from __future__ import annotations

import math
# unused here, but perfbench/tracing.py patches this name in every module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import fileio
from .evaluation import auc_roc
from .features import FEATURE_NAMES, ImputationState
from .trees import Tree, encode_columns, grow_tree

DIRECTION_GREATER = "greater-is-positive"
DIRECTION_LESS = "less-is-positive"

KIND_GBT = "gradient-boosted"
KIND_RF = "random-forest"

_AP_PRESENCE = ["overlap", "non_overlap", "union", "jaccard"]
_RSSI = ["spearman", "pearson", "manhattan", "euclidean"]
_PRESENCE_RSSI = ["top_ap", "top_ap_6db"]
_POPULARITY = ["min_popularity", "max_popularity", "adamic_adar"]

FEATURESETS: dict[str, list[str]] = {
    "AP_PRESENCE": list(_AP_PRESENCE),
    "RSSI": list(_RSSI),
    "PRESENCE_RSSI": list(_PRESENCE_RSSI),
    "POPULARITY": list(_POPULARITY),
    "TIMING": ["hour_of_week"],
    "LOCATION": ["at_home", "at_campus"],
    "NEARME": ["overlap", "non_overlap", "spearman", "euclidean"],
    "SIMPLE": _AP_PRESENCE + _RSSI + _PRESENCE_RSSI,
    "GENERAL": _AP_PRESENCE + _RSSI + _PRESENCE_RSSI + _POPULARITY + ["at_home"],
    "FULL": list(FEATURE_NAMES),
}

DEFAULT_GBT_PARAMS = {"n_trees": 100, "max_depth": 3, "learning_rate": 0.1}
DEFAULT_RF_PARAMS = {"n_trees": 100, "max_depth": 8}

DEFAULT_GBT_GRID = [
    {"n_trees": t, "max_depth": d, "learning_rate": lr}
    for t in (50, 100, 200) for d in (2, 3, 4) for lr in (0.05, 0.1)
]
DEFAULT_RF_GRID = [
    {"n_trees": t, "max_depth": d}
    for t in (100, 300) for d in (None, 8)
]


def select_columns(matrix: np.ndarray, names) -> np.ndarray:
    """Columns of a canonical-order feature matrix, by feature name."""
    idx = [FEATURE_NAMES.index(n) for n in names]
    return matrix[:, idx]


# ---------------------------------------------------------------------------
# Single-feature threshold classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ThresholdClassifier:
    """Predict positive when the score falls on one side of a threshold.

    Direction and threshold are fixed at fit time by whichever combination
    maximizes F1 on the training scores.
    """

    feature_name: str
    threshold: float
    direction: str
    train_f1: float

    def predict(self, scores: np.ndarray) -> np.ndarray:
        scores = np.asarray(scores, dtype=float)
        if self.direction == DIRECTION_GREATER:
            return (scores > self.threshold).astype(np.int8)
        return (scores < self.threshold).astype(np.int8)


def fit_threshold(scores, labels, feature_name: str = "") -> ThresholdClassifier:
    """Threshold and direction maximizing training F1.

    Candidate thresholds are midpoints of consecutive distinct sorted
    scores plus -inf and +inf. Ties prefer greater-is-positive, then the
    smallest threshold.
    """
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
                                   DIRECTION_LESS, float(f1_less[il]))
    return ThresholdClassifier(feature_name, float(thresholds[ig]),
                               DIRECTION_GREATER, float(f1_greater[ig]))


# ---------------------------------------------------------------------------
# Tree ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TreeEnsembleModel:
    kind: str
    trees: tuple[Tree, ...]
    learning_rate: float | None
    base_score: float | None
    feature_names: tuple[str, ...]
    featureset_name: str
    imputation: ImputationState | None
    hyperparameters: dict
    seed: int


def _check_training_input(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("X must be 2-d with one label per row")
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    if not np.isfinite(X).all():
        raise ValueError("training matrix has non-finite values; impute first")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    if y.min() == y.max():
        raise ValueError("constant labels: both classes required")
    return X, y


def fit_gbt(X, y, params: dict | None = None, seed: int = 0,
            feature_names=None, featureset_name: str = "FULL",
            imputation: ImputationState | None = None) -> TreeEnsembleModel:
    """Stagewise boosting with logistic loss.

    Starts from the log-odds of training prevalence; each stage fits a
    variance-reduction regression tree to the residuals y - p with Newton
    leaf values sum(g)/sum(h), scaled by the learning rate. Trees are
    grown one after another on one thread: each stage needs the last.
    """
    params = {**DEFAULT_GBT_PARAMS, **(params or {})}
    X, y = _check_training_input(X, y)
    n, d = X.shape
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(d)]
    if len(feature_names) != d:
        raise ValueError("feature_names length does not match matrix width")

    lr = float(params["learning_rate"])
    prevalence = float(y.mean())
    base = math.log(prevalence / (1.0 - prevalence))
    F = np.full(n, base)
    values, codes = encode_columns(X)
    trees: list[Tree] = []
    for _ in range(int(params["n_trees"])):
        p = expit(F)
        g = y - p
        h = p * (1.0 - p)
        raw = grow_tree(codes, values, g, criterion="variance", hess=h,
                        max_depth=params["max_depth"])
        tree = replace(raw, value=raw.value * lr)
        F = F + tree.predict(X)
        trees.append(tree)

    return TreeEnsembleModel(
        kind=KIND_GBT, trees=tuple(trees), learning_rate=lr, base_score=base,
        feature_names=tuple(feature_names), featureset_name=featureset_name,
        imputation=imputation, hyperparameters=params, seed=seed)


def fit_rf(X, y, params: dict | None = None, seed: int = 0,
           feature_names=None, featureset_name: str = "FULL",
           imputation: ImputationState | None = None) -> TreeEnsembleModel:
    """Bagged Gini classification trees.

    Each tree draws a bootstrap sample, held as integer row weights, and
    considers isqrt(d) random features per node, from a generator derived
    as (seed, tree index).
    """
    params = {**DEFAULT_RF_PARAMS, **(params or {})}
    X, y = _check_training_input(X, y)
    n, d = X.shape
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(d)]
    if len(feature_names) != d:
        raise ValueError("feature_names length does not match matrix width")

    values, codes = encode_columns(X)
    trees = []
    for t in range(int(params["n_trees"])):
        rng = np.random.default_rng([seed, t])
        weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
        trees.append(grow_tree(codes, values, y, criterion="gini", weight=weight,
                               max_depth=params["max_depth"],
                               max_features=max(1, math.isqrt(d)), rng=rng))

    return TreeEnsembleModel(
        kind=KIND_RF, trees=tuple(trees), learning_rate=None, base_score=None,
        feature_names=tuple(feature_names), featureset_name=featureset_name,
        imputation=imputation, hyperparameters=params, seed=seed)


def predict(model: TreeEnsembleModel, X) -> np.ndarray:
    """Scores in [0, 1], one per row."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"expected {len(model.feature_names)} feature columns, got shape {X.shape}")
    if X.shape[0] == 0:
        return np.empty(0)
    if not np.isfinite(X).all():
        raise ValueError("prediction matrix has non-finite values; impute first")
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += tree.predict(X)
    if model.kind == KIND_GBT:
        return expit(model.base_score + acc)
    return acc / len(model.trees)


def fit_model(kind: str, X, y, params: dict | None = None, seed: int = 0,
              **meta) -> TreeEnsembleModel:
    """Fit either ensemble."""
    if kind == KIND_GBT or kind == "gbt":
        return fit_gbt(X, y, params, seed=seed, **meta)
    if kind == KIND_RF or kind == "rf":
        return fit_rf(X, y, params, seed=seed, **meta)
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

def stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per sample; class counts per fold are within 1 of even."""
    y = np.asarray(y)
    rng = np.random.default_rng([seed, 1])
    fold_of = np.empty(len(y), dtype=np.int32)
    for cls in (1, 0):
        idx = np.nonzero(y == cls)[0]
        perm = idx[rng.permutation(len(idx))]
        fold_of[perm] = np.arange(len(perm)) % folds
    return fold_of


def grid_search_cv(kind: str, X, y, grid=None, folds: int = 5, seed: int = 0):
    """Hyperparameters with the best mean validation AUC.

    Returns (best_params, results) where results has one entry per grid
    point in grid order with its fold and mean AUCs. Ties keep the
    earliest grid point.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if grid is None:
        grid = DEFAULT_GBT_GRID if kind in (KIND_GBT, "gbt") else DEFAULT_RF_GRID
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos < folds or n_neg < folds:
        raise ValueError("each fold needs at least one sample of each class")

    fold_of = stratified_folds(y, folds, seed)
    results = []
    best = None
    for gi, params in enumerate(grid):
        fold_aucs = []
        for f in range(folds):
            val = fold_of == f
            model = fit_model(kind, X[~val], y[~val], params, seed=seed)
            fold_aucs.append(auc_roc(predict(model, X[val]), y[val]))
        mean_auc = float(np.mean(fold_aucs))
        results.append({"params": params, "mean_auc": mean_auc,
                        "fold_aucs": fold_aucs})
        if best is None or mean_auc > best[0]:
            best = (mean_auc, gi)
    return grid[best[1]], results


# ---------------------------------------------------------------------------
# Importance and persistence
# ---------------------------------------------------------------------------

def feature_importance(model: TreeEnsembleModel) -> dict[str, float]:
    """Impurity-decrease importance, averaged over trees, normalized to 1.

    Each split contributes its impurity decrease weighted by the fraction
    of the tree's samples reaching the node.
    """
    d = len(model.feature_names)
    acc = np.zeros(d)
    for tree in model.trees:
        acc += tree.importance_sums(d) / float(tree.n_samples[0])
    acc /= len(model.trees)
    total = acc.sum()
    if total <= 0.0:
        raise ValueError("model has no splits; importance undefined")
    weights = acc / total
    return {name: float(w) for name, w in zip(model.feature_names, weights)}


def save_model(model: TreeEnsembleModel, path, cfg_hash: str,
               extra: dict | None = None) -> None:
    doc = {
        "kind": model.kind,
        "featureset": model.featureset_name,
        "feature_names": list(model.feature_names),
        "hyperparameters": model.hyperparameters,
        "seed": model.seed,
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "imputation": None if model.imputation is None else model.imputation.as_dict(),
        "trees": [t.as_dict() for t in model.trees],
    }
    if extra:
        doc.update(extra)
    fileio.write_json(path, fileio.SCHEMA_MODEL, cfg_hash, doc)


def load_model(path, expect_hash: str | None = None) -> tuple[TreeEnsembleModel, dict]:
    """Returns (model, full document); the document carries config_hash
    and any extra metadata stored alongside the model."""
    doc = fileio.read_json(path, fileio.SCHEMA_MODEL, expect_hash)
    try:
        model = TreeEnsembleModel(
            kind=doc["kind"],
            trees=tuple(Tree.from_dict(t) for t in doc["trees"]),
            learning_rate=doc["learning_rate"],
            base_score=doc["base_score"],
            feature_names=tuple(doc["feature_names"]),
            featureset_name=doc["featureset"],
            imputation=(None if doc["imputation"] is None
                        else ImputationState.from_dict(doc["imputation"])),
            hyperparameters=doc["hyperparameters"],
            seed=doc["seed"],
        )
    except (KeyError, TypeError) as exc:
        raise fileio.DataError(f"{path}: malformed model file: {exc}") from exc
    return model, doc
