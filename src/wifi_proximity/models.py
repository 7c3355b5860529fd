"""Classifiers over pairwise feature vectors.

Three families: single-feature threshold rules (the per-feature baseline),
gradient-boosted regression trees with logistic loss, whose logistic link
``expit`` is computed in numpy, and a random forest of Gini
classification trees. The ensembles are built on trees.grow_tree
and tuned, when asked, by stratified 5-fold grid search on validation AUC,
which gathers each fold's rows column by column. A fit reads its matrix
in the layout given, so a column-major model matrix is never copied.
Boosting adds each new tree's leaf values to the training scores from the
leaf rows the grower returns. load_model checks every tree it reads.
"""

from __future__ import annotations

import math
# unused here, but perfbench/tracing.py patches this name in every module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import fileio
from .evaluation import auc_of_counts, auc_roc, class_counts
from .features import FEATURE_NAMES, ImputationState, gather
from .trees import Tree, encode_columns, grow_tree

DIRECTION_GREATER = "greater-is-positive"
DIRECTION_LESS = "less-is-positive"

KIND_GBT = "gradient-boosted"
KIND_RF = "random-forest"
# the short name of each model kind, for the command line and file names
KIND_SHORT = {KIND_GBT: "gbt", KIND_RF: "rf"}
# the kind that each accepted model name selects: a kind or its short name
MODEL_KINDS = {**{short: kind for kind, short in KIND_SHORT.items()}, **{k: k for k in KIND_SHORT}}

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
# the grid search's stratified folds; each needs a row of each class
GRID_FOLDS = 5


# ---------------------------------------------------------------------------
# Single-feature threshold classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ThresholdClassifier:
    """Predict positive when the score falls on one side of a threshold.

    Direction and threshold are fixed at fit time by whichever combination
    maximizes F1 on the training scores. train_auc is auc_roc of the
    training scores, whichever the direction.
    """

    feature_name: str
    threshold: float
    direction: str
    train_f1: float
    train_auc: float

    def predict(self, scores: np.ndarray) -> np.ndarray:
        scores = np.asarray(scores, dtype=float)
        if self.direction == DIRECTION_GREATER:
            return (scores > self.threshold).astype(np.int8)
        return (scores < self.threshold).astype(np.int8)


def fit_threshold(scores, labels, feature_name: str = "") -> ThresholdClassifier:
    """Threshold and direction maximizing training F1, and the training AUC,
    from one class_counts of the scores; raises ValueError as it does.

    Candidate thresholds are midpoints of consecutive distinct sorted
    scores plus -inf and +inf. Ties prefer greater-is-positive, then the
    smallest threshold.
    """
    u, pos_per_value, neg_per_value = counts = class_counts(scores, labels)
    thresholds = np.concatenate(([-np.inf], (u[:-1] + u[1:]) * 0.5, [np.inf]))
    # rows at values u[:i]: predicted positive by scores < thresholds[i],
    # and the rest by scores > thresholds[i]
    below_pos = np.concatenate(([0.0], np.cumsum(pos_per_value)))
    below_neg = np.concatenate(([0.0], np.cumsum(neg_per_value)))
    n_pos = below_pos[-1]
    above_pos, above_neg = n_pos - below_pos, below_neg[-1] - below_neg
    f1_greater = 2.0 * above_pos / (above_pos + above_neg + n_pos)
    f1_less = 2.0 * below_pos / (below_pos + below_neg + n_pos)

    ig = int(np.argmax(f1_greater))
    il = int(np.argmax(f1_less))
    i, direction, f1 = ((il, DIRECTION_LESS, f1_less) if f1_less[il] > f1_greater[ig]
                        else (ig, DIRECTION_GREATER, f1_greater))
    return ThresholdClassifier(feature_name, float(thresholds[i]), direction, float(f1[i]),
                               auc_of_counts(*counts))


# ---------------------------------------------------------------------------
# Tree ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TreeEnsembleModel:
    """A fitted ensemble; its fields are the model file's keys, in order."""

    kind: str
    featureset: str
    feature_names: tuple[str, ...]
    hyperparameters: dict
    seed: int
    learning_rate: float | None
    base_score: float | None
    imputation: ImputationState | None
    trees: tuple[Tree, ...]


def _training_input(X, y, feature_names):
    """(y, feature names, encode_columns(X)'s values and codes) for a fit;
    the names default to x0, x1, .... Raises ValueError on unusable input."""
    X = np.asarray(X, dtype=float)
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
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length does not match matrix width")
    return (y, tuple(feature_names)) + encode_columns(X)


def expit(x):
    """The logistic function 1 / (1 + e^-x). Below x = -709.78, e^-x
    overflows to inf and the result is 0, where the exact value is under
    2e-308."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def fit_gbt(X, y, params: dict | None = None, seed: int = 0,
            feature_names=None, featureset: str = "FULL",
            imputation: ImputationState | None = None) -> TreeEnsembleModel:
    """Stagewise boosting with logistic loss.

    Starts from the log-odds of training prevalence; each stage fits a
    variance-reduction regression tree to the residuals y - p with Newton
    leaf values sum(g)/sum(h), scaled by the learning rate, which are
    added to the scores of the leaf's training rows. Trees are grown one
    after another on one thread: each stage needs the last.
    """
    params = {**DEFAULT_GBT_PARAMS, **(params or {})}
    y, feature_names, values, codes = _training_input(X, y, feature_names)
    lr = float(params["learning_rate"])
    prevalence = float(y.mean())
    base = math.log(prevalence / (1.0 - prevalence))
    F = np.full(len(y), base)
    trees: list[Tree] = []
    for _ in range(int(params["n_trees"])):
        p = expit(F)
        g = y - p
        h = p * (1.0 - p)
        leaves: list = []
        raw = grow_tree(codes, values, g, criterion="variance", hess=h,
                        max_depth=params["max_depth"], leaves=leaves)
        tree = replace(raw, value=raw.value * lr)
        for node, rows in leaves:
            F[rows] += tree.value[node]
        trees.append(tree)

    return TreeEnsembleModel(
        kind=KIND_GBT, featureset=featureset, feature_names=feature_names,
        hyperparameters=params, seed=seed, learning_rate=lr, base_score=base,
        imputation=imputation, trees=tuple(trees))


def fit_rf(X, y, params: dict | None = None, seed: int = 0,
           feature_names=None, featureset: str = "FULL",
           imputation: ImputationState | None = None) -> TreeEnsembleModel:
    """Bagged Gini classification trees.

    Each tree draws a bootstrap sample, held as integer row weights, and
    considers isqrt(d) random features per node, from a generator derived
    as (seed, tree index).
    """
    params = {**DEFAULT_RF_PARAMS, **(params or {})}
    y, feature_names, values, codes = _training_input(X, y, feature_names)
    n, d = codes.shape
    trees = []
    for t in range(int(params["n_trees"])):
        rng = np.random.default_rng([seed, t])
        weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
        trees.append(grow_tree(codes, values, y, criterion="gini", weight=weight,
                               max_depth=params["max_depth"],
                               max_features=max(1, math.isqrt(d)), rng=rng))

    return TreeEnsembleModel(
        kind=KIND_RF, featureset=featureset, feature_names=feature_names,
        hyperparameters=params, seed=seed, learning_rate=None, base_score=None,
        imputation=imputation, trees=tuple(trees))


def predict(model: TreeEnsembleModel, X) -> np.ndarray:
    """Scores in [0, 1], one per row. A column-major X is read fastest."""
    X = np.asarray(X, dtype=float)
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
    """Fit either ensemble; kind is a kind or its short name."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    fit = fit_gbt if MODEL_KINDS[kind] == KIND_GBT else fit_rf
    return fit(X, y, params, seed=seed, **meta)


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


def grid_search_cv(kind: str, X, y, grid=None, folds: int = GRID_FOLDS, seed: int = 0):
    """Hyperparameters with the best mean validation AUC.

    Each fold's fit and validation rows are gathered column by column, so
    a column-major X, as model_matrix makes it, is never copied whole.
    Returns (best_params, results) where results has one entry per grid
    point in grid order with its fold and mean AUCs. Ties keep the
    earliest grid point.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if grid is None:
        grid = DEFAULT_GBT_GRID if MODEL_KINDS.get(kind) == KIND_GBT else DEFAULT_RF_GRID
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos < folds or n_neg < folds:
        raise ValueError("each fold needs at least one sample of each class")

    fold_of = stratified_folds(y, folds, seed)
    cols = range(X.shape[1])
    results = []
    best = None
    for gi, params in enumerate(grid):
        fold_aucs = []
        for f in range(folds):
            val = fold_of == f
            fit_rows, val_rows = np.flatnonzero(~val), np.flatnonzero(val)
            model = fit_model(kind, gather(X, fit_rows, cols), y[fit_rows], params, seed=seed)
            fold_aucs.append(auc_roc(predict(model, gather(X, val_rows, cols)), y[val_rows]))
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
    """Write the model's fields, in order, then the keys of extra. A model
    without the imputation that load_model requires raises ValueError."""
    if model.imputation is None:
        raise ValueError("model has no imputation; load_model would refuse its file")
    doc = {**{f.name: getattr(model, f.name) for f in fields(model)},
           "imputation": asdict(model.imputation),
           "trees": [t.as_dict() for t in model.trees], **(extra or {})}
    fileio.write_json(path, fileio.SCHEMA_MODEL, cfg_hash, doc)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def load_model(path, expect_hash: str | None = None) -> tuple[TreeEnsembleModel, dict]:
    """Returns (model, full document); the document carries config_hash
    and any extra metadata stored alongside the model.

    Raises DataError naming the file unless the document holds each field
    of TreeEnsembleModel and the model can score: a known kind with a tree
    or more, a finite base score if boosted, a string featureset,
    hyperparameters that are an object, feature names from FEATURE_NAMES,
    an imputation of exactly ImputationState's fields with finite means
    (train always writes one), and trees that pass Tree.check on the
    model's feature columns.
    """
    def malformed(what) -> fileio.DataError:
        return fileio.DataError(f"{path}: malformed model file: {what}")

    doc = fileio.read_json(path, fileio.SCHEMA_MODEL, expect_hash)
    try:
        keys = {f.name: doc[f.name] for f in fields(TreeEnsembleModel)}
        model = TreeEnsembleModel(**{
            **keys,
            "feature_names": tuple(keys["feature_names"]),
            "imputation": ImputationState(**keys["imputation"]),
            "trees": tuple(Tree.from_dict(t) for t in keys["trees"]),
        })
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise malformed(exc) from exc
    if model.kind not in (KIND_GBT, KIND_RF) or not model.trees:
        raise malformed(f"kind {model.kind!r} with {len(model.trees)} trees")
    if model.kind == KIND_GBT and not _finite(model.base_score):
        raise malformed(f"base score {model.base_score!r}")
    if not isinstance(model.featureset, str):
        raise malformed(f"featureset {model.featureset!r} is not a string")
    if not isinstance(model.hyperparameters, dict):
        raise malformed(f"hyperparameters {model.hyperparameters!r} are not an object")
    for name in model.feature_names:
        if name not in FEATURE_NAMES:
            raise malformed(f"feature name {name!r} is not one of FEATURE_NAMES")
    imp = model.imputation
    if not (_finite(imp.spearman_mean) and _finite(imp.pearson_mean)):
        raise malformed(f"imputation means {imp.spearman_mean!r}, {imp.pearson_mean!r}")
    for i, tree in enumerate(model.trees):
        try:
            tree.check(len(model.feature_names))
        except ValueError as exc:
            raise malformed(f"tree {i}: {exc}") from exc
    return model, doc
