"""How `train`, `evaluate` and `report` built a model's input matrix
before `features.model_matrix` gathered it once, kept as the reference
that the package's matrices are compared with bit for bit.

`train` and `evaluate` imputed every row of the whole matrix, took the
featureset's columns of that, and then a side's rows. `report` took each
side's rows column-major and imputed the side. `fit_imputation` read a
row-major copy of the training rows.
"""

from __future__ import annotations

import numpy as np

from wifi_proximity.features import CORRELATION_FEATURES, FEATURE_NAMES, ImputationState


def fit_imputation(matrix: np.ndarray) -> ImputationState:
    """Means of the non-missing correlation columns of a training matrix;
    a column with no value is filled with 0.0."""
    state = {}
    for name in CORRELATION_FEATURES:
        col = matrix[:, FEATURE_NAMES.index(name)]
        valid = col[~np.isnan(col)]
        state[name] = (float(valid.mean()) if len(valid) else 0.0, int(np.isnan(col).sum()))
    return ImputationState(
        spearman_mean=state["spearman"][0],
        pearson_mean=state["pearson"][0],
        n_missing_spearman=state["spearman"][1],
        n_missing_pearson=state["pearson"][1],
    )


def apply_imputation(matrix: np.ndarray, state: ImputationState) -> np.ndarray:
    """Copy of the matrix, in its memory layout, with missing correlations
    set to the stored means; ValueError on any other NaN."""
    out = matrix.copy(order="K")
    means = {"spearman": state.spearman_mean, "pearson": state.pearson_mean}
    for name in CORRELATION_FEATURES:
        col = FEATURE_NAMES.index(name)
        mask = np.isnan(out[:, col])
        out[mask, col] = means[name]
    if np.isnan(out).any():
        raise ValueError("matrix has missing values outside the correlation columns")
    return out


def select_columns(matrix: np.ndarray, names) -> np.ndarray:
    """Columns of a canonical-order feature matrix, by feature name."""
    return matrix[:, [FEATURE_NAMES.index(n) for n in names]]


def train_matrix(X, train_idx, names) -> tuple[ImputationState, np.ndarray]:
    """`train`'s imputation and fit matrix."""
    imputation = fit_imputation(X[train_idx])
    return imputation, select_columns(apply_imputation(X, imputation), names)[train_idx]


def evaluate_matrix(X, rows, names, imputation) -> np.ndarray:
    """`evaluate`'s matrix of one side's rows."""
    return select_columns(apply_imputation(X, imputation)[rows], names)


def report_sides(X, train_idx, test_idx) -> tuple[ImputationState, np.ndarray, np.ndarray]:
    """`report`'s imputation and its train and test matrices of every feature."""
    X_train = np.asfortranarray(X[train_idx])
    imputation = fit_imputation(X_train)
    return (imputation, apply_imputation(X_train, imputation),
            apply_imputation(np.asfortranarray(X[test_idx]), imputation))
