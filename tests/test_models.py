"""Threshold rules, the two tree ensembles, grid search, persistence."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from wifi_proximity import fileio
from wifi_proximity.features import FEATURE_NAMES, ImputationState, model_matrix
from wifi_proximity.models import (
    DEFAULT_GBT_PARAMS,
    FEATURESETS,
    expit as logistic,
    feature_importance,
    fit_gbt,
    fit_model,
    fit_rf,
    fit_threshold,
    grid_search_cv,
    load_model,
    predict,
    save_model,
    stratified_folds,
)

from oracles import oracle_best_f1

X6 = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
Y6 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def random_problem(seed, n=400, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    logits = 1.5 * X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=n)
    y = (expit(logits) > rng.random(n)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return X, y


class TestFitThreshold:
    def test_worked_example(self):
        # scores 0.1-, 0.4+, 0.9+: cut at 0.25 separates perfectly
        clf = fit_threshold([0.1, 0.4, 0.9], [0, 1, 1], "jaccard")
        assert clf.direction == "greater-is-positive"
        assert clf.threshold == pytest.approx(0.25)
        assert clf.train_f1 == pytest.approx(1.0)
        assert clf.feature_name == "jaccard"

    def test_less_is_positive_direction(self):
        clf = fit_threshold([5.0, 1.0, 0.5], [0, 1, 1], "non_overlap")
        assert clf.direction == "less-is-positive"
        assert clf.train_f1 == pytest.approx(1.0)
        assert list(clf.predict([0.4, 10.0])) == [1, 0]

    def test_f1_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8], size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            clf = fit_threshold(scores, labels)
            assert clf.train_f1 == pytest.approx(oracle_best_f1(scores, labels))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_threshold([0.1, 0.2], [1, 1])
        # a label outside {0, 1} is in neither class
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_threshold([0.1, 0.2, 0.3], [1, 0, 2])

    def test_constant_scores_still_fit(self):
        # all candidate cuts degenerate; predicting everything positive via
        # the -inf cut maximizes F1
        clf = fit_threshold([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 0])
        pred = clf.predict([0.5])
        got_f1 = oracle_best_f1([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 0])
        assert clf.train_f1 == pytest.approx(got_f1)
        assert pred[0] == 1


class TestGbt:
    def test_one_stump_matches_hand_computation(self):
        model = fit_gbt(X6, Y6, {"n_trees": 1, "max_depth": 1, "learning_rate": 0.1})
        # base = log-odds(0.5) = 0; residuals +-0.5, hessians 0.25,
        # Newton leaves +-2.0, scaled by lr 0.1 -> logit +-0.2
        out = predict(model, X6)
        assert out[:3] == pytest.approx([expit(-0.2)] * 3)
        assert out[3:] == pytest.approx([expit(0.2)] * 3)
        assert out[0] == pytest.approx(0.45016600268752216)
        assert out[5] == pytest.approx(0.549833997312478)

    def test_logistic_matches_scipys(self):
        """models.expit against scipy.special.expit, the oracle. Both are
        1 / (1 + e^-x), but numpy's exp (measured within 0.62 ulp with
        numpy 2.4 on x86-64 AVX2) and glibc's (0.5 ulp) differ in the last
        bit for some inputs, and the sum and the quotient each round once
        more: so each is within 1.62 eps relative of the exact value, and
        they are within 4 eps of each other. Most agree to 1 ulp. Results
        below the smallest normal float compare absolutely."""
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-np.inf, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logistic(x)
        want = expit(x)
        info = np.finfo(float)
        np.testing.assert_allclose(got, want, rtol=4 * info.eps, atol=info.tiny)
        assert (np.abs(got - want) <= np.spacing(want)).mean() > 0.99
        assert (got[-2], got[-1]) == (0.0, 1.0)

    def test_base_score_is_prevalence_log_odds(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        model = fit_gbt(X6[:4], y, {"n_trees": 1, "max_depth": 1})
        assert model.base_score == pytest.approx(math.log(0.25 / 0.75))

    def test_training_loss_non_increasing_over_stages(self):
        X, y = random_problem(3)
        model = fit_gbt(X, y, {"n_trees": 30, "max_depth": 2, "learning_rate": 0.2})
        F = np.full(len(y), model.base_score)
        losses = []
        for tree in model.trees:
            F = F + tree.predict(X)
            p = np.clip(expit(F), 1e-12, 1 - 1e-12)
            losses.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_separable_data_trains_to_high_accuracy(self):
        model = fit_gbt(X6, Y6)
        pred = (predict(model, X6) > 0.5).astype(float)
        assert np.array_equal(pred, Y6)


class TestRf:
    def test_training_accuracy_beats_majority_baseline(self):
        X, y = random_problem(5)
        model = fit_rf(X, y, {"n_trees": 30, "max_depth": 8}, seed=1)
        acc = ((predict(model, X) > 0.5) == y).mean()
        baseline = max(y.mean(), 1 - y.mean())
        assert acc >= baseline

    def test_same_seed_same_forest(self):
        X, y = random_problem(6, n=200)
        m1 = fit_rf(X, y, {"n_trees": 8}, seed=3)
        m2 = fit_rf(X, y, {"n_trees": 8}, seed=3)
        assert [t.as_dict() for t in m1.trees] == [t.as_dict() for t in m2.trees]

    def test_different_seed_differs(self):
        X, y = random_problem(8, n=200)
        m1 = fit_rf(X, y, {"n_trees": 4}, seed=0)
        m2 = fit_rf(X, y, {"n_trees": 4}, seed=1)
        assert [t.as_dict() for t in m1.trees] != [t.as_dict() for t in m2.trees]

    def test_scores_are_vote_fractions(self):
        X, y = random_problem(9, n=150)
        model = fit_rf(X, y, {"n_trees": 10})
        out = predict(model, X)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestInputValidation:
    def test_nan_matrix_rejected(self):
        X = X6.copy()
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="impute"):
            fit_gbt(X, Y6)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            fit_gbt(X6, np.array([0.0, 0.5, 1.0, 0.0, 1.0, 1.0]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_rf(X6, np.ones(6))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_model("svm", X6, Y6)

    def test_predict_checks_column_count(self):
        model = fit_gbt(X6, Y6, {"n_trees": 1})
        with pytest.raises(ValueError, match="feature columns"):
            predict(model, np.zeros((2, 3)))

    def test_predict_rejects_nan(self):
        model = fit_gbt(X6, Y6, {"n_trees": 1})
        with pytest.raises(ValueError, match="impute"):
            predict(model, np.array([[np.nan]]))


class TestGridSearch:
    def test_best_matches_brute_force_recompute(self):
        from wifi_proximity.evaluation import auc_roc
        X, y = random_problem(10, n=150)
        grid = [{"n_trees": 3, "max_depth": 1}, {"n_trees": 5, "max_depth": 2}]
        best, results = grid_search_cv("gbt", X, y, grid=grid, folds=3, seed=0)
        fold_of = stratified_folds(y, 3, 0)
        recomputed = []
        for params in grid:
            aucs = []
            for f in range(3):
                val = fold_of == f
                m = fit_model("gbt", X[~val], y[~val], params, seed=0)
                aucs.append(auc_roc(predict(m, X[val]), y[val]))
            recomputed.append(float(np.mean(aucs)))
        assert [r["mean_auc"] for r in results] == pytest.approx(recomputed)
        assert best == grid[int(np.argmax(recomputed))]

    @pytest.mark.parametrize("kind", ["gbt", "rf"])
    def test_row_and_column_major_input_agree(self, tmp_path, kind):
        X, y = random_problem(11, n=150)
        grid = [{"n_trees": 3, "max_depth": 1}, {"n_trees": 4, "max_depth": 3}]
        best_c, results_c = grid_search_cv(kind, np.ascontiguousarray(X), y, grid=grid,
                                           folds=3, seed=0)
        best_f, results_f = grid_search_cv(kind, np.asfortranarray(X), y, grid=grid,
                                           folds=3, seed=0)
        assert best_c == best_f and results_c == results_f
        docs = []
        for layout, X_in in (("c", np.ascontiguousarray(X)), ("f", np.asfortranarray(X))):
            save_model(fit_model(kind, X_in, y, best_c, seed=0,
                                 imputation=ImputationState(0.1, 0.2, 3, 4)),
                       tmp_path / layout, "h")
            docs.append((tmp_path / layout).read_bytes())
        assert docs[0] == docs[1]

    def test_stratified_folds_balance_classes(self):
        y = np.array([1] * 10 + [0] * 40)
        fold_of = stratified_folds(y, 5, seed=0)
        for f in range(5):
            assert (y[fold_of == f] == 1).sum() == 2
            assert (y[fold_of == f] == 0).sum() == 8

    def test_too_few_samples_per_fold_rejected(self):
        with pytest.raises(ValueError):
            grid_search_cv("gbt", X6, Y6, grid=[{}], folds=5)


class TestImportance:
    def test_sums_to_one(self):
        X, y = random_problem(11)
        for kind in ("gbt", "rf"):
            model = fit_model(kind, X, y, {"n_trees": 10, "max_depth": 3}, seed=2)
            imp = feature_importance(model)
            assert sum(imp.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in imp.values())

    def test_informative_feature_ranks_first(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(500, 4))
        y = (X[:, 2] > 0).astype(float)
        model = fit_gbt(X, y, {"n_trees": 10, "max_depth": 2},
                        feature_names=["a", "b", "c", "d"])
        imp = feature_importance(model)
        assert max(imp, key=imp.get) == "c"

    def test_no_splits_rejected(self):
        X = np.zeros((10, 2))
        y = np.array([0.0, 1.0] * 5)
        model = fit_rf(X, y, {"n_trees": 2})
        with pytest.raises(ValueError, match="no splits"):
            feature_importance(model)


class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        X, y = random_problem(13, n=120)
        for kind in ("gbt", "rf"):
            model = fit_model(kind, X, y, {"n_trees": 5, "max_depth": 3}, seed=4,
                              feature_names=FEATURE_NAMES[:5],
                              featureset="FULL",
                              imputation=ImputationState(0.1, 0.2, 3, 4))
            p = tmp_path / f"{kind}.json"
            save_model(model, p, "hash1234", extra={"note": 1})
            loaded, doc = load_model(p)
            assert np.array_equal(predict(model, X), predict(loaded, X))
            assert loaded.kind == model.kind
            assert loaded.featureset == "FULL"
            assert loaded.feature_names == model.feature_names
            assert loaded.imputation == model.imputation
            assert loaded.hyperparameters == model.hyperparameters
            assert doc["config_hash"] == "hash1234" and doc["note"] == 1

    def test_model_without_imputation_is_not_saved(self, tmp_path):
        """load_model refuses a null imputation, so save_model writes none."""
        X, y = random_problem(13, n=120)
        p = tmp_path / "gbt.json"
        with pytest.raises(ValueError, match="imputation"):
            save_model(fit_model("gbt", X, y, {"n_trees": 2}), p, "h")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_model_file_raises_dataerror(self, tmp_path):
        p = tmp_path / "bad.json"
        fileio.write_json(p, fileio.SCHEMA_MODEL, "h", {"kind": "gradient-boosted"})
        with pytest.raises(fileio.DataError):
            load_model(p)


    @pytest.mark.parametrize("edit", [
        {"trees": []}, {"kind": "nonsense"}, {"base_score": None},
        {"base_score": {"__float__": "nan"}}, {"base_score": "0.5"},
        {"imputation": {"spearman_mean": 0.1, "pearson_mean": 0.2,
                        "n_missing_spearman": 3}},
        {"imputation": {"spearman_mean": 0.1, "pearson_mean": 0.2, "n_missing_spearman": 3,
                        "n_missing_pearson": 4, "kendall_mean": 0.3}},
        {"imputation": [0.1, 0.2, 3, 4]},
        {"hyperparameters": [1, 2]}, {"featureset": 5},
        {"feature_names": ["nope"] + FEATURE_NAMES[1:5]},
        {"imputation": {"spearman_mean": "x", "pearson_mean": 0.2, "n_missing_spearman": 3,
                        "n_missing_pearson": 4}},
        {"imputation": None},
    ], ids=["no_trees", "unknown_kind", "no_base_score", "nan_base_score",
            "text_base_score", "imputation_missing_key", "imputation_unknown_key",
            "imputation_list", "hyperparameters_list", "featureset_number",
            "unknown_feature_name", "imputation_mean_text", "imputation_null"])
    def test_model_that_cannot_score_raises_dataerror(self, tmp_path, edit):
        X, y = random_problem(13, n=120)
        p = tmp_path / "gbt.json"
        save_model(fit_model("gbt", X, y, {"n_trees": 2}, feature_names=FEATURE_NAMES[:5],
                             imputation=ImputationState(0.1, 0.2, 3, 4)),
                   p, "h")
        load_model(p)  # the unedited file loads
        doc = fileio.read_json(p, fileio.SCHEMA_MODEL)
        doc.update(edit)
        with open(p, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(fileio.DataError, match="gbt.json: malformed model file"):
            load_model(p)


class TestFeaturesets:
    def test_nearme_is_the_four_prior_features(self):
        assert FEATURESETS["NEARME"] == ["overlap", "non_overlap", "spearman",
                                         "euclidean"]

    def test_full_is_canonical_order(self):
        assert FEATURESETS["FULL"] == FEATURE_NAMES

    def test_all_sets_reference_known_features(self):
        for names in FEATURESETS.values():
            assert set(names) <= set(FEATURE_NAMES)

    def test_select_columns(self):
        """model_matrix takes the named columns, in the order named."""
        m = np.arange(32, dtype=float).reshape(2, 16)
        sel = model_matrix(m, slice(None), ["jaccard", "overlap"], ImputationState(0, 0, 0, 0))
        assert sel[0, 0] == FEATURE_NAMES.index("jaccard")
        assert sel[0, 1] == FEATURE_NAMES.index("overlap")

    def test_default_params_exposed(self):
        assert DEFAULT_GBT_PARAMS["learning_rate"] == 0.1
