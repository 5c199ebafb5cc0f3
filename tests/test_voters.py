"""Stump grids, forest training, and prediction-matrix I/O."""
import numpy as np
import pytest

from votecert import voters
from votecert.voters import PredictionFileError

from conftest import export_predictions, random_matrix


class TestStumps:
    def test_even_threshold_spacing(self):
        X = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
        ens = voters.make_stumps(X)
        assert ens.feature.size == ens.threshold.size == ens.above_class.size == 12
        thresholds = sorted(set(ens.threshold.tolist()))
        np.testing.assert_allclose(thresholds, [k / 7 for k in range(1, 7)], atol=1e-12)

    def test_arrays_are_read_only_copies(self):
        feature, threshold = np.array([0, 0]), np.array([0.5, 0.5])
        ens = voters.StumpEnsemble(feature, threshold, [1, 2])
        feature[0], threshold[0] = 1, 9.0
        assert ens.feature.tolist() == [0, 0] and ens.threshold.tolist() == [0.5, 0.5]
        for arr in (ens.feature, ens.threshold, ens.above_class):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_orientation_twins_complement(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        ens = voters.make_stumps(X)
        preds = ens.predict_all(X)
        for j in range(0, preds.shape[1], 2):
            np.testing.assert_array_equal(preds[:, j] + preds[:, j + 1], 3)

    def test_count_scales_with_features(self):
        X = np.random.default_rng(1).normal(size=(30, 5))
        assert voters.make_stumps(X).threshold.size == 2 * 6 * 5

    def test_two_feature_enumeration(self):
        """Every column equals the hand construction x_j > lo + k (hi-lo)/7."""
        X = np.array([[0.0, 10.0], [1.0, 12.0], [2.0, 14.0], [3.0, 16.0]])
        ens = voters.make_stumps(X)
        preds = ens.predict_all(X)
        assert preds.shape == (4, 24)
        col = 0
        for j in range(2):
            lo, hi = X[:, j].min(), X[:, j].max()
            for k in range(1, 7):
                t = lo + (hi - lo) * k / 7
                above1 = np.where(X[:, j] > t, 1, 2)
                above2 = np.where(X[:, j] > t, 2, 1)
                np.testing.assert_array_equal(preds[:, col], above1)
                np.testing.assert_array_equal(preds[:, col + 1], above2)
                col += 2

    def test_constant_feature_degenerates(self):
        X = np.ones((20, 1))
        ens = voters.make_stumps(X)
        preds = ens.predict_all(X)
        for j in range(preds.shape[1]):
            assert len(set(preds[:, j])) == 1


def xor_data(n_per_cell=10):
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.repeat(grid, n_per_cell, axis=0)
    y = np.where(X[:, 0] == X[:, 1], 1, 2)
    return X, y


class TestForest:
    def test_pure_labels_give_single_leaves(self, monkeypatch):
        monkeypatch.setattr(voters, "_NUM_TREES", 3)
        X = np.random.default_rng(2).normal(size=(30, 3))
        y = np.ones(30, dtype=int)
        forest = voters.train_forest(X, y, 0)
        for tree in forest.trees:
            assert tree.feature < 0  # root is a leaf
        np.testing.assert_array_equal(forest.predict_all(X), 1)

    def test_xor_tree_fits_its_bag(self):
        """A single unbounded tree with both features resolves the XOR
        pattern to zero error on its own bag (bag imbalance breaks the
        first-split gain tie).  A forest tree draws floor(sqrt(2)) = 1 of
        the two features, so the tree is grown directly on the bag that
        seed 3's first tree draws."""
        X, y = xor_data()
        rng = np.random.default_rng((3, 0))
        bag = rng.integers(0, X.shape[0], size=X.shape[0] // 2)
        tree = voters._grow(X[bag], y[bag], np.array([0, 1]), 2)
        preds = voters.Forest((tree,), 2).predict_all(X[bag])
        assert np.mean(preds[:, 0] != y[bag]) == 0.0

    def test_seeded_reproducibility(self):
        X = np.random.default_rng(5).normal(size=(80, 4))
        y = np.random.default_rng(6).integers(1, 3, 80)
        a = voters.train_forest(X, y, 11)
        b = voters.train_forest(X, y, 11)
        np.testing.assert_array_equal(a.predict_all(X), b.predict_all(X))

    def test_tree_no_worse_than_single_leaf_on_bag(self, monkeypatch):
        monkeypatch.setattr(voters, "_NUM_TREES", 5)
        X = np.random.default_rng(7).normal(size=(100, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int) + 1
        forest = voters.train_forest(X, y, 13)
        for i, tree in enumerate(forest.trees):
            rng = np.random.default_rng((13, i))
            bag = rng.integers(0, 100, size=50)
            rng.choice(4, size=2, replace=False)  # consume the feature draw
            y_bag = y[bag]
            leaf_error = 1.0 - np.bincount(y_bag).max() / y_bag.size
            tree_preds = voters.Forest((tree,), 2).predict_all(X[bag])[:, 0]
            assert np.mean(tree_preds != y_bag) <= leaf_error + 1e-12

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError):
            voters.train_forest(np.ones((1, 2)), np.array([1]), 0)


class TestPredictMatrix:
    def test_constant_stump_column(self):
        # x > 0.5 never fires, so each stump constantly predicts its below-class
        X = np.zeros((5, 1))
        ens = voters.StumpEnsemble([0, 0], [0.5, 0.5], [1, 2])
        P = voters.predict_matrix(ens, X, np.array([1, 1, 2, 2, 1]))
        np.testing.assert_array_equal(P.preds[:, 0], 2)
        np.testing.assert_array_equal(P.preds[:, 1], 1)

    def test_forest_training_error_matches_per_tree_count(self, monkeypatch):
        monkeypatch.setattr(voters, "_NUM_TREES", 4)
        X = np.random.default_rng(8).normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int) + 1
        forest = voters.train_forest(X, y, 1)
        P = voters.predict_matrix(forest, X, y)
        direct = forest.predict_all(X)
        for j in range(4):
            assert np.mean(P.preds[:, j] != y) == np.mean(direct[:, j] != y)

    def test_empty_examples_rejected(self):
        ens = voters.StumpEnsemble([0, 0], [0.0, 0.0], [1, 2])
        with pytest.raises(ValueError):
            voters.predict_matrix(ens, np.zeros((0, 1)), np.zeros(0, dtype=int))


class TestPredictionIO:
    def test_small_file(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("label,v1,v2\n1,1,2\n2,2,2\n")
        P = voters.ingest_predictions(path)
        assert P.num_examples == 2
        np.testing.assert_array_equal(P.labels, [1, 2])
        np.testing.assert_array_equal(P.preds, [[1, 2], [2, 2]])

    def test_zero_class_index_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,v1,v2\n1,1,2\n1,0,2\n")
        with pytest.raises(PredictionFileError, match="row 2"):
            voters.ingest_predictions(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,v1,v2\n1,1,2\n1,1\n")
        with pytest.raises(PredictionFileError, match="row 2"):
            voters.ingest_predictions(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "float.csv"
        path.write_text("label,v1,v2\n1,1,2\n1,1.5,2\n")
        with pytest.raises(PredictionFileError, match="row 2"):
            voters.ingest_predictions(path)

    def test_round_trip(self, tmp_path):
        P = random_matrix(seed=31, m=25, d=6, c=3, accuracy=0.5)
        path = tmp_path / "round.csv"
        export_predictions(P, path)
        Q = voters.ingest_predictions(path)
        np.testing.assert_array_equal(P.preds, Q.preds)
        np.testing.assert_array_equal(P.labels, Q.labels)
        assert P.num_classes == Q.num_classes
