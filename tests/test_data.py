"""Parsers, standardisation, and the split protocol."""
import tracemalloc
import warnings

import numpy as np
import pytest

from votecert import data
from votecert.data import DataError


class TestParseLibsvm:
    def test_sparse_row_and_sign_labels(self, tmp_path):
        path = tmp_path / "a.libsvm"
        path.write_text("+1 1:0.5 3:2.0\n-1 2:1.0\n")
        ds = data.parse_libsvm(path)
        np.testing.assert_allclose(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [2, 1])  # sorted {-1,+1} -> {1,2}
        assert ds.num_classes == 2

    def test_label_only_line_is_zero_row(self, tmp_path):
        path = tmp_path / "b.libsvm"
        path.write_text("1 1:3.0\n2\n")
        ds = data.parse_libsvm(path)
        np.testing.assert_allclose(ds.features[1], [0.0])

    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "c.libsvm"
        path.write_text("3 2:1.5\n1 1:-1.0 4:2.25\n2 3:7.0\n")
        ds = data.parse_libsvm(path)
        want = np.array([
            [0.0, 1.5, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 2.25],
            [0.0, 0.0, 7.0, 0.0],
        ])
        np.testing.assert_allclose(ds.features, want)
        np.testing.assert_array_equal(ds.labels, [3, 1, 2])

    def test_non_increasing_indices_name_line(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1.0\n1 2:1.0 2:2.0\n")
        with pytest.raises(DataError, match="line 2"):
            data.parse_libsvm(path)

    def test_malformed_token_names_line(self, tmp_path):
        path = tmp_path / "e.libsvm"
        path.write_text("1 1:1.0\n1 x\n")
        with pytest.raises(DataError, match="line 2"):
            data.parse_libsvm(path)

    def test_index_above_limit_rejected_before_allocating(self, tmp_path):
        """The dense matrix has one column per index up to the largest: an
        index of 10^8 is a DataError naming its line, raised before a
        1.6 GB matrix is asked for; the limit itself is accepted."""
        path = tmp_path / "f.libsvm"
        path.write_text("1 1:1.0\n-1 2:0.5 100000000:1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="line 2"):
                data.parse_libsvm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        path.write_text(f"1 1:1.0\n-1 2:0.5 {data._LIBSVM_MAX_INDEX}:1.0\n")
        assert data.parse_libsvm(path).features.shape == (2, data._LIBSVM_MAX_INDEX)


class TestParseCsv:
    def test_ordinal_encoding_sorted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("f,label\na,1\nb,2\na,1\n")
        ds = data.parse_csv(path, "label")
        np.testing.assert_allclose(ds.features[:, 0], [0.0, 1.0, 0.0])

    def test_numeric_passthrough(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("f,g,label\n1.5,2,1\n-0.25,3,2\n")
        ds = data.parse_csv(path, "label")
        np.testing.assert_allclose(ds.features, [[1.5, 2.0], [-0.25, 3.0]])

    def test_mixed_fixture(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "color,size,label\nred,1.0,yes\nblue,2.5,no\ngreen,1.0,yes\n"
        )
        ds = data.parse_csv(path, "label")
        # colors sorted: blue=0, green=1, red=2; labels sorted: no=1, yes=2
        np.testing.assert_allclose(
            ds.features, [[2.0, 1.0], [0.0, 2.5], [1.0, 1.0]]
        )
        np.testing.assert_array_equal(ds.labels, [2, 1, 2])

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("f,label\n1.0,1\n,2\n")
        with pytest.raises(DataError, match="row 2"):
            data.parse_csv(path, "label")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_is_data_error(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,label\n1.0,x\n{value},y\n")
        with pytest.raises(DataError, match="finite"):
            data.parse_csv(path, "label")

    def test_label_column_by_index(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text("label,f\n1,3.0\n2,4.0\n")
        ds = data.parse_csv(path, 0)
        np.testing.assert_allclose(ds.features[:, 0], [3.0, 4.0])

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("f,label\n1.0,1\n")
        with pytest.raises(DataError):
            data.parse_csv(path, "target")

    def test_export_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = data.Dataset(rng.normal(size=(15, 3)), rng.integers(1, 3, 15), 2)
        path = tmp_path / "round.csv"
        lines = ["label," + ",".join(f"x{j + 1}" for j in range(3))]
        lines += [f"{y}," + ",".join(repr(float(v)) for v in row)
                  for y, row in zip(ds.labels, ds.features)]
        path.write_text("\n".join(lines) + "\n")
        back = data.parse_csv(path, "label")
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)


class TestStandardize:
    def test_identity_when_already_standardised(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        ds = data.Dataset(X, np.ones(50, dtype=int) + rng.integers(0, 2, 50), 2)
        plan = data.SplitPlan(np.arange(50), np.arange(0), np.arange(50),
                              np.arange(50), seed=0)
        out = data.standardize(ds, plan)
        np.testing.assert_allclose(out.features, X, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        X = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
        ds = data.Dataset(X, np.ones(20, dtype=int), 1)
        plan = data.SplitPlan(np.arange(20), np.arange(0), np.arange(20),
                              np.arange(20), seed=0)
        out = data.standardize(ds, plan)
        np.testing.assert_array_equal(out.features[:, 0], 0.0)

    def test_hand_computed_fixture(self):
        X = np.array([[0.0], [2.0], [4.0], [6.0]])
        ds = data.Dataset(X, np.array([1, 1, 2, 2]), 2)
        plan = data.SplitPlan(np.array([0, 1]), np.array([2, 3]),
                              np.array([0, 1]), np.array([0, 1]), seed=0)
        out = data.standardize(ds, plan)
        # train stats: mean 1, std 1 -> rows become (x - 1)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0, 3.0, 5.0])

    def test_statistics_ignore_test_rows(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        X[30:] += 100.0  # wild test rows must not shift the train statistics
        ds = data.Dataset(X, np.ones(40, dtype=int), 1)
        plan = data.SplitPlan(np.arange(30), np.arange(30, 40), np.arange(30),
                              np.arange(30), seed=0)
        out = data.standardize(ds, plan)
        assert abs(out.features[:30].mean()) < 1e-12

    def test_overflowing_column_standardises_as_its_twin(self):
        """Columns near the float limit, whose train sum or squares
        overflow, standardise bit for bit as their twins scaled by the
        power of two 2^-1024, without a warning; in-range data takes the
        plain formula."""
        rng = np.random.default_rng(3)
        X = np.column_stack([np.where(rng.random(40) < 0.5, 1e308, -1e308),
                             rng.uniform(1e307, 1.7e308, 40), rng.normal(size=40)])
        twin = X.copy()
        twin[:, :2] = np.ldexp(X[:, :2], -1024)
        plan = data.split_indices(40, 0, strong_voters=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, want = (data.standardize(data.Dataset(x, np.ones(40, dtype=int), 1), plan)
                         for x in (X, twin))
        assert np.isfinite(out.features).all()
        assert out.features.tobytes() == want.features.tobytes()
        train = twin[plan.train_idx]
        plain = (twin - train.mean(axis=0)) / np.maximum(train.std(axis=0), 1e-12)
        assert want.features.tobytes() == plain.tobytes()


class TestMakeSplit:
    def test_ten_rows_gives_two_test(self):
        ds = data.Dataset(np.zeros((10, 1)), np.ones(10, dtype=int), 1)
        plan = data.make_split(ds, seed=0)
        assert plan.test_idx.size == 2
        assert plan.train_idx.size == 8

    def test_same_seed_same_plan(self):
        ds = data.Dataset(np.zeros((57, 2)), np.ones(57, dtype=int), 1)
        a = data.make_split(ds, seed=5, strong_voters=True)
        b = data.make_split(ds, seed=5, strong_voters=True)
        for x, y in zip(
            (a.train_idx, a.test_idx, a.voter_half_idx, a.bound_half_idx),
            (b.train_idx, b.test_idx, b.voter_half_idx, b.bound_half_idx),
        ):
            np.testing.assert_array_equal(x, y)

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(10, 400))
            plan = data.split_indices(m, seed=int(rng.integers(1000)),
                                      strong_voters=True)
            train = set(plan.train_idx.tolist())
            test = set(plan.test_idx.tolist())
            assert train.isdisjoint(test)
            assert train | test == set(range(m))
            voter = set(plan.voter_half_idx.tolist())
            bound = set(plan.bound_half_idx.tolist())
            assert voter.isdisjoint(bound)
            assert voter | bound == train

    def test_weak_mode_bound_half_is_whole_train(self):
        plan = data.split_indices(100, seed=1, strong_voters=False)
        np.testing.assert_array_equal(plan.bound_half_idx, plan.train_idx)

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            data.split_indices(9, seed=0, strong_voters=False)
