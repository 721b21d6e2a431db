"""Unit tests for the COO sparse tensor."""

import numpy as np
import pytest

from repro._util import INDEX_DTYPE, VALUE_DTYPE
from repro.tensor.coo import SparseTensor


class TestConstruction:
    def test_basic_properties(self, tiny_tensor):
        assert tiny_tensor.nnz == 4
        assert tiny_tensor.nmodes == 3
        assert tiny_tensor.dims == (3, 2, 2)
        assert tiny_tensor.density == pytest.approx(4 / 12)

    def test_dtypes_canonicalized(self, tiny_tensor):
        assert tiny_tensor.coords.dtype == INDEX_DTYPE
        assert tiny_tensor.values.dtype == VALUE_DTYPE
        assert tiny_tensor.coords.flags.c_contiguous

    def test_coords_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            SparseTensor(np.zeros(3, dtype=int), np.ones(3), (5,))

    def test_values_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            SparseTensor(np.zeros((3, 2), dtype=int), np.ones((3, 1)), (5, 5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values length"):
            SparseTensor(np.zeros((3, 2), dtype=int), np.ones(4), (5, 5))

    def test_dims_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            SparseTensor(np.zeros((3, 2), dtype=int), np.ones(3), (5, 5, 5))

    def test_coordinate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseTensor(np.array([[0, 5]]), np.ones(1), (3, 5))

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SparseTensor(np.array([[0, -1]]), np.ones(1), (3, 5))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SparseTensor(np.empty((0, 2), dtype=int), np.empty(0), (3, 0))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseTensor(np.array([[0, 0]]), np.array([np.nan]), (2, 2))

    def test_empty_tensor_allowed(self):
        t = SparseTensor(np.empty((0, 2), dtype=int), np.empty(0), (4, 5))
        assert t.nnz == 0
        assert t.density == 0.0


class TestFromArrays:
    def test_roundtrip(self, tiny_tensor):
        cols = [tiny_tensor.mode_indices(m) for m in range(3)]
        rebuilt = SparseTensor.from_arrays(cols, tiny_tensor.values, tiny_tensor.dims)
        assert rebuilt == tiny_tensor

    def test_dims_inferred(self):
        t = SparseTensor.from_arrays(
            [np.array([0, 2]), np.array([1, 0])], np.array([1.0, 2.0])
        )
        assert t.dims == (3, 2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            SparseTensor.from_arrays([np.array([0]), np.array([0, 1])], np.array([1.0]))

    def test_no_modes_rejected(self):
        with pytest.raises(ValueError, match="at least one mode"):
            SparseTensor.from_arrays([], np.array([1.0]))


class TestFromDense:
    def test_roundtrip(self, rng):
        dense = rng.random((4, 3, 5))
        dense[dense < 0.7] = 0.0
        t = SparseTensor.from_dense(dense)
        np.testing.assert_allclose(t.to_dense(), dense)

    def test_all_zero(self):
        t = SparseTensor.from_dense(np.zeros((2, 2)))
        assert t.nnz == 0


class TestDeduplicate:
    def test_sums_duplicates(self):
        coords = np.array([[0, 0], [0, 0], [1, 1]])
        t = SparseTensor(coords, np.array([1.0, 2.5, 4.0]), (2, 2)).deduplicate()
        assert t.nnz == 2
        dense = t.to_dense()
        assert dense[0, 0] == pytest.approx(3.5)
        assert dense[1, 1] == pytest.approx(4.0)

    def test_cancelling_duplicates_dropped(self):
        coords = np.array([[0, 0], [0, 0]])
        t = SparseTensor(coords, np.array([1.0, -1.0]), (2, 2)).deduplicate()
        assert t.nnz == 0

    def test_idempotent(self, small_tensor):
        once = small_tensor.deduplicate()
        twice = once.deduplicate()
        assert once == twice

    def test_empty(self):
        t = SparseTensor(np.empty((0, 3), dtype=int), np.empty(0), (2, 2, 2))
        assert t.deduplicate().nnz == 0

    def test_groups_sum_in_input_order(self):
        # (1, 1) sums to 1.0 only when added in input order.
        coords = np.array([[1, 1], [0, 0], [1, 1], [0, 0], [1, 1], [1, 1]])
        values = np.array([1.0, 2.0, 1e16, 3.0, -1e16, 1.0])
        expected = np.zeros((2, 2))
        np.add.at(expected, tuple(coords.T), values)
        assert expected[1, 1] == 1.0
        t = SparseTensor(coords, values, (2, 2)).deduplicate()
        np.testing.assert_array_equal(t.coords, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(t.to_dense(), expected)

    def test_preserves_dense_equivalent(self, rng):
        coords = rng.integers(0, 4, size=(50, 3))
        values = rng.standard_normal(50)
        t = SparseTensor(coords, values, (4, 4, 4))
        expected = np.zeros((4, 4, 4))
        np.add.at(expected, tuple(coords.T), values)
        np.testing.assert_allclose(t.deduplicate().to_dense(), expected)


class TestTransforms:
    def test_copy_is_deep(self, tiny_tensor):
        c = tiny_tensor.copy()
        c.values[0] = 99.0
        assert tiny_tensor.values[0] == 1.0

    def test_permute_modes(self, tiny_tensor):
        p = tiny_tensor.permute_modes((2, 0, 1))
        assert p.dims == (2, 3, 2)
        np.testing.assert_array_equal(
            p.to_dense(), np.transpose(tiny_tensor.to_dense(), (2, 0, 1))
        )

    def test_permute_identity(self, small_tensor):
        assert small_tensor.permute_modes((0, 1, 2)) == small_tensor

    def test_permute_invalid(self, tiny_tensor):
        with pytest.raises(ValueError, match="permutation"):
            tiny_tensor.permute_modes((0, 0, 1))

    def test_mode_indices_is_view(self, tiny_tensor):
        view = tiny_tensor.mode_indices(1)
        assert view.base is tiny_tensor.coords

    def test_mode_indices_negative_axis(self, tiny_tensor):
        np.testing.assert_array_equal(
            tiny_tensor.mode_indices(-1), tiny_tensor.mode_indices(2)
        )

    def test_mode_indices_out_of_range(self, tiny_tensor):
        with pytest.raises(ValueError, match="out of range"):
            tiny_tensor.mode_indices(3)


class TestMatricize:
    def test_known_values(self, tiny_tensor):
        # X[0,0,0]=1, X[0,1,1]=2, X[1,0,1]=-3, X[2,1,0]=4
        x0 = tiny_tensor.matricize(0)
        assert x0.shape == (3, 4)
        # column = j + k*J (mode 1 fastest)
        assert x0[0, 0] == 1.0
        assert x0[0, 3] == 2.0  # j=1, k=1 -> col 3
        assert x0[1, 2] == -3.0  # j=0, k=1 -> col 2
        assert x0[2, 1] == 4.0  # j=1, k=0 -> col 1

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_unfold(self, small_tensor, mode):
        dense = small_tensor.to_dense()
        rest = [m for m in range(3) if m != mode]
        # build reference by explicit loops
        ref = np.zeros_like(small_tensor.matricize(mode))
        for idx in np.ndindex(*dense.shape):
            col = 0
            stride = 1
            for m in rest:
                col += idx[m] * stride
                stride *= dense.shape[m]
            ref[idx[mode], col] += dense[idx]
        np.testing.assert_allclose(small_tensor.matricize(mode), ref)

    def test_order4(self, order4_tensor):
        x = order4_tensor.matricize(2)
        assert x.shape == (7, 6 * 5 * 4)
        assert x.sum() == pytest.approx(order4_tensor.values.sum())


class TestNorm:
    def test_matches_dense(self, small_tensor):
        assert small_tensor.norm() == pytest.approx(
            np.linalg.norm(small_tensor.to_dense())
        )

    def test_empty_is_zero(self):
        t = SparseTensor(np.empty((0, 2), dtype=int), np.empty(0), (2, 2))
        assert t.norm() == 0.0


class TestMisc:
    def test_size_on_disk_positive(self, small_tensor):
        assert small_tensor.size_on_disk > 0

    def test_repr_contains_dims(self, tiny_tensor):
        assert "3x2x2" in repr(tiny_tensor)

    def test_equality_against_other_type(self, tiny_tensor):
        assert tiny_tensor != 42

    def test_to_dense_refuses_huge(self):
        t = SparseTensor(np.array([[0, 0, 0]]), np.ones(1), (10_000, 10_000, 10_000))
        with pytest.raises(MemoryError):
            t.to_dense()
