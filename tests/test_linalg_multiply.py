"""Efficient multiplication patterns (Section 3.3) against dense references."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.linalg import (
    broadcast_times,
    partition_rows,
    transpose_times_accumulate,
)


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def test_broadcast_times_sparse(rng):
    matrix = sp.random(40, 10, density=0.2, random_state=8, format="csr")
    small = rng.normal(size=(10, 3))
    np.testing.assert_allclose(
        broadcast_times(matrix, small), matrix.todense() @ small, atol=1e-12
    )


def test_broadcast_times_shape_error(rng):
    with pytest.raises(ShapeError):
        broadcast_times(np.ones((4, 3)), np.ones((5, 2)))


def test_transpose_times_accumulate_matches_direct(rng):
    matrix = sp.random(60, 14, density=0.25, random_state=3, format="csr")
    right = rng.normal(size=(60, 5))
    blocks = partition_rows(matrix, 4)
    right_blocks = [right[b.start : b.stop] for b in blocks]
    result = transpose_times_accumulate(
        [b.data for b in blocks], right_blocks
    )
    np.testing.assert_allclose(result, matrix.todense().T @ right, atol=1e-10)


def test_transpose_times_accumulate_rejects_empty():
    with pytest.raises(ShapeError):
        transpose_times_accumulate([], [])


def test_transpose_times_accumulate_rejects_mismatch(rng):
    with pytest.raises(ShapeError):
        transpose_times_accumulate([np.ones((3, 2))], [np.ones((4, 2))])
