"""Unit tests for the per-block kernels shared by all backends."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import (
    block_error_parts,
    block_frobenius,
    block_latent,
    block_sums,
    block_ytx_xtx,
)
from repro.jobs.kernels import error_from_colsums


@pytest.fixture
def setting():
    rng = np.random.default_rng(51)
    block = sp.random(40, 25, density=0.2, random_state=2, format="csr")
    mean = np.asarray(block.mean(axis=0)).ravel() + 0.1
    projector = rng.normal(size=(25, 4))
    latent_mean = mean @ projector
    components = rng.normal(size=(25, 4))
    return block, mean, projector, latent_mean, components


def dense_centered(block, mean):
    return np.asarray(block.todense()) - mean


class TestBlockSums:
    def test_matches_numpy(self, setting):
        block, *_ = setting
        sums, count = block_sums(block)
        np.testing.assert_allclose(sums, np.asarray(block.sum(axis=0)).ravel())
        assert count == 40


class TestBlockLatent:
    def test_mean_propagation_equals_dense(self, setting):
        block, mean, projector, latent_mean, _ = setting
        propagated = block_latent(block, mean, projector, latent_mean, True)
        densified = block_latent(block, mean, projector, latent_mean, False)
        expected = dense_centered(block, mean) @ projector
        np.testing.assert_allclose(propagated, expected, atol=1e-10)
        np.testing.assert_allclose(densified, expected, atol=1e-10)


class TestBlockYtxXtx:
    def test_both_paths_equal_dense_reference(self, setting):
        block, mean, projector, latent_mean, _ = setting
        centered = dense_centered(block, mean)
        latent = centered @ projector
        expected_ytx = centered.T @ latent
        expected_xtx = latent.T @ latent
        for mean_prop in (True, False):
            ytx, xtx = block_ytx_xtx(block, mean, projector, latent_mean, mean_prop)
            np.testing.assert_allclose(ytx, expected_ytx, atol=1e-9)
            np.testing.assert_allclose(xtx, expected_xtx, atol=1e-9)

    def test_precomputed_latent_used(self, setting):
        # Recomputing X inside the call (sharing the ablation's centered
        # copy) is bitwise the same as handing in block_latent's X.
        block, mean, projector, latent_mean, _ = setting
        for mean_prop in (True, False):
            latent = block_latent(block, mean, projector, latent_mean, mean_prop)
            ytx_a, xtx_a = block_ytx_xtx(block, mean, projector, latent_mean, mean_prop)
            ytx_b, xtx_b = block_ytx_xtx(
                block, mean, projector, latent_mean, mean_prop, latent=latent
            )
            assert np.array_equal(ytx_a, ytx_b)
            assert np.array_equal(xtx_a, xtx_b)


class TestBlockFrobenius:
    def test_algorithms_agree(self, setting):
        block, mean, *_ = setting
        fast = block_frobenius(block, mean, efficient=True)
        slow = block_frobenius(block, mean, efficient=False)
        assert fast == pytest.approx(slow)


class TestBlockErrorParts:
    def test_colsum_protocol(self, setting):
        block, mean, _, _, components = setting
        ls_projector = components @ np.linalg.inv(components.T @ components)
        dense = np.asarray(block.todense())
        for mean_prop in (True, False):
            residual, magnitude = block_error_parts(
                block, mean, components, ls_projector, mean_prop
            )
            assert residual.shape == (25,)
            assert magnitude.shape == (25,)
            assert np.array_equal(magnitude, np.abs(dense).sum(axis=0))
        # Without mean propagation one densified copy serves both the
        # least-squares latent and the residual pass.
        residual, _ = block_error_parts(block, mean, components, ls_projector, False)
        reconstruction = ((dense - mean) @ ls_projector) @ components.T + mean
        assert np.array_equal(residual, np.abs(dense - reconstruction).sum(axis=0))

    def test_mean_prop_matches_densified(self, setting):
        block, mean, _, _, components = setting
        ls_projector = components @ np.linalg.inv(components.T @ components)
        prop = block_error_parts(block, mean, components, ls_projector, True)
        dense = block_error_parts(block, mean, components, ls_projector, False)
        np.testing.assert_allclose(prop[0], dense[0], atol=1e-9)
        np.testing.assert_allclose(prop[1], dense[1], atol=1e-9)

    def test_error_from_colsums(self):
        residual = np.array([1.0, 8.0, 2.0])
        magnitude = np.array([10.0, 16.0, 1.0])
        assert error_from_colsums(residual, magnitude) == pytest.approx(0.5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=15),
    d_cols=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_blocks_additive(n, d_cols, k, seed):
    """Partial results from split blocks must sum to the whole-block result."""
    rng = np.random.default_rng(seed)
    block = sp.random(n, d_cols, density=0.5, random_state=seed % 2**31, format="csr")
    mean = rng.normal(size=d_cols)
    projector = rng.normal(size=(d_cols, k))
    latent_mean = mean @ projector
    half = n // 2
    top, bottom = block[:half], block[half:]
    whole_ytx, whole_xtx = block_ytx_xtx(block, mean, projector, latent_mean, True)
    parts = [
        block_ytx_xtx(part, mean, projector, latent_mean, True)
        for part in (top, bottom)
        if part.shape[0] > 0
    ]
    sum_ytx = sum(p[0] for p in parts)
    sum_xtx = sum(p[1] for p in parts)
    np.testing.assert_allclose(sum_ytx, whole_ytx, atol=1e-8)
    np.testing.assert_allclose(sum_xtx, whole_xtx, atol=1e-8)
