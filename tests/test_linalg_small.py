"""The driver-side small-matrix algebra of :mod:`repro.linalg.small`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.linalg.small import (
    CONDITION_LIMIT,
    check_em_state,
    inverse,
    ls_projector,
    moment_inverse,
    ppca_log_density,
)


def spd(rng, d, rank=None):
    """A random symmetric positive semi-definite d x d matrix of *rank*."""
    factor = rng.normal(size=(d, d if rank is None else rank))
    return factor @ factor.T


class TestInverse:
    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
    def test_well_conditioned_is_bitwise_inv(self, d, seed):
        rng = np.random.default_rng(seed)
        a = spd(rng, d) + d * np.eye(d)
        assert np.array_equal(inverse(a), np.linalg.inv(a))

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_singular_is_pinv(self, rank):
        a = spd(np.random.default_rng(rank), 5, rank)
        np.testing.assert_array_equal(
            inverse(a), np.linalg.pinv(a, rcond=1.0 / CONDITION_LIMIT)
        )

    def test_past_the_limit_drops_the_tiny_direction(self):
        a = np.diag([1.0, 1.0, 1e-14])
        assert np.isfinite(np.linalg.inv(a)).all()  # not singular to LAPACK
        np.testing.assert_array_equal(inverse(a), np.diag([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_gives_nan(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        assert np.isnan(inverse(a)).all()

    def test_moment_inverse(self):
        rng = np.random.default_rng(1)
        components = rng.normal(size=(9, 3))
        expected = np.linalg.inv(components.T @ components + 0.5 * np.eye(3))
        assert np.array_equal(moment_inverse(components, 0.5), expected)


class TestLeastSquaresProjector:
    def test_full_rank_is_bitwise_the_normal_equations(self):
        components = np.random.default_rng(2).normal(size=(10, 4))
        expected = components @ np.linalg.inv(components.T @ components)
        assert np.array_equal(ls_projector(components), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        n_cols=st.integers(4, 15),
        d=st.integers(2, 4),
        rank=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_rank_deficient_is_orthogonal_projector_onto_span(
        self, n_cols, d, rank, seed
    ):
        rank = min(rank, d - 1)
        rng = np.random.default_rng(seed)
        components = rng.normal(size=(n_cols, rank)) @ rng.normal(size=(rank, d))
        projector = ls_projector(components) @ components.T
        assert np.isfinite(projector).all()
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-9)
        np.testing.assert_allclose(projector, projector.T, atol=1e-9)
        # Onto span(C): it fixes C and has trace equal to rank(C).
        np.testing.assert_allclose(projector @ components, components, atol=1e-9)
        assert np.trace(projector) == pytest.approx(rank, abs=1e-9)


def test_log_density_matches_the_dense_gaussian():
    rng = np.random.default_rng(3)
    components = rng.normal(size=(7, 2))
    noise = 0.3
    centered = rng.normal(size=(5, 7))
    covariance = components @ components.T + noise * np.eye(7)
    sign, logdet = np.linalg.slogdet(covariance)
    expected = -0.5 * (
        7 * np.log(2.0 * np.pi)
        + logdet
        + np.einsum("ij,jk,ik->i", centered, np.linalg.inv(covariance), centered)
    )
    density = ppca_log_density(
        np.einsum("ij,ij->i", centered, centered),
        centered @ components,
        components,
        noise,
    )
    assert sign > 0
    np.testing.assert_allclose(density, expected, rtol=1e-12)


class TestCheckEMState:
    def test_finite_state_passes(self):
        check_em_state(1, np.ones((4, 2)), 0.5)

    def test_non_finite_noise_names_iteration(self):
        with pytest.raises(DataError, match=r"iteration 3 .*noise variance"):
            check_em_state(3, np.ones((4, 2)), float("nan"))

    def test_non_finite_components_name_iteration(self):
        components = np.ones((4, 2))
        components[2, 1] = np.inf
        with pytest.raises(DataError, match=r"iteration 2 .*components"):
            check_em_state(2, components, 0.5)
