"""The sPCA driver on the sequential backend must match reference PPCA/SVD."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import SequentialBackend
from repro.core import SPCA, SPCAConfig, fit_ppca
from repro.errors import ConfigError, ShapeError
from repro.metrics import ideal_accuracy, reconstruction_error, subspace_angle_degrees


def lowrank_data(n=300, d_cols=20, rank=4, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(n, rank))
    loadings = rng.normal(size=(rank, d_cols)) * np.sqrt(np.arange(rank, 0, -1))[:, None]
    return factors @ loadings + noise * rng.normal(size=(n, d_cols)) + rng.normal(size=d_cols)


def exact_basis(data, k):
    centered = data - np.asarray(data.mean(axis=0)).ravel()
    if sp.issparse(centered):
        centered = np.asarray(centered)
    _, _, vt = np.linalg.svd(np.asarray(centered), full_matrices=False)
    return vt[:k].T


@pytest.fixture
def config():
    return SPCAConfig(n_components=4, max_iterations=100, tolerance=1e-9, seed=1)


def test_spca_recovers_subspace(config):
    data = lowrank_data()
    model, history = SPCA(config).fit(data)
    assert subspace_angle_degrees(model.basis, exact_basis(data, 4)) < 1.0
    assert history.n_iterations >= 1


def test_spca_matches_reference_ppca(config):
    # Same seed, same initialization path => identical trajectories.
    data = lowrank_data(seed=3)
    cfg = config.with_options(max_iterations=7, tolerance=0.0, seed=42,
                              compute_error_every_iteration=False)
    model, _ = SPCA(cfg).fit(data)
    reference = fit_ppca(data, 4, max_iterations=7, tolerance=0.0, seed=42)
    np.testing.assert_allclose(model.components, reference.components, atol=1e-8)
    assert model.noise_variance == pytest.approx(reference.noise_variance, rel=1e-8)


def test_spca_sparse_input(config):
    matrix = sp.random(200, 30, density=0.2, random_state=5, format="csr")
    model, history = SPCA(config.with_options(max_iterations=40)).fit(matrix)
    dense_basis = exact_basis(np.asarray(matrix.todense()), 4)
    assert subspace_angle_degrees(model.basis, dense_basis) < 5.0
    assert history.final_accuracy is not None


def test_spca_error_decreases(config):
    data = lowrank_data(seed=6)
    _, history = SPCA(config.with_options(max_iterations=20, tolerance=0.0)).fit(data)
    errors = [s.error for s in history.iterations]
    assert errors[-1] < errors[0]


def test_spca_stops_at_target_accuracy():
    data = lowrank_data(seed=7, noise=0.01)
    ideal = ideal_accuracy(data, 4)
    cfg = SPCAConfig(
        n_components=4, max_iterations=50, tolerance=0.0, target_accuracy=0.95,
        ideal_accuracy=ideal, seed=2,
    )
    _, history = SPCA(cfg).fit(data)
    assert history.stop_reason == "target_accuracy"
    assert history.final_accuracy >= 0.95 * ideal
    assert history.n_iterations < 50


def test_spca_stops_on_tolerance():
    data = lowrank_data(seed=8)
    cfg = SPCAConfig(n_components=4, max_iterations=500, tolerance=1e-7, seed=3)
    _, history = SPCA(cfg).fit(data)
    assert history.stop_reason in ("tolerance", "target_accuracy")
    assert history.n_iterations < 500


def test_spca_smart_init_starts_closer_to_the_subspace():
    # After a single full-data EM iteration, the warm-started run should be
    # much closer to the true subspace than the random-initialized one.
    data = lowrank_data(n=800, seed=9)
    exact = exact_basis(data, 4)
    base = SPCAConfig(n_components=4, max_iterations=1, tolerance=0.0, seed=4,
                      compute_error_every_iteration=False)
    cold_model, _ = SPCA(base).fit(data)
    warm_model, _ = SPCA(base.with_options(smart_init=True, smart_init_fraction=0.1,
                                           smart_init_iterations=50)).fit(data)
    cold_angle = subspace_angle_degrees(cold_model.basis, exact)
    warm_angle = subspace_angle_degrees(warm_model.basis, exact)
    assert warm_angle < cold_angle


def test_spca_ablations_produce_same_model():
    data = sp.random(150, 25, density=0.25, random_state=11, format="csr")
    base = SPCAConfig(n_components=3, max_iterations=8, tolerance=0.0, seed=5,
                      compute_error_every_iteration=False)
    model_opt, _ = SPCA(base).fit(data)
    for flags in (
        {"use_mean_propagation": False},
        {"use_efficient_frobenius": False},
        {"use_x_recomputation": False},
        {"use_job_consolidation": False},
    ):
        model_abl, _ = SPCA(base.with_options(**flags)).fit(data)
        np.testing.assert_allclose(
            model_abl.components, model_opt.components, atol=1e-8,
            err_msg=f"ablation {flags} changed the result",
        )


def test_spca_fully_unoptimized_same_model():
    data = sp.random(100, 20, density=0.3, random_state=13, format="csr")
    base = SPCAConfig(n_components=2, max_iterations=5, tolerance=0.0, seed=6,
                      compute_error_every_iteration=False)
    model_opt, _ = SPCA(base).fit(data)
    model_unopt, _ = SPCA(base.unoptimized()).fit(data)
    np.testing.assert_allclose(model_unopt.components, model_opt.components, atol=1e-8)


def test_spca_rejects_too_many_components():
    with pytest.raises(ShapeError):
        SPCA(SPCAConfig(n_components=10)).fit(np.ones((5, 5)))


@pytest.mark.parametrize("backend", ["sequential", "mapreduce", "spark", object()])
def test_non_backend_raises_config_error_naming_its_type(backend):
    # An engine name is not a Backend: it must be constructed first.
    with pytest.raises(ConfigError, match=f"got {type(backend).__name__}"):
        SPCA(SPCAConfig(n_components=2), backend=backend)


def test_history_timeline_and_time_to_accuracy(config):
    data = lowrank_data(seed=14)
    _, history = SPCA(config.with_options(max_iterations=15, tolerance=0.0)).fit(data)
    timeline = history.accuracy_timeline(simulated=False)
    assert len(timeline) == history.n_iterations
    times = [t for t, _ in timeline]
    assert times == sorted(times)
    final_accuracy = history.final_accuracy
    assert history.time_to_accuracy(final_accuracy * 0.5, simulated=False) is not None
    assert history.time_to_accuracy(1.1, simulated=False) is None


def test_error_sampling_approximates_full_error():
    data = lowrank_data(n=2000, seed=15)
    cfg = SPCAConfig(n_components=4, max_iterations=10, tolerance=0.0, seed=7,
                     error_sample_fraction=0.2)
    model, history = SPCA(cfg).fit(data)
    full = reconstruction_error(data, model.components, model.mean)
    sampled = history.iterations[-1].error
    assert sampled == pytest.approx(full, abs=0.05)
