"""Edge cases and invariances of the core algorithms."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
from repro.core import SPCA, SPCAConfig, fit_ppca
from repro.core.checkpoint import HDFSCheckpointStore
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce.hdfs import InMemoryHDFS
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.errors import DataError, ShapeError
from repro.metrics import subspace_angle_degrees
from repro.stream.runner import StreamConfig, StreamingPCA
from repro.stream.source import MatrixSource

ENGINES = ("sequential", "mapreduce", "spark")
STOP_REASONS = {"max_iterations", "tolerance", "target_accuracy"}


def make_backend(engine, config, partitions=4):
    """*engine*'s backend cutting the rows into *partitions* one-record splits."""
    if engine == "sequential":
        return SequentialBackend(config, num_blocks=partitions)
    cluster = ClusterSpec(num_nodes=1, cores_per_node=partitions)
    if engine == "mapreduce":
        return MapReduceBackend(config, runtime=MapReduceRuntime(cluster=cluster))
    return SparkBackend(config, context=SparkContext(cluster=cluster))


class TestDegenerateInputs:
    def test_all_zero_matrix(self):
        model = fit_ppca(np.zeros((20, 6)), 2, max_iterations=10, seed=0)
        assert np.isfinite(model.components).all()
        assert model.noise_variance >= 0.0

    def test_constant_columns(self):
        data = np.ones((30, 5)) * np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        model = fit_ppca(data, 2, max_iterations=10, seed=1)
        # Centered data is exactly zero: reconstruction is the mean.
        np.testing.assert_allclose(model.reconstruct(data), data, atol=1e-6)

    def test_single_informative_direction(self):
        rng = np.random.default_rng(2)
        direction = rng.normal(size=8)
        data = np.outer(rng.normal(size=100), direction)
        model = fit_ppca(data, 1, max_iterations=100, tolerance=1e-12, seed=3)
        angle = subspace_angle_degrees(model.basis, direction.reshape(-1, 1))
        assert angle < 0.5

    def test_d_equals_min_dimension(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 10))
        model = fit_ppca(data, 6, max_iterations=20, seed=5)
        assert model.components.shape == (10, 6)

    def test_more_columns_than_rows(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(15, 60))
        model, history = SPCA(
            SPCAConfig(n_components=3, max_iterations=10, seed=7)
        ).fit(data)
        assert model.components.shape == (60, 3)
        assert history.n_iterations >= 1

    def test_single_row_rejected_for_multi_component(self):
        with pytest.raises(ShapeError):
            fit_ppca(np.ones((1, 5)), 2)

    def test_spca_on_tiny_sparse(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 2.0]]))
        model, _ = SPCA(SPCAConfig(n_components=1, max_iterations=5, seed=8)).fit(matrix)
        assert model.components.shape == (2, 1)


def _constant(rng):
    return np.tile(rng.normal(size=10), (40, 1)), 3, 4


def _rank_two_with_five_components(rng):
    return rng.normal(size=(60, 2)) @ rng.normal(size=(2, 12)), 5, 4


def _zero_variance_column(rng):
    data = rng.normal(size=(60, 10))
    data[:, 4] = 3.0
    return data, 3, 4


def _one_record_per_split(rng):
    return rng.normal(size=(16, 8)), 2, 16


def _more_partitions_than_rows(rng):
    return rng.normal(size=(6, 8)), 2, 32


DEGENERATE = {
    "constant": _constant,
    "rank2-d5": _rank_two_with_five_components,
    "zero-variance-column": _zero_variance_column,
    "one-record-per-split": _one_record_per_split,
    "more-partitions-than-rows": _more_partitions_than_rows,
}


@pytest.mark.parametrize("fmt", ["dense", "csr"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_input_fits_finish_on_every_engine(case, engine, fmt):
    # The default config runs the per-iteration error job, whose least-squares
    # projector used to raise LinAlgError on a rank-deficient C.
    data, d, partitions = DEGENERATE[case](np.random.default_rng(30))
    if fmt == "csr":
        data = sp.csr_matrix(data)
    config = SPCAConfig(n_components=d, seed=31)
    model, history = SPCA(config, make_backend(engine, config, partitions)).fit(data)
    assert np.isfinite(model.components).all()
    assert np.isfinite(model.noise_variance)
    assert history.stop_reason in STOP_REASONS
    assert np.isfinite(model.transform(data)).all()
    assert np.isfinite(model.project(data)).all()


# Planted data: d directions with singular values >= SIGNAL * sqrt(N) over a
# noise floor of about NOISE * (sqrt(N) + sqrt(D)), so the spectral gap
# sigma_d / sigma_{d+1} is at least GAP (checked on every draw).  EM then
# contracts the subspace error by about GAP^-2 per iteration, and
# ORACLE_ITERATIONS iterations leave it far below ORACLE_BOUND_DEGREES.
SIGNAL = 3.0
NOISE = 0.05
GAP = 20.0
ORACLE_ITERATIONS = 15
ORACLE_BOUND_DEGREES = 0.01


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_rows=st.integers(40, 150),
    n_cols=st.integers(6, 20),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_every_engine_recovers_the_svd_subspace(n_rows, n_cols, d, seed):
    rng = np.random.default_rng(seed)
    directions, _ = np.linalg.qr(rng.normal(size=(n_cols, d)))
    latent, _ = np.linalg.qr(rng.normal(size=(n_rows, d)))
    scales = SIGNAL * np.sqrt(n_rows) * rng.uniform(1.0, 3.0, size=d)
    data = (latent * scales) @ directions.T + 5.0 + NOISE * rng.normal(
        size=(n_rows, n_cols)
    )
    _, singular, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    assert singular[d - 1] >= GAP * singular[d]
    oracle = vt[:d].T
    config = SPCAConfig(
        n_components=d, max_iterations=ORACLE_ITERATIONS, tolerance=0.0,
        seed=seed % 1000, compute_error_every_iteration=False,
    )
    for engine in ENGINES:
        model, _ = SPCA(config, make_backend(engine, config)).fit(data)
        angle = subspace_angle_degrees(model.basis, oracle)
        assert angle < ORACLE_BOUND_DEGREES, (engine, angle)


class TestInvariances:
    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 12))
        permutation = rng.permutation(12)
        config = SPCAConfig(n_components=3, max_iterations=50, tolerance=1e-10,
                            seed=10, compute_error_every_iteration=False)
        base, _ = SPCA(config).fit(data)
        permuted, _ = SPCA(config).fit(data[:, permutation])
        # The recovered subspaces relate by the same column permutation.
        angle = subspace_angle_degrees(base.basis[permutation], permuted.basis)
        assert angle < 1.0

    def test_row_shuffle_invariance(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(150, 4)) @ rng.normal(size=(4, 10))
        config = SPCAConfig(n_components=2, max_iterations=60, tolerance=1e-10,
                            seed=12, compute_error_every_iteration=False)
        base, _ = SPCA(config).fit(data)
        shuffled, _ = SPCA(config).fit(data[rng.permutation(150)])
        assert subspace_angle_degrees(base.basis, shuffled.basis) < 1.0

    def test_global_scaling_scales_components_subspace(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(120, 4)) @ rng.normal(size=(4, 9))
        config = SPCAConfig(n_components=2, max_iterations=60, tolerance=1e-10,
                            seed=14, compute_error_every_iteration=False)
        base, _ = SPCA(config).fit(data)
        scaled, _ = SPCA(config).fit(7.5 * data)
        assert subspace_angle_degrees(base.basis, scaled.basis) < 1.0

    def test_block_count_does_not_change_result(self):
        matrix = sp.random(90, 14, density=0.3, random_state=15, format="csr")
        config = SPCAConfig(n_components=2, max_iterations=6, tolerance=0.0,
                            seed=16, compute_error_every_iteration=False)
        few, _ = SPCA(config, SequentialBackend(config, num_blocks=2)).fit(matrix)
        many, _ = SPCA(config, SequentialBackend(config, num_blocks=30)).fit(matrix)
        np.testing.assert_allclose(few.components, many.components, atol=1e-9)


class TestNumericalStability:
    def test_huge_value_scale(self):
        rng = np.random.default_rng(17)
        data = 1e8 * (rng.normal(size=(80, 3)) @ rng.normal(size=(3, 8)))
        model = fit_ppca(data, 2, max_iterations=50, seed=18)
        assert np.isfinite(model.components).all()
        assert np.isfinite(model.noise_variance)

    def test_tiny_value_scale(self):
        rng = np.random.default_rng(19)
        data = 1e-8 * (rng.normal(size=(80, 3)) @ rng.normal(size=(3, 8)))
        model = fit_ppca(data, 2, max_iterations=50, seed=20)
        assert np.isfinite(model.components).all()

    def test_noise_free_exact_lowrank(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(100, 2)) @ rng.normal(size=(2, 10))
        model = fit_ppca(data, 2, max_iterations=200, tolerance=1e-14, seed=22)
        # Residual variance collapses towards zero without blowing up EM.
        assert model.noise_variance < 1e-6
        centered = data - data.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        assert subspace_angle_degrees(model.basis, vt[:2].T) < 0.5


class TestSparseFormatTolerance:
    def test_coo_and_csc_inputs_accepted(self):
        import scipy.sparse as sp

        from repro.core import SPCA, SPCAConfig

        base = sp.random(80, 12, density=0.3, random_state=23, format="coo")
        config = SPCAConfig(n_components=2, max_iterations=4, tolerance=0.0,
                            seed=24, compute_error_every_iteration=False)
        from_coo, _ = SPCA(config).fit(base.tocoo())
        from_csc, _ = SPCA(config).fit(base.tocsc())
        from_csr, _ = SPCA(config).fit(base.tocsr())
        import numpy as np

        np.testing.assert_allclose(from_coo.components, from_csr.components, atol=1e-9)
        np.testing.assert_allclose(from_csc.components, from_csr.components, atol=1e-9)


class TestNonFiniteInput:
    ENGINES = {
        "sequential": SequentialBackend,
        "mapreduce": MapReduceBackend,
        "spark": SparkBackend,
    }
    CONFIG = SPCAConfig(n_components=2, max_iterations=3, seed=25)

    @staticmethod
    def poisoned(fmt, bad_value):
        rng = np.random.default_rng(26)
        data = rng.normal(size=(40, 9))
        data[7, 3] = bad_value
        return sp.csr_matrix(data) if fmt == "csr" else data

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_fit_names_the_entry(self, engine, fmt, bad_value):
        backend = self.ENGINES[engine](self.CONFIG)
        with pytest.raises(DataError, match=r"row 7, column 3"):
            SPCA(self.CONFIG, backend).fit(self.poisoned(fmt, bad_value))

    def test_resume_checks_too(self):
        store = HDFSCheckpointStore(InMemoryHDFS(), "/ckpt")
        clean = self.poisoned("dense", 0.0)
        SPCA(self.CONFIG).fit(clean, checkpoint=store)
        with pytest.raises(DataError, match=r"row 7, column 3"):
            SPCA(self.CONFIG).resume(self.poisoned("dense", -np.inf), store)

    def test_overflowing_sum_of_finite_entries_passes(self):
        from repro.linalg.stats import check_finite

        huge = np.full((4, 3), np.finfo(np.float64).max)
        check_finite(huge)
        check_finite(sp.csr_matrix(huge))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestOverflowFailsLoudly:
    """Finite input whose squares overflow float64 raises instead of
    returning a NaN model with ``stop_reason="max_iterations"``."""

    @staticmethod
    def overflowing():
        return 1e160 * np.random.default_rng(32).normal(size=(60, 8))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_spca(self, engine):
        config = SPCAConfig(n_components=2, seed=33)
        with pytest.raises(DataError, match=r"iteration 1 .*noise variance"):
            SPCA(config, make_backend(engine, config)).fit(self.overflowing())

    def test_fit_ppca(self):
        with pytest.raises(DataError, match=r"iteration 1 .*noise variance"):
            fit_ppca(self.overflowing(), 2, seed=34)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stream(self, engine):
        stream = StreamingPCA(StreamConfig(n_components=2, window=20), engine)
        with pytest.raises(DataError, match=r"iteration 1 .*noise variance"):
            stream.run(MatrixSource(self.overflowing(), chunk_rows=7))

    def test_large_but_representable_scale_still_fits(self):
        model = fit_ppca(1e150 * np.random.default_rng(32).normal(size=(60, 8)), 2)
        assert np.isfinite(model.components).all()


@pytest.mark.parametrize("fmt", ["dense", "csr"])
@pytest.mark.parametrize("engine", ENGINES)
def test_stream_names_the_global_row_of_a_non_finite_entry(engine, fmt):
    data = np.random.default_rng(35).normal(size=(120, 9))
    data[77, 5] = np.nan
    if fmt == "csr":
        data = sp.csr_matrix(data)
    stream = StreamingPCA(StreamConfig(n_components=2, window=25), engine)
    # Chunks of 13 rows put row 77 at offset 12 of the sixth chunk.
    with pytest.raises(DataError, match=r"row 77, column 5"):
        stream.run(MatrixSource(data, chunk_rows=13))
