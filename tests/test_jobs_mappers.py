"""Unit tests for the sPCA and SSVD MapReduce mappers, run standalone."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine.mapreduce.api import TaskContext
from repro.jobs import mapreduce_jobs as mr
from repro.jobs import specs, ssvd_jobs


@pytest.fixture
def block():
    return sp.random(30, 20, density=0.25, random_state=3, format="csr")


@pytest.fixture
def dense_block(block):
    return np.asarray(block.todense())


def run_mapper(mapper, records, config):
    """One map task as the runtime runs it: setup, map_batch, cleanup."""
    ctx = TaskContext("test", 0, dict(config))
    mapper.setup(ctx)
    out = list(mapper.map_batch(records, ctx))
    out.extend(mapper.cleanup(ctx))
    return dict(out), ctx


# The sPCA jobs run through one mapper, the MapReduce lowering of their
# specs; tests/test_job_specs.py checks every spec's result on every engine.


class TestMeanMapper:
    def test_emits_sums_and_count_once(self, block):
        out, _ = run_mapper(
            mr.SpecMapper(specs.MEAN), [(0, block), (30, block)], {}
        )
        np.testing.assert_allclose(
            out[specs.KEY_SUMS], 2 * np.asarray(block.sum(axis=0)).ravel()
        )
        assert out[specs.KEY_COUNT] == 60

    def test_empty_input_emits_nothing(self):
        out, _ = run_mapper(mr.SpecMapper(specs.MEAN), [], {})
        assert out == {}


class TestFnormMapper:
    def test_accumulates_across_records(self, block):
        mean = np.asarray(block.mean(axis=0)).ravel()
        out, _ = run_mapper(
            mr.SpecMapper(specs.FNORM), [(0, block), (30, block)],
            {"mean": mean, "efficient": True},
        )
        from repro.linalg import frobenius_centered_dense

        assert out[specs.KEY_FNORM] == pytest.approx(
            2 * frobenius_centered_dense(block, mean)
        )


class TestYtXMapper:
    def make_config(self, block, mean_prop):
        rng = np.random.default_rng(5)
        mean = np.asarray(block.mean(axis=0)).ravel()
        projector = rng.normal(size=(block.shape[1], 3))
        return {
            "mean": mean,
            "projector": projector,
            "latent_mean": mean @ projector,
            "mean_propagation": mean_prop,
        }

    def check_protocol(self, out, dense_block, config):
        assert set(out) == {specs.KEY_YTX_DATA, specs.KEY_XSUM, specs.KEY_XTX}
        ytx, _ = specs.YTX.finish(out, config)
        centered = dense_block - config["mean"]
        latent = centered @ config["projector"]
        np.testing.assert_allclose(ytx, centered.T @ latent, atol=1e-9)

    def test_sparse_protocol_emits_data_and_xsum(self, block):
        config = self.make_config(block, True)
        out, _ = run_mapper(mr.SpecMapper(specs.YTX), [(0, block)], config)
        self.check_protocol(out, np.asarray(block.todense()), config)

    def test_dense_input_ships_data_product_and_xsum(self, dense_block):
        # Dense blocks take the same protocol: the driver corrects once.
        config = self.make_config(sp.csr_matrix(dense_block), True)
        out, _ = run_mapper(mr.SpecMapper(specs.YTX), [(0, dense_block)], config)
        self.check_protocol(out, dense_block, config)

    def test_naive_mapper_emits_per_record(self, block):
        config = self.make_config(block, True)
        out = list(
            mr.SpecMapper(specs.YTX, per_record=True).map_batch(
                [(0, block), (30, block)], TaskContext("test", 0, dict(config))
            )
        )
        keys = [key for key, _ in out]
        assert keys.count(specs.KEY_YTX_DATA) == 2
        assert keys.count(specs.KEY_XTX) == 2


class TestXMaterializeMapper:
    def test_emits_latent_block_under_same_key(self, block):
        rng = np.random.default_rng(6)
        mean = np.asarray(block.mean(axis=0)).ravel()
        projector = rng.normal(size=(20, 3))
        config = {
            "mean": mean,
            "projector": projector,
            "latent_mean": mean @ projector,
            "mean_propagation": True,
        }
        out, _ = run_mapper(mr.LatentMapper(), [(7, block)], config)
        assert out[7].shape == (30, 3)


class TestSSVDMappers:
    def test_sketch_mapper_centers_via_mean(self, block):
        rng = np.random.default_rng(7)
        test_matrix = rng.normal(size=(20, 5))
        mean = np.asarray(block.mean(axis=0)).ravel()
        out, _ = run_mapper(
            ssvd_jobs.SketchMapper(), [(0, block)],
            {"test_matrix": test_matrix, "mean": mean},
        )
        expected = (np.asarray(block.todense()) - mean) @ test_matrix
        np.testing.assert_allclose(out[0], expected, atol=1e-10)

    def test_bt_mapper_partials_sum_to_projection(self, block):
        rng = np.random.default_rng(8)
        q_block = rng.normal(size=(30, 4))
        mean = np.asarray(block.mean(axis=0)).ravel()
        ctx = TaskContext("bt", 0, {"mean": mean})
        mapper = ssvd_jobs.BtMapper()
        mapper.setup(ctx)
        partials = list(mapper.map(0, (q_block, block), ctx))
        partials.extend(mapper.cleanup(ctx))
        total = None
        for _, partial in partials:
            dense = np.asarray(partial.todense()) if sp.issparse(partial) else partial
            total = dense if total is None else total + dense
        centered = np.asarray(block.todense()) - mean
        np.testing.assert_allclose(total, q_block.T @ centered, atol=1e-9)
        # One partial per row plus the mean-correction record.
        assert len(partials) == 31

    def test_bt_mapper_dense_rows(self, dense_block):
        rng = np.random.default_rng(9)
        q_block = rng.normal(size=(30, 4))
        ctx = TaskContext("bt", 0, {"mean": None})
        mapper = ssvd_jobs.BtMapper()
        mapper.setup(ctx)
        partials = list(mapper.map(0, (q_block, dense_block), ctx))
        total = sum(p for _, p in partials)
        np.testing.assert_allclose(total, q_block.T @ dense_block, atol=1e-9)

    def test_project_mapper(self, block):
        rng = np.random.default_rng(10)
        bt = rng.normal(size=(20, 4))
        mean = np.asarray(block.mean(axis=0)).ravel()
        out, _ = run_mapper(
            ssvd_jobs.ProjectMapper(), [(0, block)], {"bt": bt, "mean": mean}
        )
        expected = (np.asarray(block.todense()) - mean) @ bt
        np.testing.assert_allclose(out[0], expected, atol=1e-10)
