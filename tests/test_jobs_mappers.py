"""Unit tests for the sPCA and SSVD MapReduce mappers, run standalone."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine.mapreduce.api import TaskContext
from repro.jobs import mapreduce_jobs as mr
from repro.jobs import ssvd_jobs


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


class TestMeanMapper:
    def test_emits_sums_and_count_once(self, block):
        out, _ = run_mapper(mr.MeanMapper(), [(0, block), (30, block)], {})
        np.testing.assert_allclose(
            out[mr.KEY_SUMS], 2 * np.asarray(block.sum(axis=0)).ravel()
        )
        assert out[mr.KEY_COUNT] == 60

    def test_empty_input_emits_nothing(self):
        out, _ = run_mapper(mr.MeanMapper(), [], {})
        assert out == {}


class TestFnormMapper:
    def test_accumulates_across_records(self, block):
        mean = np.asarray(block.mean(axis=0)).ravel()
        out, _ = run_mapper(
            mr.FnormMapper(), [(0, block)], {"mean": mean, "efficient": True}
        )
        from repro.linalg import frobenius_centered_dense

        assert out[mr.KEY_FNORM] == pytest.approx(frobenius_centered_dense(block, mean))


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

    def test_sparse_protocol_emits_data_and_xsum(self, block):
        config = self.make_config(block, True)
        out, ctx = run_mapper(mr.YtXMapper(), [(0, block)], config)
        assert mr.KEY_XTX in out
        assert mr.KEY_YTX_DATA in out or mr.KEY_YTX in out
        assert ctx.counters["ytx/rows"] == 30
        if mr.KEY_YTX_DATA in out:
            data_product = out[mr.KEY_YTX_DATA]
            if sp.issparse(data_product):
                data_product = np.asarray(data_product.todense())
            xsum = np.asarray(out[mr.KEY_XSUM]).ravel()
            reconstructed = np.asarray(data_product) - np.outer(config["mean"], xsum)
            centered = np.asarray(block.todense()) - config["mean"]
            latent = centered @ config["projector"]
            np.testing.assert_allclose(reconstructed, centered.T @ latent, atol=1e-9)

    def test_dense_input_uses_corrected_protocol(self, dense_block):
        config = self.make_config(sp.csr_matrix(dense_block), True)
        out, _ = run_mapper(mr.YtXMapper(), [(0, dense_block)], config)
        assert mr.KEY_YTX in out
        centered = dense_block - config["mean"]
        latent = centered @ config["projector"]
        np.testing.assert_allclose(out[mr.KEY_YTX], centered.T @ latent, atol=1e-9)

    def test_naive_mapper_emits_per_record(self, block):
        config = self.make_config(block, True)
        ctx = TaskContext("test", 0, dict(config))
        mapper = mr.NaiveYtXMapper()
        mapper.setup(ctx)
        emitted = list(mapper.map(0, block, ctx)) + list(mapper.map(30, block, ctx))
        keys = [key for key, _ in emitted]
        assert keys.count(mr.KEY_YTX) == 2
        assert keys.count(mr.KEY_XTX) == 2
        assert list(mapper.cleanup(ctx)) == []


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
        out, _ = run_mapper(mr.XMaterializeMapper(), [(7, block)], config)
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
