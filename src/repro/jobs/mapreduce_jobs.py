"""The sPCA MapReduce jobs of Section 4.1.

Input records are ``(start_row, block)`` pairs where *block* is a CSR or
dense row block.  Each sPCA mapper implements ``map_batch`` only, so it sees
its whole split in one call; ``NaiveYtXMapper`` alone keeps a per-record
``map``, because per-record emission is the ablation it models.  Small
matrices (Ym, CM, Xm, C) travel in the job configuration -- the simulator's
stand-in for Hadoop's DistributedCache.

The YtX mapper demonstrates the paper's *stateful combiner*: instead of
emitting a dense partial matrix per input record (which would swamp the
combiners -- the failure mode the paper measures in Mahout's Bt job), it
keeps in-memory partial sums ``XtX-p``/``YtX-p`` across its whole split and
writes them once from ``cleanup``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.mapreduce.api import Mapper, Reducer
from repro.jobs import kernels
from repro.linalg.stats import sample_rows

KEY_SUMS = "mean/sums"
KEY_COUNT = "mean/count"
KEY_FNORM = "fnorm"
KEY_YTX = "YtX"
KEY_YTX_DATA = "YtX/data"
KEY_XSUM = "YtX/xsum"
KEY_XTX = "XtX"
KEY_SS3 = "ss3"
KEY_RESIDUAL = "error/residual"
KEY_MAGNITUDE = "error/magnitude"


class MatrixSumReducer(Reducer):
    """Sums numpy partials per key (works as combiner and reducer)."""

    def reduce(self, key, values, ctx):
        total = values[0]
        for value in values[1:]:
            total = total + value
        yield key, total


class MeanMapper(Mapper):
    """meanJob: per-split column sums and row counts, emitted from cleanup."""

    def setup(self, ctx):
        self.sums = None
        self.count = 0

    def map_batch(self, records, ctx):
        if records:
            stacked = kernels.stack_blocks([value for _, value in records])
            sums, rows = kernels.block_sums(stacked)
            self.sums = sums if self.sums is None else self.sums + sums
            self.count += rows
        return []

    def cleanup(self, ctx):
        if self.sums is not None:
            yield KEY_SUMS, self.sums
            yield KEY_COUNT, self.count


class FnormMapper(Mapper):
    """FnormJob: per-split share of ||Yc||_F^2.

    Config: ``mean`` (Ym), ``efficient`` (Algorithm 3 vs Algorithm 2).
    """

    def setup(self, ctx):
        self.total = 0.0

    def map_batch(self, records, ctx):
        if records:
            stacked = kernels.stack_blocks([value for _, value in records])
            self.total += kernels.block_frobenius(
                stacked, ctx.config["mean"], ctx.config["efficient"]
            )
        return []

    def cleanup(self, ctx):
        yield KEY_FNORM, self.total


class YtXMapper(Mapper):
    """The consolidated YtXJob mapper with a stateful combiner.

    Config: ``mean``, ``projector`` (CM), ``latent_mean`` (Xm),
    ``mean_propagation``.  Input values are either plain Y blocks or, in the
    materialized-X ablation, ``(y_block, x_block)`` pairs.

    With mean propagation the mapper ships the *sparse* data product
    ``Y_blk' X_blk`` plus a small d-vector of latent column sums; the driver
    applies the dense mean correction ``Ym (x) colsum(X)`` once.  This keeps
    mapper output proportional to the block's non-zero columns -- the reason
    sPCA's mapper output stays moderate where Mahout's explodes
    (Section 5.2).
    """

    def setup(self, ctx):
        self.ytx_partial = None
        self.xsum_partial = None
        self.xtx_partial = None

    def map_batch(self, records, ctx):
        import scipy.sparse as sp

        if not records:
            return []
        block, latent = _stack_split(records)
        config = ctx.config
        mean_prop = config["mean_propagation"]
        if mean_prop and sp.issparse(block):
            if latent is None:
                latent = kernels.block_latent(
                    block, config["mean"], config["projector"],
                    config["latent_mean"], True,
                )
            ytx = (block.T @ sp.csr_matrix(latent)).tocsr()
            xtx = latent.T @ latent
            self.xsum_partial = (
                latent.sum(axis=0)
                if self.xsum_partial is None
                else self.xsum_partial + latent.sum(axis=0)
            )
        else:
            ytx, xtx = kernels.block_ytx_xtx(
                block, config["mean"], config["projector"],
                config["latent_mean"], mean_prop, latent=latent,
            )
        ctx.increment("ytx/rows", block.shape[0])
        self.ytx_partial = ytx if self.ytx_partial is None else self.ytx_partial + ytx
        self.xtx_partial = xtx if self.xtx_partial is None else self.xtx_partial + xtx
        return []

    def cleanup(self, ctx):
        import scipy.sparse as sp

        if self.ytx_partial is None:
            return
        if self.xsum_partial is not None:
            partial = self.ytx_partial
            if sp.issparse(partial):
                dense_bytes = partial.shape[0] * partial.shape[1] * 8
                sparse_bytes = (
                    partial.data.nbytes + partial.indices.nbytes + partial.indptr.nbytes
                )
                if sparse_bytes >= dense_bytes:
                    # Saturated split: dense is the smaller encoding.
                    partial = np.asarray(partial.todense())
            yield KEY_YTX_DATA, partial
            yield KEY_XSUM, self.xsum_partial
        else:
            yield KEY_YTX, self.ytx_partial
        yield KEY_XTX, self.xtx_partial


class NaiveYtXMapper(Mapper):
    """Ablation of the stateful combiner: one dense partial per record.

    This is how a straightforward port would behave -- and why Mahout's
    mappers produced 4 TB of output on the Tweets dataset (Section 5.2).
    """

    # Per-record emission is the entire point of this ablation: it models
    # the pre-optimization dataflow that YtXMapper's cleanup combiner fixes.
    def map(self, key, value, ctx):  # repro-lint: disable=DF004
        block, latent = _split_value(value)
        ytx, xtx = kernels.block_ytx_xtx(
            block,
            ctx.config["mean"],
            ctx.config["projector"],
            ctx.config["latent_mean"],
            ctx.config["mean_propagation"],
            latent=latent,
        )
        yield KEY_YTX, ytx
        yield KEY_XTX, xtx


class XMaterializeMapper(Mapper):
    """Ablation of X recomputation: write the latent matrix X to HDFS.

    Map-only job whose output -- the N x d matrix X in blocks -- is exactly
    the intermediate data sPCA's redundant-recomputation design avoids
    (Section 3.2: "nearly 500 GB of intermediate data").
    """

    def map_batch(self, records, ctx):
        # Output is keyed per record (downstream joins X blocks back to
        # their Y blocks by start row), so each record keeps its own kernel
        # call.
        config = ctx.config
        return [
            (
                key,
                kernels.block_latent(
                    value, config["mean"], config["projector"],
                    config["latent_mean"], config["mean_propagation"],
                ),
            )
            for key, value in records
        ]


class SS3Mapper(Mapper):
    """ss3Job: per-split share of ``sum_n X_n * C' * Yc_n'``.

    Config adds ``components`` (the freshly updated C).
    """

    def setup(self, ctx):
        self.total = 0.0

    def map_batch(self, records, ctx):
        if records:
            block, latent = _stack_split(records)
            self.total += kernels.block_ss3(
                block,
                ctx.config["mean"],
                ctx.config["projector"],
                ctx.config["latent_mean"],
                ctx.config["components"],
                ctx.config["mean_propagation"],
                latent=latent,
            )
        return []

    def cleanup(self, ctx):
        yield KEY_SS3, self.total


class ErrorMapper(Mapper):
    """Reconstruction-error job over a per-task row sample.

    Config: ``mean``, ``components``, ``ls_projector``, ``sample_fraction``,
    ``seed``, ``mean_propagation``.
    """

    def setup(self, ctx):
        self.residual = None
        self.magnitude = None

    def map_batch(self, records, ctx):
        config = ctx.config
        fraction = config["sample_fraction"]
        if fraction < 1.0:
            # Row sampling is seeded per record key; stacking would change
            # which rows get sampled, so each record is sampled on its own.
            blocks = (
                sample_rows(
                    value, fraction,
                    np.random.default_rng((config["seed"], ctx.task_id, key)),
                )
                for key, value in records
            )
        elif records:
            blocks = [kernels.stack_blocks([value for _, value in records])]
        else:
            blocks = []
        for block in blocks:
            residual, magnitude = kernels.block_error_parts(
                block, config["mean"], config["components"],
                config["ls_projector"], config["mean_propagation"],
            )
            self.residual = (
                residual if self.residual is None else self.residual + residual
            )
            self.magnitude = (
                magnitude if self.magnitude is None else self.magnitude + magnitude
            )
        return []

    def cleanup(self, ctx):
        if self.residual is not None:
            yield KEY_RESIDUAL, self.residual
            yield KEY_MAGNITUDE, self.magnitude


def _split_value(value):
    """Input values are Y blocks, or (Y block, X block) pairs in ablation."""
    if isinstance(value, tuple):
        return value
    return value, None


def _stack_split(records):
    """A split's Y blocks stacked, and its X blocks stacked (None unless
    the materialized-X ablation pairs each Y block with its X block)."""
    blocks, latents = zip(*(_split_value(value) for _, value in records))
    latent = None if latents[0] is None else kernels.stack_latents(list(latents))
    return kernels.stack_blocks(list(blocks)), latent
