"""The sPCA data jobs of Algorithm 4, each written once as a spec.

A :class:`JobSpec` is plain data: the job's name, a block map over a split's
stacked rows that calls :mod:`repro.jobs.kernels` and returns named additive
parts, and a driver-side finish that turns the summed parts into the job's
result.  Every engine lowers every spec the same way -- a stateful-combiner
mapper on MapReduce, one accumulator per part on Spark, a loop in the
sequential backend -- so the engines differ only in how partials move
(Sections 4.1 and 4.2), never in the arithmetic.

A split's records are ``(start_row, block)`` pairs, or ``(start_row, (block,
latent))`` pairs when the materialized-X ablation joins each Y block to its
X block.  :func:`split_parts` is the one place a split is stacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.jobs import kernels
from repro.linalg.blocks import Matrix
from repro.linalg.stats import sample_rows

KEY_SUMS = "mean/sums"
KEY_COUNT = "mean/count"
KEY_FNORM = "fnorm"
KEY_YTX = "YtX"
KEY_YTX_DATA = "YtX/data"
KEY_XSUM = "YtX/xsum"
KEY_XTX = "XtX"
KEY_RESIDUAL = "error/residual"
KEY_MAGNITUDE = "error/magnitude"

Params = dict[str, Any]
Parts = dict[str, Any]


@dataclass(frozen=True)
class JobSpec:
    """One distributed sPCA job, independent of the engine that runs it.

    Attributes:
        name: the job name engines record (fault plans target it).
        parts: every part name the block map may return.
        map: ``map(block, latent, params)``: one split's stacked rows (and
            its stacked X rows, or None) to named additive parts.
        finish: ``finish(parts, params)``: the summed parts to the result.
        prepare: optional ``prepare(start_row, block, params)`` applied to
            each record before the split is stacked.
        reducers: reduce tasks of the MapReduce lowering.
        combiner: whether the MapReduce lowering runs a map-side combiner.
    """

    name: str
    parts: tuple[str, ...]
    map: Callable[[Matrix, "np.ndarray | None", Params], Parts]
    finish: Callable[[Parts, Params], Any]
    prepare: Callable[[int, Matrix, Params], Matrix] | None = None
    reducers: int = 1
    combiner: bool = False


def split_parts(spec: JobSpec, records: Sequence[tuple[int, Any]], params: Params) -> Parts:
    """One split's parts: prepare each record, stack the split, map it once.

    A sparse part ships dense once its sparse encoding is no smaller (a
    saturated split, z ~ D): the sPCA partial stays O(z*d) only while that
    is the smaller size (Section 4.2).
    """
    blocks, latents = [], []
    for start, value in records:
        block, latent = value if isinstance(value, tuple) else (value, None)
        if spec.prepare is not None:
            block = spec.prepare(start, block, params)
        blocks.append(block)
        latents.append(latent)
    latent = None if latents[0] is None else kernels.stack_latents(latents)
    parts = spec.map(kernels.stack_blocks(blocks), latent, params)
    return {name: _encoded(part) for name, part in parts.items()}


def _encoded(part: Any) -> Any:
    if sp.issparse(part):
        sparse_bytes = part.data.nbytes + part.indices.nbytes + part.indptr.nbytes
        if sparse_bytes >= part.shape[0] * part.shape[1] * 8:
            return np.asarray(part.todense())
    return part


def add_part(total: Any, part: Any) -> Any:
    """The combine op of every part: a dense sum, None being the empty sum."""
    if sp.issparse(part):
        part = np.asarray(part.todense())
    return (0 if total is None else total) + part


def latent_rows(block: Matrix, params: Params) -> np.ndarray:
    """XJob's map (the materialized-X ablation): one record's rows of X."""
    return kernels.block_latent(
        block, params["mean"], params["projector"], params["latent_mean"],
        params["mean_propagation"],
    )


def algorithm_jobs(jobs: Sequence[Any]) -> list[Any]:
    """The jobs that count towards a fit's running time and intermediate
    data: errorJob is offline, as the paper measures accuracy outside the
    algorithm's running time."""
    return [job for job in jobs if job.name != ERROR.name]


# -- meanJob (Algorithm 4, line 3) -------------------------------------------


def _mean_map(block, latent, params):
    sums, rows = kernels.block_sums(block)
    return {KEY_SUMS: sums, KEY_COUNT: rows}


def _mean_finish(parts, params):
    return parts[KEY_SUMS] / parts[KEY_COUNT]


MEAN = JobSpec(
    name="meanJob", parts=(KEY_SUMS, KEY_COUNT), map=_mean_map, finish=_mean_finish
)


# -- FnormJob (Algorithm 4, line 4) ------------------------------------------


def _fnorm_map(block, latent, params):
    return {KEY_FNORM: kernels.block_frobenius(block, params["mean"], params["efficient"])}


def _fnorm_finish(parts, params):
    return float(parts[KEY_FNORM])


FNORM = JobSpec(
    name="FnormJob", parts=(KEY_FNORM,), map=_fnorm_map, finish=_fnorm_finish
)


# -- YtXJob: the consolidated YtX + XtX job (Algorithm 4, lines 7-9) ----------


def _ytx_map(block, latent, params):
    ytx, xsum, xtx = kernels.block_ytx_xtx(
        block, params["mean"], params["projector"], params["latent_mean"],
        params["mean_propagation"], latent=latent,
    )
    if not params["mean_propagation"]:
        return {KEY_YTX: ytx, KEY_XTX: xtx}
    # Ship the data product Y' X and colsum(X); the driver applies the dense
    # mean correction Ym (x) colsum(X) once (Section 4.2).
    return {KEY_YTX_DATA: ytx, KEY_XSUM: xsum, KEY_XTX: xtx}


def _ytx_finish(parts, params):
    if KEY_YTX_DATA not in parts:
        return parts[KEY_YTX], parts[KEY_XTX]
    data_product = parts[KEY_YTX_DATA]
    if sp.issparse(data_product):
        data_product = data_product.todense()
    xsum = np.asarray(parts[KEY_XSUM]).ravel()
    return np.asarray(data_product) - np.outer(params["mean"], xsum), parts[KEY_XTX]


YTX = JobSpec(
    name="YtXJob",
    parts=(KEY_YTX_DATA, KEY_XSUM, KEY_YTX, KEY_XTX),
    map=_ytx_map,
    finish=_ytx_finish,
    reducers=2,
    combiner=True,
)


# -- errorJob: the sampled reconstruction error (Section 5) ------------------


def _error_sample(start, block, params):
    # Seeded by (seed, start row): a record samples the same rows whichever
    # split or engine holds it.
    fraction = params["sample_fraction"]
    if fraction < 1.0:
        return sample_rows(block, fraction, np.random.default_rng((params["seed"], start)))
    return block


def _error_map(block, latent, params):
    residual, magnitude = kernels.block_error_parts(
        block, params["mean"], params["components"], params["ls_projector"],
        params["mean_propagation"],
    )
    return {KEY_RESIDUAL: residual, KEY_MAGNITUDE: magnitude}


def _error_finish(parts, params):
    return kernels.error_from_colsums(parts[KEY_RESIDUAL], parts[KEY_MAGNITUDE])


ERROR = JobSpec(
    name="errorJob",
    parts=(KEY_RESIDUAL, KEY_MAGNITUDE),
    map=_error_map,
    finish=_error_finish,
    prepare=_error_sample,
)
