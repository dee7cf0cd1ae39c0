"""The MapReduce lowering of the sPCA job specs (Section 4.1).

Input records are ``(start_row, block)`` pairs where *block* is a CSR or
dense row block.  Small matrices (Ym, CM, Xm, C) travel in the job
configuration -- the simulator's stand-in for Hadoop's DistributedCache.

:class:`SpecMapper` runs any :class:`~repro.jobs.specs.JobSpec` with the
paper's *stateful combiner*: instead of emitting partial matrices per input
record (which would swamp the combiners -- the failure mode the paper
measures in Mahout's Bt job), it maps its whole split once and writes the
parts from ``cleanup``.  ``per_record=True`` is the ablation of that
combiner: the same spec, emitted densely once per record.
"""

from __future__ import annotations

from repro.engine.mapreduce.api import MapReduceJob, Mapper, Reducer
from repro.jobs import specs


class MatrixSumReducer(Reducer):
    """Sums numpy partials per key (works as combiner and reducer)."""

    def reduce(self, key, values, ctx):
        total = values[0]
        for value in values[1:]:
            total = total + value
        yield key, total


class SpecMapper(Mapper):
    """One map task of a spec: the split's parts, emitted from ``cleanup``."""

    def __init__(self, spec: specs.JobSpec, per_record: bool = False):
        self.spec = spec
        self.per_record = per_record

    def setup(self, ctx):
        self.parts = {}

    def map_batch(self, records, ctx):
        if self.per_record:
            return super().map_batch(records, ctx)
        if records:
            self.parts = specs.split_parts(self.spec, records, ctx.config)
        return []

    # Per-record emission is the entire point of the per_record ablation: it
    # models the pre-optimization dataflow that the cleanup combiner fixes.
    # Each record's part ships dense, as a port without the combiner's
    # in-memory state writes one D x d matrix per record.
    def map(self, key, value, ctx):  # repro-lint: disable=DF004
        for name, part in specs.split_parts(self.spec, [(key, value)], ctx.config).items():
            yield name, specs.add_part(None, part)

    def cleanup(self, ctx):
        return list(self.parts.items())


class LatentMapper(Mapper):
    """XJob, the materialized-X ablation: each record's rows of X, keyed by
    its start row so the next job can join X back to Y.

    Its output -- the N x d matrix X in blocks -- is exactly the
    intermediate data sPCA's recomputation of X avoids (Section 3.2:
    "nearly 500 GB of intermediate data").
    """

    def map_batch(self, records, ctx):
        return [(key, specs.latent_rows(value, ctx.config)) for key, value in records]


def run_spec(runtime, spec: specs.JobSpec, splits, params: dict, per_record: bool = False) -> dict:
    """Run *spec* as one MapReduce job; returns its summed parts by name."""
    job = MapReduceJob(
        name=spec.name,
        mapper=SpecMapper(spec, per_record),
        reducer=MatrixSumReducer(),
        combiner=MatrixSumReducer() if spec.combiner else None,
        num_reducers=spec.reducers,
        config=params,
    )
    return dict(runtime.run(job, splits))
