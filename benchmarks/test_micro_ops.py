"""Micro-benchmarks of the Section 3 primitives (real pytest-benchmark timings).

These complement the simulated-time tables with honest single-process
timings of the optimized vs unoptimized kernels, on a Tweets-like block.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.generators import bag_of_words
from repro.linalg import (
    centered_times,
    column_means,
    frobenius_centered_dense,
    frobenius_simple,
    frobenius_sparse,
)


@pytest.fixture(scope="module")
def block():
    return bag_of_words(4_000, 3_000, words_per_doc=8.0, seed=77)


@pytest.fixture(scope="module")
def mean(block):
    return column_means(block)


@pytest.fixture(scope="module")
def small(block):
    rng = np.random.default_rng(0)
    return rng.normal(size=(block.shape[1], 10))


@pytest.mark.benchmark(group="frobenius")
def test_frobenius_sparse_alg3(benchmark, block, mean):
    result = benchmark(frobenius_sparse, block, mean)
    assert result > 0


@pytest.mark.benchmark(group="frobenius")
def test_frobenius_simple_alg2(benchmark, block, mean):
    result = benchmark(frobenius_simple, block, mean)
    assert result > 0


@pytest.mark.benchmark(group="frobenius")
def test_frobenius_dense_reference(benchmark, block, mean):
    result = benchmark(frobenius_centered_dense, block, mean)
    assert result > 0


@pytest.mark.benchmark(group="mean-propagation")
def test_centered_times_propagated(benchmark, block, mean, small):
    result = benchmark(centered_times, block, mean, small)
    assert result.shape == (block.shape[0], 10)


@pytest.mark.benchmark(group="mean-propagation")
def test_centered_times_densified(benchmark, block, mean, small):
    def densify_and_multiply():
        return (np.asarray(block.todense()) - mean) @ small

    result = benchmark(densify_and_multiply)
    assert result.shape == (block.shape[0], 10)
