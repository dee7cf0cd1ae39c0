"""Dynamic verification that every registered combiner is a commutative monoid.

Hypothesis generates the operand triples; the checks mirror what the
platforms assume when they merge partials in scheduling order (Section 4.1).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import CombinerAlgebraError
from repro.jobs.specs import add_part
from repro.lint.algebra import (
    CombinerSpec,
    check_associative,
    check_commutative,
    register_combiner,
    registered_combiners,
    verify_combiner,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
matrices = arrays(np.float64, (3, 2), elements=finite)


def test_builtin_combiners_registered():
    registry = registered_combiners()
    assert {"sum", "add-maybe-sparse", "counter-merge"} <= set(registry)
    # The job specs' one combine op is the one verified.
    assert registry["add-maybe-sparse"].fn is add_part


@settings(max_examples=25, deadline=None)
@given(a=matrices, b=matrices, c=matrices)
def test_sum_combiner_is_a_commutative_monoid(a, b, c):
    spec = registered_combiners()["sum"]
    assert verify_combiner(spec, [(a, b, c)], rtol=1e-6, atol=1e-6) == 1


@settings(max_examples=25, deadline=None)
@given(a=matrices, b=matrices, c=matrices)
def test_add_maybe_sparse_mixes_dense_and_sparse(a, b, c):
    spec = registered_combiners()["add-maybe-sparse"]
    triples = [
        (a, sp.csr_matrix(b), sp.csr_matrix(c)),
        (a, b, sp.csr_matrix(c)),
        (a, b, c),
    ]
    assert verify_combiner(spec, triples, rtol=1e-6, atol=1e-6) == 3


@settings(max_examples=25, deadline=None)
@given(
    a=st.dictionaries(st.sampled_from("abc"), st.integers(0, 100)),
    b=st.dictionaries(st.sampled_from("abc"), st.integers(0, 100)),
    c=st.dictionaries(st.sampled_from("abc"), st.integers(0, 100)),
)
def test_counter_merge_is_a_commutative_monoid(a, b, c):
    from collections import Counter

    spec = registered_combiners()["counter-merge"]
    assert verify_combiner(spec, [(Counter(a), Counter(b), Counter(c))]) == 1


def test_subtraction_fails_commutativity():
    with pytest.raises(CombinerAlgebraError, match="not commutative"):
        check_commutative(lambda a, b: a - b, 3.0, 1.0)


def test_mean_pairing_fails_associativity():
    average = lambda a, b: (a + b) / 2.0  # noqa: E731
    check_commutative(average, 1.0, 3.0)  # commutative...
    with pytest.raises(CombinerAlgebraError, match="not associative"):
        check_associative(average, 1.0, 3.0, 5.0)  # ...but not associative


def test_verify_combiner_tags_the_failure_with_its_name():
    spec = CombinerSpec("diff", lambda a, b: a - b)
    with pytest.raises(CombinerAlgebraError, match="'diff'"):
        verify_combiner(spec, [(1.0, 2.0, 3.0)])


def test_register_combiner_round_trips():
    spec = register_combiner("test-max", max, "maximum (idempotent monoid)")
    assert registered_combiners()["test-max"] is spec
    assert verify_combiner(spec, [(1.0, 5.0, 3.0)]) == 1


@settings(max_examples=50, deadline=None)
@given(a=finite, b=finite, c=finite)
def test_float_addition_within_tolerance(a, b, c):
    # The tolerance models exactly what the paper's partial-sum algebra
    # assumes: float addition is associative only up to rounding.
    check_associative(lambda x, y: x + y, a, b, c, rtol=1e-9, atol=1e-6)
