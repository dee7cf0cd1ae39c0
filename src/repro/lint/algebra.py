"""Dynamic combiner-algebra verification (the runtime half of DF002).

A MapReduce combiner or Spark accumulator merge function is only correct if
it is a commutative monoid operation: the platform combines partials in an
order determined by scheduling, retries, and speculative execution.  DF002
catches syntactically obvious violations; this module *dynamically* confirms
commutativity and associativity for every registered combiner on sampled
operands (the tests drive it with hypothesis-generated matrices).

Floating-point addition is only associative up to rounding, which is exactly
the tolerance the paper's partial-sum algebra itself assumes, so checks
compare with a relative tolerance rather than bit equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np
import scipy.sparse as sp

from repro.errors import CombinerAlgebraError

CombineFn = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class CombinerSpec:
    """One registered combiner: a named binary merge operation."""

    name: str
    fn: CombineFn
    description: str = ""


REGISTRY: dict[str, CombinerSpec] = {}


def register_combiner(name: str, fn: CombineFn, description: str = "") -> CombinerSpec:
    """Register *fn* for algebraic verification; returns the spec."""
    spec = CombinerSpec(name=name, fn=fn, description=description)
    REGISTRY[name] = spec
    return spec


def registered_combiners() -> dict[str, CombinerSpec]:
    """All registered combiners, including the engine built-ins."""
    _register_builtins()
    return dict(REGISTRY)


_builtins_registered = False


def _register_builtins() -> None:
    """Register the combiners the engines actually use.

    Imported lazily so that importing :mod:`repro.lint` never drags the
    backends in (and vice versa).
    """
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True
    register_combiner(
        "sum",
        lambda a, b: a + b,
        "MatrixSumReducer / SumReducer / default accumulator add-op: plain "
        "addition of numbers and numpy arrays",
    )
    from repro.jobs.specs import add_part

    register_combiner(
        "add-maybe-sparse",
        add_part,
        "the job specs' combine op (Spark accumulators, the sequential "
        "loop): dense or sparse parts summed densely, the O(z*d) "
        "sparse-partial optimization of Section 4.2",
    )
    from collections import Counter

    register_combiner(
        "counter-merge",
        lambda a, b: a + b,
        "TaskContext counter merging in the MapReduce runtime",
    )
    _ = Counter  # imported for documentation symmetry with the runtime


def _as_dense(value: Any) -> Any:
    if sp.issparse(value):
        return np.asarray(value.todense())
    return value


def _approx_equal(left: Any, right: Any, rtol: float, atol: float) -> bool:
    left, right = _as_dense(left), _as_dense(right)
    try:
        return bool(np.allclose(left, right, rtol=rtol, atol=atol))
    except TypeError:
        return bool(left == right)


def check_commutative(
    fn: CombineFn, a: Any, b: Any, rtol: float = 1e-9, atol: float = 1e-12
) -> None:
    """Raise :class:`CombinerAlgebraError` unless ``fn(a, b) == fn(b, a)``."""
    forward, backward = fn(a, b), fn(b, a)
    if not _approx_equal(forward, backward, rtol, atol):
        raise CombinerAlgebraError(
            f"combiner is not commutative: fn(a, b) != fn(b, a) "
            f"(|a|={np.shape(_as_dense(a))}, |b|={np.shape(_as_dense(b))})"
        )


def check_associative(
    fn: CombineFn, a: Any, b: Any, c: Any, rtol: float = 1e-9, atol: float = 1e-12
) -> None:
    """Raise unless ``fn(fn(a, b), c) == fn(a, fn(b, c))`` (to tolerance)."""
    left = fn(fn(a, b), c)
    right = fn(a, fn(b, c))
    if not _approx_equal(left, right, rtol, atol):
        raise CombinerAlgebraError(
            "combiner is not associative: fn(fn(a, b), c) != fn(a, fn(b, c))"
        )


def verify_combiner(
    spec: CombinerSpec,
    operand_triples: Iterable[tuple[Any, Any, Any]],
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> int:
    """Check commutativity + associativity of *spec* over sample operands.

    Returns the number of triples checked; raises
    :class:`CombinerAlgebraError` (tagged with the combiner's name) on the
    first failing algebraic identity.
    """
    checked = 0
    for a, b, c in operand_triples:
        try:
            check_commutative(spec.fn, a, b, rtol=rtol, atol=atol)
            check_associative(spec.fn, a, b, c, rtol=rtol, atol=atol)
        except CombinerAlgebraError as exc:
            raise CombinerAlgebraError(f"combiner {spec.name!r}: {exc}") from None
        checked += 1
    return checked
