"""Runtime shape contracts: enablement, unification, and kernel coverage."""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ContractViolationError, ShapeError
from repro.jobs import kernels
from repro.lint import contracts
from repro.lint.contracts import Spec, contract, parse_spec


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_spec_full():
    spec = parse_spec("matrix (b, D)")
    assert spec == Spec("matrix", ("b", "D"), "matrix (b, D)")


def test_parse_spec_kind_only():
    assert parse_spec("scalar").dims is None


def test_parse_spec_one_tuple():
    assert parse_spec("dense (D,)").dims == ("D",)


def test_parse_spec_int_literal_dims():
    assert parse_spec("dense (3, 4)").dims == (3, 4)


@pytest.mark.parametrize("bad", ["blob (a, b)", "dense (a-b)", ""])
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_contract_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):

        @contract(nope="dense (D,)")
        def f(x):
            return x


# ---------------------------------------------------------------------------
# enable / disable plumbing


def test_checked_scopes_the_flag():
    # The suite-wide fixture arms contracts; checked(False) must disarm
    # within its scope and restore afterwards.
    assert contracts.is_enabled()
    with contracts.checked(False):
        assert not contracts.is_enabled()
    assert contracts.is_enabled()


def test_disabled_calls_skip_checking():
    @contract(x="dense (3,)")
    def f(x):
        return x

    with contracts.checked(False):
        f(np.zeros(7))  # wrong shape, but unchecked
    with pytest.raises(ContractViolationError):
        f(np.zeros(7))


def test_env_variable_controls_default(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_CONTRACTS", "1")
    assert contracts._env_enabled()
    monkeypatch.setenv("REPRO_CHECK_CONTRACTS", "off")
    assert not contracts._env_enabled()


# ---------------------------------------------------------------------------
# runtime checking semantics


def test_symbols_unify_across_arguments():
    @contract(a="dense (n, m)", b="dense (m, k)")
    def mul(a, b):
        return a @ b

    mul(np.ones((2, 3)), np.ones((3, 4)))
    with pytest.raises(ContractViolationError, match="binds symbol"):
        mul(np.ones((2, 3)), np.ones((5, 4)))


def test_return_value_checked_against_bindings():
    @contract(a="dense (n, m)", ret="dense (m,)")
    def broken(a):
        return np.zeros(a.shape[0] + 1)

    with pytest.raises(ContractViolationError, match="return value"):
        broken(np.ones((2, 2)))


def test_tuple_return_specs():
    @contract(block="matrix (b, D)", ret=("dense (D,)", "int"))
    def sums(block):
        return np.asarray(block.sum(axis=0)).ravel(), int(block.shape[0])

    vec, rows = sums(sp.eye(4, 6, format="csr"))
    assert vec.shape == (6,)
    assert rows == 4


def test_kind_mismatch_sparse_vs_dense():
    @contract(x="dense (n, m)")
    def f(x):
        return x

    with pytest.raises(ContractViolationError, match="dense"):
        f(sp.eye(3, format="csr"))


def test_kind_matrix_accepts_both():
    @contract(x="matrix (n, m)")
    def f(x):
        return x

    f(np.ones((2, 2)))
    f(sp.eye(2, format="csr"))
    with pytest.raises(ContractViolationError):
        f(np.ones(3))  # 1-D is not a matrix


def test_scalar_and_int_kinds():
    @contract(x="scalar", n="int")
    def f(x, n):
        return x * n

    f(1.5, 2)
    f(np.float64(1.5), np.int64(2))
    with pytest.raises(ContractViolationError):
        f(np.zeros(3), 2)
    with pytest.raises(ContractViolationError):
        f(1.5, 2.5)


def test_none_arguments_are_unchecked():
    @contract(latent="dense (b, d)")
    def f(latent=None):
        return latent

    assert f(None) is None
    assert f() is None


def test_violation_is_a_shape_error():
    # Callers that guard with ``except ShapeError`` keep working when the
    # contract fires before the kernel's own validation.
    assert issubclass(ContractViolationError, ShapeError)


# ---------------------------------------------------------------------------
# the real kernels enforce their contracts


def test_block_latent_rejects_mismatched_mean():
    with pytest.raises(ShapeError):
        kernels.block_latent(
            np.ones((4, 5)), np.zeros(3), np.ones((5, 2)), np.zeros(2), True
        )


def test_block_ytx_xtx_rejects_mismatched_latent():
    with pytest.raises(ShapeError):
        kernels.block_ytx_xtx(
            np.ones((4, 5)), np.zeros(5), np.ones((5, 2)), np.zeros(2), True,
            latent=np.ones((3, 2)),
        )


def test_kernels_registered():
    registry = contracts.registered()
    for name in (
        "block_sums",
        "block_frobenius",
        "block_latent",
        "block_ytx_xtx",
        "block_error_parts",
        "error_from_colsums",
    ):
        assert name in registry, name


def test_sparse_block_passes_matrix_contracts():
    block = sp.random(6, 5, density=0.4, format="csr", random_state=0)
    latent = kernels.block_latent(
        block, np.zeros(5), np.ones((5, 2)), np.zeros(2), True
    )
    assert latent.shape == (6, 2)


# ---------------------------------------------------------------------------
# overhead when disabled


def test_disabled_overhead_is_small():
    @contract(x="dense (n,)", ret="dense (n,)")
    def identity(x):
        return x

    def plain(x):
        return x

    x = np.zeros(4)
    n = 20_000
    with contracts.checked(False):
        start = time.perf_counter()
        for _ in range(n):
            identity(x)
        contracted = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        plain(x)
    baseline = time.perf_counter() - start
    # One boolean test per call; allow a loose factor for timer noise.
    assert contracted < baseline * 20 + 0.05
