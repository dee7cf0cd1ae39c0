"""Per-phase cost breakdowns behind Table 1.

The companion technical report derives Table 1's totals phase by phase;
this module encodes those derivations as structured data so the totals can
be audited and so benchmarks can attribute measured costs to phases.  Each
method is a sequence of :class:`Phase` records with closed-form operation
and communication counts; summing (respectively maxing) them recovers the
Table 1 columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cost_model import COVARIANCE, PPCA, SSVD, SVD_BIDIAG
from repro.errors import ShapeError


@dataclass(frozen=True)
class Phase:
    """One synchronous phase of a distributed PCA method."""

    name: str
    description: str
    time_ops: float
    communication_elements: float


def phase_breakdown(method: str, n: int, d_cols: int, d: int) -> list[Phase]:
    """The phases of *method* on an N x D input with d components."""
    if n < 1 or d_cols < 1 or d < 1 or d > d_cols:
        raise ShapeError(f"invalid sizes {(n, d_cols, d)}")
    n = float(n)
    big_d = float(d_cols)
    small_d = float(d)
    if method == COVARIANCE:
        return [
            Phase(
                "gramian",
                "accumulate Y'Y as dense D x D partials",
                n * big_d * min(n, big_d),
                big_d**2,
            ),
            Phase(
                "eigendecomposition",
                "centralized eigh of the D x D covariance",
                big_d**3,
                0.0,
            ),
        ]
    if method == SVD_BIDIAG:
        return [
            Phase(
                "qr",
                "QR of the N x D input",
                n * big_d**2,
                n * small_d + big_d * small_d,
            ),
            Phase(
                "bidiagonalization",
                "Golub-Kahan reduction of R",
                big_d**3,
                big_d**2,
            ),
            Phase(
                "bidiagonal-svd",
                "SVD of the bidiagonal matrix",
                big_d**2,
                big_d**2,
            ),
        ]
    if method == SSVD:
        return [
            Phase(
                "sketch",
                "Y1 = A * Omega, materialized N x (d+p)",
                n * big_d * small_d,
                n * small_d,
            ),
            Phase(
                "orthonormalize",
                "QR of the sketch, Q materialized N x (d+p)",
                n * small_d**2,
                n * small_d,
            ),
            Phase(
                "projection",
                "B = Q' A, partials (d+p) x D",
                n * big_d * small_d,
                big_d * small_d,
            ),
            Phase(
                "small-svd",
                "centralized SVD of B",
                big_d * small_d**2,
                small_d**2,
            ),
        ]
    if method == PPCA:
        return [
            Phase(
                "ytx-xtx",
                "consolidated job: YtX (D x d) and XtX (d x d) partials",
                n * big_d * small_d,
                big_d * small_d,
            ),
            Phase(
                "driver-update",
                "C = YtX / XtX and ss (ss3 = sum(C * YtX)), all on the driver",
                big_d * small_d**2,
                0.0,
            ),
        ]
    raise ShapeError(f"unknown method: {method!r}")


def breakdown_totals(method: str, n: int, d_cols: int, d: int) -> tuple[float, float]:
    """(total time ops, max per-phase communication) for *method*.

    The communication column of Table 1 is a worst-case *per phase* (the
    data exchanged at a phase boundary), hence the max rather than a sum.
    """
    phases = phase_breakdown(method, n, d_cols, d)
    return (
        sum(phase.time_ops for phase in phases),
        max(phase.communication_elements for phase in phases),
    )
