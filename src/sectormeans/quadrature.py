"""Gauss-Jacobi rules for the endpoint-singular measures behind fractional powers.

Each admissible exponent r outside {0, 1} gets one probability measure on
(0, 1).  With k = ceil(r), the integer above r, and b = r - k in (-1, 0):

    dmu_r(s) = sin((b+1) pi)/pi * s^b * (1-s)^a ds,   a = -1 - b.

So a, b lie in (-1, 0) with a + b = -1, and the total mass is exactly 1 by
the reflection identity B(b+1, a+1) = pi / sin((b+1) pi).  Nodes and weights
come from the symmetric tridiagonal Jacobi recurrence (Golub-Welsch); the
weights are rescaled by the sine prefactor so they sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PreconditionError, lapack

__all__ = [
    "DEFAULT_NODES",
    "MIN_NODES",
    "MAX_NODES",
    "QuadratureRule",
    "mean_order_branch",
    "jacobi_exponents",
    "sine_prefactor",
    "quadrature_rule",
]

DEFAULT_NODES = 80
MIN_NODES = 4
# The Golub-Welsch solve builds an m x m eigenvector matrix, so the node
# count is capped where it enters rather than left to exhaust memory.
MAX_NODES = 1024
MASS_TOL = 1e-12


def mean_order_branch(r: float) -> str:
    """Classify a mean order: 'r01', 'r12', 'rneg', or 'endpoint' for r in {0, 1}."""
    r = float(r)
    if r == 0.0 or r == 1.0:
        return "endpoint"
    if 0.0 < r < 1.0:
        return "r01"
    if 1.0 < r < 2.0:
        return "r12"
    if -1.0 < r < 0.0:
        return "rneg"
    raise PreconditionError(
        f"mean order must lie in (-1,0) u (0,1) u (1,2) or be 0 or 1, got {r}"
    )


def jacobi_exponents(r: float) -> tuple[float, float]:
    """Exponents (a, b) of the weight s^b (1-s)^a: b = r - ceil(r), a = -1 - b."""
    if mean_order_branch(r) == "endpoint":
        raise PreconditionError(f"no quadrature measure at the endpoint r={r}")
    b = r - math.ceil(r)
    return -1.0 - b, b


def sine_prefactor(r: float) -> float:
    """Normalizing constant sin((b+1) pi)/pi of the measure, b = r - ceil(r)."""
    _, b = jacobi_exponents(r)
    return math.sin((b + 1.0) * math.pi) / math.pi


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (0, 1) and positive weights summing to 1 for one mean order."""

    r: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        mean_order_branch(self.r)
        nodes, weights = self.nodes, self.weights
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise PreconditionError("nodes and weights must be matching 1-d arrays")
        if len(nodes) < MIN_NODES:
            raise PreconditionError(f"rule needs at least {MIN_NODES} nodes")
        if not (np.all(nodes > 0.0) and np.all(nodes < 1.0) and np.all(np.diff(nodes) > 0.0)):
            raise PreconditionError("nodes must be strictly increasing inside (0, 1)")
        if not np.all(weights > 0.0):
            raise PreconditionError("weights must be strictly positive")
        mass = float(weights.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise PreconditionError(f"weights sum to {mass}, expected 1 within {MASS_TOL}")

    def __len__(self) -> int:
        return len(self.nodes)


def _jacobi_recurrence(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Three-term recurrence of the Jacobi weight (1-x)^a (1+x)^b on [-1, 1].

    Returns the diagonal, the off-diagonal, and the zeroth moment of the
    weight; valid for a, b > -1.
    """
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, m, dtype=float)
    diag[1:] = (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2.0))
    off_sq = np.empty(m - 1)
    off_sq[0] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    k = np.arange(2, m, dtype=float)
    off_sq[1:] = (
        4.0 * k * (k + a) * (k + b) * (k + a + b)
        / ((2.0 * k + a + b) ** 2 * ((2.0 * k + a + b) ** 2 - 1.0))
    )
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    return diag, np.sqrt(off_sq), mu0


def quadrature_rule(r: float, n_nodes: int = DEFAULT_NODES) -> QuadratureRule:
    """Gauss-Jacobi rule with n_nodes points for the branch measure of r."""
    r = float(r)
    if mean_order_branch(r) == "endpoint":
        raise PreconditionError(f"no quadrature rule at the endpoint r={r}")
    n_nodes = int(n_nodes)
    if not MIN_NODES <= n_nodes <= MAX_NODES:
        raise PreconditionError(f"need {MIN_NODES}..{MAX_NODES} nodes, got {n_nodes}")
    a, b = jacobi_exponents(r)
    if not (-1.0 < a < 0.0 and -1.0 < b < 0.0):
        raise PreconditionError(f"weight exponents out of range: a={a}, b={b}")
    diag, off, mu0 = _jacobi_recurrence(a, b, n_nodes)
    # LAPACK dstevd, the routine scipy.linalg.eigh_tridiagonal runs here
    x, V, info = lapack("dstevd")(diag, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed on the Jacobi matrix (info={info})")
    nodes = 0.5 * (x + 1.0)
    # transform [-1,1] -> (0,1) and apply the sine prefactor; the 2^(a+b+1)
    # factors of the affine change of variables and of mu0 cancel.
    weights = sine_prefactor(r) * mu0 * 2.0 ** (-(a + b + 1.0)) * V[0] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(r=r, nodes=nodes, weights=weights)
