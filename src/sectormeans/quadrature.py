"""Gauss-Jacobi rules for the endpoint-singular measures behind fractional powers.

Each admissible exponent r outside {0, 1} gets one probability measure on
(0, 1).  With k = ceil(r), the integer above r, and b = r - k in (-1, 0):

    dmu_r(s) = sin((b+1) pi)/pi * s^b * (1-s)^a ds,   a = -1 - b.

So a, b lie in (-1, 0) with a + b = -1, and the total mass is exactly 1 by
the reflection identity B(b+1, a+1) = pi / sin((b+1) pi).  Nodes and weights
come from the eigenvectors of the symmetric tridiagonal Jacobi matrix
(Golub-Welsch).  Since a + b = -1, that matrix is a closed form in b, and
with mass 1 the weights are the squared first eigenvector components: the
sine prefactor and the gamma functions of the general Jacobi weight never
enter the build, so the mass holds to a few ulps as r nears an integer.

`node_count` sizes a rule for an integrand whose poles are known.  A pole
at x0 in the plane of [-1, 1] bounds the n-point Gauss error by about
rho^{-2n}, where rho = |x0 + sqrt(x0^2 - 1)| > 1 is the parameter of the
Bernstein ellipse through x0 (Trefethen, SIAM Review 50 (2008)).  That
count sees only the poles, not their order: the resolvent of a matrix far
from normal has poles of high order, or none at all for a Jordan block at
mu = 1, whose integrand is a polynomial of high degree.  So each rule also
carries `probes`, which turn the integrand's values at the nodes into a few
of its Jacobi coefficients, and `truncation_estimate` extrapolates their
decay to the error of the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PreconditionError, lapack

__all__ = [
    "MIN_NODES",
    "MAX_NODES",
    "NodeBudgetError",
    "QuadratureRule",
    "mean_order_branch",
    "jacobi_exponents",
    "node_count",
    "quadrature_rule",
    "require_node_count",
    "truncation_estimate",
]

MIN_NODES = 4
# The Golub-Welsch solve builds an m x m eigenvector matrix, so the node
# count is capped where it enters rather than left to exhaust memory.
MAX_NODES = 1024
MASS_TOL = 1e-12
# target error of node_count's estimate, relative to the integral
NODE_EPS = 1e-16
# largest truncation_estimate a rule's result is accepted with
TRUNCATION_TOL = 1e-13


class NodeBudgetError(PreconditionError):
    """The rule needed for the requested accuracy has more nodes than allowed."""


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


def require_node_count(n_nodes: int) -> int:
    """n_nodes as an int, refused unless it lies in MIN_NODES..MAX_NODES."""
    n_nodes = int(n_nodes)
    if not MIN_NODES <= n_nodes <= MAX_NODES:
        raise PreconditionError(f"nodes must lie in {MIN_NODES}..{MAX_NODES}, got {n_nodes}")
    return n_nodes


def node_count(mu: np.ndarray, budget: int = MAX_NODES) -> int:
    """Nodes that resolve int f dmu_r to NODE_EPS when f has poles at s = mu/(mu-1).

    A pole s = mu/(mu-1) sits at x0 = (mu+1)/(mu-1) on [-1, 1], and its
    ellipse parameter |x0 + sqrt(x0^2 - 1)| simplifies to
    rho = |sqrt(mu) + 1| / |sqrt(mu) - 1| with the principal root.  The
    nearest pole sets n = ceil(log(1/NODE_EPS) / (2 log rho)), floored at
    MIN_NODES.  Past `budget` this raises NodeBudgetError; it never clamps.
    """
    budget = require_node_count(budget)
    root = np.sqrt(np.asarray(mu, dtype=np.complex128))
    # 1/rho of the nearest pole: 0 without a pole (mu = 1), 1 on the cut
    inv_rho = float(np.max(np.abs(root - 1.0) / np.abs(root + 1.0)))
    if inv_rho == 0.0:
        return MIN_NODES
    need = math.log(NODE_EPS) / (2.0 * math.log(inv_rho)) if inv_rho < 1.0 else math.inf
    if not need <= budget:
        shown = str(math.ceil(need)) if math.isfinite(need) else "unboundedly many"
        raise NodeBudgetError(
            f"the spectrum needs {shown} quadrature nodes, more than the budget of {budget} nodes"
        )
    return max(MIN_NODES, math.ceil(need))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes in [0, 1] and positive weights summing to 1 for one mean order.

    `probes` has one row per degree k in (0, h-1, h, n-2, n-1), h = n // 2,
    of w_j p_k(x_j) / p_0 for the measure's orthonormal polynomials p_k:
    summed against an integrand's values at the nodes, a row gives its
    discrete Jacobi coefficient of degree k, in units where degree 0 is the
    integral.  Row 0 is thus the weights, and `weights` reads it.

    Construction checks that the order has a branch measure (it is neither
    0 nor 1), the shapes, the node count, that the nodes increase strictly
    within [0, 1], that the weights are positive and that they sum to 1
    within MASS_TOL, for every rule, including those `quadrature_rule`
    builds.
    """

    r: float
    nodes: np.ndarray
    probes: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.probes[0]

    def __post_init__(self) -> None:
        jacobi_exponents(self.r)
        nodes = self.nodes
        if nodes.ndim != 1 or self.probes.shape != (5, len(nodes)):
            raise PreconditionError("nodes must be a 1-d array and probes 5 rows of its length")
        if len(nodes) < MIN_NODES:
            raise PreconditionError(f"rule needs at least {MIN_NODES} nodes")
        # within about 1e-12 of an integer r, an end node of a large rule
        # rounds to 0 or 1; the pencil there is Q/c or P, neither singular
        if not (nodes[0] >= 0.0 and nodes[-1] <= 1.0 and (nodes[1:] > nodes[:-1]).all()):
            raise PreconditionError("nodes must be strictly increasing within [0, 1]")
        if not (self.weights > 0.0).all():
            raise PreconditionError("weights must be strictly positive")
        mass = float(self.weights.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise PreconditionError(f"weights sum to {mass}, expected 1 within {MASS_TOL}")

    def __len__(self) -> int:
        return len(self.nodes)


def truncation_estimate(n_nodes: int, probe_norms: np.ndarray) -> float:
    """The error of an n-node rule, from the sizes of its probed coefficients.

    `probe_norms` are the sizes of the coefficients of degrees h-1, h, n-2
    and n-1 (h = n // 2), relative to the integral.

    The rule is exact through degree 2n - 1, so its error is about the
    coefficient of degree 2n.  The larger of the two top coefficients is
    taken to decay from the larger of the two middle ones at the rate it
    shows, and that rate is carried on to degree 2n.  A top that has not
    decayed is its own estimate.
    """
    mid, top = max(probe_norms[0], probe_norms[1]), max(probe_norms[2], probe_norms[3])
    if not top < mid:
        return float(top)
    return float(top * (top / mid) ** ((n_nodes + 1) / (n_nodes - 1 - n_nodes // 2)))


def quadrature_rule(r: float, n_nodes: int) -> QuadratureRule:
    """Gauss-Jacobi rule with n_nodes points for the branch measure of r.

    With a + b = -1 the Jacobi matrix of the weight (1-x)^a (1+x)^b on
    [-1, 1] has a closed form in b alone: the diagonal is
    (2b+1) [1, -1/(4k^2-1)] for k >= 1, and the squared off-diagonal is
    [-2b(b+1), (k(k-1) - b(b+1)) / (2k-1)^2] for k >= 2.  The measure has
    mass exactly 1, so the weights are the squared first components of the
    normalized eigenvectors, with no gamma function or sine to lose digits
    near the integers.
    """
    r = float(r)
    _, b = jacobi_exponents(r)
    n_nodes = require_node_count(n_nodes)
    k = np.arange(1.0, n_nodes)
    diag = np.empty(n_nodes)
    diag[0], diag[1:] = 1.0, -1.0 / (4.0 * k * k - 1.0)
    diag *= 2.0 * b + 1.0
    bb, k = b * (b + 1.0), k[1:]
    off_sq = np.empty(n_nodes - 1)
    off_sq[0], off_sq[1:] = -2.0 * bb, (k * (k - 1.0) - bb) / (2.0 * k - 1.0) ** 2
    # LAPACK dstevd, the routine scipy.linalg.eigh_tridiagonal runs here
    x, V = lapack("dstevd")(diag, np.sqrt(off_sq))
    nodes = 0.5 * (x + 1.0)
    # row k of V over row 0 is p_k / p_0 at the nodes (Golub-Welsch), and
    # the weights are V[0]**2, so each probe row is V[0] times a row of V
    half = n_nodes // 2
    probes = V[0] * V[[0, half - 1, half, n_nodes - 2, n_nodes - 1]]
    for array in (nodes, probes):
        array.flags.writeable = False
    return QuadratureRule(r=r, nodes=nodes, probes=probes)
