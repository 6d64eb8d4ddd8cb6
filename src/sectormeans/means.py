"""Weighted matrix means and principal fractional powers of accretive matrices.

Two independent routes compute the same objects.  The quadrature route
evaluates one resolvent kernel,

    P #_r Q = c^r X ( int_0^1 ((1-s) Q/c + s P)^{-1} dmu_r(s) ) Y,

with the Gauss-Jacobi rule for the measure dmu_r of `quadrature` and the
pair (X, Y) picked by k = ceil(r):

    r in (-1, 0):  X, Y = P,   P
    r in (0, 1):   X, Y = Q/c, P
    r in (1, 2):   X, Y = Q/c, Q/c

The scale c = sqrt(min|lambda| max|lambda|) over spec(P^{-1} Q) centres the
spectrum of the pencil on 1, by homogeneity P #_r Q = c^r (P #_r (Q/c)), so
plain scaling moves no digit and the poles of the integrand sit as far from
[0, 1] as the spread of the spectrum allows (Hale, Higham and Trefethen,
SIAM J. Numer. Anal. 46 (2008)).  The pencil is singular at
s = mu/(mu-1) for each mu in spec(P^{-1} Q)/c, so the centred spectrum also
gives the node count of the first rule (`quadrature.node_count`).  The
eigenvalues do not see how far P^{-1} Q is from normal, so the kernel
accepts a rule's result only when the decay of the integrand's probed
Jacobi coefficients puts its error below TRUNCATION_TOL, and doubles the
count otherwise.  The `nodes` argument of every quadrature route is the
most it may use; past that budget the route raises NodeBudgetError instead
of returning digits it cannot certify.  Each node costs one linear solve,
and the nodes go through a batched `solve` in blocks of at most
BLOCK_ENTRIES matrix entries.  The kernel takes a list of pairs at one
order and integrates them all with one rule, at the largest count their
spectra need, accepted only when every pair's estimate passes; a check
that compares two means at the same r builds one rule.  The mean A #_r B
is the kernel on (A, B), its direct integral form, which inverts nothing;
the power A^r is the kernel on (I, A).  Both routes have the kernel's one
domain rule, read off the spectrum it already computes: P^{-1} Q with an
eigenvalue within 1e-13 max|lambda| of (-inf, 0] raises PrincipalBranchError.

The eigen route diagonalizes and applies the principal branch of z^r on the
spectrum; the mean A #_r B is then the congruence
A^{1/2} (A^{-1/2} B A^{-1/2})^r A^{1/2}.  So each object has one route per
engine, and `principal_power` and `geometric_mean` pick it by name.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import (
    PreconditionError,
    as_matrix,
    inverse,
    is_hermitian,
)
from .quadrature import (
    MAX_NODES,
    TRUNCATION_TOL,
    NodeBudgetError,
    QuadratureRule,
    mean_order_branch,
    node_count,
    quadrature_rule,
    truncation_estimate,
)
from .sectors import is_accretive

__all__ = [
    "NonAccretiveWarning",
    "PrincipalBranchError",
    "EigenbasisConditionError",
    "harmonic_mean",
    "arithmetic_mean",
    "principal_power_eigen",
    "principal_power_quad",
    "principal_power",
    "geometric_mean",
    "geometric_mean_integral",
    "reflection_identity",
    "negation_identity",
    "inverse_mean_identity",
]

# Eigenvector basis condition number beyond which the eigen route refuses to
# certify its result; callers regenerate the instance instead.
EIG_COND_LIMIT = 1e8

ENGINES = ("quad", "eigen")
# matrix entries per batched solve (32 nodes at n = 64, every node of a
# small matrix's rule), so the kernel's memory does not grow with the count
BLOCK_ENTRIES = 32 * 64 * 64


class NonAccretiveWarning(UserWarning):
    """No longer raised: every mean and power returns a value or raises a
    PreconditionError.  The name stays exported because the benchmark in
    `perfbench/` filters it by name; it goes when that benchmark changes."""


class PrincipalBranchError(PreconditionError):
    """Spectrum touches (-inf, 0]; no principal fractional power exists."""


class EigenbasisConditionError(PreconditionError):
    """Eigenvector basis too ill-conditioned for a trustworthy eigen-route result."""


def _off_cut(lam: np.ndarray) -> bool:
    """Whether no eigenvalue lies within 1e-13 * max|lam| of (-inf, 0]."""
    scale = max(float(np.abs(lam).max(initial=0.0)), 1e-300)
    on_cut = (lam.real <= 1e-13 * scale) & (np.abs(lam.imag) <= 1e-13 * scale)
    return not bool(on_cut.any())


def harmonic_mean(A: np.ndarray, B: np.ndarray, s: float) -> np.ndarray:
    """Weighted harmonic mean ((1-s) A^{-1} + s B^{-1})^{-1} for s in [0, 1]."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise PreconditionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise PreconditionError(f"harmonic weight must lie in [0, 1], got {s}")
    if s == 0.0:
        return A.copy()
    if s == 1.0:
        return B.copy()
    return inverse((1.0 - s) * inverse(A) + s * inverse(B))


def arithmetic_mean(A: np.ndarray, B: np.ndarray, r: float) -> np.ndarray:
    """Weighted arithmetic combination (1-r) A + r B (any real r)."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise PreconditionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return (1.0 - float(r)) * A + float(r) * B


def principal_power_eigen(A: np.ndarray, r: float) -> np.ndarray:
    """A^r through the eigendecomposition and the principal branch of z^r.

    Rejects spectra touching (-inf, 0] and eigenvector bases with condition
    number above EIG_COND_LIMIT (the result could not be certified to the
    tolerances the rest of the package promises).
    """
    A = as_matrix(A)
    r = float(r)
    if r == 0.0:
        return np.eye(len(A), dtype=np.complex128)
    if r == 1.0:
        return A.copy()
    if is_hermitian(A):
        w, V = np.linalg.eigh(A)
        if w[0] <= 0.0:
            raise PrincipalBranchError(
                f"Hermitian input has eigenvalue {w[0]:.3e} on (-inf, 0]"
            )
        return (V * w**r) @ V.conj().T
    lam, V = np.linalg.eig(A)
    if not _off_cut(lam):
        raise PrincipalBranchError("spectrum touches (-inf, 0]; principal power undefined")
    cond = np.linalg.cond(V)
    if cond > EIG_COND_LIMIT:
        raise EigenbasisConditionError(
            f"eigenvector basis condition {cond:.3e} exceeds {EIG_COND_LIMIT:.0e}"
        )
    powered = np.exp(r * np.log(lam))
    return np.linalg.solve(V.T, ((V * powered).T)).T


def _resolvent_mean(
    pairs: list[tuple[np.ndarray, np.ndarray]], r: float, nodes: int
) -> list[np.ndarray]:
    """The centred quadrature kernel: P #_r Q for each pair, on trusted arrays.

    r lies off {0, 1}.  A pair whose spectrum of P^{-1} Q lies within
    1e-13 * max|lambda| of (-inf, 0] has no principal mean, and raises
    PrincipalBranchError.  All pairs share one rule.  It starts at the largest
    count their centred spectra need and doubles until every pair's
    truncation estimate is below TRUNCATION_TOL; `nodes` is the budget, and
    NodeBudgetError is raised when that takes more nodes.  A result past the
    double range raises PreconditionError.
    """
    k = math.ceil(r)
    terms, centred = [], []
    for P, Q in pairs:
        lam = np.linalg.eigvals(np.linalg.solve(P, Q))
        if not _off_cut(lam):
            raise PrincipalBranchError("spectrum touches (-inf, 0]; principal branch undefined")
        size = np.abs(lam)
        # scaled by a power of two first, so the product neither overflows
        # nor underflows, and c is the same double wherever it did not
        e = math.frexp(size.max())[1]
        c = math.ldexp(math.sqrt(math.ldexp(size.min(), -e) * math.ldexp(size.max(), -e)), e)
        centred.append(lam / c)
        Qc = Q / c
        terms.append((P, Qc, c, P if k == 0 else Qc, Qc if k == 2 else P))
    # the count is set by the nearest pole over all pairs
    n_nodes = node_count(np.concatenate(centred), nodes)
    while True:
        rule = _cached_rule(r, n_nodes)
        means = []
        for P, Qc, c, X, Y in terms:
            # row 0 sums the integral, the other rows the probed coefficients
            moments = np.zeros((len(rule.probes), Qc.size), dtype=Qc.dtype)
            block = max(1, BLOCK_ENTRIES // Qc.size)
            for lo in range(0, n_nodes, block):
                s = rule.nodes[lo:lo + block, None, None]
                pencil = (1.0 - s) * Qc + s * P
                # a leading axis marks Y as one matrix for every node
                integrand = np.linalg.solve(pencil, Y[None])
                moments += rule.probes[:, lo:lo + block] @ integrand.reshape(len(s), -1)
            sizes = np.linalg.norm(moments, axis=1)
            if not truncation_estimate(n_nodes, sizes[1:] / sizes[0]) <= TRUNCATION_TOL:
                break
            try:
                with np.errstate(over="raise"):
                    means.append(c**r * (X @ moments[0].reshape(Qc.shape)))
            except ArithmeticError:
                raise PreconditionError(
                    f"the result overflows the double range (centring scale {c:.3e})"
                ) from None
        else:
            return means
        if 2 * n_nodes > nodes:
            raise NodeBudgetError(
                f"the integrand is not resolved by {n_nodes} quadrature nodes, and "
                f"{2 * n_nodes} are more than the budget of {nodes} nodes"
            )
        n_nodes *= 2


def principal_power_quad(A: np.ndarray, r: float, nodes: int = MAX_NODES) -> np.ndarray:
    """A^r as the quadrature kernel on (I, A), with at most `nodes` nodes.

    r = 0 and r = 1 pass through exactly.
    """
    A = as_matrix(A)
    r = float(r)
    if mean_order_branch(r) == "endpoint":
        return np.eye(len(A), dtype=np.complex128) if r == 0.0 else A.copy()
    return _resolvent_mean([(np.eye(len(A), dtype=np.complex128), A)], r, nodes)[0]


@lru_cache(maxsize=512)
def _cached_rule(r: float, n_nodes: int) -> QuadratureRule:
    return quadrature_rule(r, n_nodes)


def principal_power(
    A: np.ndarray, r: float, engine: str = "eigen", nodes: int = MAX_NODES
) -> np.ndarray:
    """Engine dispatcher for principal powers restricted to r in (-1, 2)."""
    if engine not in ENGINES:
        raise PreconditionError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine == "eigen":
        mean_order_branch(r)
        return principal_power_eigen(A, r)
    return principal_power_quad(A, r, nodes)


def _require_accretive_pair(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise PreconditionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    for M, name in ((A, "first argument"), (B, "second argument")):
        holds, margin = is_accretive(M)
        if not holds:
            raise PreconditionError(
                f"{name} is not accretive (min Re-part eigenvalue {margin:.3e})"
            )


def geometric_mean(
    A: np.ndarray,
    B: np.ndarray,
    r: float,
    engine: str = "eigen",
    nodes: int = MAX_NODES,
) -> np.ndarray:
    """Weighted geometric mean A #_r B, by the route `engine` names.

    "quad" is `geometric_mean_integral` with at most `nodes` nodes.  "eigen"
    is the congruence A^{1/2} (A^{-1/2} B A^{-1/2})^r A^{1/2} with both
    powers from `principal_power_eigen`.  The inner matrix may leave the
    accretive cone, but its spectrum is spec(A^{-1} B), whose every
    eigenvalue <Bx, x> / <Ax, x> is a ratio of two numbers in the open right
    half-plane, so it avoids the branch cut; the inner power raises
    PrincipalBranchError only where rounding puts it on the cut.
    """
    if engine not in ENGINES:
        raise PreconditionError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine == "quad":
        return geometric_mean_integral(A, B, r, nodes)
    A, B = as_matrix(A), as_matrix(B)
    r = float(r)
    branch = mean_order_branch(r)
    _require_accretive_pair(A, B)
    if branch == "endpoint":
        return A.copy() if r == 0.0 else B.copy()
    root = principal_power_eigen(A, 0.5)
    root_inv = inverse(root)
    return root @ principal_power_eigen(root_inv @ B @ root_inv, r) @ root


def geometric_mean_integral(
    A: np.ndarray, B: np.ndarray, r: float, nodes: int = MAX_NODES
) -> np.ndarray:
    """A #_r B through its direct integral form, the quadrature kernel on (A, B).

    Each node solves with the pencil (1-s) B/c + s A, a weighted arithmetic
    mean of A and the centred B/c; no congruence, no fractional power and no
    inverse is involved, which makes this an independent cross-check of the
    eigen route of `geometric_mean`.  r = 0 and r = 1 pass A and B through,
    as that route does.
    """
    A, B = as_matrix(A), as_matrix(B)
    _require_accretive_pair(A, B)
    r = float(r)
    if mean_order_branch(r) == "endpoint":
        return A.copy() if r == 0.0 else B.copy()
    return _resolvent_mean([(A, B)], r, nodes)[0]


def reflection_identity(A: np.ndarray, B: np.ndarray, r: float) -> np.ndarray:
    """B (A #_{2-r} B)^{-1} B, which equals A #_r B for r in (1, 2)."""
    r = float(r)
    if mean_order_branch(r) != "r12":
        raise PreconditionError(f"reflection form needs r in (1, 2), got {r}")
    B = as_matrix(B)
    return B @ inverse(geometric_mean(A, B, 2.0 - r)) @ B


def negation_identity(A: np.ndarray, B: np.ndarray, r: float) -> np.ndarray:
    """A (A^{-1} #_{-r} B^{-1}) A, which equals A #_r B for r in (-1, 0)."""
    r = float(r)
    if mean_order_branch(r) != "rneg":
        raise PreconditionError(f"negation form needs r in (-1, 0), got {r}")
    A = as_matrix(A)
    return A @ geometric_mean(inverse(A), inverse(as_matrix(B)), -r) @ A


def inverse_mean_identity(
    A: np.ndarray, B: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of (A #_r B)^{-1} = A^{-1} #_r B^{-1}."""
    A, B = as_matrix(A), as_matrix(B)
    return inverse(geometric_mean(A, B, r)), geometric_mean(inverse(A), inverse(B), r)
