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
of returning digits it cannot certify.  The nodes run in the Schur basis
of P^{-1} Q, one LAPACK zgees per pair, whose diagonal is the spectrum
above: there every node's pencil is upper triangular, and one batched
back-substitution inverts a block of nodes of at most BLOCK_ENTRIES matrix
entries.  The kernel takes a list of pairs at one order and integrates them
all with one rule, at the largest count their spectra need, accepted only
when every pair's estimate passes; a check that compares two means at the
same r builds one rule.  The mean A #_r B is the kernel on (A, B), its
direct integral form, with no congruence and no fractional power; the
power A^r is the kernel on (I, A), which needs no solve with I.  Both
routes have the kernel's one domain rule, read off the spectrum it already
computes: P^{-1} Q with an eigenvalue that is 0, or within 1e-13 rad of the
negative axis, raises PrincipalBranchError (`_off_cut`).

The eigen route diagonalizes and applies the principal branch of z^r on the
spectrum; the mean A #_r B is then the congruence
A^{1/2} (A^{-1/2} B A^{-1/2})^r A^{1/2}.  So each object has one route per
engine, and `principal_power` and `geometric_mean` pick it by name; the
latter validates once and hands trusted arrays to the kernel `_resolvent_mean`
or `_congruence`, as the `checks` catalog does with the sampler's instances.
Every route ends in one range check, `_finite`.  The
reflection, negation and inverse identities that relate A #_r B across the
branches are claims of the `checks` catalog (I01-I03), not routes.
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
    lapack,
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
]

# Eigenvector basis condition number beyond which the eigen route refuses to
# certify its result; callers regenerate the instance instead.
EIG_COND_LIMIT = 1e8

ENGINES = ("quad", "eigen")
# matrix entries per block of node inverses (32 nodes at n = 64, every node
# of a small matrix's rule), so the kernel's memory does not grow with the count
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
    """The quad kernel's rule: no eigenvalue is 0 or within 1e-13 rad of (-inf, 0)."""
    on_cut = (lam == 0) | ((lam.real < 0) & (np.abs(lam.imag) <= 1e-13 * np.abs(lam)))
    return not bool(on_cut.any())


def _finite(M: np.ndarray) -> np.ndarray:
    """M, refused where it overflowed, or underflowed to zero: A^r and A #_r B
    of admissible inputs are invertible."""
    if not np.isfinite(M).all():
        raise PreconditionError("the result overflows the double range")
    if not M.any():
        raise PreconditionError("the result underflows the double range")
    return M


def _pair(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and B as matrices, refused unless they have one shape."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise PreconditionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


def harmonic_mean(A: np.ndarray, B: np.ndarray, s: float) -> np.ndarray:
    """Weighted harmonic mean ((1-s) A^{-1} + s B^{-1})^{-1} for s in [0, 1]."""
    A, B = _pair(A, B)
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
    A, B = _pair(A, B)
    return (1.0 - float(r)) * A + float(r) * B


def principal_power_eigen(A: np.ndarray, r: float) -> np.ndarray:
    """A^r through the eigendecomposition and the principal branch of z^r.

    Rejects spectra touching (-inf, 0] (`eig`'s within 1e-13 max|lambda|, as
    its eigenvalues err by about eps ||A|| cond(V)), eigenvector bases with
    condition number above EIG_COND_LIMIT (the result could not be certified
    to the tolerances the rest of the package promises) and results that
    overflow or underflow the double range.  It accepts any real r.
    """
    A = as_matrix(A)
    r = float(r)
    if r == 0.0:
        return np.eye(len(A), dtype=np.complex128)
    if r == 1.0:
        return A.copy()
    return _finite(_eigen_power(A, r))


def _eigen_power(A: np.ndarray, r: float) -> np.ndarray:
    """`principal_power_eigen` on a trusted A at r off {0, 1}, with no range
    check: past the double range the result holds inf or nan, or is all zero."""
    if is_hermitian(A):
        w, V = lapack("eigh")(A)
        if w[0] <= 0.0:
            raise PrincipalBranchError(
                f"Hermitian input has eigenvalue {w[0]:.3e} on (-inf, 0]"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return (V * w**r) @ V.conj().T
    lam, V = lapack("eig")(A)
    tol = 1e-13 * np.abs(lam).max()
    if ((lam.real <= tol) & (np.abs(lam.imag) <= tol)).any():
        raise PrincipalBranchError("spectrum touches (-inf, 0]; principal power undefined")
    cond = lapack("cond")(V)
    if cond > EIG_COND_LIMIT:
        raise EigenbasisConditionError(
            f"eigenvector basis condition {cond:.3e} exceeds {EIG_COND_LIMIT:.0e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        powered = np.exp(r * np.log(lam))
        return lapack("solve")(V.T, ((V * powered).T)).T


def _scaled(M: np.ndarray, cb: float, shift: int, r: float) -> np.ndarray:
    """c^r M for the scale c = cb * 2^shift, which may lie past the double
    range, as may c^r; M is overwritten.  Callers hold
    np.errstate(over="ignore", invalid="ignore"), under which they formed M.

    2^(shift r) is split into 2^n 2^f, with n an integer and f in [0, 1), and
    2^n is applied to the product last, so c^r may lie past the double range
    where c^r M does not.  `_finite` refuses a result that does.
    """
    a, b = r.as_integer_ratio()
    n, rem = divmod(shift * a, b)
    M *= np.float64(cb) ** r * 2.0 ** (rem / b)
    # on the real and imaginary parts, as ldexp takes no complex
    return _finite(np.ldexp(M.view(np.float64), n).view(np.complex128))


def _unordered(z):
    """zgees's eigenvalue selector; with no ordering asked, LAPACK never calls it."""


def _triangular_inverses(T: np.ndarray, s: np.ndarray) -> np.ndarray:
    """((1-s_j) T + s_j I)^{-1} for every node s_j, T upper triangular.

    One back-substitution serves all nodes: row i of the inverse is
    -(1-s_j) T[i, i+1:] times its lower rows, over the pivot, so each of the
    n-1 row steps is one batched product.
    """
    n, m = len(T), len(s)
    a = (1.0 - s)[:, None]
    X = np.zeros((m, n, n), dtype=np.complex128)
    pivots_inv = X.reshape(m, -1)[:, :: n + 1]  # a view of the diagonals
    np.divide(1.0, a * np.diagonal(T) + s[:, None], out=pivots_inv)
    coef = -a * pivots_inv
    for i in range(n - 2, -1, -1):
        np.multiply(coef[:, i, None], T[i, i + 1:] @ X[:, i + 1:, i + 1:], out=X[:, i, i + 1:])
    return X


def _resolvent_mean(
    pairs: list[tuple[np.ndarray | None, np.ndarray]], r: float, nodes: int
) -> list[np.ndarray]:
    """The centred quadrature kernel: P #_r Q for each pair, on trusted arrays.

    r lies off {0, 1}, and P None stands for the identity.  A pair with an
    eigenvalue of P^{-1} Q on the branch cut (`_off_cut`) has no principal
    mean, and raises PrincipalBranchError.  All pairs share one rule.  It
    starts at the largest count their centred spectra need and doubles until
    every pair's truncation estimate is below TRUNCATION_TOL; `nodes` is the
    budget, and NodeBudgetError is raised when that takes more nodes.  A
    result past the double range raises PreconditionError, and a failed
    solve with P or zgees LapackError.

    The nodes run in the Schur basis P^{-1} Q/c = Z T_c Z* (LAPACK zgees),
    where the pencil (1-s) Q/c + s P is P Z ((1-s) T_c + s I) Z*, triangular
    in the middle.  With S the integral of ((1-s) T_c + s I)^{-1}, the
    integral of the pencil's inverse is Z S Z* P^{-1}, so X (...) Y is
    X Z S Z* for Y = P, and X Z S T_c Z* for Y = Q/c.
    """
    k = math.ceil(r)
    terms, centred = [], []
    for P, Q in pairs:
        # P^{-1} Q may pass the double range where max|P| and max|Q| lie far
        # apart, so Q is shifted by a power of two to the size of P first,
        # and c carries the shift.  The power is even, as LAPACK's
        # eigenvalues scale exactly under an even power and move in the last
        # bits under an odd one; it is applied in two factors, as 2^-shift
        # itself may pass the double range.
        exponent_p = 1 if P is None else math.frexp(np.abs(P).max())[1]
        shift = 2 * int((math.frexp(np.abs(Q).max())[1] - exponent_p) / 2)
        half = shift // 2
        Qb = Q * math.ldexp(1.0, -half) * math.ldexp(1.0, half - shift)
        M = Qb if P is None else lapack("solve")(P, Qb)
        T, _, lam, Z, _ = lapack("zgees")(_unordered, M)
        if not _off_cut(lam):
            raise PrincipalBranchError("spectrum touches (-inf, 0]; principal branch undefined")
        size = np.abs(lam)
        # scaled by a power of two first, so the product neither overflows
        # nor underflows, and cb is the same double wherever it did not
        e = math.frexp(size.max())[1]
        cb = math.ldexp(math.sqrt(math.ldexp(size.min(), -e) * math.ldexp(size.max(), -e)), e)
        centred.append(lam / cb)
        terms.append((T / cb, Z, cb, shift, P if k == 0 else Qb / cb))
    # the count is set by the nearest pole over all pairs
    n_nodes = node_count(np.concatenate(centred), nodes)
    while True:
        rule = _cached_rule(r, n_nodes)
        means = []
        for Tc, Z, cb, shift, X in terms:
            # row 0 sums the integral, the other rows the probed coefficients
            block = max(1, BLOCK_ENTRIES // Tc.size)
            for lo in range(0, n_nodes, block):
                inverses = _triangular_inverses(Tc, rule.nodes[lo:lo + block])
                part = rule.probes[:, lo:lo + block] @ inverses.reshape(len(inverses), -1)
                moments = part if lo == 0 else moments + part
            if k == 2:
                moments = (moments.reshape(-1, *Tc.shape) @ Tc).reshape(len(moments), -1)
            # Frobenius norms, which Z leaves as they are
            sizes = np.linalg.norm(moments, axis=1)
            if not truncation_estimate(n_nodes, sizes[1:] / sizes[0]) <= TRUNCATION_TOL:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                M = Z @ moments[0].reshape(Tc.shape) @ Z.conj().T
                means.append(_scaled(M if X is None else X @ M, cb, shift, r))
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
    return _resolvent_mean([(None, A)], r, nodes)[0]


# Fixed-r suites and repeated compute calls (traced hit ratio 0.333) reuse rules:
# 66 is the least size keeping r01, r12 and rneg at 500 trials at 95% of 512's hits.
@lru_cache(maxsize=66)
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


def _congruence(A: np.ndarray, B: np.ndarray, r: float) -> np.ndarray:
    """The eigen kernel: A #_r B as A^{1/2} (A^{-1/2} B A^{-1/2})^r A^{1/2}, on
    trusted arrays, with both powers by the eigen route (`_eigen_power`).

    A and B are accretive and r lies in the mean's domain, off its endpoints
    0 and 1, which `geometric_mean` passes through.  The inner matrix
    may leave the accretive cone, but its spectrum is spec(A^{-1} B), whose
    every eigenvalue <Bx, x> / <Ax, x> is a ratio of two numbers in the open
    right half-plane, so it avoids the branch cut; the inner power raises
    PrincipalBranchError only where rounding puts it on the cut.

    Where the inner power leaves the double range, which the mean may not
    (the inner matrix of 1e300 I and 1e100 I is 1e-200 I), it is taken of
    the inner matrix scaled by an even power of two, 2^-shift, and `_scaled`
    applies 2^(shift r) to the product last.  Elsewhere no scale enters.
    """
    root = principal_power_eigen(A, 0.5)
    root_inv = inverse(root)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = root_inv @ B @ root_inv
        size = np.abs(inner).max()
        # past the double range, or with no normal entry left to carry digits
        if not np.finfo(float).tiny <= size < np.inf:
            raise PreconditionError("the congruence A^{-1/2} B A^{-1/2} leaves the double range")
        powered = _eigen_power(inner, r)
        if np.isfinite(powered).all() and powered.any():
            return _finite(root @ powered @ root)
        # even, as LAPACK's eigenvalues scale exactly under an even power of two
        shift = 2 * (math.frexp(size)[1] // 2)
        powered = _finite(_eigen_power(inner * math.ldexp(1.0, -shift), r))
        return _scaled(root @ powered @ root, 1.0, shift, r)


def geometric_mean(
    A: np.ndarray, B: np.ndarray, r: float, engine: str = "eigen", nodes: int = MAX_NODES
) -> np.ndarray:
    """Weighted geometric mean A #_r B, by the route `engine` names.

    The one validated entry for the mean.  It refuses, in this order, an
    unknown engine, a pair that is not two matrices of one shape, an argument
    that is not accretive and an order outside (-1, 2); r = 0 and r = 1 pass
    A and B through.  "quad" is then the quadrature kernel on (A, B), with at
    most `nodes` nodes, and "eigen" the congruence (`_congruence`).
    """
    if engine not in ENGINES:
        raise PreconditionError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    A, B = _pair(A, B)
    for M, name in ((A, "first argument"), (B, "second argument")):
        holds, least = is_accretive(M)
        if not holds:
            raise PreconditionError(f"{name} is not accretive (min Re-part eigenvalue {least:.3e})")
    r = float(r)
    if mean_order_branch(r) == "endpoint":
        return A.copy() if r == 0.0 else B.copy()
    if engine == "quad":
        return _resolvent_mean([(A, B)], r, nodes)[0]
    return _congruence(A, B, r)


def geometric_mean_integral(
    A: np.ndarray, B: np.ndarray, r: float, nodes: int = MAX_NODES
) -> np.ndarray:
    """A #_r B through its direct integral form: `geometric_mean` on engine "quad".

    The integrand is the inverse of the pencil (1-s) B/c + s A, a weighted
    arithmetic mean of A and the centred B/c, taken in the Schur basis of
    A^{-1} B/c; no congruence and no fractional power is involved, which
    makes this an independent cross-check of the eigen route.
    """
    return geometric_mean(A, B, r, "quad", nodes)
