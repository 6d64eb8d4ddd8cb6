"""Sector cones, accretivity certificates, and seeded instance generators.

A matrix A is accretive when its Hermitian part is positive definite, and
lies in the sector of half-angle alpha when additionally
tan(alpha) * Re(A) - Im(A) and tan(alpha) * Re(A) + Im(A) are both PSD;
every margin comes from `linalg.loewner_margin`.  The generators are
deterministic functions of their integer seed so every sampled instance can
be reproduced from the seed alone, and a sectorial draw is certified by
construction: its angle is a closed form, never measured or refused.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import (
    REL_SLACK,
    PreconditionError,
    as_matrix,
    imag_part,
    lapack,
    loewner_margin,
    op_norm,
    real_part,
    sqrt_pd,
)

__all__ = [
    "SectorCertificate",
    "validate_sector_angle",
    "is_accretive",
    "sector_angle",
    "in_sector",
    "derive_seed",
    "gen_pd",
    "gen_accretive",
    "gen_sectorial",
    "gen_unitary",
]

MAX_DIM = 64

# A is accretive when lambda_min(Re A) exceeds this fraction of max|a_ij|;
# being relative, the test is invariant under A -> cA, as the means are.
ACCRETIVE_FLOOR = 1e-12


def validate_sector_angle(alpha: float) -> float:
    """alpha as a float, refused unless it is a real number in [0, pi/2)."""
    if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha < math.pi / 2):
        raise PreconditionError(f"sector half-angle must lie in [0, pi/2), got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class SectorCertificate:
    """A matrix together with a verified sector half-angle bound.

    alpha is the requested bound, angle the matrix's own sector angle.
    """

    matrix: np.ndarray
    alpha: float
    angle: float


def _accretive_floor(A: np.ndarray) -> float:
    return ACCRETIVE_FLOOR * float(np.abs(A).max(initial=0.0))


def is_accretive(A: np.ndarray) -> tuple[bool, float]:
    """Test whether Re(A) is positive definite; margin is lambda_min(Re A)."""
    A = as_matrix(A)
    margin = loewner_margin(0.0, A)
    return margin > _accretive_floor(A), margin


def sector_angle(A: np.ndarray) -> float:
    """Smallest alpha such that the numerical range of A lies in the sector.

    Computed as arctan of the spectral radius of R^{-1/2} Im(A) R^{-1/2}
    with R = Re(A).  Requires A accretive.
    """
    A = as_matrix(A)
    R = real_part(A)
    w, V = lapack("eigh")(R)
    if w[0] <= _accretive_floor(A):
        raise PreconditionError(
            f"sector angle requires an accretive matrix (min Re-part eigenvalue {w[0]:.3e})"
        )
    Rinvsqrt = (V / np.sqrt(w)) @ V.conj().T
    T = Rinvsqrt @ imag_part(A) @ Rinvsqrt
    rho = float(np.abs(lapack("eigvalsh")(real_part(T))).max())
    return math.atan(rho)


def in_sector(A: np.ndarray, alpha: float) -> bool:
    """Whether A is accretive and its numerical range lies in the alpha-sector."""
    A = as_matrix(A)
    alpha = validate_sector_angle(alpha)
    accretive, _ = is_accretive(A)
    if not accretive:
        return False
    R, S = real_part(A), imag_part(A)
    t = math.tan(alpha)
    re_norm = op_norm(R)
    for cone in (t * R - S, t * R + S):
        if loewner_margin(0.0, cone) < -REL_SLACK * max(op_norm(cone), re_norm):
            return False
    return True


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from a tuple of ints/strings.

    Counter-based: extending the part tuple (the runner passes a trial index
    and an attempt index, always 0) yields statistically independent
    streams, reproducible across runs and platforms.
    """
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _check_dim(n: int) -> int:
    if not (isinstance(n, numbers.Integral) and 1 <= n <= MAX_DIM):
        raise PreconditionError(f"dimension must be an integer in [1, {MAX_DIM}], got {n!r}")
    return int(n)


def _seeded(seed: int) -> np.random.Generator:
    """The generator of an integer seed >= 0, which determines every draw."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise PreconditionError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(int(seed))


def _complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _pd(n: int, rng: np.random.Generator) -> np.ndarray:
    G = _complex_gaussian(n, rng)
    return G.conj().T @ G + 0.1 * np.eye(n)


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    return real_part(_complex_gaussian(n, rng))


def _accretive(n: int, rng: np.random.Generator) -> np.ndarray:
    return _pd(n, rng) + 1j * _hermitian(n, rng)


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = lapack("qr")(_complex_gaussian(n, rng))
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def _sectorial(n: int, alpha: float, rng: np.random.Generator) -> SectorCertificate:
    H = _pd(n, rng)
    S = _hermitian(n, rng)
    tau = rng.uniform(0.5, 1.0)
    nrm = op_norm(S)
    if nrm == 0.0:
        S = np.eye(n)
        nrm = 1.0
    S = S * (tau * math.tan(alpha) / nrm)
    Hsqrt = sqrt_pd(H)
    X = H + 1j * (Hsqrt @ S @ Hsqrt)
    # Re X = H and H^{-1/2} Im(X) H^{-1/2} = S, whose spectral radius is ||S||
    return SectorCertificate(matrix=X, alpha=alpha, angle=math.atan(tau * math.tan(alpha)))


def gen_pd(n: int, seed: int) -> np.ndarray:
    """Random Hermitian positive definite matrix, eigenvalues >= 0.1."""
    return _pd(_check_dim(n), _seeded(seed))


def gen_accretive(n: int, seed: int) -> np.ndarray:
    """Random accretive matrix H + iK with H positive definite, K Hermitian."""
    return _accretive(_check_dim(n), _seeded(seed))


def gen_sectorial(n: int, alpha: float, seed: int) -> SectorCertificate:
    """Random matrix with sector angle in [0.4 * alpha, alpha).

    Built as H + i H^{1/2} S H^{1/2} with ||S|| = tau * tan(alpha),
    tau ~ U[0.5, 1), so the certificate's angle is arctan(tau * tan(alpha)).
    """
    alpha = validate_sector_angle(alpha)
    if alpha == 0.0:
        return SectorCertificate(matrix=gen_pd(n, seed), alpha=0.0, angle=0.0)
    return _sectorial(_check_dim(n), alpha, _seeded(seed))


def gen_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    return _unitary(_check_dim(n), _seeded(seed))
