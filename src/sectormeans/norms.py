"""Unitarily invariant norms and the numerical radius.

The numerical radius w(A) = max_theta lambda_max(Re(e^{-i theta} A)) is
computed by the level-set (criss-cross) iteration of Mengi and Overton,
IMA J. Numer. Anal. 25 (2005), on A/||A||.  From the best of a few
sampled angles, the level l is raised to the largest support value at the
midpoints between the angles where l is an eigenvalue of
Re(e^{-i theta} A), until it stops rising; the final level is the global
maximum, not a grid estimate.  The relative sandwich
||A||/2 <= w(A) <= ||A|| is checked after every computation, and a result
outside it raises RadiusCertificateError.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .linalg import PreconditionError, as_matrix, op_norm, singular_values

__all__ = ["NORM_KINDS", "RadiusCertificateError", "ui_norm", "numerical_radius"]

NORM_KINDS = ("operator", "frobenius", "trace", "kyfan")


class RadiusCertificateError(PreconditionError):
    """The computed numerical radius escapes ||A||/2 <= w <= ||A||; no value is returned."""


def ui_norm(A: np.ndarray, kind: str = "operator", k: int | None = None) -> float:
    """Unitarily invariant norm from the singular values.

    kind: 'operator' (largest), 'frobenius' (l2 of all), 'trace' (sum),
    'kyfan' (sum of the k largest; requires 1 <= k <= n).
    """
    sv = singular_values(as_matrix(A))
    if kind == "operator":
        return float(sv[0])
    if kind == "frobenius":
        return float(np.sqrt((sv**2).sum()))
    if kind == "trace":
        return float(sv.sum())
    if kind == "kyfan":
        if k is None or not 1 <= int(k) <= len(sv):
            raise PreconditionError(f"kyfan norm needs 1 <= k <= {len(sv)}, got {k}")
        return float(sv[: int(k)].sum())
    raise PreconditionError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")


def _support(A: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phase = np.exp(-1j * thetas)[:, None, None]
    rotated = 0.5 * (phase * A + np.conj(phase) * A.conj().T)
    return np.linalg.eigvalsh(rotated)[..., -1]


def numerical_radius(A: np.ndarray) -> float:
    """max |<Ax, x>| over unit vectors, via the level-set iteration on A/||A||."""
    A = as_matrix(A)
    nrm = op_norm(A)
    if nrm == 0.0:
        return 0.0
    A = A / nrm
    n = A.shape[0]
    # The unimodular eigenvalues z = e^{i theta} of the pencil
    # [[0, I], [-A, 2 level I]] - z [[I, 0], [0, A*]] are the angles at which
    # `level` is an eigenvalue of Re(e^{-i theta} A).  A singular A* gives
    # infinite eigenvalues, which fail the unimodularity test.  Near a tangency
    # (level just below a flat peak) the crossing pair leaves the circle by
    # far more than rounding, so the unimodularity test is loose: a spurious
    # angle only adds a midpoint, and a midpoint's support value is never
    # above w(A).
    pencil = np.block([[np.zeros((n, n)), np.eye(n)], [-A, np.zeros((n, n))]])
    weight = scipy.linalg.block_diag(np.eye(n), A.conj().T)
    level = float(_support(A, np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)).max())
    while True:
        np.fill_diagonal(pencil[n:, n:], 2.0 * level)
        z = scipy.linalg.eigvals(pencil, weight, check_finite=False)
        angles = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-4]))
        if angles.size == 0:
            break
        mids = 0.5 * (angles + np.append(angles[1:], angles[0] + 2.0 * math.pi))
        raised = float(_support(A, mids).max())
        if raised <= level:
            break
        level = raised
    if not 0.5 * (1.0 - 1e-9) <= level <= 1.0 + 1e-9:
        raise RadiusCertificateError(
            f"numerical radius {level * nrm} escapes the sandwich [{0.5 * nrm}, {nrm}]"
        )
    return level * nrm
