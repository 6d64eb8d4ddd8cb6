"""Unitarily invariant norms and the numerical radius.

The numerical radius is the support-function sweep
w(A) = max_theta lambda_max(Re(e^{-i theta} A)) over a dense angular grid,
with each local maximum refined by golden-section search.  The sandwich
||A||/2 <= w(A) <= ||A|| is asserted after every computation.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import PreconditionError, as_matrix, op_norm, singular_values

__all__ = ["NORM_KINDS", "ui_norm", "numerical_radius"]

NORM_KINDS = ("operator", "frobenius", "trace", "kyfan")

RADIUS_GRID = 720
RADIUS_THETA_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """max |<Ax, x>| over unit vectors, via the angular support sweep."""
    A = as_matrix(A)
    thetas = np.arange(RADIUS_GRID) * (2.0 * math.pi / RADIUS_GRID)
    g = _support(A, thetas)
    best = float(g.max())
    spread = float(g.max() - g.min())
    if spread > 1e-13 * max(1.0, abs(best)):
        left, right = np.roll(g, 1), np.roll(g, -1)
        peaks = (g >= left) & (g >= right) & ((g > left) | (g > right))
        idx = np.nonzero(peaks)[0]
        if idx.size:
            h = 2.0 * math.pi / RADIUS_GRID
            a = thetas[idx] - h
            b = thetas[idx] + h
            x1 = b - _INVPHI * (b - a)
            x2 = a + _INVPHI * (b - a)
            f1 = _support(A, x1)
            f2 = _support(A, x2)
            while float((b - a).max()) > RADIUS_THETA_TOL:
                take_left = f1 >= f2
                new_a = np.where(take_left, a, x1)
                new_b = np.where(take_left, x2, b)
                gap = new_b - new_a
                cand1 = new_b - _INVPHI * gap
                cand2 = new_a + _INVPHI * gap
                probe = np.where(take_left, cand1, cand2)
                fp = _support(A, probe)
                new_x1 = np.where(take_left, cand1, x2)
                new_f1 = np.where(take_left, fp, f2)
                new_x2 = np.where(take_left, x1, cand2)
                new_f2 = np.where(take_left, f1, fp)
                a, b, x1, x2, f1, f2 = new_a, new_b, new_x1, new_x2, new_f1, new_f2
            best = max(best, float(f1.max()), float(f2.max()))
    nrm = op_norm(A)
    if not (0.5 * nrm * (1.0 - 1e-9) - 1e-12 <= best <= nrm * (1.0 + 1e-9) + 1e-12):
        raise AssertionError(
            f"numerical radius {best} escapes the sandwich [{0.5 * nrm}, {nrm}]"
        )
    return best
