"""Seeded compute inputs and references computed apart from sectormeans.

Nothing here imports the package under test. The references use SciPy's
Schur-Pade matrix functions, the generalized Hermitian eigenproblem and
NumPy's SVD, so a wrong digit in the program cannot be reproduced by the
check that is meant to catch it.

Two conditioning bands:

* ``well``: A = H^{1/2} (I + iS) H^{1/2} with spec(H) log-spaced over
  [1, WELL_KAPPA] and ||S|| = tan(alpha), so W(A) lies in the sector of
  half-angle exactly alpha; non-normal.
* ``ill``: A = U diag(lambda) U* with |lambda| log-spaced over [1, ILL_KAPPA]
  and arg(lambda) uniform in [-theta, theta]; normal, so the sector angle
  is max |arg lambda|. The second mean argument stays in the well band.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.linalg as sla

TOL = 1e-8  # the package's promised relative accuracy
WELL_KAPPA = 10.0
ILL_KAPPA = 3e4
MAX_ANGLE = 1.2
RADIUS_COARSE = 360
ZOOM_PEAKS = 3
ZOOM_LEVELS = 4
ZOOM_POINTS = 33


def derive(*parts) -> int:
    """64-bit seed from a tuple of parts (independent of the package's own)."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def well_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    alpha = rng.uniform(0.0, MAX_ANGLE)
    d = np.logspace(0.0, math.log10(WELL_KAPPA), n)
    Q = _unitary(n, rng)
    H = (Q * d) @ Q.conj().T
    H_half = (Q * np.sqrt(d)) @ Q.conj().T
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = 0.5 * (G + G.conj().T)
    S *= math.tan(alpha) / max(float(np.abs(np.linalg.eigvalsh(S)).max()), 1e-300)
    return H + 1j * (H_half @ S @ H_half)


def ill_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, MAX_ANGLE)
    lam = np.logspace(0.0, math.log10(ILL_KAPPA), n) * np.exp(1j * rng.uniform(-theta, theta, n))
    U = _unitary(n, rng)
    return (U * lam) @ U.conj().T


def band_matrix(band: str, n: int, rng: np.random.Generator) -> np.ndarray:
    return ill_matrix(n, rng) if band == "ill" else well_matrix(n, rng)


# ---------------------------------------------------------------------------
# references


def ref_power(A: np.ndarray, r: float) -> np.ndarray:
    return sla.fractional_matrix_power(A, r)


def ref_mean(A: np.ndarray, B: np.ndarray, r: float) -> np.ndarray:
    """A #_r B by the congruence A^{1/2} (A^{-1/2} B A^{-1/2})^r A^{1/2}."""
    root = sla.sqrtm(A)
    root_inv = np.linalg.inv(root)
    return root @ sla.fractional_matrix_power(root_inv @ B @ root_inv, r) @ root


def ref_sector(A: np.ndarray) -> float:
    """arctan of the largest |mu| with Im(A) x = mu Re(A) x."""
    re = 0.5 * (A + A.conj().T)
    im = (A - A.conj().T) / 2j
    mu = sla.eigh(im, re, eigvals_only=True)
    return math.atan(float(np.abs(mu).max()))


def ref_norms(A: np.ndarray) -> dict:
    sv = np.linalg.svd(A, compute_uv=False)
    return {
        "operator": float(sv[0]),
        "frobenius": float(np.sqrt((sv**2).sum())),
        "trace": float(sv.sum()),
        "kyfan": [float(x) for x in np.cumsum(sv)],
    }


def _support(A: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(Re(e^{-i theta} A)) for each theta, 64 angles at a time."""
    out = []
    for chunk in np.array_split(thetas, max(1, len(thetas) // 64)):
        phase = np.exp(-1j * chunk)[:, None, None]
        out.append(np.linalg.eigvalsh(0.5 * (phase * A + np.conj(phase) * A.conj().T))[:, -1])
    return np.concatenate(out)


def ref_wradius_bounds(A: np.ndarray) -> tuple[float, float]:
    """(lower, upper) bounds on w(A).

    Every support value lambda_max(Re(e^{-i theta} A)) is a lower bound on
    w(A). The grid is RADIUS_COARSE even angles, then ZOOM_LEVELS nested
    grids of ZOOM_POINTS angles around each of the ZOOM_PEAKS best coarse
    angles; its maximum is joined by max(rho(A), ||A||/2). ||A|| is the
    upper bound.
    """
    thetas = np.arange(RADIUS_COARSE) * (2.0 * math.pi / RADIUS_COARSE)
    g = _support(A, thetas)
    best = float(g.max())
    for idx in np.argsort(g)[-ZOOM_PEAKS:]:
        center, half = thetas[idx], 2.0 * math.pi / RADIUS_COARSE
        for _ in range(ZOOM_LEVELS):
            local = center + np.linspace(-half, half, ZOOM_POINTS)
            gl = _support(A, local)
            best = max(best, float(gl.max()))
            center, half = local[int(gl.argmax())], 2.0 * half / (ZOOM_POINTS - 1)
    norm = float(np.linalg.svd(A, compute_uv=False)[0])
    rho = float(np.abs(np.linalg.eigvals(A)).max())
    return max(best, rho, 0.5 * norm), norm


# ---------------------------------------------------------------------------
# verdicts: each returns an error figure; the output passes when it is <= TOL


def matrix_error(out: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(out - ref) / np.linalg.norm(ref))


def scalar_error(out: float, ref: float) -> float:
    return abs(out - ref) / max(abs(ref), 1e-300)


def norms_error(out: dict, ref: dict) -> float:
    if set(out) != set(ref) or len(out["kyfan"]) != len(ref["kyfan"]):
        return math.inf
    errs = [scalar_error(out[k], ref[k]) for k in ("operator", "frobenius", "trace")]
    errs += [scalar_error(x, y) for x, y in zip(out["kyfan"], ref["kyfan"])]
    return max(errs)


def wradius_error(out: float, bounds: tuple[float, float]) -> float:
    """Relative distance by which out leaves [lower, upper]; 0 inside."""
    lower, upper = bounds
    return max(0.0, (lower - out) / lower, (out - upper) / upper)
