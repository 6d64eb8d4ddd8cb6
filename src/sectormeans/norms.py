"""Unitarily invariant norms and the numerical radius.

The numerical radius w(A) = max_theta f(theta), with the support function
f(theta) = lambda_max(Re(e^{-i theta} A)), is computed on A/||A||.

A Hermitian input needs no search: with A = H + iK,
||H|| = w(H) <= w(A) <= ||A|| <= ||H|| + ||K||, so ||A|| is w(A) within
||K||_F.  When ||A - A*||_F <= HERMITIAN_TOL * n * eps * ||A|| (K at
rounding level), ||A|| is returned.

Every other input takes Newton ascent on f between certificates of the
level-set (criss-cross) iteration of Mengi and Overton, IMA J. Numer. Anal.
25 (2005), as Mitchell, SIAM J. Sci. Comput. 45 (2023), proposes.  From the
angle of the eigenvalue of largest modulus (w(A) >= rho(A), with equality
at that angle for a normal A), f is climbed to a local maximum, and its
value there is the level l.  One generalized eigenvalue solve then either
certifies l (no angle attains it, so l is the global maximum, not a local
estimate) or returns the angles where l is an eigenvalue of
Re(e^{-i theta} A); the climb restarts from the best midpoint between them.
The result is the largest support value found.  The relative sandwich
||A||/2 <= w(A) <= ||A|| is checked after every such computation, and a
result outside it raises RadiusCertificateError.

The level-set test is the 2n x 2n pencil P - z W with W = diag(I, A*).
The SVD that normalises A also gives sigma_min / sigma_max.  From
LEVEL_SET_RCOND = 1e-6 up, W is inverted once per call, by a solve with A*,
and each test is the standard eigenproblem of W^{-1} P, which takes a half
to a fifth of the time of LAPACK zggev on the pencil at n = 32 to 64.  The
solve has a backward error of about eps * sigma_max / sigma_min, and near a
tangency (a second support peak just above the level) it moves the
crossing pair off the unit circle by about the square root of that: 1.5e-5
at the floor, inside the unimodularity window of 1e-4, but 1.5e-4 at 1e-8,
outside it.  Seen on seeded matrices: with two support peaks 1e-10 apart
the standard form can stop 1e-10 low at sigma_min / sigma_max = 1e-8 and
finds the higher peak at 2e-6; with no such peak it erred by up to 6% at 1e-11.
Below the floor, and for a singular A, zggev solves the pencil.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .linalg import PreconditionError, as_matrix, lapack, real_part, singular_values

__all__ = ["NORM_KINDS", "RadiusCertificateError", "ui_norm", "norm_table", "numerical_radius"]

NORM_KINDS = ("operator", "frobenius", "trace", "kyfan")
# ||A - A*||_F <= HERMITIAN_TOL * n * eps * ||A|| takes w(A) = ||A||
HERMITIAN_TOL = 16.0
# Newton steps per climb; near a peak each step squares the angle error
NEWTON_STEPS = 16
# sigma_min / sigma_max of A from which the level-set test is a standard
# eigenproblem; below it the generalized pencil runs (see _level_set)
LEVEL_SET_RCOND = 1e-6


class RadiusCertificateError(PreconditionError):
    """The computed numerical radius escapes ||A||/2 <= w <= ||A||; no value is returned."""


def _norm(sv: np.ndarray, kind: str, k: int | None = None) -> float:
    if kind == "operator":
        return float(sv[0])
    if kind == "frobenius":
        return float(np.sqrt((sv**2).sum()))
    if kind == "trace":
        return float(sv.sum())
    if kind == "kyfan":
        if not (isinstance(k, numbers.Integral) and 1 <= k <= len(sv)):
            raise PreconditionError(f"kyfan norm needs an integer 1 <= k <= {len(sv)}, got {k!r}")
        return float(sv[:k].sum())
    raise PreconditionError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")


def ui_norm(A: np.ndarray, kind: str = "operator", k: int | None = None) -> float:
    """Unitarily invariant norm from the singular values.

    kind: 'operator' (largest), 'frobenius' (l2 of all), 'trace' (sum),
    'kyfan' (sum of the k largest; requires 1 <= k <= n).
    """
    return _norm(singular_values(as_matrix(A)), kind, k)


def norm_table(A: np.ndarray) -> dict:
    """Every norm kind of `ui_norm` from one SVD; 'kyfan' lists k = 1..n."""
    sv = singular_values(as_matrix(A))
    table: dict = {kind: _norm(sv, kind) for kind in NORM_KINDS if kind != "kyfan"}
    table["kyfan"] = [_norm(sv, "kyfan", k) for k in range(1, len(sv) + 1)]
    return table


def _support(A: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phase = np.exp(-1j * thetas)[:, None, None]
    rotated = 0.5 * (phase * A + np.conj(phase) * A.conj().T)
    return lapack("eigvalsh")(rotated)[..., -1]


def _ascend(A: np.ndarray, theta: float) -> float:
    """Climb f by Newton's method from theta; returns the largest f it measured.

    With v_j the eigenvectors of H = Re(e^{-i theta} A) for lambda_j < f and
    v the top one, K = Im(e^{-i theta} A) = dH/dtheta gives
    f' = v* K v and f'' = -f + 2 sum_j |v_j* K v|^2 / (f - lambda_j).
    The climb stops at a non-concave point, at a repeated top eigenvalue,
    where a step would lower f, or once the step falls to 1e-8.
    """
    real, imag = real_part(A), -0.5j * (A - A.conj().T)
    best = -math.inf
    for _ in range(NEWTON_STEPS):
        c, s = math.cos(theta), math.sin(theta)
        lam, V = lapack("eigh")(c * real + s * imag)
        value = float(lam[-1])
        if value <= best:
            break
        best = value
        if len(lam) > 1 and lam[-2] >= value:
            break
        slopes = V.conj().T @ ((c * imag - s * real) @ V[:, -1])
        curvature = 2.0 * float((np.abs(slopes[:-1]) ** 2 / (value - lam[:-1])).sum()) - value
        if curvature >= 0.0:
            break
        step = -slopes[-1].real / curvature
        theta += step
        if abs(step) <= 1e-8:
            break
    return best


def _pencil_eigvals(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Finite eigenvalues alpha / beta of the pencil a - z b by LAPACK zggev,
    or the standard eigenvalues of a by `eigvals` where b is None.

    The inputs are left untouched.  The infinite and indeterminate
    eigenvalues of the pencil (beta = 0) are dropped.
    """
    if b is None:
        return lapack("eigvals")(a)
    alpha, beta, _, _, _ = lapack("zggev")(a, b, compute_vl=0, compute_vr=0)
    finite = beta != 0
    return alpha[finite] / beta[finite]


def _level_set(A: np.ndarray, rcond: float):
    """The level-set test of A (||A|| = 1, sigma_min / sigma_max = rcond): a
    function taking a level l to the eigenvalues whose unimodular members
    z = e^{i theta} are the angles at which l is an eigenvalue of
    Re(e^{-i theta} A).

    They are the eigenvalues of the pencil P - z W with
    P = [[0, I], [-A, 2 l I]] and W = [[I, 0], [0, A*]].  Where
    rcond >= LEVEL_SET_RCOND, they are the standard eigenvalues of
    W^{-1} P = [[0, I], [-A*^{-1} A, 2 l A*^{-1}]], from one solve with A*
    per call and one `eigvals` per level; below it, and for a singular A,
    where the solve would lose the digits the test needs, LAPACK zggev
    solves the pencil, whose infinite eigenvalues _pencil_eigvals drops.
    """
    n = len(A)
    pencil = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    np.fill_diagonal(pencil[:n, n:], 1.0)
    if rcond >= LEVEL_SET_RCOND:
        blocks = lapack("solve")(A.conj().T, np.hstack([A, np.eye(n)]))
        pencil[n:, :n] = -blocks[:, :n]
        lower, weight = blocks[:, n:], None
    else:
        pencil[n:, :n] = -A
        lower, weight = np.eye(n), np.zeros_like(pencil)
        np.fill_diagonal(weight[:n, :n], 1.0)
        weight[n:, n:] = A.conj().T

    def eigvals(level: float) -> np.ndarray:
        np.multiply(2.0 * level, lower, out=pencil[n:, n:])
        return _pencil_eigvals(pencil, weight)

    return eigvals


def numerical_radius(A: np.ndarray) -> float:
    """max |<Ax, x>| over unit vectors: ||A|| for a Hermitian A, else Newton
    ascent certified by level sets, on A/||A||."""
    A = as_matrix(A)
    sv = singular_values(A)
    nrm = float(sv[0])
    if nrm == 0.0:
        return 0.0
    A = A / nrm
    n = A.shape[0]
    eps = np.finfo(float).eps
    if np.linalg.norm(A - A.conj().T) <= HERMITIAN_TOL * n * eps:
        return nrm
    # Near a tangency (level just below a flat peak) the crossing pair
    # leaves the circle by far more than rounding (by up to 1.5e-5 at
    # LEVEL_SET_RCOND), so the unimodularity test is loose: a spurious angle
    # only adds a midpoint, and a midpoint's support value is never above w(A).
    level_set = _level_set(A, float(sv[-1]) / nrm)
    # A midpoint that beats the level by no more than the rounding of
    # eigvalsh (a few n * eps) sits on the peak just climbed: a restart from
    # it would only spend one more level-set test to confirm the same level.
    slack = 4.0 * n * eps
    lam = lapack("eigvals")(A)
    start, level = float(np.angle(lam[np.abs(lam).argmax()])), -math.inf
    while True:
        level = max(level, _ascend(A, start))
        z = level_set(level)
        angles = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-4]))
        if angles.size == 0:
            break
        mids = 0.5 * (angles + np.append(angles[1:], angles[0] + 2.0 * math.pi))
        values = _support(A, mids)
        raised = float(values.max())
        if raised <= level + slack:
            level = max(level, raised)
            break
        start, level = float(mids[values.argmax()]), raised
    if not 0.5 * (1.0 - 1e-9) <= level <= 1.0 + 1e-9:
        raise RadiusCertificateError(
            f"numerical radius {level * nrm} escapes the sandwich [{0.5 * nrm}, {nrm}]"
        )
    return level * nrm
