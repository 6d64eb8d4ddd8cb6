"""Dense complex linear algebra shared by every other module.

Matrices are square numpy arrays of complex128.  The Hermitian/Cartesian
parts are formed so that the result is Hermitian to the last bit.
`loewner_margin` is the one cone-margin primitive (lambda_min of the
Hermitian part of a difference): the Loewner order, accretivity and the
sector cones are all measured by it.

`as_matrix` is the validation boundary.  The kernels `is_hermitian`,
`real_part`, `imag_part`, `inverse`, `sqrt_pd`, `singular_values` and
`op_norm` take arrays as given: callers pass arrays that already went
through it.

`lapack(name)` is the package's one door to LAPACK.  It serves NumPy's
LAPACK-backed wrappers by their NumPy names (`eig`, `eigh`, `svd`, `solve`,
...) and the routines NumPy lacks from `scipy.linalg.lapack`: the
Gauss-Jacobi rules (`dstevd`), the kernel's Schur form (`zgees`) and the
numerical radius's pencil below its conditioning floor (`zggev`), each at
SciPy's default workspace.  SciPy is imported at the first SciPy routine,
so `import sectormeans` does not load it.  NumPy's LinAlgError and a nonzero SciPy `info` both raise LapackError
naming the routine.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "PreconditionError",
    "SingularMatrixError",
    "LapackError",
    "as_matrix",
    "is_hermitian",
    "real_part",
    "imag_part",
    "inverse",
    "sqrt_pd",
    "loewner_margin",
    "singular_values",
    "op_norm",
    "lapack",
]

# Certification threshold for "this array is Hermitian", relative to the
# largest entry.  Inputs further away than this are treated as user error,
# not as noise to be symmetrized away.
HERMITIAN_CERT_TOL = 1e-12

# Relative slack of the tolerant sector-cone comparisons (`sectors.in_sector`):
# a margin down to -REL_SLACK times the operands' scale still holds.
REL_SLACK = 1e-9

# Reciprocal condition number below which a matrix is declared singular.
RCOND_FLOOR = 1e-14


class PreconditionError(ValueError):
    """An input violates a documented precondition of the operation."""


class SingularMatrixError(PreconditionError):
    """Matrix is numerically too close to singular to invert."""


class LapackError(PreconditionError):
    """A LAPACK routine failed: a nonzero `info`, or NumPy's LinAlgError."""


def as_matrix(A) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise PreconditionError("expected a non-empty matrix, got shape (0, 0)")
    if not np.isfinite(M).all():
        raise PreconditionError("matrix entries must be finite")
    return M


def is_hermitian(H: np.ndarray) -> bool:
    scale = np.abs(H).max(initial=0.0)
    return bool(np.abs(H - H.conj().T).max(initial=0.0) <= HERMITIAN_CERT_TOL * scale)


def real_part(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2 of the Cartesian decomposition."""
    return 0.5 * (A + A.conj().T)


def imag_part(A: np.ndarray) -> np.ndarray:
    """Skew part (A - A*)/(2i); Hermitian, and zero iff A is Hermitian."""
    return (A - A.conj().T) / 2j


def inverse(A: np.ndarray) -> np.ndarray:
    """Inverse with an explicit conditioning guard.

    Raises SingularMatrixError when the reciprocal condition number
    (sigma_min / sigma_max) falls below RCOND_FLOOR.
    """
    sv = lapack("svd")(A, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_FLOOR:
        raise SingularMatrixError(
            f"matrix is singular to working precision (rcond={0.0 if sv[0] == 0.0 else sv[-1] / sv[0]:.3e})"
        )
    return lapack("inv")(A)


def sqrt_pd(H: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive definite matrix."""
    w, V = lapack("eigh")(H)
    if w[0] <= 0.0:
        raise PreconditionError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return (V * np.sqrt(w)) @ V.conj().T


def loewner_margin(lhs: np.ndarray | float, rhs: np.ndarray | float) -> float:
    """Margin of the Loewner comparison lhs <= rhs: lambda_min of the
    Hermitian part of rhs - lhs.  Either side may be the scalar 0.0, which
    stands for the zero matrix (lhs = 0.0 gives lambda_min(Re rhs)).

    Callers that judge it relative to the operands pair it with the scale
    max(||lhs||, ||rhs||), under which the comparison is invariant to scaling
    both.  Operands are trusted arrays; nothing is validated here.
    """
    return float(lapack("eigvalsh")(real_part(rhs - lhs))[0])


def singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    return lapack("svd")(A, compute_uv=False)


def op_norm(A: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(lapack("svd")(A, compute_uv=False)[0])


@functools.cache
def lapack(name: str):
    """The LAPACK routine `name`: NumPy's wrapper of that name (such as
    "eigh"), else the routine of scipy.linalg.lapack (such as "dstevd"),
    returning all its outputs but `info`.  NumPy's LinAlgError, or a nonzero
    `info`, raises LapackError naming the routine.

    SciPy is imported on the first call for one of its routines, not with
    this module, because most commands never need it.
    """
    routine = getattr(np.linalg, name, None)
    if routine is not None:

        def call(*args, **kwargs):
            try:
                return routine(*args, **kwargs)
            except np.linalg.LinAlgError as exc:
                raise LapackError(f"LAPACK {name} failed ({exc})") from None

        return call
    from scipy.linalg import lapack as routines

    routine = getattr(routines, name)

    def call(*args, **kwargs):
        *out, info = routine(*args, **kwargs)
        if info != 0:
            raise LapackError(f"LAPACK {name} failed (info={info})")
        return tuple(out)

    return call
