"""Core linear-algebra helpers: parts, inverses, square roots, orderings."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sectormeans as sm
from sectormeans import (
    LapackError,
    PreconditionError,
    SingularMatrixError,
    gen_accretive,
    gen_pd,
    gen_unitary,
    is_accretive,
    loewner_leq,
    numerical_radius,
    principal_power_eigen,
    quadrature_rule,
    sector_angle,
)
from sectormeans.linalg import (
    as_matrix,
    imag_part,
    inverse,
    is_hermitian,
    lapack,
    loewner_margin,
    op_norm,
    real_part,
    singular_values,
    sqrt_pd,
)

from conftest import below_radius_floor, rel_err


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(PreconditionError):
        as_matrix(np.ones((2, 3)))


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("call", [
    lambda: sm.numerical_radius(EMPTY),
    lambda: sm.ui_norm(EMPTY),
    lambda: sm.sector_angle(EMPTY),
    lambda: sm.is_accretive(EMPTY),
    lambda: sm.in_sector(EMPTY, 0.5),
    lambda: sm.principal_power(EMPTY, 0.5, engine="eigen"),
    lambda: sm.principal_power(EMPTY, 0.5, engine="quad"),
    lambda: sm.geometric_mean(EMPTY, EMPTY, 0.5),
    lambda: sm.geometric_mean_integral(EMPTY, EMPTY, 0.5),
    lambda: sm.harmonic_mean(EMPTY, EMPTY, 0.5),
    lambda: sm.loewner_leq(EMPTY, EMPTY),
    lambda: sm.dumps_matrix(EMPTY),
], ids=["numerical_radius", "ui_norm", "sector_angle", "is_accretive", "in_sector",
        "power_eigen", "power_quad", "geometric_mean", "geometric_mean_integral",
        "harmonic_mean", "loewner_leq", "dumps_matrix"])
def test_empty_matrix_is_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="non-empty"):
        call()


def test_as_matrix_rejects_nonfinite():
    # NaN, then NaN and inf in the imaginary part, then -inf in the real part
    for bad in (np.nan, complex(0.0, np.nan), complex(1.0, np.inf), -np.inf):
        A = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        A[0, 0] = bad
        with pytest.raises(PreconditionError, match="matrix entries must be finite"):
            as_matrix(A)


def test_as_matrix_accepts_nested_lists():
    A = as_matrix([[1, 2], [3, 4]])
    assert A.dtype == np.complex128
    assert A.shape == (2, 2)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_cartesian_decomposition(n, seed):
    A = random_complex(n, seed)
    R, S = real_part(A), imag_part(A)
    assert is_hermitian(R) and is_hermitian(S)
    np.testing.assert_allclose(R + 1j * S, A, atol=1e-13)


def test_real_part_scalar():
    np.testing.assert_allclose(real_part(np.array([[1.0 + 2.0j]])), [[1.0]])
    np.testing.assert_allclose(imag_part(np.array([[1.0 + 2.0j]])), [[2.0]])


@pytest.mark.parametrize("n", [2, 4, 7])
def test_inverse_residual(n):
    # residual bound scales with the dimension
    for seed in range(5):
        A = random_complex(n, seed) + 3.0 * np.eye(n)
        R = A @ inverse(A) - np.eye(n)
        assert np.linalg.norm(R) <= 1e-10 * n


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_sqrt_pd_diagonal():
    X = sqrt_pd(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(X, np.diag([2.0, 3.0]), atol=1e-12)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_sqrt_pd_squares_back(n, seed):
    H = gen_pd(n, seed)
    X = sqrt_pd(H)
    assert is_hermitian(X)
    assert rel_err(X @ X, H) <= 1e-12


def test_sqrt_pd_rejects_indefinite():
    with pytest.raises(PreconditionError):
        sqrt_pd(np.diag([1.0, -1.0]))


def test_loewner_examples():
    I2 = np.eye(2)
    holds, margin = loewner_leq(I2, 2 * I2)
    assert holds and margin == pytest.approx(1.0)
    holds, margin = loewner_leq(2 * I2, I2)
    assert not holds and margin == pytest.approx(-1.0)
    # equality counts as <=
    holds, _ = loewner_leq(I2, I2)
    assert holds
    # the slack scales with the operands, so tiny matrices get no absolute floor
    holds, margin = loewner_leq(2e-12 * I2, 1e-12 * I2)
    assert not holds and margin == pytest.approx(-1e-12)
    # the order is defined on Hermitian operands only
    with pytest.raises(PreconditionError):
        loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), I2)


def test_loewner_tolerance_policy():
    # the fixed relative slack is 1e-9: a 1e-10 excess still counts as <=,
    # a 1e-8 excess does not
    I2 = np.eye(2)
    holds, _ = loewner_leq(I2 + 1e-10 * I2, I2)
    assert holds
    holds, _ = loewner_leq(I2 + 1e-8 * I2, I2)
    assert not holds


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_singular_values_unitary_invariance(n, seed):
    A = random_complex(n, seed)
    U = gen_unitary(n, seed + 1)
    V = gen_unitary(n, seed + 2)
    s1 = singular_values(A)
    s2 = singular_values(U @ A @ V)
    assert np.all(np.diff(s1) <= 1e-12)  # descending
    np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-9 * max(1.0, s1[0]))


def test_op_norm_matches_numpy():
    A = random_complex(6, 3)
    assert op_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_loewner_margin_against_zero_is_the_real_part_bound(n):
    """The margin against a scalar zero is lambda_min(Re A) to the bit."""
    A = random_complex(n, 40 + n)
    assert loewner_margin(0.0, A) == np.linalg.eigvalsh(real_part(A))[0]
    assert loewner_margin(np.zeros_like(A), A) == loewner_margin(0.0, A)
    # the zero on the right, as a flipped accretivity term puts it
    assert loewner_margin(A, 0.0) == loewner_margin(A, np.zeros_like(A))


def test_lapack_returns_every_output_but_info():
    from scipy.linalg import lapack as routines

    diag, off = np.array([2.0, 1.0, 3.0]), np.array([0.5, 0.25])
    *expected, info = routines.dstevd(diag, off)
    got = lapack("dstevd")(diag, off)
    assert info == 0 and len(got) == len(expected) == 2
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


# zgees, under principal_power_quad and geometric_mean_integral, is
# test_means.py::test_kernel_refuses_a_schur_failure
@pytest.mark.parametrize("name, call, reason", [
    ("zggev", lambda: numerical_radius(below_radius_floor()), "info=1"),
    ("solve", lambda: numerical_radius(gen_accretive(3, 1)), "did not converge"),
    ("dstevd", lambda: quadrature_rule(0.5, 16), "info=1"),
    ("eig", lambda: principal_power_eigen(gen_accretive(3, 1), 0.5), "did not converge"),
    ("eigh", lambda: sector_angle(gen_accretive(3, 1)), "did not converge"),
    ("eigvalsh", lambda: is_accretive(gen_accretive(3, 1)), "did not converge"),
    ("eigvals", lambda: numerical_radius(gen_accretive(3, 1)), "did not converge"),
    ("svd", lambda: op_norm(gen_accretive(3, 1)), "did not converge"),
    ("inv", lambda: inverse(gen_accretive(3, 1)), "did not converge"),
    ("qr", lambda: gen_unitary(3, 1), "did not converge"),
], ids=["radius-zggev", "radius-solve", "rule-dstevd", "power-eig", "angle-eigh", "accretive-eigvalsh",
        "radius-eigvals", "norm-svd", "inverse-inv", "unitary-qr"])
def test_a_failed_lapack_routine_is_refused_by_name(fail_lapack, name, call, reason):
    fail_lapack(name)
    with pytest.raises(LapackError, match=f"^LAPACK {name} failed \\({reason}\\)$"):
        call()


# LAPACK-backed numpy.linalg routines; norm is not one (its Frobenius and
# vector norms call no LAPACK)
LAPACK_BACKED = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "solve", "inv", "qr", "cond",
                 "cholesky", "lstsq", "det", "slogdet", "pinv", "matrix_rank")


def test_only_linalg_opens_the_door_to_lapack():
    """Every module but linalg reaches LAPACK through linalg.lapack, so each
    failure meets the one typed refusal, LapackError."""
    door = re.compile(
        rf"\bLinAlgError\b|\blinalg\.({'|'.join(LAPACK_BACKED)})\b|from (numpy|scipy)\.linalg import"
    )
    package = Path(__file__).resolve().parents[1] / "src" / "sectormeans"
    sources = sorted(p for p in package.glob("*.py") if p.name != "linalg.py")
    assert len(sources) > 5
    found = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sources
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if door.search(line)
    ]
    assert found == []
