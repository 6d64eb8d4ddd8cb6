"""Sector membership, sector angle, and the seeded instance generators.

The sector_angle implementation goes through a congruence of the imaginary
part; the oracle here maximizes |arg <Ax, x>| directly over unit vectors
(dense sampling plus derivative-free polish of the best candidates), so the
two routes share no code path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sectormeans import (
    PreconditionError,
    RunConfig,
    derive_seed,
    gen_accretive,
    gen_pd,
    gen_sectorial,
    gen_unitary,
    geometric_mean,
    in_sector,
    is_accretive,
    sector_angle,
    ui_norm,
    validate_sector_angle,
)
from sectormeans.linalg import inverse
from sectormeans.maps import random_map
from sectormeans.sectors import MAX_DIM, SectorCertificate

SAMPLES = 100_000


def sampled_angles(A, m, rng):
    """Angles arctan(|Im q| / Re q) of q = <Ax, x> over m random unit x."""
    n = A.shape[0]
    X = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    q = np.einsum("mi,ij,mj->m", X.conj(), A, X)
    ang = np.where(q.real > 0, np.arctan(np.abs(q.imag) / np.maximum(q.real, 1e-300)), -np.inf)
    return X, ang


def polished_max_angle(A, m, rng, n_starts=8):
    """Best sampled angle after Nelder-Mead refinement of the top candidates."""
    n = A.shape[0]
    X, ang = sampled_angles(A, m, rng)

    def neg_angle(v):
        x = v[:n] + 1j * v[n:]
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            return 0.0
        x = x / nrm
        q = np.vdot(x, A @ x)
        if q.real <= 1e-12:
            return 0.0
        return -math.atan(abs(q.imag) / q.real)

    best = float(ang.max())
    for idx in np.argsort(ang)[-n_starts:]:
        v0 = np.concatenate([X[idx].real, X[idx].imag])
        res = minimize(neg_angle, v0, method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
        best = max(best, -res.fun)
    return best


def test_is_accretive_examples():
    holds, margin = is_accretive(np.eye(2))
    assert holds and margin == pytest.approx(1.0)
    holds, margin = is_accretive(-np.eye(2))
    assert not holds and margin == pytest.approx(-1.0)
    # Re part [[1,1],[1,1]] has a zero eigenvalue: not strictly accretive
    holds, _ = is_accretive(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert not holds
    # the floor is relative to max|a_ij|, so scaling cannot change the verdict
    holds, margin = is_accretive(1e-15 * gen_accretive(4, 1))
    assert holds and margin > 0.0


def test_accretive_floor_refuses_a_margin_of_1e_minus_13():
    # lambda_min(Re A) = 1e-13 max|a_ij| is positive but under the floor of
    # 1e-12 max|a_ij|, so A is refused as not accretive
    A = np.array([[1.0, 0.5j], [0.5j, 1e-13]])
    holds, margin = is_accretive(A)
    assert margin == pytest.approx(1e-13, rel=1e-6) and not holds
    with pytest.raises(PreconditionError, match="first argument is not accretive"):
        geometric_mean(A, np.eye(2), 0.5)


def test_sector_angle_scalar():
    assert sector_angle(np.array([[1.0 + 1.0j]])) == pytest.approx(math.pi / 4, abs=1e-12)


def test_sector_angle_pd_is_zero():
    assert sector_angle(gen_pd(4, 5)) == pytest.approx(0.0, abs=1e-12)


def test_sector_angle_requires_accretive():
    with pytest.raises(PreconditionError):
        sector_angle(np.array([[-1.0]]))


def test_sector_angle_never_exceeded_by_samples():
    """Sampled numerical-range angles stay below the certified bound."""
    rng = np.random.default_rng(314)
    for k in range(50):
        A = gen_accretive(4, 9000 + k)
        alpha = sector_angle(A)
        _, ang = sampled_angles(A, 20_000, rng)
        assert float(ang.max()) <= alpha + 1e-6


def test_sector_angle_attained_by_polished_samples():
    rng = np.random.default_rng(271)
    for k in range(8):
        A = gen_accretive(4, 4000 + k)
        alpha = sector_angle(A)
        reached = polished_max_angle(A, SAMPLES, rng)
        assert reached <= alpha + 1e-6
        assert alpha - reached <= 1e-3


def test_in_sector_scalar():
    a = np.array([[1.0 + 1.0j]])
    assert in_sector(a, math.pi / 4 + 1e-6)
    assert not in_sector(a, math.pi / 4 - 1e-3)
    assert in_sector(gen_pd(3, 1), 0.0)
    assert not in_sector(-np.eye(2), 0.3)


def test_validate_sector_angle_range():
    assert validate_sector_angle(0.0) == 0.0
    with pytest.raises(PreconditionError):
        validate_sector_angle(math.pi / 2)
    with pytest.raises(PreconditionError):
        validate_sector_angle(-0.1)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_gen_pd_is_pd(n, seed):
    H = gen_pd(n, seed)
    w = np.linalg.eigvalsh(H)
    assert w[0] > 0
    np.testing.assert_allclose(H, H.conj().T, atol=1e-14)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_gen_accretive_is_accretive(n, seed):
    holds, margin = is_accretive(gen_accretive(n, seed))
    assert holds and margin > 0


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.05, max_value=1.4),
    st.integers(min_value=0, max_value=10**6),
)
def test_gen_sectorial_certificate(n, alpha, seed):
    cert = gen_sectorial(n, alpha, seed)
    assert isinstance(cert, SectorCertificate)
    assert cert.alpha == alpha
    assert in_sector(cert.matrix, alpha)
    assert sector_angle(cert.matrix) <= alpha + 1e-9
    assert abs(cert.angle - sector_angle(cert.matrix)) <= 1e-12 * cert.angle


def test_sectorial_contract_over_seeded_draws():
    """The generator's correctness proof: the closed-form angle
    arctan(tau * tan(alpha)) it certifies is the computed sector angle of
    its matrix, and lies in [0.4 alpha, alpha), at every default alpha."""
    alphas = RunConfig().alphas
    draws = [(n, seed) for n in range(1, 9) for seed in range(63)]
    draws += [(n, seed) for n in (16, 32, MAX_DIM) for seed in range(2)]
    assert len(alphas) * len(draws) >= 2000
    for alpha in alphas:
        for n, seed in draws:
            cert = gen_sectorial(n, alpha, derive_seed("contract", alpha, n, seed))
            assert abs(cert.angle - sector_angle(cert.matrix)) <= 1e-12 * cert.angle
            assert 0.4 * alpha <= cert.angle < alpha


def test_generators_bitwise_deterministic():
    for maker in (lambda s: gen_pd(5, s), lambda s: gen_accretive(5, s),
                  lambda s: gen_sectorial(5, 0.7, s).matrix, lambda s: gen_unitary(5, s)):
        X, Y = maker(123), maker(123)
        assert np.array_equal(X, Y)
        assert not np.array_equal(X, maker(124))


def test_gen_unitary_is_unitary():
    U = gen_unitary(6, 8)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(6), atol=1e-12)


def test_dim_bounds():
    assert gen_pd(1, 0).shape == (1, 1)
    with pytest.raises(PreconditionError):
        gen_pd(0, 0)
    with pytest.raises(PreconditionError):
        gen_pd(MAX_DIM + 1, 0)


ACCRETIVE = gen_accretive(3, 1)


@pytest.mark.parametrize("call", [
    lambda: ui_norm(ACCRETIVE, "kyfan", "x"),
    lambda: ui_norm(ACCRETIVE, "kyfan", 1.5),
    lambda: ui_norm(ACCRETIVE, "kyfan", None),
    lambda: gen_pd(2.5, 1),
    lambda: gen_pd("x", 1),
    lambda: gen_pd(2, 1.5),
    lambda: gen_pd(2, "s"),
    lambda: gen_pd(2, -1),
    lambda: gen_accretive(2, None),
    lambda: gen_sectorial(2, "x", 1),
    lambda: gen_sectorial(2, 0.5, 2.0),
    lambda: gen_unitary(2.0, 1),
    lambda: in_sector(ACCRETIVE, "x"),
    lambda: in_sector(ACCRETIVE, None),
    lambda: validate_sector_angle("0.5"),
    lambda: random_map("compression", 2.5, np.random.default_rng(0)),
], ids=["kyfan-str", "kyfan-float", "kyfan-none", "dim-float", "dim-str", "seed-float",
        "seed-str", "seed-negative", "seed-none", "angle-str", "sectorial-seed-float",
        "unitary-dim-float", "in-sector-str", "in-sector-none", "angle-numeric-str",
        "map-dim-float"])
def test_scalar_arguments_are_refused_before_conversion(call):
    """An integer argument must be an integer and a real one a real number:
    a float, a string or None is refused, not converted into a valid value."""
    with pytest.raises(PreconditionError):
        call()


def test_numpy_scalars_are_accepted_as_numbers():
    assert np.array_equal(gen_pd(np.int64(3), np.uint8(7)), gen_pd(3, 7))
    assert validate_sector_angle(np.float32(0.5)) == float(np.float32(0.5))
    assert ui_norm(ACCRETIVE, "kyfan", np.int64(2)) == ui_norm(ACCRETIVE, "kyfan", 2)


@settings(max_examples=15)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_sector_class_closure(n, seed):
    """S_alpha is closed under sums, inverses, and congruence."""
    alpha = 0.9
    A = gen_sectorial(n, alpha, seed).matrix
    B = gen_sectorial(n, alpha, seed + 1).matrix
    assert in_sector(A + B, alpha)
    assert in_sector(inverse(A), alpha)
    T = gen_unitary(n, seed + 2) @ np.diag(np.linspace(0.5, 2.0, n))
    assert in_sector(T.conj().T @ A @ T, alpha)


def test_derive_seed_stable_and_distinct():
    s = derive_seed(42, "C07", 3, 0)
    assert s == derive_seed(42, "C07", 3, 0)
    assert 0 <= s < 2**64
    others = {derive_seed(42, "C07", 3, 1), derive_seed(42, "C08", 3, 0),
              derive_seed(43, "C07", 3, 0), derive_seed(42, "C07", 4, 0)}
    assert s not in others and len(others) == 4
