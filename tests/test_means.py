"""Weighted harmonic/arithmetic/geometric means and principal powers.

Scalar cases have closed forms (a #_r b = a^{1-r} b^r and friends), so most
expected values here are literal numbers.  Matrix cases lean on the two
independent engines and on the commuting case, where everything reduces to
entrywise powers.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sectormeans import (
    EigenbasisConditionError,
    EvalContext,
    LapackError,
    NodeBudgetError,
    PreconditionError,
    PrincipalBranchError,
    RunConfig,
    arithmetic_mean,
    check_by_id,
    gen_accretive,
    gen_pd,
    gen_sectorial,
    gen_unitary,
    geometric_mean,
    geometric_mean_integral,
    harmonic_mean,
    in_sector,
    principal_power,
    principal_power_eigen,
    principal_power_quad,
    run_suite,
    sector_angle,
)
from sectormeans import means
from sectormeans.checks import Instance
from sectormeans.linalg import inverse, is_hermitian, real_part
from sectormeans.means import BLOCK_ENTRIES, ENGINES, _resolvent_mean, _triangular_inverses
from sectormeans.quadrature import MAX_NODES, MIN_NODES, node_count, quadrature_rule

from conftest import rel_err

R_VALUES = [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 1.5, 1.75]


def scalar(x):
    return np.array([[x]], dtype=np.complex128)


# ---------------------------------------------------------------- harmonic


def test_harmonic_scalar():
    out = harmonic_mean(scalar(1.0), scalar(3.0), 0.5)
    assert out[0, 0] == pytest.approx(1.5, abs=1e-14)


def test_harmonic_endpoints():
    A, B = gen_accretive(3, 0), gen_accretive(3, 1)
    assert rel_err(harmonic_mean(A, B, 0.0), A) <= 1e-14
    assert rel_err(harmonic_mean(A, B, 1.0), B) <= 1e-14


def test_harmonic_is_inverse_arithmetic_of_inverses():
    A, B = gen_pd(4, 7), gen_pd(4, 8)
    s = 0.3
    expected = inverse(arithmetic_mean(inverse(A), inverse(B), s))
    assert rel_err(harmonic_mean(A, B, s), expected) <= 1e-12


# -------------------------------------------------------------- arithmetic


def test_arithmetic_scalar_extrapolated():
    out = arithmetic_mean(scalar(2.0), scalar(4.0), 1.5)
    assert out[0, 0] == pytest.approx(5.0, abs=1e-14)


def test_arithmetic_endpoint():
    A, B = gen_accretive(3, 2), gen_accretive(3, 3)
    assert rel_err(arithmetic_mean(A, B, 0.0), A) <= 1e-15


# ------------------------------------------------------------------ powers


def test_power_eigen_diagonal():
    out = principal_power_eigen(np.diag([1.0, 4.0]), 1.5)
    np.testing.assert_allclose(out, np.diag([1.0, 8.0]), atol=1e-9)


def test_power_eigen_scalar_complex():
    out = principal_power_eigen(scalar(1.0 + 1.0j), 2.0)
    assert out[0, 0] == pytest.approx(2.0j, abs=1e-13)


def test_power_identity_cases():
    A = gen_accretive(4, 10)
    assert rel_err(principal_power_eigen(A, 1.0), A) <= 1e-12
    assert rel_err(principal_power_eigen(A, 0.0), np.eye(4)) <= 1e-12


@pytest.mark.parametrize("r", R_VALUES)
def test_power_quad_matches_eigen(r):
    for seed in range(6):
        A = gen_accretive(5, 100 + seed)
        quad = principal_power_quad(A, r, 96)
        eig = principal_power_eigen(A, r)
        assert rel_err(quad, eig) <= 1e-8


def normal_pair(kappa):
    """A normal 6x6 A = U diag(lam) U* and the oracle r -> U diag(lam^r) U*.

    |lam| is log-spaced over [1, kappa] and arg(lam) reaches +-1.2, so the
    integrand's poles come close to [0, 1].
    """
    n = 6
    U = gen_unitary(n, 5)
    lam = np.logspace(0.0, math.log10(kappa), n) * np.exp(1j * np.linspace(-1.2, 1.2, n))
    return (U * lam) @ U.conj().T, lambda r: (U * lam**r) @ U.conj().T


@pytest.mark.parametrize("r", [-0.6, 0.4, 1.7])
def test_power_quad_normal_oracle(r):
    A, oracle = normal_pair(3e4)
    assert rel_err(principal_power_quad(A, r), oracle(r)) <= 1e-12
    # the centred spectrum needs 147 nodes here, so a budget of 80 refuses
    with pytest.raises(NodeBudgetError):
        principal_power_quad(A, r, 80)


@pytest.mark.parametrize(
    "kappa,n_nodes,tol", [(3e4, 147, 1e-12), (1e5, 199, 1e-11), (1e6, 353, 1e-10), (1e7, 628, 1e-9)]
)
def test_quad_routes_ill_conditioned_ladder(kappa, n_nodes, tol):
    A, oracle = normal_pair(kappa)
    lam = np.linalg.eigvals(A)
    size = np.abs(lam)
    assert node_count(lam / math.sqrt(size.min() * size.max())) == n_nodes
    eye = np.eye(len(A))
    for r in (-0.6, 0.4, 1.7):
        assert rel_err(principal_power_quad(A, r), oracle(r)) <= tol
        assert rel_err(geometric_mean_integral(eye, A, r), oracle(r)) <= tol


def test_quad_routes_refuse_past_the_budget():
    A, _ = normal_pair(1e8)  # needs 1116 nodes, past MAX_NODES
    with pytest.raises(NodeBudgetError, match="1116"):
        principal_power_quad(A, 0.4)
    with pytest.raises(NodeBudgetError):
        geometric_mean_integral(np.eye(len(A)), A, 1.7)
    with pytest.raises(NodeBudgetError):
        geometric_mean(A, np.eye(len(A)), -0.6, engine="quad")


def test_power_quad_budget_is_a_ceiling():
    """The budget bounds the rule; it does not size it."""
    A = gen_accretive(5, 42)
    lam = np.linalg.eigvals(A)
    size = np.abs(lam)
    need = node_count(lam / math.sqrt(size.min() * size.max()))
    assert need < 128
    for r in (-0.5, 0.5, 1.5):
        assert np.array_equal(principal_power_quad(A, r, 128), principal_power_quad(A, r, 1024))
        assert np.array_equal(principal_power_quad(A, r, need), principal_power_quad(A, r))
        with pytest.raises(NodeBudgetError, match=str(need)):
            principal_power_quad(A, r, need - 1)


def shifted_jordan(n, t):
    """I + t S for the n x n upper shift S, and the oracle
    r -> sum_k binom(r, k) (t S)^k, a finite sum since S^n = 0."""
    N = t * np.eye(n, k=1)

    def oracle(r):
        out, term, coef = np.zeros((n, n)), np.eye(n), 1.0
        for k in range(n):
            out += coef * term
            term, coef = term @ N, coef * (r - k) / (k + 1)
        return out

    return np.eye(n) + N, oracle


def test_quad_routes_resolve_a_jordan_block():
    """Every eigenvalue of I + 0.9 S sits at 1, where the spectrum places no
    pole, so node_count gives the floor.  The integrand is a polynomial of
    degree 11 in s, which 4 nodes integrate only to about 1e-4; the
    truncation estimate sees the slow decay and doubles the rule."""
    A, oracle = shifted_jordan(12, 0.9)
    assert node_count(np.linalg.eigvals(A)) == MIN_NODES
    eye = np.eye(len(A))
    for r in (-0.6, 0.4, 1.7):
        assert rel_err(principal_power_quad(A, r), oracle(r)) <= 1e-14
        assert rel_err(geometric_mean_integral(eye, A, r), oracle(r)) <= 1e-14
    # 4 nodes are within a budget of 7, but the doubled rule is not
    with pytest.raises(NodeBudgetError, match="not resolved by 4"):
        principal_power_quad(A, 0.4, 7)


@pytest.mark.parametrize("r", [-0.6, 0.4, 1.7])
def test_power_quad_far_from_normal(r):
    """A bidiagonal with eigenvalues 1..1.5 and a unit superdiagonal: the
    count from its spectrum (7 nodes) leaves 8e-12; the estimate refines it."""
    A = np.diag(np.linspace(1.0, 1.5, 12)) + np.eye(12, k=1)
    lam = np.linalg.eigvals(A)
    assert node_count(lam / math.sqrt(lam.real.min() * lam.real.max())) == 7
    got = principal_power_quad(A, r)
    assert rel_err(got, scipy.linalg.fractional_matrix_power(A, r)) <= 1e-14


def test_power_quad_refuses_near_the_cut():
    # eigenvalue 1e-10 above the cut: the integrand's pole sits 1e-10 from
    # [0, 1], so no node budget can resolve it; the route used to return
    # 4e-9j for an entry whose principal root is about 1j
    A = np.diag([-1.0 + 1e-10j, 2.0])
    with pytest.raises(NodeBudgetError):
        principal_power_quad(A, 0.5)
    # the eigen engine reaches 1e-13 * rho of the cut: the principal root
    out = principal_power_eigen(A, 0.5)
    np.testing.assert_allclose(out, np.diag([5e-11 + 1j, math.sqrt(2.0)]), rtol=1e-12, atol=0)


def near_cut_power(theta):
    """diag(e^{i theta}, 2) and its principal square root to 30 digits, taken
    entrywise: mpmath's matrix sqrtm leaves the principal branch at 3.1."""
    mp = pytest.importorskip("mpmath").mp
    d = np.array([np.exp(1j * theta), 2.0])
    with mp.workdps(30):
        root = [complex(mp.mpc(z) ** mp.mpf(0.5)) for z in d]
    return np.diag(d), np.diag(root)


@pytest.mark.parametrize("theta", [3.0, 3.1])
def test_power_engines_near_the_cut(theta):
    """Both engines hold 1e-13 up to about 0.04 rad from the cut."""
    A, expect = near_cut_power(theta)
    assert rel_err(principal_power_eigen(A, 0.5), expect) <= 1e-13
    assert rel_err(principal_power_quad(A, 0.5), expect) <= 1e-13


def test_power_quad_budget_ends_before_the_eigen_domain():
    """At theta = 3.12 the rule needs 1732 nodes, past the 1024 budget: quad
    refuses, and the eigen engine still returns the principal root."""
    A, expect = near_cut_power(3.12)
    with pytest.raises(NodeBudgetError, match="1732"):
        principal_power_quad(A, 0.5)
    assert rel_err(principal_power_eigen(A, 0.5), expect) <= 1e-13


def test_power_inverse_relation():
    A = gen_accretive(4, 55)
    for r in (0.3, 0.7):
        lhs = inverse(principal_power_eigen(A, r))
        rhs = principal_power_eigen(A, -r)
        assert rel_err(lhs, rhs) <= 1e-10


def test_power_additivity_splits_a():
    A = gen_accretive(4, 56)
    for r in (0.25, 0.6):
        prod = principal_power_eigen(A, r) @ principal_power_eigen(A, 1.0 - r)
        assert rel_err(prod, A) <= 1e-10


def test_power_dispatcher_engines_agree():
    A = gen_accretive(4, 57)
    assert rel_err(principal_power(A, 0.5, engine="quad"),
                   principal_power(A, 0.5, engine="eigen")) <= 1e-8
    with pytest.raises(PreconditionError):
        principal_power(A, 0.5, engine="taylor")
    with pytest.raises(PreconditionError):
        principal_power(A, 2.5)


def test_power_branch_cut_raises():
    # the quad engine refuses in its kernel, from the spectrum it centres,
    # and an eigenvalue of exactly 0 before the kernel divides by the scale
    for engine in ENGINES:
        with pytest.raises(PrincipalBranchError):
            principal_power(scalar(-1.0), 0.5, engine=engine)
        with pytest.raises(PrincipalBranchError):
            principal_power(np.diag([1.0, 0.0, 2.0 + 1j]), 0.5, engine=engine)
        # each eigenvalue by its own angle: within 1e-13 rad of the negative axis
        for lam in (-1.0 + 1e-14j, -1e-300):
            with pytest.raises(PrincipalBranchError):
                principal_power(np.diag([lam, 2.0]), 0.5, engine=engine)


def test_hermitian_cut_differs_between_engines():
    """The eigen engine's eigh path refuses only lambda_min <= 0, so it powers
    an eigenvalue 1e-15 * rho above the cut.  That eigenvalue is on the
    positive axis, so the quad engine does not call it a branch-cut fault:
    it refuses the spread, which needs more nodes than the budget."""
    A = np.diag([1e-15, 1.0])
    out = principal_power(A, 0.5, engine="eigen")
    np.testing.assert_allclose(out, np.diag([math.sqrt(1e-15), 1.0]), rtol=1e-14, atol=0)
    with pytest.raises(NodeBudgetError, match="needs 51794 quadrature nodes"):
        principal_power(A, 0.5, engine="quad")


def test_spread_positive_spectrum_is_refused_by_its_node_count():
    """Each eigenvalue is judged by its own angle, so a positive spectrum
    spread past 1e13 is off the quad kernel's cut, and the kernel refuses its
    node count.  The eigen engine's eigh path powers the diagonal input; its
    eig path refuses the non-Hermitian one, as an eigenvalue within
    1e-13 max|lambda| of 0 is one eig cannot tell from 0."""
    D = np.diag([1e-200, 1e-100])
    N = np.array([[1e-200, 1e-101], [0.0, 1e-100]])
    assert not is_hermitian(N)
    for A in (D, N):
        with pytest.raises(NodeBudgetError):
            principal_power(A, 1.5, engine="quad")
    out = principal_power(D, 1.5, engine="eigen")
    np.testing.assert_allclose(out, np.diag([1e-300, 1e-150]), rtol=1e-14, atol=0)
    with pytest.raises(PrincipalBranchError):
        principal_power(N, 1.5, engine="eigen")


@pytest.mark.parametrize("r", [-0.5, 0.5])
def test_numerically_singular_power_is_refused(r):
    """U diag(0, 1+1j) U* in floats has an eigenvalue of about 1e-16 at a
    phase set by rounding, off the quad kernel's cut.  The eigen engine's eig
    path refuses it as indistinguishable from 0 (at r = -0.5 it would return
    entries near 1e8), and the quad engine refuses its spread."""
    U = gen_unitary(2, 4)
    A = U @ np.diag([0.0, 1.0 + 1.0j]) @ U.conj().T
    assert not is_hermitian(A) and means._off_cut(np.linalg.eigvals(A))
    with pytest.raises(PrincipalBranchError):
        principal_power(A, r, engine="eigen")
    with pytest.raises(NodeBudgetError):
        principal_power(A, r, engine="quad")


def test_power_off_cone_but_off_cut_is_silent():
    # spectrum {-1 + 3i} avoids the cut, so the power exists: both engines
    # return it, and neither warns that the input is not accretive
    want = complex(-1.0 + 3.0j) ** 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = principal_power_quad(scalar(-1.0 + 3.0j), 0.5, 96)
        silent = principal_power_eigen(scalar(-1.0 + 3.0j), 0.5)
    assert out[0, 0] == pytest.approx(want, abs=1e-8)
    assert silent[0, 0] == pytest.approx(want, abs=1e-12)


def test_power_defective_eigenbasis_rejected():
    V = np.array([[1.0, 1.0], [0.0, 1e-10]])
    A = V @ np.diag([1.0, 2.0]) @ np.linalg.inv(V)
    with pytest.raises(EigenbasisConditionError):
        principal_power_eigen(A, 0.5)


# ---------------------------------------------------------- geometric mean


def test_geometric_scalar_half():
    out = geometric_mean(scalar(4.0), scalar(9.0), 0.5)
    assert out[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_geometric_idempotent():
    A = gen_accretive(4, 60)
    for r in (-0.5, 0.3, 1.7):
        assert rel_err(geometric_mean(A, A, r), A) <= 1e-11


def test_geometric_commuting_diagonal():
    A, B = np.diag([1.0, 2.0]), np.diag([4.0, 2.0])
    out = geometric_mean(A, B, 1.5)
    np.testing.assert_allclose(out, np.diag([8.0, 2.0]), atol=1e-10)
    for r in (-0.5, 0.3, 1.9):
        expect = np.diag(np.diag(A) ** (1 - r) * np.diag(B) ** r)
        assert rel_err(geometric_mean(A, B, r), expect) <= 1e-11


def test_geometric_endpoints_pass_through():
    A, B = gen_accretive(3, 61), gen_accretive(3, 62)
    assert rel_err(geometric_mean(A, B, 0.0), A) == 0.0
    assert rel_err(geometric_mean(A, B, 1.0), B) == 0.0


def test_geometric_endpoint_continuity():
    A, B = gen_accretive(4, 63), gen_accretive(4, 64)
    for eps in (1e-6, -1e-6):
        near = geometric_mean(A, B, 1.0 + eps)
        assert rel_err(near, B) <= 1e-4


def test_geometric_requires_accretive():
    with pytest.raises(PreconditionError):
        geometric_mean(scalar(-1.0), scalar(1.0), 0.5)
    with pytest.raises(PreconditionError):
        geometric_mean(np.eye(2), np.eye(3), 0.5)


def test_geometric_engine_quad_agrees():
    A, B = gen_accretive(4, 65), gen_accretive(4, 66)
    for r in (0.4, 1.3, -0.3):
        assert rel_err(geometric_mean(A, B, r, engine="quad"),
                       geometric_mean(A, B, r, engine="eigen")) <= 1e-8


def test_geometric_engine_quad_is_the_integral():
    """engine="quad" is the branch integral on (A, B), to the last bit."""
    A, B = gen_accretive(4, 67), gen_accretive(4, 68)
    for r in (-0.6, 0.3, 1.4):
        assert np.array_equal(geometric_mean(A, B, r, engine="quad"),
                              geometric_mean_integral(A, B, r))


@pytest.mark.parametrize("c", [1e-200, 1e-15, 2.0**-60, 1e6, 1e200])
def test_domain_tests_scale_invariant(c):
    # the means are homogeneous, so scaling the inputs may change neither a
    # domain verdict nor any digit beyond rounding; each result is compared
    # with the scale divided out, as a norm of 1e200 overflows
    A = gen_sectorial(4, 0.8, 1).matrix  # sector angle 0.58
    B = gen_sectorial(4, 0.4, 2).matrix
    assert rel_err(principal_power_eigen(c * A, 0.5) / c**0.5, principal_power_eigen(A, 0.5)) <= 1e-12
    assert rel_err(geometric_mean(c * A, c * B, 1.5) / c, geometric_mean(A, B, 1.5)) <= 1e-12
    # the quadrature kernel centres the spectrum, so its routes are homogeneous too
    assert rel_err(principal_power_quad(c * A, 0.5) / c**0.5, principal_power_quad(A, 0.5)) <= 1e-12
    assert rel_err(
        geometric_mean(c * A, c * B, 1.5, engine="quad") / c,
        geometric_mean(A, B, 1.5, engine="quad"),
    ) <= 1e-12
    for r in (-0.4, 0.3, 1.5):
        assert rel_err(
            geometric_mean_integral(A, c * B, r) / c**r, geometric_mean_integral(A, B, r)
        ) <= 1e-12
    assert sector_angle(c * A) == pytest.approx(sector_angle(A), rel=1e-12)
    for alpha in (0.1, 0.6, 1.2):
        assert in_sector(c * A, alpha) == in_sector(A, alpha)


def test_quad_result_past_the_double_range_is_refused():
    # the centring scale stays finite up to 1e308, but c^r or the product
    # with it may not: either is refused, not returned as inf or raised raw
    for d in ([1e300, 1e295], [1e206, 1e200]):
        with pytest.raises(PreconditionError, match="overflows"):
            principal_power_quad(np.diag(d), 1.5)
        assert rel_err(principal_power_quad(np.diag(d), 0.5), np.diag(np.sqrt(d))) <= 1e-12


@pytest.mark.parametrize("engine", ["quad", "eigen"])
def test_power_past_the_double_range_is_refused_by_both_engines(engine):
    # a diagonal takes the eigen engine's eigh path, a triangle its eig path
    cases = [
        (np.diag([1e300, 1e295]), 1.5, "overflows"),
        (np.array([[1e300, 1e299], [0.0, 1e295]]), 1.5, "overflows"),
        (1e-200 * np.eye(2), 1.9, "underflows"),
        (np.array([[1e-300, 1e-301], [0.0, 2e-300]]), 1.5, "underflows"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, r, target in cases:
            with pytest.raises(PreconditionError, match=f"{target} the double range"):
                principal_power(A, r, engine=engine)


@pytest.mark.parametrize("engine", ["quad", "eigen"])
def test_mean_past_the_double_range_is_refused_by_both_engines(engine):
    # 1e-200 #_{3/2} 1e-300 = 1e-350 underflows to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="underflows the double range"):
            geometric_mean(1e-200 * np.eye(2), 1e-300 * np.eye(2), 1.5, engine=engine)


@pytest.mark.parametrize("a, b, expect", [
    (1e300, 1e100, 1e-80),
    (1e-300, 1e-100, 1e80),
], ids=["large", "small"])
def test_congruence_keeps_a_mean_whose_inner_power_leaves_the_range(a, b, expect):
    # the inner matrix a^-1/2 b a^-1/2 is 1e-+200 I, whose power at 1.9
    # leaves the double range, while the mean a^-0.9 b^1.9 does not
    A, B = a * np.eye(3), b * np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigen = geometric_mean(A, B, 1.9, engine="eigen")
        quad = geometric_mean(A, B, 1.9, engine="quad")
        assert rel_err(eigen, quad) <= 1e-14
        # c^1.9 at c = 1e-+200 turns a rounding of c into |1.9 log c| ~ 875 ulps
        assert rel_err(eigen, expect * np.eye(3)) <= 1e-12
        # a non-normal pair takes the same scaled route
        A, B = a * gen_accretive(3, 1), b * gen_accretive(3, 2)
        eigen = geometric_mean(A, B, 1.9, engine="eigen")
        assert rel_err(eigen, geometric_mean(A, B, 1.9, engine="quad")) <= 1e-12


def test_mean_preconditions_have_one_order():
    # a pair that fails accretivity and the order is refused for accretivity
    # first, with one message from both engines
    messages = set()
    for engine in ENGINES:
        with pytest.raises(PreconditionError) as info:
            geometric_mean(-np.eye(2), np.eye(2), 2.5, engine=engine)
        messages.add(str(info.value))
    assert messages == {"first argument is not accretive (min Re-part eigenvalue -1.000e+00)"}


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_quad_mean_of_a_pair_past_the_double_range(scale):
    # spec(A^{-1} B) = scale^-2 lies past the double range, but A #_r B does not
    A, B = np.eye(3) * scale, np.eye(3) / scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.abs(geometric_mean_integral(A, B, 0.5) - np.eye(3)).max() <= 1e-14
        assert rel_err(geometric_mean_integral(A, B, 0.25), np.eye(3) * scale**0.5) <= 1e-14
        with pytest.raises(PreconditionError, match="overflows the double range"):
            geometric_mean_integral(B, A, 1.5 if scale > 1 else -0.5)
        with pytest.raises(PreconditionError, match="congruence"):
            geometric_mean(A, B, 0.5, engine="eigen")


@pytest.mark.parametrize(
    "a, b, target",
    [(1e300, 1e-100, 1e-300), (1e-300, 1e100, 1e300), (1e300, 1e-300, "underflows"),
     (1e-300, 1e300, "overflows")],
)
def test_quad_mean_scales_the_product_not_c_to_the_r(a, b, target):
    # a #_{3/2} b = a^{-1/2} b^{3/2}; c^{3/2} = (b/a)^{3/2} lies past the
    # double range in every case, so only the result decides
    A, B = np.eye(2) * a, np.eye(2) * b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(target, str):
            with pytest.raises(PreconditionError, match=f"{target} the double range"):
                geometric_mean_integral(A, B, 1.5)
        else:
            # entrywise, as a Frobenius norm near 1e300 overflows
            got = geometric_mean_integral(A, B, 1.5) / target
            assert np.abs(got - np.eye(2)).max() <= 1e-14


def test_kernel_refuses_a_lapack_failure():
    # a singular P reaches LAPACK only through the kernel's trusted entry
    P, Q = np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)
    with pytest.raises(LapackError, match="^LAPACK solve failed \\(Singular matrix\\)$"):
        _resolvent_mean([(P, Q)], 0.5, 64)


# ------------------------------------------------------------ integral form


def test_integral_scalar_negative_order():
    r = -0.5
    out = geometric_mean_integral(scalar(1.0), scalar(4.0), r, 80)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("r", [-0.6, 0.35, 1.25])
def test_integral_matches_congruence(r):
    for seed in range(8):
        A, B = gen_accretive(4, 200 + seed), gen_accretive(4, 300 + seed)
        direct = geometric_mean_integral(A, B, r, 80)
        cong = geometric_mean(A, B, r)
        assert rel_err(direct, cong) <= 1e-8


@pytest.mark.parametrize("r", [-0.6, 0.4, 1.7])
def test_mean_routes_match_mpmath(r):
    # 30-digit congruence A^{1/2} (A^{-1/2} B A^{-1/2})^r A^{1/2}, computed
    # with mpmath's own sqrtm and powm, against both double routes
    mp = pytest.importorskip("mpmath").mp
    A = gen_sectorial(4, 1.2, 1).matrix
    B = gen_sectorial(4, 1.2, 2).matrix
    with mp.workdps(30):
        root = mp.sqrtm(mp.matrix(A.tolist()))
        root_inv = mp.inverse(root)
        inner = root_inv * mp.matrix(B.tolist()) * root_inv
        expect = np.array((root * mp.powm(inner, r) * root).tolist(), dtype=np.complex128)
    assert rel_err(geometric_mean(A, B, r), expect) <= 1e-12
    assert rel_err(geometric_mean_integral(A, B, r), expect) <= 1e-12


def test_integral_collapses_when_equal():
    A = gen_accretive(3, 70)
    out = geometric_mean_integral(A, A, 0.5, 80)
    assert rel_err(out, A) <= 1e-10


def test_integral_endpoints_pass_through():
    A, B = gen_accretive(3, 71), gen_accretive(3, 72)
    assert np.array_equal(geometric_mean_integral(A, B, 0), A)
    assert np.array_equal(geometric_mean_integral(A, B, 1), B)
    with pytest.raises(PreconditionError):
        geometric_mean_integral(scalar(-1.0), scalar(1.0), 0)


# -------------------------------------------------------------- identities


def identity_sides(check_id, A, B, r):
    """The one term (lhs, rhs) of identity check_id on the pair (A, B) at r."""
    inst = Instance(dim=len(A), seed=0, trial=0, A=A, B=B, r=r)
    [term] = check_by_id(check_id).terms(inst, EvalContext())
    return term


def test_reflection_scalar():
    out, _ = identity_sides("I01", scalar(4.0), scalar(9.0), 1.5)
    assert out[0, 0] == pytest.approx(13.5, abs=1e-12)
    assert out[0, 0] == pytest.approx(4.0 ** (-0.5) * 9.0 ** 1.5, abs=1e-12)


def test_negation_scalar():
    out, _ = identity_sides("I02", scalar(4.0), scalar(9.0), -0.5)
    assert out[0, 0] == pytest.approx(4.0 ** 1.5 * 9.0 ** (-0.5), abs=1e-12)
    assert out[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_inverse_mean_scalar():
    lhs, rhs = identity_sides("I03", scalar(4.0), scalar(9.0), 0.5)
    assert lhs[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert rel_err(lhs, rhs) <= 1e-12


def test_identities_fixed_point():
    A = gen_accretive(3, 80)
    assert rel_err(identity_sides("I01", A, A, 1.3)[0], A) <= 1e-10
    assert rel_err(identity_sides("I02", A, A, -0.4)[0], A) <= 1e-10
    eye = np.eye(3, dtype=np.complex128)
    lhs, rhs = identity_sides("I03", eye, eye, 0.5)
    assert rel_err(lhs, np.eye(3)) <= 1e-12 and rel_err(rhs, np.eye(3)) <= 1e-12


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_identities_close_on_random_pairs(seed):
    A, B = gen_accretive(4, seed), gen_accretive(4, seed + 1)
    r12 = 1.0 + 0.05 + (seed % 9) / 10.0
    out, _ = identity_sides("I01", A, B, r12)
    assert rel_err(out, geometric_mean(A, B, r12)) <= 1e-8
    rneg = -(0.05 + (seed % 9) / 10.0)
    out, _ = identity_sides("I02", A, B, rneg)
    assert rel_err(out, geometric_mean(A, B, rneg)) <= 1e-8
    lhs, rhs = identity_sides("I03", A, B, 1.5)
    assert rel_err(lhs, rhs) <= 1e-8


def test_sectorial_pair_mean_off_cone_is_finite():
    """Wide-sector pairs can push the inner matrix off the accretive cone;
    the mean still evaluates on the principal branch."""
    A = gen_sectorial(3, 1.35, 90).matrix
    B = gen_sectorial(3, 1.35, 91).matrix
    out = geometric_mean(A, B, 1.9)
    assert np.all(np.isfinite(out))


def test_eigen_mean_raises_no_warning_off_the_cone():
    """The inner congruence A^{-1/2} B A^{-1/2} has the spectrum of A^{-1} B,
    ratios <Bx, x> / <Ax, x> of two numbers in the open right half-plane, so
    it avoids the cut even where the matrix leaves the accretive cone (most
    of these pairs).  The eigen mean is then a plain value, and it agrees
    with the integral."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(200):
            n = 2 + i % 4
            A, B = gen_accretive(n, i), gen_accretive(n, 1000 + i)
            r = (-0.5, 0.5, 1.5)[i % 3]
            assert rel_err(geometric_mean(A, B, r), geometric_mean_integral(A, B, r)) <= 1e-8


# ------------------------------------------------------------ shared rule


def _kernel_at(P, Q, r, n_nodes):
    """The kernel's sum c^r X (sum_j w_j ((1-s_j) Q/c + s_j P)^{-1}) Y over
    the n-node rule, written out for one pair."""
    size = np.abs(np.linalg.eigvals(np.linalg.solve(P, Q)))
    c = math.sqrt(size.min() * size.max())
    Qc = Q / c
    rule = quadrature_rule(r, n_nodes)
    total = sum(w * inverse((1.0 - s) * Qc + s * P) for s, w in zip(rule.nodes, rule.weights))
    k = math.ceil(r)
    X, Y = (P if k == 0 else Qc), (Qc if k == 2 else P)
    return c**r * (X @ total @ Y)


@pytest.mark.parametrize("r", [-0.6, 0.3, 1.7])
def test_two_pair_kernel_shares_the_larger_rule(r):
    """Two pairs in one kernel call are each the integral over the rule the
    more demanding pair needs."""
    A, B = gen_accretive(4, 11), gen_accretive(4, 12)
    C = gen_pd(4, 13) @ np.diag([1.0, 3.0, 30.0, 300.0]).astype(np.complex128)
    D = gen_accretive(4, 14)
    pairs = [(A, B), (C, D)]
    counts = []
    for P, Q in pairs:
        lam = np.linalg.eigvals(np.linalg.solve(P, Q))
        counts.append(node_count(lam / math.sqrt(np.abs(lam).min() * np.abs(lam).max())))
    assert counts[0] < counts[1]
    shared = _resolvent_mean(pairs, r, MAX_NODES)
    for (P, Q), mean in zip(pairs, shared):
        alone = _kernel_at(P, Q, r, max(counts))
        assert np.linalg.norm(mean - alone) <= 1e-14 * np.linalg.norm(alone)


@pytest.mark.parametrize("r", [-0.6, 0.3, 1.7])
def test_quad_power_ignores_memory_layout(r):
    """Fortran-ordered and transposed inputs give the C-ordered result: the
    pencil is built the same way for any memory layout."""
    A, B = gen_accretive(4, 21), gen_accretive(3, 22)
    for M in (np.asfortranarray(A), B.T):
        assert not M.flags.c_contiguous
        expected = principal_power_quad(np.ascontiguousarray(M), r)
        assert rel_err(principal_power_quad(M, r), expected) <= 1e-14


# ------------------------------------------------------------ Schur-basis nodes


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_back_substitution_inverts_every_pencil(n):
    """One back-substitution gives ((1-s) T + s I)^{-1} at every node, the end
    nodes s = 0 (T itself) and s = 1 (the identity) included."""
    T, _ = scipy.linalg.schur(gen_accretive(n, 3), output="complex")
    lam = np.diagonal(T)
    T = T / math.sqrt(np.abs(lam).min() * np.abs(lam).max())
    s = np.concatenate([[0.0], np.linspace(0.01, 0.99, 9), [1.0]])
    inverses = _triangular_inverses(T, s)
    pencils = (1.0 - s)[:, None, None] * T + s[:, None, None] * np.eye(n)
    assert np.abs(pencils @ inverses - np.eye(n)).max() <= 1e-13
    assert np.array_equal(inverses[-1], np.eye(n))


@pytest.mark.parametrize("r, tol", [(-0.6, 1e-14), (0.4, 1e-12), (1.7, 1e-14)])
def test_node_blocks_do_not_change_the_result(monkeypatch, r, tol):
    """At n = 64 and kappa = 3e4 the rule has more than 32 nodes, so the
    default blocking takes several blocks; one node per block gives the same
    means up to the order of the sums.  At r in (0, 1) the sum is multiplied
    by Q/c, far larger than the mean, so reordering it moves the mean by
    about 1e-13."""
    n = 64
    U = gen_unitary(n, 7)
    lam = np.logspace(0.0, math.log10(3e4), n) * np.exp(1j * np.linspace(-1.2, 1.2, n))
    A = (U * lam) @ U.conj().T
    B = gen_accretive(n, 8)
    size = np.abs(lam)
    assert node_count(lam / math.sqrt(size.min() * size.max())) > BLOCK_ENTRIES // (n * n)
    power, mean = principal_power_quad(A, r), geometric_mean_integral(B, A, r)
    monkeypatch.setattr(means, "BLOCK_ENTRIES", n * n)
    assert rel_err(principal_power_quad(A, r), power) <= tol
    assert rel_err(geometric_mean_integral(B, A, r), mean) <= tol


def test_jordan_mean_doubles_its_rule_on_every_branch(monkeypatch):
    """P #_r P (I + 0.9 S) = P (I + 0.9 S)^r.  spec(P^{-1} Q) is {1}, and
    the computed one lies within eps^(1/12) of it, so the first rule is
    small and the estimate doubles it on each branch; at r in (1, 2) the
    result goes through the T_c fold."""
    M, oracle = shifted_jordan(12, 0.9)
    P = gen_pd(12, 5)
    counts = []
    cached = means._cached_rule
    monkeypatch.setattr(means, "_cached_rule", lambda r, n: counts.append(n) or cached(r, n))
    for r in (-0.6, 0.4, 1.7):
        counts.clear()
        got = _resolvent_mean([(P, P @ M)], r, MAX_NODES)[0]
        assert len(counts) > 1 and counts[1:] == [2 * c for c in counts[:-1]]
        assert rel_err(got, P @ oracle(r)) <= 1e-13


def test_kernel_refuses_a_schur_failure(fail_lapack):
    fail_lapack("zgees")
    with pytest.raises(LapackError, match="zgees"):
        principal_power_quad(gen_accretive(3, 1), 0.5)
    with pytest.raises(LapackError, match="zgees"):
        geometric_mean_integral(gen_accretive(3, 1), gen_accretive(3, 2), 1.5)


@pytest.mark.parametrize("r", [-0.6, 0.3, 1.7])
def test_identity_pair_needs_no_matrix(r):
    """P None is the identity: the same bits as passing I, without the solve."""
    for n in (1, 2, 5, 8):
        A = gen_accretive(n, 31)
        eye = np.eye(n, dtype=np.complex128)
        for B in (A, np.asfortranarray(A)):
            assert np.array_equal(
                _resolvent_mean([(None, B)], r, MAX_NODES)[0],
                _resolvent_mean([(eye, B)], r, MAX_NODES)[0],
            )
        # two power pairs in one call, as Re(A^r) <= (Re A)^r passes them
        pairs = [(None, A), (None, real_part(A))]
        got = _resolvent_mean(pairs, r, MAX_NODES)
        want = _resolvent_mean([(eye, Q) for _, Q in pairs], r, MAX_NODES)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_rule_cache_keeps_the_reuse_of_a_fixed_r_suite(monkeypatch):
    """A suite at a fixed r hits the rule cache within 5% of as often as a
    cache that never evicts: the lookups less the distinct rules."""
    assert means._cached_rule.cache_info().maxsize == 66
    keys = []
    cached = means._cached_rule
    monkeypatch.setattr(means, "_cached_rule", lambda r, n: keys.append((r, n)) or cached(r, n))
    cached.cache_clear()
    try:
        run_suite("r12", RunConfig(seed=42, trials=100, r_override=1.5))
        hits = cached.cache_info().hits
    finally:
        cached.cache_clear()
    assert hits >= 0.95 * (len(keys) - len(set(keys)))
