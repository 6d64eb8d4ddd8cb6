"""Gauss-Jacobi rules for the branch measure of each mean order.

Cross-checks: scipy.special.roots_jacobi for nodes/weights (after the affine
map to (0,1)) and scipy.integrate.quad with an algebraic endpoint weight for
low moments.  The closed forms of the first moments (r-1, r+1, r by branch)
follow from the Beta-function reflection and are asserted exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta, roots_jacobi

from sectormeans import (
    NodeBudgetError,
    PreconditionError,
    gen_accretive,
    gen_unitary,
    jacobi_exponents,
    mean_order_branch,
    principal_power,
    quadrature_rule,
)
from sectormeans.quadrature import (
    MAX_NODES,
    MIN_NODES,
    node_count,
    require_node_count,
    truncation_estimate,
)

BRANCH_SAMPLES = [(-0.7, "rneg"), (-0.2, "rneg"), (0.3, "r01"), (0.5, "r01"),
                  (0.9, "r01"), (1.2, "r12"), (1.5, "r12"), (1.8, "r12")]


def sine_prefactor(r):
    """sin((b+1) pi)/pi, which turns the oracles' weight s^b (1-s)^a into
    the branch measure of mass 1 (b = r - ceil(r), a = -1 - b)."""
    _, b = jacobi_exponents(r)
    return math.sin((b + 1.0) * math.pi) / math.pi


@pytest.mark.parametrize("r,branch", BRANCH_SAMPLES)
def test_mean_order_branch(r, branch):
    assert mean_order_branch(r) == branch


def test_branch_endpoints_and_range():
    assert mean_order_branch(0.0) == "endpoint"
    assert mean_order_branch(1.0) == "endpoint"
    for bad in (-1.0, 2.0, -1.5, 2.5, math.nan):
        with pytest.raises(PreconditionError):
            mean_order_branch(bad)
    # a string is not a number, even one float() reads
    for bad in ("x", "0.5", None, 0.5j):
        with pytest.raises(PreconditionError, match="mean order must be a real number"):
            mean_order_branch(bad)


def test_node_budget_is_an_integer_in_range():
    assert require_node_count(MIN_NODES) == MIN_NODES
    assert type(require_node_count(np.int64(MAX_NODES))) is int
    for bad in (MIN_NODES - 1, MAX_NODES + 1, 7.9, 8.0, "8", "x", None):
        with pytest.raises(PreconditionError, match="nodes must be an integer in"):
            require_node_count(bad)


@pytest.mark.parametrize("r,branch", BRANCH_SAMPLES)
def test_jacobi_exponents_in_range(r, branch):
    a, b = jacobi_exponents(r)
    assert -1.0 < a < 0.0 and -1.0 < b < 0.0
    expected = {"r12": (1.0 - r, r - 2.0), "rneg": (-(r + 1.0), r), "r01": (-r, r - 1.0)}
    assert (a, b) == pytest.approx(expected[branch])


@pytest.mark.parametrize("r,_", BRANCH_SAMPLES)
def test_prefactor_positive(r, _):
    # the oracles' normaliser is 1 / B(b+1, a+1), by the reflection identity
    a, b = jacobi_exponents(r)
    assert sine_prefactor(r) > 0.0
    assert sine_prefactor(r) == pytest.approx(1.0 / beta(b + 1.0, a + 1.0), rel=1e-13)


@given(st.floats(min_value=-0.95, max_value=1.95).filter(
    lambda r: min(abs(r), abs(r - 1.0)) > 0.02))
def test_mass_is_one(r):
    rule = quadrature_rule(r, 64)
    assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12


def test_symmetry_at_half():
    """r = 1/2 gives the arcsine-type weight, symmetric about s = 1/2."""
    rule = quadrature_rule(0.5, 41)
    np.testing.assert_allclose(rule.nodes + rule.nodes[::-1], 1.0, atol=1e-14)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-15)


@pytest.mark.parametrize("r", [-0.6, -0.15, 0.25, 0.65, 1.35, 1.85])
def test_first_moment_against_adaptive_quad(r):
    rule = quadrature_rule(r, 96)
    moment = float((rule.weights * rule.nodes).sum())
    a, b = jacobi_exponents(r)
    # density is s^b (1-s)^a up to the sine prefactor; scipy's 'alg' weight
    # integrates x^wvar0 (1-x)^wvar1 exactly at the endpoints
    val, err = quad(lambda s: s, 0.0, 1.0, weight="alg", wvar=(b, a))
    oracle = sine_prefactor(r) * val
    assert err < 1e-11
    assert moment == pytest.approx(oracle, abs=1e-10)
    # Beta reflection collapses the first moment to the branch offset
    offset = {"r12": r - 1.0, "rneg": r + 1.0, "r01": r}[mean_order_branch(r)]
    assert moment == pytest.approx(offset, abs=1e-12)


@pytest.mark.parametrize("r", [-0.4, 0.7, 1.6])
@pytest.mark.parametrize("n", [8, 33, 80])
def test_against_scipy_roots_jacobi(r, n):
    rule = quadrature_rule(r, n)
    a, b = jacobi_exponents(r)
    # a + b = -1, so scipy's recurrence can evaluate 0/0 at k = 1, inside
    # an np.where that discards it
    with np.errstate(invalid="ignore"):
        x, w = roots_jacobi(n, a, b)
    nodes = 0.5 * (x + 1.0)
    weights = sine_prefactor(r) * 2.0 ** (-(a + b + 1.0)) * w
    np.testing.assert_allclose(rule.nodes, nodes, atol=1e-13)
    # scipy's recurrence loses ~1e-11 relative on the endpoint weights at
    # n = 80, so the comparison cannot be tighter than the oracle itself
    np.testing.assert_allclose(rule.weights, weights, rtol=1e-9)


def test_rule_validation():
    # no branch measure exists at the endpoint orders
    for r in (0.0, 1.0):
        with pytest.raises(PreconditionError, match="endpoint"):
            quadrature_rule(r, 16)
    # the order is refused before it is converted: a string is not a
    # number, even one float() reads
    for bad in ("x", None, "0.5"):
        with pytest.raises(PreconditionError, match="mean order must be a real number"):
            quadrature_rule(bad, 8)
    with pytest.raises(PreconditionError):
        quadrature_rule(0.5, 2)
    with pytest.raises(PreconditionError, match=str(MAX_NODES)):
        quadrature_rule(0.5, MAX_NODES + 1)


def _reversed_nodes(x, V):
    return x[::-1].copy(), V[:, ::-1].copy()


def _zero_weight(x, V):
    # the weights are the squared first components, so an underflow to 0 is
    # how LAPACK output could make one non-positive
    V = V.copy()
    V[0, 3] = 0.0
    return x, V


def _heavy_weights(x, V):
    # weights V[0]**2 summing to 1 + 1e-10, a hundred times MASS_TOL
    V = V.copy()
    V[0] *= math.sqrt(1.0 + 1e-10)
    return x, V


@pytest.mark.parametrize("fault, message", [
    (_reversed_nodes, "strictly increasing within"),
    (_zero_weight, "strictly positive"),
    (_heavy_weights, "weights sum to"),
], ids=["reversed-nodes", "zero-weight", "mass-1e-10"])
def test_rule_checks_its_own_build(monkeypatch, fault, message):
    """quadrature_rule checks what LAPACK dstevd returned before it returns
    a rule: a fault in the eigensolve is refused, not integrated."""
    from sectormeans import quadrature

    solve = quadrature.lapack("dstevd")
    monkeypatch.setattr(quadrature, "lapack", lambda name: lambda *args: fault(*solve(*args)))
    with pytest.raises(PreconditionError, match=message):
        quadrature_rule(0.5, 8)


def test_rules_compare_and_hash_by_identity():
    """A rule's fields are arrays, so a rule is equal only to itself, and
    hashes, as the rule cache's values may be kept in sets and dicts."""
    from sectormeans import means

    rule = quadrature_rule(0.5, 8)
    assert rule == rule
    assert rule != quadrature_rule(0.5, 8)
    assert hash(rule) == hash(rule)
    assert len({rule, quadrature_rule(0.5, 8)}) == 2
    assert means._cached_rule(0.5, 8) is means._cached_rule(0.5, 8)


@pytest.mark.parametrize("r", [-0.6, 0.4, 1.7])
def test_probes_read_jacobi_coefficients(r):
    """Row 0 is the weights; the other rows pick out coefficients of degree
    h-1, h, n-2 and n-1 (h = n // 2), which vanish on lower-degree polynomials."""
    rule = quadrature_rule(r, 16)
    assert rule.probes.shape == (5, 16)
    assert np.array_equal(rule.probes[0], rule.weights)
    low = rule.probes @ (1.0 + rule.nodes**3)
    assert low[0] > 1.0 and np.all(np.abs(low[1:]) <= 1e-13)
    # s^15 has a coefficient of degree 15, and of degree 14 too
    top = rule.probes @ rule.nodes**15
    assert np.all(np.abs(top[3:]) >= 1e-9)


def test_truncation_estimate():
    # decay 1e-4 over the 4 degrees from h = 5 to n-1 = 9, carried 11 more to 2n = 20
    est = truncation_estimate(10, np.array([1e-4, 5e-5, 1e-8, 2e-9]))
    assert est == pytest.approx(1e-8 * 1e-4 ** (11 / 4), rel=1e-9)
    # a top that has not decayed below the middle is its own estimate
    assert truncation_estimate(10, np.array([1e-3, 1e-3, 2e-3, 1e-4])) == 2e-3
    # at the floor the two pairs overlap in degree 2
    assert truncation_estimate(MIN_NODES, np.array([1e-2, 1e-3, 1e-3, 1e-4])) == pytest.approx(
        1e-3 * 1e-1**5
    )


def test_node_count_from_the_spectrum():
    # no pole (mu = 1): the floor; the count grows as a pole nears [0, 1]
    assert node_count(np.array([1.0, 1.0])) == MIN_NODES
    counts = [node_count(np.array([1.0 / k, k])) for k in (2.0, 10.0, 100.0, 1e4)]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    # rho = |sqrt(mu) + 1| / |sqrt(mu) - 1| = 3 at mu = 4: ceil(log(1e16) / (2 log 3))
    assert node_count(np.array([4.0])) == 17
    # the bound depends on the spectrum, not on the budget
    mu = np.array([0.01, 100.0j])
    assert node_count(mu, 200) == node_count(mu, MAX_NODES)
    with pytest.raises(NodeBudgetError, match=str(node_count(mu))):
        node_count(mu, node_count(mu) - 1)
    # on the cut no count suffices
    with pytest.raises(NodeBudgetError):
        node_count(np.array([-1.0, 1.0]))


def test_rule_polynomial_exactness():
    """An n-point Gauss rule integrates monomials up to degree 2n-1."""
    r = 1.4
    rule = quadrature_rule(r, 6)
    a, b = jacobi_exponents(r)
    for k in range(2, 12):
        approx = float((rule.weights * rule.nodes**k).sum())
        val, _ = quad(lambda s, k=k: s**k, 0.0, 1.0, weight="alg", wvar=(b, a))
        assert approx == pytest.approx(sine_prefactor(r) * val, abs=5e-13)


BRANCH_ENDS = [k - 10.0**-j for k in (0, 1, 2) for j in range(3, 10)]


@pytest.mark.parametrize("r", BRANCH_ENDS)
def test_rule_next_to_an_integer(r):
    """The closed-form Jacobi matrix keeps the mass at 1 as r nears 0, 1 or 2
    from below, where a normaliser sin((b+1) pi) Gamma(a+1) Gamma(b+1) built
    from b -> 0 loses its digits; the nodes still match scipy's."""
    rule = quadrature_rule(r, 32)
    assert abs(float(rule.weights.sum()) - 1.0) <= 1e-14
    a, b = jacobi_exponents(r)
    with np.errstate(divide="ignore", invalid="ignore"):  # scipy's k = 1 term at a + b = -1
        x, _ = roots_jacobi(32, a, b)
    np.testing.assert_allclose(rule.nodes, 0.5 * (x + 1.0), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("r", BRANCH_ENDS)
def test_power_engines_agree_next_to_an_integer(r):
    A = gen_accretive(4, 1)
    quad_power = principal_power(A, r, engine="quad")
    eigen_power = principal_power(A, r, engine="eigen")
    assert np.linalg.norm(quad_power - eigen_power) <= 1e-13 * np.linalg.norm(eigen_power)


NEAR_INTEGERS = [k - 1e-12 for k in (0, 1, 2)]


@pytest.mark.parametrize("n_nodes", [128, 256, 1024])
@pytest.mark.parametrize("r", NEAR_INTEGERS)
def test_large_rule_within_1e12_of_an_integer(r, n_nodes):
    """The last node rounds to 1.0 at these r; the rule still builds."""
    rule = quadrature_rule(r, n_nodes)
    assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12
    assert 0.0 < rule.nodes[0] and rule.nodes[-1] <= 1.0 and (np.diff(rule.nodes) > 0.0).all()


@pytest.mark.parametrize("r", NEAR_INTEGERS)
def test_power_engines_agree_within_1e12_of_an_integer(r):
    # a normal matrix with |lambda| over [1, 2e4] needs 133 nodes, a count
    # whose last node rounds to 1.0 at each of these r
    n, kappa = 6, 2e4
    U = gen_unitary(n, 3)
    lam = np.logspace(0.0, math.log10(kappa), n) * np.exp(1j * np.linspace(-1.2, 1.2, n))
    A = (U * lam) @ U.conj().T
    assert node_count(lam / math.sqrt(kappa)) == 133
    quad_power = principal_power(A, r, engine="quad")
    eigen_power = principal_power(A, r, engine="eigen")
    assert np.linalg.norm(quad_power - eigen_power) <= 1e-13 * np.linalg.norm(eigen_power)
