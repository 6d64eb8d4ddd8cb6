"""Unitarily invariant norms and the numerical radius."""

import math

import numpy as np
import pytest
import scipy.linalg

from sectormeans import (
    PreconditionError,
    dumps_matrix,
    gen_pd,
    gen_sectorial,
    gen_unitary,
    numerical_radius,
    ui_norm,
)
from sectormeans import norms
from sectormeans.cli import main
from sectormeans.linalg import LapackError, op_norm

from conftest import below_radius_floor


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_norm_examples_diag():
    A = np.diag([1.0, -2.0])
    assert ui_norm(A, "trace") == pytest.approx(3.0, abs=1e-12)
    assert ui_norm(A, "operator") == pytest.approx(2.0, abs=1e-12)
    assert ui_norm(A, "frobenius") == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_unitary_operator_norm_is_one():
    U = gen_unitary(5, 21)
    assert ui_norm(U, "operator") == pytest.approx(1.0, abs=1e-12)


def test_kyfan_extremes():
    A = random_complex(5, 2)
    assert ui_norm(A, "kyfan", k=1) == pytest.approx(ui_norm(A, "operator"), abs=1e-12)
    assert ui_norm(A, "kyfan", k=5) == pytest.approx(ui_norm(A, "trace"), abs=1e-12)


def test_kyfan_requires_valid_k():
    A = random_complex(3, 3)
    with pytest.raises(PreconditionError):
        ui_norm(A, "kyfan")
    with pytest.raises(PreconditionError):
        ui_norm(A, "kyfan", k=0)
    with pytest.raises(PreconditionError):
        ui_norm(A, "kyfan", k=4)


def test_unknown_norm_kind():
    with pytest.raises(PreconditionError):
        ui_norm(np.eye(2), "nuclear-ish")


@pytest.mark.parametrize("kind,k", [("operator", None), ("frobenius", None),
                                    ("trace", None), ("kyfan", 2)])
def test_unitary_invariance(kind, k):
    for seed in range(6):
        A = random_complex(4, 400 + seed)
        U, V = gen_unitary(4, 500 + seed), gen_unitary(4, 600 + seed)
        base = ui_norm(A, kind, k=k)
        moved = ui_norm(U @ A @ V, kind, k=k)
        assert abs(moved - base) <= 1e-9 * base


def test_radius_hermitian_is_spectral():
    H = gen_pd(5, 30) - 1.5 * np.eye(5)
    w = np.linalg.eigvalsh(H)
    assert numerical_radius(H) == pytest.approx(max(abs(w[0]), abs(w[-1])), abs=1e-9)


def test_radius_nilpotent_shift():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert numerical_radius(A) == pytest.approx(0.5, abs=1e-10)


def test_radius_normal_two_points():
    # eigenvalues 1 and i: the numerical range is the joining segment
    A = np.diag([1.0, 1.0j])
    assert numerical_radius(A) == pytest.approx(1.0, abs=1e-9)


def test_radius_homogeneous():
    A = random_complex(4, 31)
    w = numerical_radius(A)
    for c in (-2.3 + 1.1j, 1e-15, 2.0**-60, 1e6):
        assert numerical_radius(c * A) == pytest.approx(abs(c) * w, rel=1e-12, abs=0.0)


def _closed_forms():
    rng = np.random.default_rng(17)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    return {
        # numerical range of N_4 is the disk of radius cos(pi/5)
        "jordan": (2.0 * np.eye(4) + np.eye(4, k=1), 2.0 + math.cos(math.pi / 5)),
        # constant support function: every angle touches the level
        "shift5": (np.eye(5, k=1), math.cos(math.pi / 6)),
        # singular A*: the pencil has infinite eigenvalues
        "rank_one": (np.outer(x, y.conj()),
                     0.5 * (abs(np.vdot(y, x)) + np.linalg.norm(x) * np.linalg.norm(y))),
        # 2x2 numerical range: the ellipse with foci +-lam and minor axis |b|;
        # its support is flat to about 1e-8, so the last crossings are near-tangent
        "flat_ellipse": (np.array([[0.7 + 0.3j, 1e4], [0.0, -0.7 - 0.3j]]),
                         math.sqrt(0.58 + 0.25e8)),
        # five equal peaks
        "roots_of_unity": (np.diag(np.exp(2j * math.pi * np.arange(5) / 5)), 1.0),
        "zero": (np.zeros((3, 3)), 0.0),
        # Hermitian, eigenvalues (-1 +- sqrt(29)) / 2: w = ||A||, no search
        "hermitian": (np.array([[2.0, 1.0j], [-1.0j, -3.0]]), (1.0 + math.sqrt(29.0)) / 2.0),
        "scalar": (np.array([[3.0 - 4.0j]]), 5.0),
    }


@pytest.mark.parametrize("scale", [1.0, 1e-15, 1e6])
@pytest.mark.parametrize("name", sorted(_closed_forms()))
def test_radius_closed_forms(name, scale):
    A, w = _closed_forms()[name]
    assert numerical_radius(scale * A) == pytest.approx(scale * w, rel=1e-12, abs=0.0)


def test_radius_sandwich_escape_is_typed(monkeypatch, tmp_path, capsys):
    # a climb that reads four times the truth sets a level above every angle's
    # support, so the pencil finds no crossing and w lands above ||A||
    ascend = norms._ascend
    monkeypatch.setattr(norms, "_ascend", lambda A, theta: 4.0 * ascend(A, theta))
    A = gen_sectorial(4, 0.8, 12).matrix
    with pytest.raises(norms.RadiusCertificateError):
        numerical_radius(A)
    path = tmp_path / "a.json"
    path.write_text(dumps_matrix(A) + "\n")
    code = main(["compute", "wradius", str(path)])
    err = capsys.readouterr().err
    assert code != 0
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "sandwich" in err


def _count_solves(monkeypatch):
    solves = []
    solve = norms._pencil_eigvals
    monkeypatch.setattr(norms, "_pencil_eigvals",
                        lambda *args: solves.append(1) or solve(*args))
    return solves


def test_radius_mostly_one_pencil_solve(monkeypatch):
    # a Hermitian input returns ||A|| with no solve; otherwise the Newton
    # climb reaches the peak, so one solve usually certifies it
    rng = np.random.default_rng(8)
    hermitian, general = [], []
    for seed in range(60):
        n = 2 + seed % 7
        alpha = float(rng.uniform(0.1, 1.4))
        B = np.linalg.inv(gen_sectorial(n, alpha, 300 + seed).matrix)
        general += [gen_sectorial(n, alpha, seed).matrix, B @ B]
        hermitian.append(gen_pd(n, seed))
    solves = _count_solves(monkeypatch)
    for A in hermitian:
        numerical_radius(A)
    assert len(solves) == 0
    for A in general:
        numerical_radius(A)
    # every call certifies its level with at least one solve
    assert 1.0 <= len(solves) / len(general) <= 1.5


def _near_hermitian(times_threshold, n=5, seed=40):
    # H + i e K with ||A - A*||_F = 2 e ||K||_F set to a multiple of the
    # shortcut's documented threshold 16 * n * eps * ||A||
    rng = np.random.default_rng(seed)
    G, F = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
    H, K = G + G.conj().T, F + F.conj().T
    bound = 16.0 * n * np.finfo(float).eps * op_norm(H)
    return H + 1j * (times_threshold * bound / (2.0 * np.linalg.norm(K))) * K


def _shortcut_inputs():
    B_inv = np.linalg.inv(gen_pd(5, 41))
    return {
        "pd": (gen_pd(5, 40), True),
        "inverse_square": (B_inv @ B_inv, True),
        "just_below": (_near_hermitian(0.9), True),
        "just_above": (_near_hermitian(1.1), False),
    }


@pytest.mark.parametrize("name", sorted(_shortcut_inputs()))
def test_radius_hermitian_shortcut(monkeypatch, name):
    # below the threshold ||A|| is returned with no pencil solve; that value
    # and the full certificate's are both within ||Im A||_F of w(A)
    A, below = _shortcut_inputs()[name]
    solves = _count_solves(monkeypatch)
    w = numerical_radius(A)
    assert (len(solves) == 0) if below else (len(solves) >= 1)
    monkeypatch.setattr(norms, "HERMITIAN_TOL", -1.0)
    full = numerical_radius(A)
    assert len(solves) >= 1
    imag = 0.5 * np.linalg.norm(A - A.conj().T)
    rounding = 4.0 * len(A) * np.finfo(float).eps * full
    assert abs(w - full) <= imag + rounding
    assert abs(op_norm(A) - full) <= imag + rounding


def _ellipse(a, b, phi):
    # numerical range: the ellipse with foci +-a e^{i phi} and minor axis |b|,
    # so its support peaks at phi and phi + pi with height sqrt(a^2 + b^2/4)
    return np.exp(1j * phi) * np.array([[a, b], [0.0, -a]])


def test_radius_restarts_from_the_lower_basin(monkeypatch):
    # the climb starts at the angle of the eigenvalue of largest modulus, here
    # the scalar block 1.002 e^{i psi}: a peak of height 1.002.  The ellipse
    # has the smaller eigenvalues +-e^{i pi/16} but the higher peak, sqrt(1.01)
    # at pi/16, so only a restart finds the global maximum
    psi = math.pi / 2 + 0.1
    A = scipy.linalg.block_diag(_ellipse(1.0, 0.2, math.pi / 16), [[1.002 * np.exp(1j * psi)]])
    starts, peaks = [], []
    ascend = norms._ascend

    def recorded(A, theta):
        starts.append(theta)
        peaks.append(ascend(A, theta))
        return peaks[-1]

    monkeypatch.setattr(norms, "_ascend", recorded)
    assert numerical_radius(A) == pytest.approx(math.sqrt(1.01), rel=1e-12, abs=0.0)
    assert starts[0] == pytest.approx(psi, rel=1e-14)
    assert peaks[0] == pytest.approx(1.002 / op_norm(A), rel=1e-12)
    assert len(starts) >= 2
    assert math.cos(starts[1] - math.pi / 16) ** 2 > 0.99


def _rcond(A):
    sv = np.linalg.svd(A, compute_uv=False)
    return sv[-1] / sv[0]


def _guard_family():
    # (name, A) over n = 2..32 with sigma_min / sigma_max from 1 down to
    # about 1e-12, on both sides of LEVEL_SET_RCOND
    rng = np.random.default_rng(31)
    family = []
    for k in range(48):
        n = int(rng.integers(2, 33))
        kappa = 10.0 ** rng.uniform(0.0, 12.0)
        U, V = gen_unitary(n, 2 * k), gen_unitary(n, 2 * k + 1)
        if k % 4 == 0:  # normal, spectrum graded in modulus, spread in angle
            lam = np.logspace(0.0, -math.log10(kappa), n) * np.exp(1j * rng.uniform(-3.0, 3.0, n))
            A = (U * lam) @ U.conj().T
        elif k % 4 == 1:  # triangular with graded rows
            T = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            A = np.logspace(0.0, -math.log10(kappa), n)[:, None] * T
        elif k % 4 == 2:  # one small singular value
            s = np.ones(n)
            s[-1] = 1.0 / kappa
            A = (U * s) @ V
        else:  # a Jordan block closed into a cycle by a small corner entry
            J = (0.5 + 0.3j) * np.eye(n) + np.eye(n, k=1)
            J[-1, 0] = 1.0 / kappa
            A = U @ J @ U.conj().T
        family.append((f"{k}-n{n}", A))
    return family


def _pencil_radius(monkeypatch, A):
    # the radius with every level-set test on the zggev pencil
    with monkeypatch.context() as m:
        m.setattr(norms, "LEVEL_SET_RCOND", math.inf)
        return numerical_radius(A)


def _record_forms(monkeypatch):
    # one entry per level-set test: True for the standard form, False for zggev
    forms = []
    solve = norms._pencil_eigvals
    monkeypatch.setattr(norms, "_pencil_eigvals",
                        lambda a, b: forms.append(b is None) or solve(a, b))
    return forms


def test_radius_standard_form_matches_the_pencil_above_the_floor(monkeypatch):
    # above LEVEL_SET_RCOND the level-set test is the standard eigenproblem
    # of W^{-1} P and agrees with the pencil's radius to rounding; below it,
    # the pencil runs, so the two calls are one computation
    forms = _record_forms(monkeypatch)
    sides = set()
    for name, A in _guard_family():
        above = _rcond(A) >= norms.LEVEL_SET_RCOND
        sides.add(above)
        forms.clear()
        w = numerical_radius(A)
        assert forms and set(forms) == {above}, name
        pencil = _pencil_radius(monkeypatch, A)
        if above:
            assert w == pytest.approx(pencil, rel=1e-13, abs=0.0), name
        else:
            assert w == pencil, name
    assert sides == {True, False}


def _two_peaks(n, delta, rcond, seed):
    # w(A) = 1, at angle 0, from a 2 x 2 block whose numerical range is the
    # disk |z - 1/2| <= 1/2; a second support peak 1 - delta at angle 2 holds
    # the eigenvalue of largest modulus, where the climb starts, so the first
    # level is 1 - delta and its crossings lie 4 sqrt(delta) apart around 0.
    # One eigenvalue of modulus rcond ||A|| sets sigma_min / sigma_max.
    rng = np.random.default_rng(seed)
    D = np.zeros((n, n), dtype=np.complex128)
    D[:2, :2] = [[0.5, 1.0], [0.0, 0.5]]
    D[2, 2] = (1.0 - delta) * np.exp(2j)
    for k in range(3, n - 1):
        D[k, k] = 0.4 * np.exp(1j * rng.uniform(-math.pi, math.pi))
    D[-1, -1] = rcond * op_norm(D[:2, :2]) * np.exp(1j * rng.uniform(-math.pi, math.pi))
    Q = gen_unitary(n, seed)
    return Q @ D @ Q.conj().T


def test_radius_finds_a_near_equal_peak_just_above_the_floor(monkeypatch):
    # near a tangency the solve's rounding, about eps sigma_max / sigma_min,
    # moves the crossing pair off the circle by about its square root, which
    # at the floor is still inside the unimodularity window
    forms = _record_forms(monkeypatch)
    for n in (4, 8, 16):
        for delta in (1e-6, 1e-8, 1e-10, 1e-12):
            for seed in (0, 1):
                A = _two_peaks(n, delta, 2e-6, seed)
                assert _rcond(A) >= norms.LEVEL_SET_RCOND
                forms.clear()
                assert numerical_radius(A) == pytest.approx(1.0, abs=1e-13), (n, delta, seed)
                assert forms and all(forms)


def test_radius_keeps_the_pencil_where_a_near_equal_peak_escapes(monkeypatch):
    # at sigma_min / sigma_max = 1e-8 that departure is about 1.5e-4, past the
    # window: the standard form misses the crossings below the higher peak
    # and stops at the lower one, where the pencil finds w(A) = 1
    # in a few of these 54 cases (which ones depends on the rounding)
    misses = 0
    for n in (4, 6, 8):
        for delta in (1e-9, 1e-10, 1e-11):
            for seed in range(6):
                A = _two_peaks(n, delta, 1e-8, seed)
                assert _rcond(A) < norms.LEVEL_SET_RCOND
                with monkeypatch.context() as m:
                    m.setattr(norms, "LEVEL_SET_RCOND", 0.0)
                    misses += numerical_radius(A) < 1.0 - 1e-13
                assert numerical_radius(A) == pytest.approx(1.0, abs=1e-13), (n, delta, seed)
    assert misses


def _unguarded_failure():
    # sigma_min / sigma_max = 1e-11: there the standard form reads W^{-1} P
    # too coarsely to see the crossings of the level, and stops 6% low
    rng = np.random.default_rng(588)
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return (q1 * np.array([1.0, 1.0, 1.0, 1e-11])) @ q2


def test_radius_below_the_floor_keeps_the_pencil(monkeypatch):
    A = _unguarded_failure()
    assert _rcond(A) == pytest.approx(1e-11, rel=1e-3)
    pencil = _pencil_radius(monkeypatch, A)
    # the pencil's value is the support function's maximum
    thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
    grid = float(norms._support(A, thetas).max())
    assert pencil == pytest.approx(grid, rel=1e-7)
    with monkeypatch.context() as m:
        m.setattr(norms, "LEVEL_SET_RCOND", 0.0)
        try:
            unguarded = numerical_radius(A)
        except norms.RadiusCertificateError:
            unguarded = math.nan
    assert not abs(unguarded - pencil) <= 0.01 * pencil
    assert numerical_radius(A) == pencil


@pytest.mark.parametrize("A", [
    np.eye(5, k=1),
    (gen_unitary(5, 3) * np.array([1.0, 0.8, 0.5, 0.2, 0.0])) @ gen_unitary(5, 4),
], ids=["shift", "rank-four"])
def test_radius_of_a_singular_matrix_keeps_the_pencil(monkeypatch, A):
    # A* has no inverse (exactly, or to rounding), so every level-set test
    # runs on the pencil, which drops its infinite eigenvalues
    forms = _record_forms(monkeypatch)
    w = numerical_radius(A)
    assert forms and not any(forms)
    assert w == _pencil_radius(monkeypatch, A)


def test_radius_refuses_a_failed_level_set_eigensolve(fail_lapack):
    # a level's eigvals (of the 2n x 2n W^{-1} P, not the start angle's
    # n x n) fails as LapackError naming the routine; a failed solve with A*
    # is test_linalg.py's radius-solve case
    fail_lapack("eigvals", lambda a: len(a) == 8)
    with pytest.raises(LapackError, match="^LAPACK eigvals failed \\(did not converge\\)$"):
        numerical_radius(random_complex(4, 5))


def test_radius_subadditive():
    for seed in range(5):
        A, B = random_complex(4, 700 + seed), random_complex(4, 800 + seed)
        wa, wb, wab = numerical_radius(A), numerical_radius(B), numerical_radius(A + B)
        assert wab <= wa + wb + 1e-9 * max(1.0, wa + wb)


def test_radius_norm_sandwich():
    for seed in range(8):
        A = random_complex(5, 900 + seed)
        w, nrm = numerical_radius(A), op_norm(A)
        assert nrm / 2.0 - 1e-12 <= w <= nrm + 1e-12
