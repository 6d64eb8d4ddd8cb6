"""Each independent reference accepts the program's result and flags a
deliberately perturbed one.

    python3 -m pytest perfbench/test_references.py -q
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import references as ref  # noqa: E402
from sectormeans import (  # noqa: E402
    geometric_mean,
    numerical_radius,
    principal_power,
    sector_angle,
    ui_norm,
)

warnings.simplefilter("ignore")
TOL = ref.TOL


def matrices(band, n=6, seed=3):
    rng = np.random.default_rng(ref.derive("test", band, n, seed))
    return ref.band_matrix(band, n, rng), ref.well_matrix(n, rng)


def nudge(X: np.ndarray, rel: float, seed: int = 0) -> np.ndarray:
    """X plus a random perturbation of relative Frobenius size rel."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
    return X + rel * np.linalg.norm(X) / np.linalg.norm(E) * E


@pytest.mark.parametrize("band", ["well", "ill"])
@pytest.mark.parametrize("r", [-0.5, 0.3, 1.4])
def test_power_reference(band, r):
    A, _ = matrices(band)
    expected = ref.ref_power(A, r)
    out = principal_power(A, r, engine="eigen")
    assert ref.matrix_error(out, expected) <= TOL
    assert ref.matrix_error(nudge(out, 1e-7), expected) > TOL


@pytest.mark.parametrize("band", ["well", "ill"])
@pytest.mark.parametrize("r", [-0.5, 0.3, 1.4])
def test_mean_reference(band, r):
    A, B = matrices(band)
    expected = ref.ref_mean(A, B, r)
    out = geometric_mean(A, B, r, engine="eigen")
    assert ref.matrix_error(out, expected) <= TOL
    assert ref.matrix_error(nudge(out, 1e-7), expected) > TOL


@pytest.mark.parametrize("band", ["well", "ill"])
def test_sector_reference(band):
    A, _ = matrices(band)
    expected = ref.ref_sector(A)
    out = sector_angle(A)
    assert ref.scalar_error(out, expected) <= TOL
    assert ref.scalar_error(out * (1 + 1e-7), expected) > TOL


def test_sector_reference_matches_construction():
    # a normal matrix has half-angle max |arg lambda|
    rng = np.random.default_rng(11)
    lam = np.array([1.0, 10.0, 100.0]) * np.exp(1j * np.array([0.2, -0.7, 0.5]))
    U = ref._unitary(3, rng)
    assert ref.ref_sector((U * lam) @ U.conj().T) == pytest.approx(0.7, rel=1e-12)


@pytest.mark.parametrize("band", ["well", "ill"])
def test_norm_reference(band):
    A, _ = matrices(band)
    n = len(A)
    out = {kind: ui_norm(A, kind) for kind in ("operator", "frobenius", "trace")}
    out["kyfan"] = [ui_norm(A, "kyfan", k) for k in range(1, n + 1)]
    expected = ref.ref_norms(A)
    assert ref.norms_error(out, expected) <= TOL
    for key in ("operator", "frobenius", "trace"):
        bad = dict(out, **{key: out[key] * (1 + 1e-7)})
        assert ref.norms_error(bad, expected) > TOL
    bad = dict(out, kyfan=out["kyfan"][:-1] + [out["kyfan"][-1] * (1 - 1e-7)])
    assert ref.norms_error(bad, expected) > TOL
    assert ref.norms_error(dict(out, kyfan=out["kyfan"][:-1]), expected) > TOL


@pytest.mark.parametrize("band", ["well", "ill"])
def test_wradius_reference(band):
    A, _ = matrices(band)
    bounds = ref.ref_wradius_bounds(A)
    out = numerical_radius(A)
    assert ref.wradius_error(out, bounds) <= TOL
    # the zooming grid catches a radius that is too small ...
    assert ref.wradius_error(out * (1 - 1e-7), bounds) > TOL
    # ... and ||A|| one that is too large
    assert ref.wradius_error(2.01 * out, bounds) > TOL


def test_wradius_reference_is_tight_on_normal_matrices():
    # w = rho = ||A|| for a normal matrix, so both sides of the sandwich
    # flag a perturbation at the 1e-8 level
    A, _ = matrices("ill")
    bounds = ref.ref_wradius_bounds(A)
    out = numerical_radius(A)
    assert ref.wradius_error(out * (1 + 1e-7), bounds) > TOL
    assert ref.wradius_error(out * (1 - 1e-7), bounds) > TOL


def test_matrix_files_round_trip(tmp_path):
    from workloads import read_matrix, write_matrix

    A, _ = matrices("ill", n=5)
    write_matrix(A, tmp_path / "a.json")
    text = (tmp_path / "a.json").read_text(encoding="utf-8")
    assert np.array_equal(read_matrix(text), A)
    assert json.loads(text)["n"] == 5


def test_known_fault_shows_in_the_ill_band():
    # the default quad route returns wrong digits on the ill band, well
    # above the tolerance; the eigen route stays accurate
    A, _ = matrices("ill", n=8)
    expected = ref.ref_power(A, 0.5)
    assert ref.matrix_error(principal_power(A, 0.5, engine="quad"), expected) > 10 * TOL
    assert ref.matrix_error(principal_power(A, 0.5, engine="eigen"), expected) < TOL / 10


def test_seed_derivation_is_stable():
    assert ref.derive(1, "sweep-all", 0) == ref.derive(1, "sweep-all", 0)
    assert ref.derive(1, "sweep-all", 0) != ref.derive(2, "sweep-all", 0)
