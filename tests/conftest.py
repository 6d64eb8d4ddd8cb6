"""Shared fixtures and hypothesis configuration for the test suite."""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("ci")


def rel_err(X, Y):
    """Frobenius distance relative to the larger of the two norms."""
    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    denom = max(np.linalg.norm(X), np.linalg.norm(Y), 1e-300)
    return float(np.linalg.norm(X - Y) / denom)


def load_script(name):
    """The module scripts/<name>.py; scripts/ is not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def below_radius_floor(n=4):
    """A non-Hermitian n x n matrix with sigma_min / sigma_max below 1e-10,
    below norms.LEVEL_SET_RCOND, so its numerical radius runs LAPACK zggev."""
    A = np.triu(np.ones((n, n), dtype=np.complex128))
    A[-1, -1] = 1e-10
    return A


@pytest.fixture
def fail_lapack(monkeypatch):
    """fail_lapack(name) makes the routine `name` of `linalg.lapack` fail:
    NumPy's wrapper of that name raises LinAlgError("did not converge"), and
    SciPy's LAPACK routine returns its outputs with info = 1.  With `when`,
    a predicate on the call's arguments, only the calls it accepts fail.
    The door's cache is cleared on both sides, so the package calls the
    failing routine and then the real one."""
    from sectormeans.linalg import lapack

    def fail(name, when=lambda *args, **kwargs: True):
        if hasattr(np.linalg, name):
            routine = getattr(np.linalg, name)

            def failing(*args, **kwargs):
                if when(*args, **kwargs):
                    raise np.linalg.LinAlgError("did not converge")
                return routine(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, failing)
        else:
            from scipy.linalg import lapack as routines

            routine = getattr(routines, name)

            def failing(*args, **kwargs):
                *out, info = routine(*args, **kwargs)
                return (*out, 1 if when(*args, **kwargs) else info)

            monkeypatch.setattr(routines, name, failing)
        lapack.cache_clear()

    yield fail
    lapack.cache_clear()


# One line per acceptance criterion, echoed after the test summary so the
# verdicts stay visible without -s.
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
