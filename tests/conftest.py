import numpy as np
import pytest
from hypothesis import settings

from tvdeblur import (
    KernelSpec,
    SolverConfig,
    degrade,
    make_kernel,
    make_phantom,
    solve,
)
from tvdeblur import spectral

from oracle import reference_tv_solve

# Every property test draws 60 derandomized examples, so each run checks the same cases.
settings.register_profile("tvdeblur", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("tvdeblur")


def piecewise_constant_phantom(n):
    """Blocks and a bright rectangle on a dark background, values in [0, 1]."""
    u = np.full((n, n), 0.2)
    u[: n // 2, : n // 2] = 0.8
    u[n // 2 :, n // 2 :] = 0.55
    u[n // 4 : n // 2, n // 2 : 3 * n // 4] = 0.95
    return u


def stack_field(g):
    """Vectorize a gradient field the way the dense operators expect: dx block, dy block."""
    return np.concatenate([g[..., 0].ravel(), g[..., 1].ravel()])


@pytest.fixture()
def alternations(monkeypatch):
    """The (u, g) pair of every alternation of the solves run in the test, in order.

    Each alternation makes exactly one u-step, so wrapping ``spectral.solve_u``
    sees them all: g is the field it is handed and u the iterate it returns.
    For ftvd3, g is the shrunk field w; for ftvd4 it is w - lam, which the
    u-step forms row by row and which is formed here again.
    """
    seen = []
    original = spectral.solve_u

    def recording(system, w, lam=None):
        u, u_hat = original(system, w, lam)
        seen.append((u, w if lam is None else w - lam))
        return u, u_hat

    monkeypatch.setattr(spectral, "solve_u", recording)
    return seen


@pytest.fixture(scope="session")
def pc16():
    """Small deblurring instance: 16x16 blocks, 3x3 average blur, sigma 0.005."""
    n = 16
    u0 = piecewise_constant_phantom(n)
    kernel = make_kernel(KernelSpec("average", 3))
    f = degrade(u0, kernel, sigma=0.005, seed=7)
    return {"u0": u0, "kernel": kernel, "f": f, "n": n}


@pytest.fixture(scope="session")
def pc16_oracle_mu500(pc16):
    # dense Newton solve, about a second; shared by every test that needs the
    # mu=500 reference solution
    return reference_tv_solve(pc16["f"], pc16["kernel"], mu=500.0)


@pytest.fixture(scope="session")
def default_experiment():
    """The standard protocol at 128x128: 9x9 average blur, sigma 0.01, mu = 0.05/sigma^2."""
    u0 = make_phantom(128)
    kernel = make_kernel(KernelSpec("average", 9))
    sigma = 0.01
    f = degrade(u0, kernel, sigma, seed=0)
    return {"u0": u0, "kernel": kernel, "f": f, "mu": 0.05 / sigma**2}


@pytest.fixture(scope="session")
def ftvd3_default_trace(default_experiment):
    e = default_experiment
    return solve("ftvd3", e["f"], e["kernel"], SolverConfig(mu=e["mu"]), ground_truth=e["u0"])


@pytest.fixture(scope="session")
def ftvd4_default_trace(default_experiment):
    e = default_experiment
    return solve("ftvd4", e["f"], e["kernel"], SolverConfig(mu=e["mu"]), ground_truth=e["u0"])
