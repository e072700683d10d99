"""Property tests of the half-spectrum operators against the dense oracle.

Sizes run from 2 to 17, so odd sides, where ``irfft2`` needs the output
shape spelled out, are drawn as often as even ones.  Examples are
derandomized so that every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdeblur import (
    KernelSpec,
    apply_kernel,
    build_cache,
    decompose,
    divergence_adjoint,
    forward_diff,
    make_kernel,
    prepare_u,
    solve_u,
)
from tvdeblur.spectral import residual_sq

from conftest import stack_field
from oracle import convolve_periodic, dense_operator

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """(n, kernel, seed): a grid side, a delta/average/gaussian kernel that fits it, a field seed."""
    n = draw(st.integers(2, 17))
    kind = draw(st.sampled_from(["delta", "average", "gaussian"]))
    if kind == "delta":
        spec = KernelSpec.delta()
    else:
        size = draw(st.sampled_from([m for m in (1, 3, 5, 7, 9) if m <= n]))
        spec = KernelSpec.average(size) if kind == "average" else KernelSpec.gaussian(size, draw(st.floats(0.5, 2.0)))
    return n, make_kernel(spec), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(problems())
def test_apply_kernel_matches_dense_blur(problem):
    n, kernel, seed = problem
    u = np.random.default_rng(seed).standard_normal((n, n))
    blurred = apply_kernel(build_cache(kernel, n), u)
    assert blurred.shape == (n, n)
    assert np.abs(blurred.ravel() - dense_operator("K", n, kernel) @ u.ravel()).max() <= 1e-10


@PROPERTY_SETTINGS
@given(
    problems(),
    st.floats(0.1, 1000.0),
    st.floats(0.1, 1000.0),
    st.booleans(),
)
def test_solve_u_satisfies_dense_normal_equations(problem, mu, beta, with_lam):
    n, kernel, seed = problem
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    w = rng.standard_normal((n, n, 2))
    lam = rng.standard_normal((n, n, 2)) if with_lam else None
    u, _ = solve_u(prepare_u(f, mu, beta, build_cache(kernel, n)), w, lam)
    kmat = dense_operator("K", n, kernel)
    dmat = dense_operator("D", n)
    field = beta * stack_field(w) - (0.0 if lam is None else stack_field(lam))
    lhs = (mu * kmat.T @ kmat + beta * dmat.T @ dmat) @ u.ravel()
    rhs = mu * kmat.T @ f.ravel() + dmat.T @ field
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.1, 1000.0), st.floats(0.1, 1000.0))
def test_residual_sq_is_the_spatial_fidelity(problem, mu, beta):
    # Parseval over the half spectrum: columns 0 and (even n only) n/2 count once, the rest twice
    n, kernel, seed = problem
    rng = np.random.default_rng(seed)
    u, f = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    system = prepare_u(f, mu, beta, build_cache(kernel, n))
    res = convolve_periodic(u, kernel) - f
    expected = float((res * res).sum())
    assert abs(residual_sq(system, np.fft.rfft2(u)) - expected) <= 1e-12 * expected


@PROPERTY_SETTINGS
@given(problems())
def test_decompose_splits_u_and_projects_w(problem):
    n, kernel, seed = problem
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    w = rng.standard_normal((n, n, 2))
    u1, u2 = decompose(u, w, build_cache(kernel, n))
    assert np.abs(u1 + u2 - u).max() <= 1e-12
    assert abs(u1.mean()) <= 1e-12
    # D u1 is the least-squares projection of w: the residual is orthogonal to range(D)
    assert np.abs(divergence_adjoint(w - forward_diff(u1))).max() <= 1e-10 * max(1.0, np.abs(w).max())
