"""Property tests of the half-spectrum operators against the dense oracle.

Sizes run from 2 to 17, so odd sides, where ``irfft2`` needs the output
shape spelled out, are drawn as often as even ones.  With c01, c03 and c09
in ``tests/test_acceptance.py`` this file is the layer's one test home.
"""

import numpy as np
import pytest
from hypothesis import given
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


@st.composite
def kernel_specs(draw, n=17):
    """A delta, average or gaussian KernelSpec whose side fits an n x n grid."""
    kind = draw(st.sampled_from(["delta", "average", "gaussian"]))
    if kind == "delta":
        return KernelSpec("delta")
    size = draw(st.sampled_from([m for m in (1, 3, 5, 7, 9) if m <= n]))
    return KernelSpec("average", size) if kind == "average" else KernelSpec("gaussian", size, draw(st.floats(0.5, 2.0)))


@st.composite
def problems(draw):
    """(n, kernel, seed): a grid side, a delta/average/gaussian kernel that fits it, a field seed."""
    n = draw(st.integers(2, 17))
    return n, make_kernel(draw(kernel_specs(n))), draw(st.integers(0, 2**32 - 1))


@given(kernel_specs())
def test_kernel_spec_string_round_trips(spec):
    # the CLI syntax is str(spec), and a summary.txt echoes it, so it must name the very spec
    assert KernelSpec.from_string(str(spec)) == spec


@given(problems())
def test_apply_kernel_matches_dense_blur(problem):
    n, kernel, seed = problem
    u = np.random.default_rng(seed).standard_normal((n, n))
    blurred = apply_kernel(build_cache(kernel, n), u)
    assert blurred.shape == (n, n)
    assert np.abs(blurred.ravel() - dense_operator("K", n, kernel) @ u.ravel()).max() <= 1e-12


def test_apply_kernel_matches_the_spatial_convolution_at_64():
    # past the dense oracle's 32² limit, the shifted-copy sum stands in for K
    n = 64
    k = make_kernel(KernelSpec("average", 9))
    cache = build_cache(k, n)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal((n, n))
        worst = max(worst, np.abs(apply_kernel(cache, u) - convolve_periodic(u, k)).max())
    assert worst <= 1e-10


@given(problems())
def test_flux_one_kernels_have_unit_dc_gain(problem):
    n, kernel, seed = problem
    taps = np.random.default_rng(seed).random(kernel.shape)  # flux 1 once normalized, and not point-symmetric
    for k in (kernel, taps / taps.sum()):
        assert abs(build_cache(k, n).eig_k[0, 0] - 1.0) <= 1e-12
    if kernel.shape == (1, 1):  # a delta passes every frequency unchanged
        assert np.abs(build_cache(kernel, n).eig_k - 1.0).max() <= 1e-14


@given(st.integers(2, 64))
def test_difference_eigenvalues_have_the_closed_form(n):
    eig = build_cache(np.ones((1, 1)), n).eig_dtd
    p, q = np.meshgrid(np.arange(n), np.arange(n // 2 + 1), indexing="ij")
    assert eig.shape == (n, n // 2 + 1)
    assert eig[0, 0] == 0.0
    assert np.abs(eig - (4 * np.sin(np.pi * p / n) ** 2 + 4 * np.sin(np.pi * q / n) ** 2)).max() <= 1e-12
    if n % 2 == 0:  # the checkerboard, where each of the four differences is 2 or -2
        assert abs(eig[n // 2, n // 2] - 8.0) <= 1e-12


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
    u, _ = solve_u(prepare_u(f, mu, beta, build_cache(kernel, n)), w if lam is None else w - lam / beta)
    kmat = dense_operator("K", n, kernel)
    dmat = dense_operator("D", n)
    field = beta * stack_field(w) - (0.0 if lam is None else stack_field(lam))
    lhs = (mu * kmat.T @ kmat + beta * dmat.T @ dmat) @ u.ravel()
    rhs = mu * kmat.T @ f.ravel() + dmat.T @ field
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)
    # every kernel drawn has flux 1 and D^T D kills the mean, so the u-step keeps f's mean
    assert abs(u.mean() - f.mean()) <= 1e-10


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


def cache_32():
    return build_cache(make_kernel(KernelSpec("average", 3)), 32)


# The layer's refusals: (call, the error's text), and the error's type where it is not ValueError
REFUSALS = {
    "apply_kernel-cache_size": (
        lambda: apply_kernel(cache_32(), np.zeros((16, 16))), "spectral cache was built for n=32, the image is 16x16",
    ),
    "prepare_u-cache_size": (
        lambda: prepare_u(np.zeros((16, 16)), 1.0, 1.0, cache_32()), "spectral cache was built for n=32, the image is 16x16",
    ),
    "prepare_u-zero_mu": (
        lambda: prepare_u(np.zeros((32, 32)), 0.0, 1.0, cache_32()), "mu must be a positive real number, got 0.0",
    ),
    "prepare_u-negative_beta": (
        lambda: prepare_u(np.zeros((32, 32)), 1.0, -2.0, cache_32()), "beta must be a positive real number, got -2.0",
    ),
    # an infinite weight, or a mu/beta past the float64 range, gave a system whose u-step returned all NaN
    "prepare_u-infinite_mu": (
        lambda: prepare_u(np.zeros((32, 32)), np.inf, 1.0, cache_32()), "mu must be a positive real number, got inf",
    ),
    "prepare_u-infinite_beta": (
        lambda: prepare_u(np.zeros((32, 32)), 1.0, np.inf, cache_32()), "beta must be a positive real number, got inf",
    ),
    "prepare_u-overflowing_ratio": (
        lambda: prepare_u(np.zeros((32, 32)), 1e308, 1e-300, cache_32()),
        r"mu/beta overflows at mu 1e\+308, beta 1e-300",
        FloatingPointError,
    ),
    # beta |D^|^2 overflows: the denominator would hold inf and set those frequencies of u to 0, whatever g is
    "prepare_u-overflowing_denominator": (
        lambda: prepare_u(np.zeros((32, 32)), 1.0, 1e308, cache_32()),
        r"frequency-domain denominator mu \|K\^\|\^2 \+ beta \|D\^\|\^2 overflows at mu 1\.0, beta 1e\+308",
        FloatingPointError,
    ),
    "apply_kernel-complex": (lambda: apply_kernel(cache_32(), np.zeros((32, 32)) + 1j), "image must be real, got complex values"),
    "prepare_u-complex": (
        lambda: prepare_u(np.zeros((32, 32)) + 1j, 1.0, 1.0, cache_32()), "image must be real, got complex values",
    ),
    "solve_u-grid_size": (
        lambda: solve_u(prepare_u(np.zeros((32, 32)), 1.0, 1.0, cache_32()), np.zeros((16, 16, 2))),
        "u-system was built for n=32, the gradient field is 16x16x2",
    ),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_bad_input_is_refused_by_name(entry):
    call, message, *error = REFUSALS[entry]
    with pytest.raises(*error or [ValueError], match=f"^{message}$"):
        call()


def test_zero_flux_kernel_makes_the_u_system_singular():
    taps = np.zeros((3, 3))
    taps[1, 0], taps[1, 1] = 1.0, -1.0  # flux 0
    with pytest.raises(FloatingPointError, match=r"denominator .* reaches .* at mu 1\.0, beta 1\.0"):
        prepare_u(np.zeros((8, 8)), 1.0, 1.0, build_cache(taps, 8))
