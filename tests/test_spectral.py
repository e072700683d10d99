import numpy as np
import pytest

from tvdeblur import (
    KernelSpec,
    apply_kernel,
    build_cache,
    forward_diff,
    make_kernel,
    prepare_u,
    solve_u,
)

from conftest import stack_field
from oracle import convolve_periodic, dense_operator


def quadratic_objective(u, f, w, lam, mu, beta, kernel):
    """The u-subproblem objective, evaluated through the spatial operators."""
    r = convolve_periodic(u, kernel) - f
    d = w - forward_diff(u)
    return 0.5 * mu * (r * r).sum() + 0.5 * beta * (d * d).sum() - (lam * d).sum()


def test_delta_kernel_transfer_is_one():
    cache = build_cache(make_kernel(KernelSpec("delta")), 8)
    assert np.allclose(cache.eig_k, 1.0, atol=1e-14)


def test_spectral_convolution_matches_spatial():
    n = 64
    k = make_kernel(KernelSpec("average", 9))
    cache = build_cache(k, n)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal((n, n))
        worst = max(worst, np.abs(apply_kernel(cache, u) - convolve_periodic(u, k)).max())
    assert worst <= 1e-10


def test_difference_eigenvalues_closed_form():
    n = 16
    cache = build_cache(make_kernel(KernelSpec("delta")), n)
    assert cache.eig_dtd[0, 0] == 0.0
    assert abs(cache.eig_dtd[n // 2, n // 2] - 8.0) < 1e-12
    p, q = np.meshgrid(np.arange(n), np.arange(n // 2 + 1), indexing="ij")
    closed = 4 * np.sin(np.pi * p / n) ** 2 + 4 * np.sin(np.pi * q / n) ** 2
    assert cache.eig_dtd.shape == (n, n // 2 + 1)
    assert np.abs(cache.eig_dtd - closed).max() < 1e-12


def test_flux_one_kernel_has_unit_dc_gain():
    for spec in (KernelSpec("average", 9), KernelSpec("gaussian", 5, 1.2), KernelSpec("delta")):
        cache = build_cache(make_kernel(spec), 16)
        assert abs(cache.eig_k[0, 0] - 1.0) < 1e-12


def test_build_cache_rejects_oversized_kernel():
    with pytest.raises(ValueError, match="kernel side 9 exceeds grid side 8"):
        build_cache(make_kernel(KernelSpec("average", 9)), 8)


@pytest.mark.parametrize("entry", ["apply_kernel", "prepare_u"])
def test_cache_of_another_size_is_rejected_by_name(entry):
    cache = build_cache(make_kernel(KernelSpec("average", 3)), 32)
    image = np.zeros((16, 16))
    with pytest.raises(ValueError, match="spectral cache was built for n=32, the image is 16x16"):
        apply_kernel(cache, image) if entry == "apply_kernel" else prepare_u(image, 1.0, 1.0, cache)


def test_solve_u_recovers_consistent_data():
    # w = D u*, lam = 0, f = K u*: the quadratic is minimized exactly at u*
    rng = np.random.default_rng(22)
    n = 16
    u_star = rng.random((n, n))
    k = make_kernel(KernelSpec("gaussian", 5, 1.0))
    cache = build_cache(k, n)
    f = convolve_periodic(u_star, k)
    w = forward_diff(u_star)
    u, _ = solve_u(prepare_u(f, 3.0, 7.0, cache), w)
    assert np.linalg.norm(u - u_star) / np.linalg.norm(u_star) < 1e-8


def test_solve_u_matches_dense_solve():
    rng = np.random.default_rng(23)
    n = 8
    k = make_kernel(KernelSpec("gaussian", 3, 0.8))
    cache = build_cache(k, n)
    kmat = dense_operator("K", n, k)
    dmat = dense_operator("D", n)
    for _ in range(5):
        mu = float(10 ** rng.uniform(-1, 3))
        beta = float(10 ** rng.uniform(-1, 3))
        f = rng.standard_normal((n, n))
        w = rng.standard_normal((n, n, 2))
        lam = rng.standard_normal((n, n, 2))
        u, _ = solve_u(prepare_u(f, mu, beta, cache), w - lam / beta)
        a = mu * kmat.T @ kmat + beta * dmat.T @ dmat
        rhs = mu * kmat.T @ f.ravel() + dmat.T @ (beta * stack_field(w) - stack_field(lam))
        u_dense = np.linalg.solve(a, rhs)
        assert np.linalg.norm(u.ravel() - u_dense) / np.linalg.norm(u_dense) < 1e-8


def test_solve_u_identity_kernel_special_case():
    # w = 0, lam = 0, mu = 1, beta = 1, delta kernel: u solves (I + D^T D) u = f
    rng = np.random.default_rng(24)
    n = 8
    cache = build_cache(make_kernel(KernelSpec("delta")), n)
    f = rng.standard_normal((n, n))
    u, _ = solve_u(prepare_u(f, 1.0, 1.0, cache), np.zeros((n, n, 2)))
    dmat = dense_operator("D", n)
    u_dense = np.linalg.solve(np.eye(n * n) + dmat.T @ dmat, f.ravel())
    assert np.linalg.norm(u.ravel() - u_dense) / np.linalg.norm(u_dense) < 1e-8


def test_solve_u_normal_equation_residual():
    rng = np.random.default_rng(25)
    n = 16
    k = make_kernel(KernelSpec("average", 3))
    cache = build_cache(k, n)
    mu, beta = 40.0, 2.5
    f = rng.random((n, n))
    w = rng.standard_normal((n, n, 2))
    lam = rng.standard_normal((n, n, 2))
    u, _ = solve_u(prepare_u(f, mu, beta, cache), w - lam / beta)
    # apply (mu K^T K + beta D^T D) through the spatial operators
    from tvdeblur import divergence_adjoint

    kt = lambda x: convolve_periodic(x, k[::-1, ::-1])
    lhs = mu * kt(convolve_periodic(u, k)) + beta * divergence_adjoint(forward_diff(u))
    rhs = mu * kt(f) + divergence_adjoint(beta * w - lam)
    assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()


def test_solve_u_output_is_the_minimizer():
    rng = np.random.default_rng(26)
    n = 8
    k = make_kernel(KernelSpec("gaussian", 3, 0.7))
    cache = build_cache(k, n)
    mu, beta = 12.0, 3.0
    f = rng.random((n, n))
    w = rng.standard_normal((n, n, 2))
    lam = rng.standard_normal((n, n, 2))
    u, _ = solve_u(prepare_u(f, mu, beta, cache), w - lam / beta)
    base = quadratic_objective(u, f, w, lam, mu, beta, k)
    wins = 0
    for _ in range(100):
        pert = quadratic_objective(u + 1e-3 * rng.standard_normal((n, n)), f, w, lam, mu, beta, k)
        if pert > base:
            wins += 1
    assert wins >= 99


def test_solve_u_mean_consistency():
    # flux-1 kernel: D^T D kills the mean, so mean(u) must equal mean(f)
    rng = np.random.default_rng(27)
    n = 16
    cache = build_cache(make_kernel(KernelSpec("average", 5)), n)
    f = rng.random((n, n))
    u, _ = solve_u(prepare_u(f, 9.0, 4.0, cache), rng.standard_normal((n, n, 2)))
    assert abs(u.mean() - f.mean()) < 1e-10


def test_solve_u_singular_for_zero_flux_kernel():
    taps = np.zeros((3, 3))
    taps[1, 0], taps[1, 1] = 1.0, -1.0  # flux 0
    cache = build_cache(taps, 8)
    with pytest.raises(FloatingPointError, match=r"denominator .* reaches .* at mu 1\.0, beta 1\.0"):
        prepare_u(np.zeros((8, 8)), 1.0, 1.0, cache)


def test_solve_u_rejects_nonpositive_weights():
    cache = build_cache(make_kernel(KernelSpec("delta")), 4)
    z = np.zeros((4, 4))
    with pytest.raises(ValueError):
        prepare_u(z, 0.0, 1.0, cache)
    with pytest.raises(ValueError):
        prepare_u(z, 1.0, -2.0, cache)
