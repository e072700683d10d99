import numpy as np
import pytest

from pathlib import Path

from tvdeblur import KernelSpec, divergence_adjoint, forward_diff, make_kernel
from tvdeblur.shrinkage import shrink

from conftest import stack_field
from oracle import (
    NoConvergence,
    TooLarge,
    convolve_periodic,
    dense_operator,
    huber_newton_solve,
    reference_tv_solve,
)


def test_dense_d_matrix_n2_pinned():
    # row-major pixel order (0,0),(0,1),(1,0),(1,1); dx rows then dy rows
    expected = np.array(
        [
            [-1, 1, 0, 0],
            [1, -1, 0, 0],
            [0, 0, -1, 1],
            [0, 0, 1, -1],
            [-1, 0, 1, 0],
            [0, -1, 0, 1],
            [1, 0, -1, 0],
            [0, 1, 0, -1],
        ],
        dtype=float,
    )
    assert np.array_equal(dense_operator("D", 2), expected)


def test_dense_k_delta_is_identity():
    assert np.array_equal(dense_operator("K", 4, make_kernel(KernelSpec("delta"))), np.eye(16))


def test_dense_dt_is_exact_transpose():
    d = dense_operator("D", 6)
    assert np.array_equal(dense_operator("Dt", 6), d.T)


def test_identity_kernel_leaves_image_unchanged():
    rng = np.random.default_rng(14)
    u = rng.standard_normal((7, 7))
    assert np.array_equal(convolve_periodic(u, make_kernel(KernelSpec("delta"))), u)


def naive_convolve(u, k):
    """O(n^2 m^2) double-loop circular true convolution."""
    n, m = u.shape[0], k.shape[0]
    c = (m - 1) // 2
    out = np.zeros_like(u)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a in range(-c, c + 1):
                for b in range(-c, c + 1):
                    acc += k[c + a, c + b] * u[(i - a) % n, (j - b) % n]
            out[i, j] = acc
    return out


def test_convolve_matches_naive_double_loop():
    rng = np.random.default_rng(16)
    u = rng.standard_normal((8, 8))
    k = rng.standard_normal((3, 3))
    assert np.abs(convolve_periodic(u, k) - naive_convolve(u, k)).max() < 1e-12


def test_dense_operator_size_guard():
    with pytest.raises(TooLarge):
        dense_operator("D", 33)
    with pytest.raises(ValueError):
        dense_operator("K", 8)  # kernel required
    with pytest.raises(ValueError):
        dense_operator("L", 8)


def test_reference_solver_constant_image_is_optimal():
    f = np.full((8, 8), 0.31)
    out = reference_tv_solve(f, make_kernel(KernelSpec("delta")), mu=10.0)
    assert np.array_equal(out, f)


def test_reference_solver_huge_mu_returns_data():
    rng = np.random.default_rng(73)
    f = rng.random((8, 8))
    out = reference_tv_solve(f, make_kernel(KernelSpec("delta")), mu=1e8)
    assert np.abs(out - f).max() < 1e-3


def test_reference_solver_iteration_cap():
    rng = np.random.default_rng(74)
    f = rng.random((8, 8))
    with pytest.raises(NoConvergence):
        reference_tv_solve(f, make_kernel(KernelSpec("average", 3)), mu=100.0, max_iters=3)


def test_reference_solver_rejects_bad_args():
    f = np.zeros((8, 8))
    k = make_kernel(KernelSpec("delta"))
    with pytest.raises(ValueError):
        reference_tv_solve(f, k, mu=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        reference_tv_solve(f, k, mu=1.0, tv_variant="huber")
    with pytest.raises(TooLarge):
        reference_tv_solve(np.zeros((64, 64)), k, mu=1.0)


def test_reference_solution_is_the_lowest_objective(pc16, pc16_oracle_mu500):
    # the minimizer's smoothed objective must undercut the objective at f
    # and at both solvers' outputs (up to smoothing bias)
    from tvdeblur import SolverConfig, solve

    eps2 = 1e-12
    kernel, f = pc16["kernel"], pc16["f"]

    def smoothed_objective(u):
        g = forward_diff(u)
        tv = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2 + eps2).sum()
        r = convolve_periodic(u, kernel) - f
        return tv + 0.5 * 500.0 * (r * r).sum()

    ref_value = smoothed_objective(pc16_oracle_mu500)
    assert ref_value < smoothed_objective(f)
    u3 = solve("ftvd3", f, kernel, SolverConfig(mu=500.0, tol=1e-6, max_inner_iters=500)).stage_records[-1].u
    u4 = solve("ftvd4", f, kernel, SolverConfig(mu=500.0, tol=1e-8, max_multiplier_updates=2000)).stage_records[-1].u
    assert ref_value <= smoothed_objective(u3) + 1e-6
    assert ref_value <= smoothed_objective(u4) + 1e-6


def test_reference_solution_matches_descent_oracle(pc16_oracle_mu500):
    # the same pc16 problem solved by the Barzilai-Borwein descent oracle
    # that Newton replaced, on the f the spatial scipy blur produced
    bb = np.loadtxt(Path(__file__).parent / "data" / "pc16_oracle_mu500_bb.txt")
    assert np.abs(pc16_oracle_mu500 - bb).max() <= 1e-8


def test_reference_solver_tolerates_one_ulp_input_change(pc16, pc16_oracle_mu500):
    f = pc16["f"].copy()
    f[3, 5] = np.nextafter(f[3, 5], np.inf)
    moved = reference_tv_solve(f, pc16["kernel"], mu=500.0)
    assert np.abs(moved - pc16_oracle_mu500).max() <= 1e-8


@pytest.mark.parametrize("mu, tv_variant", [(2000.0, "iso"), (500.0, "aniso")])
def test_reference_solver_converges_to_a_stationary_point(pc16, mu, tv_variant):
    # at eps = 1e-6 the returned point's smoothed-objective gradient, computed
    # here independently of the solver, is below the 1e-8 * n stop
    kernel, f, n = pc16["kernel"], pc16["f"], pc16["n"]
    u = reference_tv_solve(f, kernel, mu=mu, tv_variant=tv_variant)
    g = forward_diff(u)
    if tv_variant == "iso":
        s = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2 + 1e-12)[..., None]
    else:
        s = np.sqrt(g**2 + 1e-12)
    rho = stack_field(g / s)
    kt = kernel[::-1, ::-1]
    grad = dense_operator("Dt", n) @ rho + mu * convolve_periodic(convolve_periodic(u, kernel) - f, kt).ravel()
    assert np.linalg.norm(grad) < 1e-8 * n


@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
def test_huber_newton_finds_the_unique_stationary_point(pc16, tv_variant):
    # from f and from zero it reaches the same point, whose Huber-model gradient,
    # formed here through the package's shrink, is at the solver's stop
    kernel, f, mu, beta = pc16["kernel"], pc16["f"], 500.0, 16.0
    u = huber_newton_solve(f, kernel, mu, beta, f, tv_variant)
    from_zero = huber_newton_solve(f, kernel, mu, beta, np.zeros_like(f), tv_variant)
    assert np.linalg.norm(u - from_zero) <= 1e-9 * np.linalg.norm(u)
    du = forward_diff(u)
    tv_term = divergence_adjoint(beta * (du - shrink(du, 1.0 / beta, tv_variant)[0]))
    fidelity_term = mu * convolve_periodic(convolve_periodic(u, kernel) - f, kernel[::-1, ::-1])
    data = mu * convolve_periodic(f, kernel[::-1, ::-1])
    assert np.linalg.norm(tv_term + fidelity_term) <= 1e-10 * np.linalg.norm(data)
