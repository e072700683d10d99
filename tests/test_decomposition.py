import numpy as np
import pytest

from tvdeblur import (
    KernelSpec,
    build_cache,
    decompose,
    forward_diff,
    gradient_residual,
    make_kernel,
)

from objectives import tikhonov_energy


def _cache(n):
    return build_cache(make_kernel(KernelSpec("delta")), n)


@pytest.mark.parametrize(
    "n_cache, u_shape, w_shape, message",
    [
        (32, (16, 16), (16, 16, 2), "spectral cache was built for n=32, the image is 16x16"),
        (16, (17, 17), (17, 17, 2), "spectral cache was built for n=16, the image is 17x17"),
        (16, (16,), (16, 2), r"spectral cache was built for n=16, the image is 16$"),
        (16, (16, 16), (32, 32, 2), r"gradient field has shape \(32, 32, 2\), the image \(16, 16\)"),
    ],
    ids=["cache_for_a_larger_grid", "cache_for_a_smaller_grid", "one_dimensional_image", "field_of_another_size"],
)
def test_mismatched_sizes_are_rejected_by_name(n_cache, u_shape, w_shape, message):
    with pytest.raises(ValueError, match=message):
        decompose(np.zeros(u_shape), np.zeros(w_shape), _cache(n_cache))


def test_exact_gradient_field_goes_to_u1():
    rng = np.random.default_rng(51)
    n = 8
    u = rng.standard_normal((n, n))
    u -= u.mean()
    u1, u2 = decompose(u, forward_diff(u), _cache(n))
    assert np.abs(u1 - u).max() < 1e-10
    assert np.abs(u2).max() < 1e-10


def test_zero_field_goes_to_u2():
    rng = np.random.default_rng(52)
    n = 8
    u = rng.random((n, n))
    u1, u2 = decompose(u, np.zeros((n, n, 2)), _cache(n))
    assert np.all(u1 == 0.0)
    assert np.array_equal(u2, u)


def test_additivity_and_mean_split():
    rng = np.random.default_rng(53)
    n = 16
    cache = _cache(n)
    for _ in range(10):
        u = rng.random((n, n))
        w = rng.standard_normal((n, n, 2))
        u1, u2 = decompose(u, w, cache)
        assert np.abs(u1 + u2 - u).max() <= 1e-12
        assert abs(u1.mean()) < 1e-12
        assert abs(u2.mean() - u.mean()) < 1e-12


def test_du1_is_least_squares_projection():
    rng = np.random.default_rng(54)
    n = 8
    cache = _cache(n)
    for _ in range(5):
        u = rng.random((n, n))
        w = rng.standard_normal((n, n, 2))
        u1, _ = decompose(u, w, cache)
        resid = w - forward_diff(u1)
        for _ in range(20):
            z = rng.standard_normal((n, n))
            assert abs(float(np.sum(resid * forward_diff(z)))) <= 1e-9


def test_decompose_is_linear():
    rng = np.random.default_rng(55)
    n = 8
    cache = _cache(n)
    u_a, w_a = rng.random((n, n)), rng.standard_normal((n, n, 2))
    u_b, w_b = rng.random((n, n)), rng.standard_normal((n, n, 2))
    a = 2.75
    u1_combo, u2_combo = decompose(a * u_a + u_b, a * w_a + w_b, cache)
    u1_a, u2_a = decompose(u_a, w_a, cache)
    u1_b, u2_b = decompose(u_b, w_b, cache)
    assert np.abs(u1_combo - (a * u1_a + u1_b)).max() < 1e-10
    assert np.abs(u2_combo - (a * u2_a + u2_b)).max() < 1e-10


def test_gradient_residual_zero_for_integrable_field():
    rng = np.random.default_rng(56)
    n = 8
    u = rng.standard_normal((n, n))
    u -= u.mean()
    u1, _ = decompose(u, forward_diff(u), _cache(n))
    assert gradient_residual(forward_diff(u), u1) < 1e-10
    w = rng.standard_normal((n, n, 2))
    u1w, _ = decompose(u, w, _cache(n))
    assert gradient_residual(w, u1w) > 0.1  # generic fields are not gradients


def test_tikhonov_energy_values():
    assert tikhonov_energy(np.full((5, 5), 0.7)) == 0.0
    u = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert abs(tikhonov_energy(u) - 4.0) < 1e-12
    rng = np.random.default_rng(57)
    v = rng.standard_normal((6, 6))
    c = 3.5
    assert abs(tikhonov_energy(c * v) - c * c * tikhonov_energy(v)) < 1e-9 * tikhonov_energy(v)
