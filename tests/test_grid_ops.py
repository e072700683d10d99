import numpy as np
import pytest

from tvdeblur import (
    KernelSpec,
    apply_kernel,
    build_cache,
    divergence_adjoint,
    forward_diff,
    make_kernel,
    validate_image,
)

from conftest import stack_field
from oracle import convolve_periodic, dense_operator


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


def test_gradient_of_constant_is_zero():
    for n in (2, 5, 8):
        g = forward_diff(np.full((n, n), 0.5))
        assert np.all(g == 0.0)


def test_forward_diff_2x2_values():
    u = np.array([[0.0, 1.0], [0.0, 1.0]])
    g = forward_diff(u)
    assert np.array_equal(g[..., 0], [[1.0, -1.0], [1.0, -1.0]])
    assert np.array_equal(g[..., 1], [[0.0, 0.0], [0.0, 0.0]])


def test_forward_diff_matches_dense_matrix():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((8, 8))
    ref = dense_operator("D", 8) @ u.ravel()
    assert np.abs(stack_field(forward_diff(u)) - ref).max() < 1e-12


def test_adjoint_of_zero_field():
    assert np.all(divergence_adjoint(np.zeros((6, 6, 2))) == 0.0)


def test_adjointness_identity():
    rng = np.random.default_rng(12)
    u = rng.standard_normal((8, 8))
    g = rng.standard_normal((8, 8, 2))
    lhs = float(np.sum(forward_diff(u) * g))
    rhs = float(np.sum(u * divergence_adjoint(g)))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_divergence_adjoint_matches_dense_transpose():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((8, 8, 2))
    ref = dense_operator("Dt", 8) @ stack_field(g)
    assert np.abs(divergence_adjoint(g).ravel() - ref).max() < 1e-12


def test_identity_kernel_leaves_image_unchanged():
    rng = np.random.default_rng(14)
    u = rng.standard_normal((7, 7))
    assert np.array_equal(convolve_periodic(u, make_kernel(KernelSpec("delta"))), u)


def test_flux_one_kernels_preserve_constants():
    rng = np.random.default_rng(15)
    taps = rng.random((5, 5))
    taps /= taps.sum()
    out = apply_kernel(build_cache(taps, 9), np.full((9, 9), 0.37))
    assert np.allclose(out, 0.37, atol=1e-12)


def test_convolve_matches_naive_double_loop():
    rng = np.random.default_rng(16)
    u = rng.standard_normal((8, 8))
    k = rng.standard_normal((3, 3))
    assert np.abs(convolve_periodic(u, k) - naive_convolve(u, k)).max() < 1e-12


def test_operators_commute_with_cyclic_shifts():
    rng = np.random.default_rng(17)
    u = rng.standard_normal((12, 12))
    cache = build_cache(make_kernel(KernelSpec("gaussian", 5, 1.0)), 12)
    for shift in ((1, 0), (0, 3), (5, 7)):
        shifted = np.roll(u, shift, axis=(0, 1))
        assert np.abs(forward_diff(shifted) - np.roll(forward_diff(u), shift, axis=(0, 1))).max() <= 1e-12
        assert np.abs(
            apply_kernel(cache, shifted) - np.roll(apply_kernel(cache, u), shift, axis=(0, 1))
        ).max() <= 1e-12


def test_make_kernel_average_9():
    k = make_kernel(KernelSpec("average", 9))
    assert k.shape == (9, 9)
    assert np.all(k == 1.0 / 81.0)
    assert np.array_equal(make_kernel("average:9"), k)  # the CLI spelling builds the same taps


def test_make_kernel_delta():
    assert np.array_equal(make_kernel(KernelSpec("delta")), [[1.0]])


def test_make_kernel_gaussian_symmetry_and_flux():
    k = make_kernel(KernelSpec("gaussian", 3, 0.5))
    assert np.allclose(k, np.rot90(k), atol=0)
    assert abs(k.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "fields, message",
    [
        (("average", 4), "kernel size must be odd and positive, got 4"),
        (("gaussian", 2, 0.5), "kernel size must be odd and positive, got 2"),
        (("gaussian", 3, 0.0), "gaussian width must be positive and finite"),
        (("gaussian", 3, -1.0), "gaussian width must be positive and finite"),
        (("average", 3.0), "kernel size must be an integer, got 3.0"),
        (("average", "3"), "kernel size must be an integer, got '3'"),
        (("average", True), "kernel size must be an integer, got True"),  # would print as average:True
        (("gaussian", 3, "1.0"), "gaussian width must be a real number, got '1.0'"),
        (("box", 3), "unknown kernel kind 'box'"),
        (("delta", 5), "a delta kernel has size 1, got 5"),
        (("average", 3, 2.5), "only a gaussian kernel has a width, got 2.5 for average"),
    ],
    ids=[
        "spec0", "spec1", "spec2", "spec3", "float_size", "str_size", "bool_size", "str_width", "unknown_kind",
        "sized_delta", "average_with_width",
    ],
)
def test_kernel_spec_rejects_bad_fields_when_made(fields, message):
    # every spec rule holds where the spec is made, so a spec that exists can be built
    with pytest.raises(ValueError, match=message):
        KernelSpec(*fields)


def test_gaussian_width_whose_square_underflows_is_rejected():
    # 2 s^2 is 0 for s = 1e-300: the taps would be 0/0, so the width is refused by name
    with pytest.raises(ValueError, match="width"):
        KernelSpec("gaussian", 3, 1e-300)


def test_gaussian_width_whose_exponent_overflows_is_a_delta():
    # 2 s^2 is a subnormal > 0 for s = 1e-160, so r^2 / (2 s^2) overflows to inf off the centre tap
    assert np.array_equal(make_kernel(KernelSpec("gaussian", 3, 1e-160)), [[0, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_kernel_spec_string_round_trip():
    for text in ("delta", "average:9", "gaussian:3:0.5", "gaussian:7:1.5", "gaussian:5:1.23456789", "gaussian:3:1e-160"):
        assert str(KernelSpec.from_string(text)) == text
    with pytest.raises(ValueError, match="unknown kernel spec 'box:3'"):
        KernelSpec.from_string("box:3")
    with pytest.raises(ValueError, match="cannot parse kernel spec 'average:nine'"):
        KernelSpec.from_string("average:nine")


def test_validate_image_invariants():
    assert validate_image(np.zeros((3, 3))).dtype == np.float64
    with pytest.raises(ValueError):
        validate_image(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        validate_image(np.zeros((1, 1)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        validate_image(bad)
