import numpy as np
import pytest

from tvdeblur import shrink


def prox_objective(w, v, t):
    """||w||_2 + (1/(2t)) ||w - v||_2^2 for a single 2-vector."""
    return np.linalg.norm(w) + ((w - v) ** 2).sum() / (2.0 * t)


def prox_objective_l1(w, v, t):
    return np.abs(w).sum() + ((w - v) ** 2).sum() / (2.0 * t)


def grid_prox_argmin(v, t, objective):
    """Two-stage brute-force grid minimizer of the per-pixel prox objective."""
    lo = np.minimum(v, 0.0) - 1.0
    hi = np.maximum(v, 0.0) + 1.0
    best = None
    for x in np.arange(lo[0], hi[0], 0.05):
        for y in np.arange(lo[1], hi[1], 0.05):
            w = np.array([x, y])
            val = objective(w, v, t)
            if best is None or val < best[0]:
                best = (val, w)
    center = best[1]
    for x in np.arange(center[0] - 0.06, center[0] + 0.06, 1e-3):
        for y in np.arange(center[1] - 0.06, center[1] + 0.06, 1e-3):
            w = np.array([x, y])
            val = objective(w, v, t)
            if val < best[0]:
                best = (val, w)
    return best[1]


def one_pixel(vx, vy):
    field = np.zeros((2, 2, 2))
    field[0, 0] = (vx, vy)
    return field


def test_shrink_of_zero_is_zero():
    for t in (0.1, 1.0, 50.0):
        assert np.all(shrink(np.zeros((4, 4, 2)), t, "iso")[0] == 0.0)
        assert np.all(shrink(np.zeros((4, 4, 2)), t, "aniso")[0] == 0.0)


def test_iso_shrinks_magnitude_keeps_direction():
    out = shrink(one_pixel(3.0, 4.0), 1.0, "iso")[0][0, 0]
    assert np.allclose(out, (2.4, 3.2), atol=1e-12)
    # cross-check against the brute-force grid minimizer
    w_grid = grid_prox_argmin(np.array([3.0, 4.0]), 1.0, prox_objective)
    assert np.linalg.norm(out - w_grid) < 2e-3
    assert prox_objective(out, np.array([3.0, 4.0]), 1.0) <= prox_objective(w_grid, np.array([3.0, 4.0]), 1.0) + 1e-12


def test_iso_zero_region():
    out = shrink(one_pixel(0.3, 0.4), 1.0, "iso")[0][0, 0]
    assert np.all(out == 0.0)
    w_grid = grid_prox_argmin(np.array([0.3, 0.4]), 1.0, prox_objective)
    assert np.linalg.norm(w_grid) < 2e-3  # grid confirms the minimizer sits at 0


def test_aniso_componentwise_values():
    assert np.allclose(shrink(one_pixel(3.0, 4.0), 1.0, "aniso")[0][0, 0], (2.0, 3.0), atol=1e-12)
    out = shrink(one_pixel(-0.5, 2.0), 1.0, "aniso")[0][0, 0]
    assert np.allclose(out, (0.0, 1.0), atol=1e-12)
    w_grid = grid_prox_argmin(np.array([-0.5, 2.0]), 1.0, prox_objective_l1)
    assert np.linalg.norm(out - w_grid) < 2e-3


def test_aniso_full_shrinkage_above_max_component():
    rng = np.random.default_rng(31)
    v = rng.standard_normal((6, 6, 2))
    t = float(np.abs(v).max()) + 0.5
    assert np.all(shrink(v, t, "aniso")[0] == 0.0)


def test_nonexpansiveness():
    rng = np.random.default_rng(32)
    for _ in range(50):
        v1 = rng.standard_normal((5, 5, 2)) * 3
        v2 = rng.standard_normal((5, 5, 2)) * 3
        t = float(rng.uniform(0.05, 2.0))
        for variant in ("iso", "aniso"):
            lhs = np.linalg.norm(shrink(v1, t, variant)[0] - shrink(v2, t, variant)[0])
            assert lhs <= np.linalg.norm(v1 - v2) + 1e-12


def test_iso_output_is_nonnegative_multiple_of_input():
    rng = np.random.default_rng(33)
    v = rng.standard_normal((8, 8, 2)) * 2
    out = shrink(v, 0.7, "iso")[0]
    cross = out[..., 0] * v[..., 1] - out[..., 1] * v[..., 0]
    dot = (out * v).sum(axis=-1)
    assert np.abs(cross).max() < 1e-12
    assert np.all(dot >= 0.0)


def test_iso_equals_aniso_with_one_zero_component():
    rng = np.random.default_rng(34)
    v = np.zeros((8, 8, 2))
    v[..., 0] = rng.standard_normal((8, 8)) * 2
    assert np.allclose(shrink(v, 0.4, "iso")[0], shrink(v, 0.4, "aniso")[0], atol=1e-14)
    v2 = np.zeros((8, 8, 2))
    v2[..., 1] = rng.standard_normal((8, 8)) * 2
    assert np.allclose(shrink(v2, 0.4, "iso")[0], shrink(v2, 0.4, "aniso")[0], atol=1e-14)


def test_prox_optimality_on_random_cloud():
    rng = np.random.default_rng(35)
    for _ in range(20):
        v = rng.standard_normal(2) * 2
        t = float(rng.uniform(0.05, 2.0))
        iso = shrink(one_pixel(*v), t, "iso")[0][0, 0]
        aniso = shrink(one_pixel(*v), t, "aniso")[0][0, 0]
        for _ in range(50):
            delta = rng.standard_normal(2)
            delta *= rng.uniform(0, 1e-2) / np.linalg.norm(delta)
            assert prox_objective(iso, v, t) <= prox_objective(iso + delta, v, t) + 1e-12
            assert prox_objective_l1(aniso, v, t) <= prox_objective_l1(aniso + delta, v, t) + 1e-12


def test_threshold_must_be_positive():
    v = np.zeros((3, 3, 2))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"shrinkage threshold must be > 0, got {bad}"):
            shrink(v, bad, "iso")
        with pytest.raises(ValueError, match=f"shrinkage threshold must be > 0, got {bad}"):
            shrink(v, bad, "aniso")


def test_dispatch_variants():
    rng = np.random.default_rng(36)
    v = rng.standard_normal((4, 4, 2))
    # the default is iso, the variants differ, and aniso is the soft threshold
    assert np.array_equal(shrink(v, 0.3)[0], shrink(v, 0.3, "iso")[0])
    assert not np.array_equal(shrink(v, 0.3, "iso")[0], shrink(v, 0.3, "aniso")[0])
    assert np.array_equal(shrink(v, 0.3, "aniso")[0], np.sign(v) * np.maximum(np.abs(v) - 0.3, 0.0))
    with pytest.raises(ValueError):
        shrink(v, 0.3, "huber")
