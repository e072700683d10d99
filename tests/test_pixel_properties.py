"""Property tests of the per-pixel layer: differences, pixel norms and shrinkage.

Sizes run from 2 to 17, odd sides included, so the wrap column and row of
``forward_diff`` and ``divergence_adjoint`` are checked at every shape.  The
reference formulas are the ``np.roll``, ``np.hypot`` and masked-division
definitions the fast kernels replace.  Examples are derandomized so that
every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdeblur import divergence_adjoint, forward_diff, shrink_aniso, shrink_iso
from tvdeblur.shrinkage import pixel_norms

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

sizes = st.integers(2, 17)
seeds = st.integers(0, 2**32 - 1)
thresholds = st.floats(1e-3, 10.0)


def random_field(n, seed, zero_frac=0.2):
    """An (n, n, 2) field with unit-scale entries and a share of exactly-zero pixels."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n, 2)) * rng.choice([0.1, 1.0, 10.0], size=(n, n, 1))
    g[rng.random((n, n)) < zero_frac] = 0.0
    return g


def roll_forward_diff(u):
    return np.stack([np.roll(u, -1, axis=1) - u, np.roll(u, -1, axis=0) - u], axis=-1)


def roll_divergence_adjoint(g):
    gx, gy = g[..., 0], g[..., 1]
    return (np.roll(gx, 1, axis=1) - gx) + (np.roll(gy, 1, axis=0) - gy)


def masked_shrink_iso(v, t):
    mag = np.hypot(v[..., 0], v[..., 1])
    scale = np.zeros_like(mag)
    np.divide(np.maximum(mag - t, 0.0), mag, out=scale, where=mag > 0)
    return v * scale[..., None]


@PROPERTY_SETTINGS
@given(sizes, seeds)
def test_differences_equal_the_roll_definitions(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n))
    g = rng.standard_normal((n, n, 2))
    assert np.array_equal(forward_diff(u), roll_forward_diff(u))
    assert np.array_equal(divergence_adjoint(g), roll_divergence_adjoint(g))


@PROPERTY_SETTINGS
@given(sizes, seeds)
def test_divergence_adjoint_is_the_adjoint(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n))
    g = rng.standard_normal((n, n, 2))
    lhs = float(np.sum(forward_diff(u) * g))
    rhs = float(np.sum(u * divergence_adjoint(g)))
    assert abs(lhs - rhs) <= 1e-12 * max(np.abs(forward_diff(u) * g).sum(), 1e-300)


@PROPERTY_SETTINGS
@given(sizes, seeds)
def test_iso_pixel_norms_match_hypot(n, seed):
    g = random_field(n, seed)
    norms = pixel_norms(g, "iso")
    ref = np.hypot(g[..., 0], g[..., 1])
    assert np.all(np.abs(norms - ref) <= 2 * np.spacing(ref))
    zero = np.all(g == 0.0, axis=-1)
    assert np.all(norms[zero] == 0.0)


@PROPERTY_SETTINGS
@given(sizes, seeds, thresholds)
def test_shrink_iso_equals_the_masked_formula(n, seed, t):
    v = random_field(n, seed)
    # the reference on the same norms: the shrink itself is exact, only the norm changed
    mag = pixel_norms(v, "iso")
    scale = np.zeros_like(mag)
    np.divide(np.maximum(mag - t, 0.0), mag, out=scale, where=mag > 0)
    assert np.array_equal(shrink_iso(v, t), v * scale[..., None])
    # against hypot norms: an ulp in ||v|| moves the result by about an ulp of ||v||
    # (near ||v|| = t the cancellation in ||v|| - t rules out a relative bound)
    assert np.abs(shrink_iso(v, t) - masked_shrink_iso(v, t)).max() <= 1e-14 * np.abs(v).max()


@PROPERTY_SETTINGS
@given(sizes, seeds, thresholds)
def test_shrink_aniso_equals_sign_max(n, seed, t):
    v = random_field(n, seed)
    assert np.array_equal(shrink_aniso(v, t), np.sign(v) * np.maximum(np.abs(v) - t, 0.0))


@PROPERTY_SETTINGS
@given(sizes, seeds, thresholds)
def test_shrinks_satisfy_prox_optimality(n, seed, t):
    # w = prox_{t||.||}(v) iff (v - w) / t is a subgradient of the pixel norm at w:
    # v - w == t w / ||w|| where w != 0, and ||v - w|| <= t (dual norm) where w == 0.
    v = random_field(n, seed)
    w = shrink_iso(v, t)
    r = v - w
    wn = np.hypot(w[..., 0], w[..., 1])
    rn = np.hypot(r[..., 0], r[..., 1])
    on = wn > 0
    tol = 1e-12 * (1.0 + np.hypot(v[..., 0], v[..., 1]))
    assert np.all(np.abs(r[on] - t * w[on] / wn[on, None]) <= tol[on, None])
    assert np.all(rn[~on] <= t + tol[~on])
    # aniso: componentwise, v - w == t sign(w) where w != 0 and |v - w| <= t where w == 0
    w = shrink_aniso(v, t)
    r = v - w
    on = w != 0
    assert np.all(np.abs(r[on] - t * np.sign(w[on])) <= 1e-12 * (1.0 + np.abs(v[on])))
    assert np.all(np.abs(r[~on]) <= t)
