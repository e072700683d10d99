"""Property tests of the per-pixel layer: differences, pixel norms and shrinkage.

Sizes run from 2 to 17, odd sides included, so the wrap column and row of
``forward_diff`` and ``divergence_adjoint`` are checked at every shape.  The
reference formulas are the ``np.roll``, ``np.hypot`` and masked-division
definitions the fast kernels replace.  With c01, c02 and c04 in
``tests/test_acceptance.py`` this file is the layer's one test home.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tvdeblur import build_cache, divergence_adjoint, forward_diff, halves, prepare_u, shrink, solve_u, solvers
from tvdeblur.metrics import plane_sum
from tvdeblur.shrinkage import pixel_norms

sizes = st.integers(2, 17)
seeds = st.integers(0, 2**32 - 1)
thresholds = st.floats(1e-3, 10.0)
images = st.builds(lambda n, seed: np.random.default_rng(seed).standard_normal((n, n)), sizes, seeds)


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


@given(images, seeds)
@example(np.array([[0.0, 1.0], [0.0, 1.0]]), 0)  # dx wraps to [[1, -1], [1, -1]], dy is 0
def test_differences_equal_the_roll_definitions(u, seed):
    g = np.random.default_rng(seed).standard_normal(u.shape + (2,))
    assert np.array_equal(forward_diff(u), roll_forward_diff(u))
    assert np.array_equal(divergence_adjoint(g), roll_divergence_adjoint(g))


@given(sizes, st.floats(-10.0, 10.0), thresholds)
def test_constants_and_zero_fields_give_exact_zeros(n, c, t):
    assert np.all(forward_diff(np.full((n, n), c)) == 0.0)
    zero = np.zeros((n, n, 2))
    assert np.all(divergence_adjoint(zero) == 0.0)
    assert np.all(shrink(zero, t, "iso")[0] == 0.0)
    assert np.all(shrink(zero, t, "aniso")[0] == 0.0)


@given(sizes, seeds)
def test_divergence_adjoint_is_the_adjoint(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n))
    g = rng.standard_normal((n, n, 2))
    lhs = float(np.sum(forward_diff(u) * g))
    rhs = float(np.sum(u * divergence_adjoint(g)))
    assert abs(lhs - rhs) <= 1e-12 * max(np.abs(forward_diff(u) * g).sum(), 1e-300)


@given(sizes, seeds)
def test_iso_pixel_norms_match_hypot(n, seed):
    g = random_field(n, seed)
    norms = pixel_norms(g, "iso")
    ref = np.hypot(g[..., 0], g[..., 1])
    assert np.all(np.abs(norms - ref) <= 2 * np.spacing(ref))
    zero = np.all(g == 0.0, axis=-1)
    assert np.all(norms[zero] == 0.0)


@given(sizes, seeds, thresholds)
def test_shrink_iso_equals_the_masked_formula(n, seed, t):
    v = random_field(n, seed)
    # the reference on the same norms: the shrink itself is exact, only the norm changed; iso is the default
    mag = pixel_norms(v, "iso")
    scale = np.zeros_like(mag)
    np.divide(np.maximum(mag - t, 0.0), mag, out=scale, where=mag > 0)
    assert np.array_equal(shrink(v, t)[0], v * scale[..., None])
    # against hypot norms: an ulp in ||v|| moves the result by about an ulp of ||v||
    # (near ||v|| = t the cancellation in ||v|| - t rules out a relative bound)
    assert np.abs(shrink(v, t, "iso")[0] - masked_shrink_iso(v, t)).max() <= 1e-14 * np.abs(v).max()


@given(sizes, seeds, thresholds)
def test_shrink_aniso_equals_sign_max(n, seed, t):
    v = random_field(n, seed)
    assert np.array_equal(shrink(v, t, "aniso")[0], np.sign(v) * np.maximum(np.abs(v) - t, 0.0))


@given(sizes, seeds, thresholds)
def test_shrinks_satisfy_prox_optimality(n, seed, t):
    # w = prox_{t||.||}(v) iff (v - w) / t is a subgradient of the pixel norm at w:
    # v - w == t w / ||w|| where w != 0, and ||v - w|| <= t (dual norm) where w == 0.
    v = random_field(n, seed)
    w = shrink(v, t, "iso")[0]
    r = v - w
    wn = np.hypot(w[..., 0], w[..., 1])
    rn = np.hypot(r[..., 0], r[..., 1])
    on = wn > 0
    tol = 1e-12 * (1.0 + np.hypot(v[..., 0], v[..., 1]))
    assert np.all(np.abs(r[on] - t * w[on] / wn[on, None]) <= tol[on, None])
    assert np.all(rn[~on] <= t + tol[~on])
    # aniso: componentwise, v - w == t sign(w) where w != 0 and |v - w| <= t where w == 0
    w = shrink(v, t, "aniso")[0]
    r = v - w
    on = w != 0
    assert np.all(np.abs(r[on] - t * np.sign(w[on])) <= 1e-12 * (1.0 + np.abs(v[on])))
    assert np.all(np.abs(r[~on]) <= t)


@given(sizes, seeds, thresholds)
def test_shrink_hands_out_the_sum_of_its_norms(n, seed, t):
    v = random_field(n, seed)
    w, norm_sum = shrink(v, t, "iso")
    expected = float(pixel_norms(w).sum())
    assert abs(norm_sum - expected) <= 1e-12 * expected
    # every ||v_i|| <= t: each pixel shrinks to 0, and so does the sum, exactly
    inside = v * (0.5 * t / max(float(pixel_norms(v).max()), t))
    assert shrink(inside, t, "iso")[1] == 0.0
    # the anisotropic sum is the plane_sum of its output's 1-norms, to the bit
    w, norm_sum = shrink(v, t, "aniso")
    assert norm_sum == plane_sum(pixel_norms(w, "aniso"))


def cut_at(k):
    """A stand-in for ``halves.run`` that runs a pass as the two row ranges [0, k) and [k, stop)."""

    def run(fn, stop, pixels):
        fn(0, k)
        fn(k, stop)

    return run


def bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()  # -0.0 and 0.0 differ here, as in a trace's arrays


@given(st.integers(2, 13), seeds, thresholds)
@example(2, 0, 1.0)
@example(9, 1, 0.5)
def test_the_stage_end_kernel_matches_the_unfused_formulas_at_every_row_cut(n, seed, t):
    # with lam it also leaves the next shrink's input, new lam + D u, in D u's buffer; without, D u as it was
    w = shrink(random_field(n, seed), t, "iso")[0]  # with exact zeros, as a shrunk field has them
    du = random_field(n, seed + 1)
    lam = random_field(n, seed + 2)
    gap = w - du
    gap_sq = np.einsum("ijk,ijk->ij", gap, gap)
    for variant in ("iso", "aniso"):
        expected = (bits(lam - gap), plane_sum(gap_sq), gap_sq.max(), plane_sum(pixel_norms(du, variant)))
        for k in range(1, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(halves, "run", cut_at(k))
                du_with, du_without = du.copy(), du.copy()
                new_lam, gap_sum, gap_max, tv = solvers._stage_end(w, du_with, lam, variant)
                assert solvers._stage_end(w, du_without, None, variant)[0] is None
            assert (bits(new_lam), gap_sum, gap_max, tv) == expected, (variant, k)
            assert bits(du_with) == bits((lam - gap) + du) and bits(du_without) == bits(du), (variant, k)


@given(st.integers(2, 13), seeds, thresholds)
def test_the_multiplier_fused_passes_match_the_unfused_ones_at_every_row_cut(n, seed, t):
    # D^T (w - lam), formed row by row, gives the bits of D^T on the formed field; the shrink has its uncut bits
    v, lam, w = (random_field(n, seed + i) for i in range(3))
    for variant in ("iso", "aniso"):
        w_expected, s_expected = shrink(v, t, variant)
        for k in range(1, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(halves, "run", cut_at(k))
                got, s = shrink(v, t, variant)
                assert bits(got) == bits(w_expected) and s == s_expected, (variant, k)
                assert bits(divergence_adjoint(w, lam)) == bits(divergence_adjoint(w - lam)), k
    assert bits(shrink(v, t, "aniso")[0]) == bits(v - np.clip(v, -t, t))


@given(sizes, seeds, thresholds)
def test_an_integer_field_gives_the_bits_of_its_float64_cast(n, seed, t):
    rng = np.random.default_rng(seed)
    g = np.moveaxis(rng.integers(-50, 50, size=(2, n, n)), 0, -1)  # plane-major, as forward_diff lays a field out
    exact = g.astype(np.float64)
    system = prepare_u(np.zeros((n, n)), 1.0, 1.0, build_cache(np.ones((1, 1)), n))
    pairs = [(divergence_adjoint(g), divergence_adjoint(exact)), (solve_u(system, g)[0], solve_u(system, exact)[0])]
    pairs += [(forward_diff(g[..., 0]), forward_diff(exact[..., 0]))]
    for variant in ("iso", "aniso"):
        pairs += [(pixel_norms(g, variant), pixel_norms(exact, variant))]
        (w, s), (w_exact, s_exact) = shrink(g, t, variant), shrink(exact, t, variant)
        assert s == s_exact
        pairs += [(w, w_exact)]
    for got, expected in pairs:
        assert got.dtype == np.float64 and got.strides == expected.strides and np.array_equal(got, expected)


def solve_u_8x8(g):
    return solve_u(prepare_u(np.zeros((8, 8)), 1.0, 1.0, build_cache(np.ones((1, 1)), 8)), g)


FIELD = r"gradient field must have shape \(n, n, 2\), got "

# The layer's refusals: (call, the ValueError's text).  An infinite threshold would make the iso prox
# inf - inf, NaN, where it is 0; a third component would come back as uninitialized memory.
REFUSALS = {
    **{
        f"shrink-{variant}-t={t}": (
            lambda t=t, variant=variant: shrink(np.zeros((3, 3, 2)), t, variant),
            f"shrinkage threshold must be > 0 and finite, got {t}",
        )
        for t in (0.0, -1.0, np.inf)
        for variant in ("iso", "aniso")
    },
    "shrink-variant": (lambda: shrink(np.zeros((3, 3, 2)), 0.3, "huber"), "unknown tv_variant 'huber'"),
    "pixel_norms-variant": (lambda: pixel_norms(np.zeros((3, 3, 2)), "huber"), "unknown tv_variant 'huber'"),
    "shrink-iso-three_components": (lambda: shrink(np.zeros((64, 64, 3)), 1.0, "iso"), FIELD + r"\(64, 64, 3\)"),
    "shrink-aniso-three_components": (lambda: shrink(np.zeros((64, 64, 3)), 1.0, "aniso"), FIELD + r"\(64, 64, 3\)"),
    "shrink-image": (lambda: shrink(np.zeros((8, 8)), 1.0), FIELD + r"\(8, 8\)"),
    "divergence_adjoint-three_components": (lambda: divergence_adjoint(np.zeros((8, 8, 3))), FIELD + r"\(8, 8, 3\)"),
    "divergence_adjoint-image": (lambda: divergence_adjoint(np.zeros((8, 8))), FIELD + r"\(8, 8\)"),
    "divergence_adjoint-not_square": (lambda: divergence_adjoint(np.zeros((8, 9, 2))), FIELD + r"\(8, 9, 2\)"),
    "solve_u-three_components": (lambda: solve_u_8x8(np.zeros((8, 8, 3))), FIELD + r"\(8, 8, 3\)"),
    "shrink-complex": (lambda: shrink(np.zeros((8, 8, 2)) + 1j, 1.0), "gradient field must be real, got complex values"),
    "divergence_adjoint-complex": (
        lambda: divergence_adjoint(np.zeros((8, 8, 2)) + 1j), "gradient field must be real, got complex values",
    ),
    # iso would sum all three squares and aniso read two of three components; on an image, aniso returned a row
    **{
        f"pixel_norms-{variant}-three_components": (
            lambda variant=variant: pixel_norms(np.ones((8, 8, 3)), variant), FIELD + r"\(8, 8, 3\)",
        )
        for variant in ("iso", "aniso")
    },
    "pixel_norms-image": (lambda: pixel_norms(np.ones((8, 8)), "aniso"), FIELD + r"\(8, 8\)"),
    "pixel_norms-complex": (lambda: pixel_norms(np.zeros((8, 8, 2)) + 1j), "gradient field must be real, got complex values"),
    # D takes what D^T's field rule implies: a non-square image gave a field that D^T refuses
    "forward_diff-vector": (lambda: forward_diff(np.zeros(8)), r"image must be square 2-D, got shape \(8,\)"),
    "forward_diff-not_square": (lambda: forward_diff(np.zeros((8, 9))), r"image must be square 2-D, got shape \(8, 9\)"),
    "forward_diff-field": (lambda: forward_diff(np.zeros((8, 8, 2))), r"image must be square 2-D, got shape \(8, 8, 2\)"),
    "forward_diff-complex": (lambda: forward_diff(np.zeros((8, 8)) + 1j), "image must be real, got complex values"),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_bad_input_is_refused_by_name(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
