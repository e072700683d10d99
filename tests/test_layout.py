"""Storage order of gradient fields: shape (n, n, 2), stored plane-major.

``forward_diff`` is the one place that picks the layout; every field the
solvers derive from it must keep it, and an interleaved (C-ordered) field
from a caller must give the same values.
"""

import inspect

import numpy as np
import pytest

from tvdeblur import (
    KernelSpec,
    SolverConfig,
    build_cache,
    decompose,
    degrade,
    forward_diff,
    gradient_residual,
    make_kernel,
    make_phantom,
    solve,
)
from tvdeblur import solvers, spectral
from tvdeblur.shrinkage import pixel_norms, shrink


def plane_major(g):
    """True for an (n, n, 2) field whose planes g[..., 0] and g[..., 1] are C-contiguous, one after the other."""
    return g.ndim == 3 and g.shape[2] == 2 and g.transpose(2, 0, 1).flags.c_contiguous


def field_pair(n, seed):
    """The same random field twice: plane-major and interleaved."""
    planar = np.random.default_rng(seed).standard_normal((2, n, n)).transpose(1, 2, 0)
    interleaved = np.ascontiguousarray(planar)
    assert plane_major(planar) and not plane_major(interleaved)
    return planar, interleaved


@pytest.mark.parametrize("n", [2, 7, 8])
def test_forward_diff_returns_contiguous_planes(n):
    g = forward_diff(np.random.default_rng(90).random((n, n)))
    assert g.shape == (n, n, 2)
    assert plane_major(g)
    assert g[..., 0].flags.c_contiguous and g[..., 1].flags.c_contiguous


def test_a_mixed_layout_op_falls_back_to_interleaved():
    # why the solver test below checks every field: one interleaved operand
    # quietly makes the result interleaved, with no error and the same values
    planar, interleaved = field_pair(8, 91)
    assert plane_major(planar + planar)
    assert not plane_major(planar + interleaved)


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
def test_solver_fields_stay_plane_major(monkeypatch, method, tv_variant):
    seen = []
    original = solvers._make_record
    signature = inspect.signature(original)

    def checking(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        seen.append({name: plane_major(bound[name]) for name in ("du", "w", "gap", "lam") if bound[name] is not None})
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "_make_record", checking)
    u0 = make_phantom(32)
    kernel = make_kernel(KernelSpec("average", 5))
    cfg = SolverConfig(mu=500.0, tv_variant=tv_variant, max_inner_iters=5, max_multiplier_updates=5)
    recorded = []  # a record holds its arrays while on_record sees it

    def on_record(r):
        recorded.append(plane_major(r.w) and (r.lam is None or plane_major(r.lam)))

    solve(method, degrade(u0, kernel, 0.01, seed=0), kernel, cfg, ground_truth=u0, on_record=on_record)
    assert len(seen) == len(recorded) > 1
    expected = {"du", "w", "gap", "lam"} if method == "ftvd4" else {"du", "w", "gap"}
    assert all(checks == dict.fromkeys(expected, True) for checks in seen)
    assert all(recorded)


@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
def test_per_pixel_ops_do_not_depend_on_the_layout(tv_variant):
    planar, interleaved = field_pair(7, 92)
    assert np.array_equal(pixel_norms(planar, tv_variant), pixel_norms(interleaved, tv_variant))
    shrunk = shrink(planar, 0.5, tv_variant)[0]
    assert plane_major(shrunk)
    assert np.array_equal(shrunk, shrink(interleaved, 0.5, tv_variant)[0])


@pytest.mark.parametrize("n", [8, 9])
def test_spectral_ops_do_not_depend_on_the_layout(n):
    w_planar, w_interleaved = field_pair(n, 93)
    lam_planar, lam_interleaved = field_pair(n, 94)
    cache = build_cache(make_kernel(KernelSpec("average", 3)), n)
    system = spectral.prepare_u(np.random.default_rng(95).random((n, n)), 50.0, 4.0, cache)
    for g_p, g_i in ((w_planar, w_interleaved), (w_planar - lam_planar / 4.0, w_interleaved - lam_interleaved / 4.0)):
        u_p, u_hat_p = spectral.solve_u(system, g_p)
        u_i, u_hat_i = spectral.solve_u(system, g_i)
        assert np.array_equal(u_p, u_i) and np.array_equal(u_hat_p, u_hat_i)
    u = np.random.default_rng(96).random((n, n))
    u1_p, u2_p = decompose(u, w_planar, cache)
    u1_i, u2_i = decompose(u, w_interleaved, cache)
    assert np.array_equal(u1_p, u1_i) and np.array_equal(u2_p, u2_i)
    assert gradient_residual(w_planar, u1_p) == gradient_residual(w_interleaved, u1_i)
