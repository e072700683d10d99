import numpy as np
import pytest

import tvdeblur
from tvdeblur import (
    IterateTrace,
    KernelSpec,
    SolverConfig,
    best_iterate,
    build_cache,
    degrade,
    divergence_adjoint,
    forward_diff,
    gradient_residual,
    make_kernel,
    make_phantom,
    rel_change,
    snr_db,
    solve,
)
from tvdeblur import cli, solvers, spectral
from tvdeblur.shrinkage import shrink

from objectives import eval_penalty_objective, eval_tv_objective
from oracle import convolve_periodic, huber_newton_solve


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_penalty_loop_constant_fixed_point():
    n = 8
    f = np.full((n, n), 0.42)
    kernel = make_kernel(KernelSpec("delta"))
    trace = solve("ftvd3", f, kernel, SolverConfig(mu=5.0, beta_schedule=(3.0,)))
    assert trace.converged
    assert trace.records[0].inner_iter <= 2
    assert np.allclose(trace.records[0].u, f, atol=1e-12)


def test_penalty_loop_cold_start_matches_oracle(pc16, pc16_oracle_mu500):
    cfg = SolverConfig(mu=500.0, tol=1e-7, max_inner_iters=6000, beta_schedule=(2.0**10,))
    trace = solve("ftvd3", pc16["f"], pc16["kernel"], cfg)
    assert trace.converged
    assert rel(trace.records[0].u, pc16_oracle_mu500) < 5e-3


def test_ftvd3_single_stage_equals_inner_loop(pc16, alternations):
    # the stage record holds the last alternation of the engine at that beta
    cfg = SolverConfig(mu=500.0, beta_schedule=(8.0,))
    trace = solve("ftvd3", pc16["f"], pc16["kernel"], cfg)
    assert trace.records[-1].inner_iter == len(alternations)
    u, w = alternations[-1]
    assert np.array_equal(trace.records[-1].u, u)
    assert np.array_equal(trace.records[-1].w, w)


def test_ftvd3_final_matches_oracle(pc16, pc16_oracle_mu500):
    cfg = SolverConfig(mu=500.0, tol=1e-6, max_inner_iters=500)
    trace = solve("ftvd3", pc16["f"], pc16["kernel"], cfg, ground_truth=pc16["u0"])
    assert rel(trace.records[-1].u, pc16_oracle_mu500) < 5e-3


def test_ftvd4_final_matches_oracle_and_ftvd3(pc16, pc16_oracle_mu500):
    cfg4 = SolverConfig(mu=500.0, tol=1e-8, max_multiplier_updates=2000)
    tr4 = solve("ftvd4", pc16["f"], pc16["kernel"], cfg4, ground_truth=pc16["u0"])
    u4 = tr4.records[-1].u
    assert rel(u4, pc16_oracle_mu500) < 5e-3
    cfg3 = SolverConfig(mu=500.0, tol=1e-6, max_inner_iters=500)
    tr3 = solve("ftvd3", pc16["f"], pc16["kernel"], cfg3)
    assert rel(tr3.records[-1].u, u4) < 1e-2


def test_solver_agreement_on_random_block_images():
    rng = np.random.default_rng(42)
    kernel = make_kernel(KernelSpec("average", 3))
    for n in (8, 16):
        u0 = np.full((n, n), float(rng.uniform(0.2, 0.4)))
        u0[: n // 2, n // 2 :] = rng.uniform(0.6, 0.9)
        u0[n // 2 :, : n // 2] = rng.uniform(0.0, 0.2)
        f = degrade(u0, kernel, 0.005, seed=int(rng.integers(1 << 31)))
        mu = 0.05 / 0.005**2
        u3 = solve("ftvd3", f, kernel, SolverConfig(mu=mu, tol=1e-6, max_inner_iters=500)).records[-1].u
        u4 = solve("ftvd4", f, kernel, SolverConfig(mu=mu, tol=1e-8, max_multiplier_updates=3000)).records[-1].u
        assert rel(u3, u4) <= 1e-2


def test_ftvd4_constant_image_is_fixed_point():
    n = 8
    u_star = np.full((n, n), 0.6)
    kernel = make_kernel(KernelSpec("average", 3))
    f = degrade(u_star, kernel, 0.0, seed=0)  # noiseless blur of a constant
    cfg = SolverConfig(mu=20.0)
    trace = solve("ftvd4", f, kernel, cfg)
    assert trace.converged
    assert len(trace.records) <= 3
    assert np.allclose(trace.records[-1].u, u_star, atol=1e-12)
    assert np.all(trace.records[-1].lam == 0.0)


def test_ftvd4_feasibility_trend(ftvd4_default_trace):
    # ADMM primal residuals are not monotone step to step; require the
    # 5-apart comparison up to small bounces plus a strong overall decay
    res = [r.constraint_residual for r in ftvd4_default_trace.records]
    assert len(res) > 20
    for k in range(len(res) - 5):
        assert res[k + 5] < 1.15 * res[k]
    assert res[-1] < res[0] / 10.0


def test_ftvd4_records_carry_the_scaled_multiplier(pc16):
    # lam is lambda/beta: each cycle subtracts the gap w - D u once, and beta * lam
    # follows the unscaled update lambda <- lambda - beta (w - D u), run here alongside
    seen = []
    cfg = SolverConfig(mu=500.0, max_multiplier_updates=12)
    solve("ftvd4", pc16["f"], pc16["kernel"], cfg, on_record=lambda r: seen.append((r.beta, r.u, r.w, r.lam)))
    assert len(seen) == 12
    lam_prev, unscaled = 0.0, 0.0
    for beta, u, w, lam in seen:
        gap = w - forward_diff(u)
        assert np.array_equal(lam, lam_prev - gap)
        unscaled = unscaled - beta * gap
        assert np.linalg.norm(beta * lam - unscaled) <= 1e-12 * np.linalg.norm(unscaled)
        lam_prev = lam


def test_trace_completeness(pc16):
    cfg3 = SolverConfig(mu=500.0)
    tr3 = solve("ftvd3", pc16["f"], pc16["kernel"], cfg3)
    assert len(tr3.records) == len(cfg3.beta_schedule)
    cfg4 = SolverConfig(mu=500.0, max_multiplier_updates=7, tol=1e-14)
    tr4 = solve("ftvd4", pc16["f"], pc16["kernel"], cfg4)
    assert len(tr4.records) == 7  # ran to the cap, one record per update


@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
def test_record_scores_equal_the_reference_definitions(pc16, tv_variant):
    f, kernel, mu = pc16["f"], pc16["kernel"], 500.0
    cache = build_cache(kernel, pc16["n"])
    seen = []  # (record, u, w): a trace keeps arrays only on its best and last records
    for method in ("ftvd3", "ftvd4"):
        cfg = SolverConfig(mu=mu, tv_variant=tv_variant)
        solve(method, f, kernel, cfg, on_record=lambda r: seen.append((r, r.u, r.w)))
    assert len(seen) > 20
    for r, u, w in seen:
        expected = (
            eval_tv_objective(u, f, cache, mu, tv_variant),
            eval_penalty_objective(u, w, f, cache, mu, r.beta, tv_variant),
            gradient_residual(w, u),
        )
        for got, want in zip((r.objective_tv, r.penalty_objective, r.constraint_residual), expected):
            assert abs(got - want) <= 1e-12 * abs(want)


def test_solves_never_blur_in_space(pc16, monkeypatch):
    # records take ||K u - f||^2 from the u-step's spectrum, so no solve calls apply_kernel
    calls = []
    original = spectral.apply_kernel

    def counting(cache, u):
        calls.append(u.shape)
        return original(cache, u)

    monkeypatch.setattr(spectral, "apply_kernel", counting)
    for method in ("ftvd3", "ftvd4"):
        for tv_variant in ("iso", "aniso"):
            cfg = SolverConfig(mu=500.0, tv_variant=tv_variant)
            trace = solve(method, pc16["f"], pc16["kernel"], cfg, ground_truth=pc16["u0"])
            assert trace.records
    assert calls == []


@pytest.mark.parametrize(
    "n, spec, tv_variant",
    [
        pytest.param(32, "average:9", "iso", id="32-average:9"),
        pytest.param(31, "gaussian:7:1.5", "iso", id="31-gaussian:7:1.5"),
        pytest.param(32, "average:9", "aniso", id="32-average:9-aniso"),
    ],
)
def test_ftvd3_stages_are_stationary_for_their_huber_models(n, spec, tv_variant):
    # Eliminating w leaves sum_i phi_beta(D_i u) + mu/2 ||K u - f||^2 with phi_beta the Huber
    # function, whose gradient is beta (t - shrink(t, 1/beta)).  Every stage that reached tol
    # must (nearly) zero the gradient of its model and lie next to the model's minimizer: the
    # combined Tikhonov + TV claim.  The odd side and the Gaussian kernel cover the other
    # half-spectrum layout and kernel family.  Gaussian aniso is left out: too few of its
    # stages reach tol.
    mu = 500.0
    u0 = make_phantom(n)
    kernel = make_kernel(KernelSpec.from_string(spec))
    f = degrade(u0, kernel, 0.01, seed=0)
    cfg = SolverConfig(mu=mu, tv_variant=tv_variant, tol=1e-8, max_inner_iters=300)
    seen = []
    solve("ftvd3", f, kernel, cfg, on_record=lambda r: seen.append((r, r.u)))
    converged = [(r, u) for r, u in seen if r.inner_iter < cfg.max_inner_iters]
    assert len(converged) >= 5
    for r, u in converged:
        du = forward_diff(u)
        tv_term = divergence_adjoint(r.beta * (du - shrink(du, 1.0 / r.beta, tv_variant)[0]))
        fidelity_term = mu * convolve_periodic(convolve_periodic(u, kernel) - f, kernel[::-1, ::-1])
        gap = np.linalg.norm(tv_term + fidelity_term) / np.linalg.norm(fidelity_term)
        assert gap <= 1e-3, (r.stage_index, r.beta, gap)
        # the model is strictly convex, so starting Newton at the stage iterate does not bias it
        minimizer = huber_newton_solve(f, kernel, mu, r.beta, u, tv_variant)
        assert rel(u, minimizer) <= 1e-6, (r.stage_index, r.beta, rel(u, minimizer))


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_record_snr_equals_snr_db(pc16, method):
    # the solve centres the ground truth once; every record must still equal snr_db bit for bit
    seen = []
    on_record = lambda r: seen.append((r.snr_db, r.u))
    solve(method, pc16["f"], pc16["kernel"], SolverConfig(mu=500.0), ground_truth=pc16["u0"], on_record=on_record)
    assert len(seen) > 5
    for snr, u in seen:
        assert snr == snr_db(u, pc16["u0"])


def test_eval_tv_objective_values(pc16):
    n = 8
    kernel = make_kernel(KernelSpec("average", 3))
    cache = build_cache(kernel, n)
    u = np.full((n, n), 0.3)
    f = degrade(u, kernel, 0.0, seed=0)
    assert eval_tv_objective(u, f, cache, mu=100.0) < 1e-20

    cache2 = build_cache(make_kernel(KernelSpec("delta")), 2)
    u2 = np.array([[0.0, 1.0], [0.0, 1.0]])
    val = eval_tv_objective(u2, u2, cache2, mu=0.0, tv_variant="iso")
    assert abs(val - 4.0) < 1e-12
    # direct summation cross-check
    from tvdeblur import forward_diff

    g = forward_diff(u2)
    assert abs(val - np.hypot(g[..., 0], g[..., 1]).sum()) < 1e-12


def test_aniso_tv_dominates_iso():
    rng = np.random.default_rng(43)
    n = 8
    cache = build_cache(make_kernel(KernelSpec("delta")), n)
    for _ in range(100):
        u = rng.standard_normal((n, n))
        f = np.zeros((n, n))
        iso = eval_tv_objective(u, f, cache, mu=0.0, tv_variant="iso")
        aniso = eval_tv_objective(u, f, cache, mu=0.0, tv_variant="aniso")
        assert aniso >= iso - 1e-12


def test_config_validation():
    # the range and sequence-shape rules; NUMBER_ENTRIES in test_grid_ops.py refuses each field that is no number
    with pytest.raises(ValueError):
        solve("ftvd3", np.zeros((4, 4)), np.ones((1, 1)), SolverConfig(mu=-1.0))
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, beta_schedule=(4.0, 2.0)).validate()
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, beta_schedule=()).validate()
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, tol=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, tv_variant="huber").validate()
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, beta_fixed=0.0).validate()
    for bad in ({"mu": np.inf}, {"mu": np.nan}, {"beta_fixed": np.inf}, {"beta_schedule": (1.0, np.inf)},
                {"beta_fixed": 1e-320}, {"beta_schedule": (np.float64(1e-320), 1.0)}):  # 1/beta overflows
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{"mu": 1.0, **bad}).validate()
    for betas in (2.0, {1.0, 2.0}, {1.0: None, 2.0: None}):  # no sequence, or unordered: no ascent to check
        with pytest.raises(ValueError, match="beta_schedule"):
            SolverConfig(mu=1.0, beta_schedule=betas).validate()
    for schedule in ([1.0, 2.0], np.array([1.0, 2.0])):  # ordered sequences
        SolverConfig(mu=1.0, beta_schedule=schedule).validate()


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_the_u_system_is_prepared_once_per_ftvd3_stage_and_once_per_ftvd4_solve(pc16, monkeypatch, method):
    # ftvd3 drops its system at every stage end and prepares the next stage's at its beta; ftvd4's beta never moves
    prepared, prepare_u = [], spectral.prepare_u

    def counted(f, mu, beta, cache):
        prepared.append(beta)
        return prepare_u(f, mu, beta, cache)

    monkeypatch.setattr(spectral, "prepare_u", counted)
    cfg = SolverConfig(mu=500.0, beta_schedule=(1.0, 4.0, 16.0), max_inner_iters=3, max_multiplier_updates=4)
    trace = solve(method, pc16["f"], pc16["kernel"], cfg)
    if method == "ftvd3":
        assert prepared == [1.0, 4.0, 16.0] == [r.beta for r in trace.records]
    else:
        assert prepared == [10.0] and len(trace.records) == 4


def test_ftvd4_cycle_cap_is_not_materialized():
    # a cap no machine could hold as a list of stages: the solve still returns after its
    # first cycle, which converges at once on a constant image
    cfg = SolverConfig(mu=1.0, max_multiplier_updates=10**12)
    trace = solve("ftvd4", np.full((8, 8), 0.5), make_kernel(KernelSpec("average", 3)), cfg)
    assert len(trace.records) == 1
    assert trace.converged


def test_ftvd4_cycle_cap_may_pass_the_c_integer_range(tmp_path):
    # a cap past the C ssize_t range (2**63 - 1) is still a cap; at tol 0.5 the run stops after one cycle
    u0, kernel = make_phantom(16), make_kernel(KernelSpec("average", 3))
    cfg = SolverConfig(mu=500.0, tol=0.5, max_multiplier_updates=2**63)
    assert len(solve("ftvd4", degrade(u0, kernel, 0.01, seed=0), kernel, cfg).records) == 1
    gt = tmp_path / "gt.pgm"
    tvdeblur.write_pgm(gt, u0)
    argv = ["deblur", "--input-path", str(gt), "--output-dir", str(tmp_path / "o"), "--solver", "ftvd4",
            "--kernel", "average:3", "--tol", "0.5", "--max-multiplier-updates", str(2**63)]
    assert cli.main(argv) == 0


def test_stage_rel_change_spans_the_whole_stage():
    # the change from the stage's first iterate to its last, not that of its last alternation
    u0, kernel, f = phantom32_average3()
    ends = []
    cfg = SolverConfig(mu=500.0, beta_schedule=(1.0, 2.0, 4.0))
    trace = solve("ftvd3", f, kernel, cfg, on_record=lambda r: ends.append(r.u))
    assert all(r.inner_iter > 1 for r in trace.records)
    for r, start, end in zip(trace.records, [f] + ends[:-1], ends):
        assert r.rel_change == rel_change(end, start)


def test_ftvd3_converges_only_if_every_stage_reaches_tol():
    # stage 0 stops at the cap, the last stage below tol after 2 of its 3 alternations
    u0, kernel, f = phantom32_average3()
    cfg = SolverConfig(mu=500.0, tol=1e-3, beta_schedule=(4.0, 4.0001), max_inner_iters=3)
    trace = solve("ftvd3", f, kernel, cfg)
    assert [r.inner_iter for r in trace.records] == [3, 2]
    assert not trace.converged


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_divergence_raises_floating_point_error(pc16, method):
    # mu = 1e308 is finite, but mu * |K|^2 overflows and the u-step returns NaN
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
        solve(method, pc16["f"], pc16["kernel"], SolverConfig(mu=1e308))


def phantom32_average3():
    u0 = make_phantom(32)
    kernel = make_kernel(KernelSpec("average", 3))
    return u0, kernel, degrade(u0, kernel, 0.01, seed=0)


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
@pytest.mark.parametrize("scale", [1e153, 1.3e154])
def test_overflowing_scores_raise_floating_point_error(method, scale):
    # at n = 32 an input this large overflows ||u|| in rel_change; near 1.3e154 the
    # per-pixel sqrt(dx^2 + dy^2) overflows too.  Neither may end as "converged".
    u0, kernel, f = phantom32_average3()
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="nan"):
        solve(method, scale * f, kernel, SolverConfig(mu=500.0), ground_truth=scale * u0)


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_large_finite_input_keeps_finite_scores(method):
    # one decade below the overflow every norm is finite and the solve completes
    u0, kernel, f = phantom32_average3()
    trace = solve(method, 1e152 * f, kernel, SolverConfig(mu=500.0, max_multiplier_updates=5), ground_truth=1e152 * u0)
    assert all(np.isfinite([r.snr_db, r.objective_tv, r.rel_change]).all() for r in trace.records)


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_non_finite_snr_raises_floating_point_error(pc16, method):
    # the iterates stay finite, but the ground truth's energy overflows: the record check catches it
    message = r"^non-finite scores at stage 0, inner iteration \d+ \(snr_db nan\): the solve diverged or overflowed$"
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
        solve(method, pc16["f"], pc16["kernel"], SolverConfig(mu=500.0), ground_truth=1e155 * pc16["u0"])


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
@pytest.mark.parametrize(
    "bad_input, message",
    [
        (lambda u0, k, f: (f, k, np.where(u0 == u0.max(), np.nan, u0)), "ground truth contains NaN or Inf"),
        (lambda u0, k, f: (f, k, u0[0]), r"ground truth has shape \(32,\)"),
        (lambda u0, k, f: (f, k, make_phantom(u0.shape[0] + 1)), r"ground truth has shape \(33, 33\)"),
        (lambda u0, k, f: (f, k, np.full_like(u0, 0.5)), "ground truth is constant"),  # its SNR has no signal energy
        (lambda u0, k, f: (f[:16, :16], build_cache(k, 32), None), "spectral cache was built for n=32, the image is 16x16"),
        (lambda u0, k, f: (f[:17, :17], build_cache(k, 16), None), "spectral cache was built for n=16, the image is 17x17"),
    ],
    ids=["nan", "one_dimensional", "wrong_size", "constant", "cache_for_a_larger_grid", "cache_for_a_smaller_grid"],
)
def test_bad_input_is_rejected_before_the_solve(monkeypatch, method, bad_input, message):
    # (observation, taps or cache, ground truth); taps would become a cache only after every other check
    def no_alternation(*args):
        raise AssertionError("the solve started")

    def no_cache(*args):
        raise AssertionError("the taps became a cache")

    f, kernel, ground_truth = bad_input(*phantom32_average3())
    monkeypatch.setattr(spectral, "solve_u", no_alternation)
    monkeypatch.setattr(spectral, "build_cache", no_cache)
    with pytest.raises(ValueError, match=message):
        solve(method, f, kernel, SolverConfig(mu=500.0), ground_truth=ground_truth)


@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
def test_solve_takes_taps_or_a_cache_and_the_old_names_only_delegate(pc16, method, tv_variant):
    f, kernel, u0 = pc16["f"], pc16["kernel"], pc16["u0"]
    cfg = SolverConfig(mu=500.0, tv_variant=tv_variant)
    traces = [
        solve(method, f, kernel, cfg, ground_truth=u0),
        solve(method, f, build_cache(kernel, pc16["n"]), cfg, ground_truth=u0),
        getattr(solvers, f"{method}_solve")(f, kernel, cfg, ground_truth=u0),  # the name bench/worker.py looks up
    ]
    scalar_names = ("stage_index", "inner_iter", "beta", "snr_db", "objective_tv", "penalty_objective",
                    "constraint_residual", "rel_change")

    def scalars(trace):
        return trace.converged, [tuple(getattr(r, name) for name in scalar_names) for r in trace.records]

    def kept(trace):
        return [(r.stage_index, name, getattr(r, name)) for r in trace.records for name in ("u", "w", "lam")
                if getattr(r, name) is not None]

    assert len(traces[0].records) > 1
    for trace in traces[1:]:
        assert scalars(trace) == scalars(traces[0])
        assert len(kept(trace)) == len(kept(traces[0])) >= 2
        for (stage, name, array), (stage0, name0, array0) in zip(kept(trace), kept(traces[0])):
            assert (stage, name) == (stage0, name0)
            assert np.array_equal(array, array0)
    assert "solve" in tvdeblur.__all__
    for old in ("ftvd3_solve", "ftvd4_solve"):
        assert old not in tvdeblur.__all__
        assert not hasattr(tvdeblur, old)


@pytest.mark.parametrize(
    "name",
    ["ftvd3_default_trace", "ftvd4_default_trace", "ftvd3_no_ground_truth", "ftvd4_no_ground_truth", "ftvd3_tied",
     "ftvd4_tied"],
)
def test_trace_keeps_arrays_on_best_and_final_only(request, monkeypatch, name):
    u0, kernel, f = phantom32_average3()
    method = name.split("_")[0]
    if name.endswith("_no_ground_truth"):
        # nothing is scored, so there is no best: only the last record keeps its arrays
        trace = solve(method, f, kernel, SolverConfig(mu=500.0))
        best = len(trace.records) - 1
        assert best > 0
    elif name.endswith("_tied"):
        # every record scores the same, so the earliest is the best, and it must be the one holding arrays
        monkeypatch.setattr(solvers, "snr_scorer", lambda reference, name: lambda u: 10.0)
        trace = solve(method, f, kernel, SolverConfig(mu=500.0), ground_truth=u0)
        best = best_iterate(trace)
        assert best == 0 and len(trace.records) > 2
    else:
        # the c08 setup, where the best record comes strictly before the last one
        trace = request.getfixturevalue(name)
        best = best_iterate(trace)
        assert best < len(trace.records) - 1
    for i, r in enumerate(trace.records):
        kept = i in (best, len(trace.records) - 1)
        assert (r.u is not None, r.w is not None) == (kept, kept)
        assert (r.lam is not None) == (kept and name.startswith("ftvd4"))


@pytest.mark.parametrize("with_truth", [True, False], ids=["ground_truth", "no_ground_truth"])
@pytest.mark.parametrize("variant", ["iso", "aniso"])
@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_on_record_sees_arrays_on_the_best_so_far_and_the_current_record_only(method, variant, with_truth):
    u0, kernel, f = phantom32_average3()
    seen, holders = [], []

    def on_record(r):
        seen.append(r)
        best = best_iterate(IterateTrace(seen, False)) if with_truth else None
        expected = {best, len(seen) - 1} - {None}
        for i, s in enumerate(seen):
            assert (s.u is not None, s.w is not None) == (i in expected, i in expected), (i, expected)
            assert (s.lam is not None) == (i in expected and method == "ftvd4")
        holders.append(expected)

    solve(method, f, kernel, SolverConfig(mu=500.0, tv_variant=variant), ground_truth=u0 if with_truth else None,
          on_record=on_record)
    assert len(seen) > 2
    # with ground truth, a best record is held while later ones come and go
    assert any(len(h) == 2 for h in holders) == with_truth
