"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np

from tvdeblur import (
    ExperimentConfig,
    KernelSpec,
    SolverConfig,
    best_iterate,
    apply_kernel,
    build_cache,
    decompose,
    degrade,
    divergence_adjoint,
    forward_diff,
    make_kernel,
    make_phantom,
    prepare_u,
    run_experiment,
    shrink,
    solve,
    solve_u,
    write_pgm,
)
from tvdeblur.spectral import residual_sq

from conftest import piecewise_constant_phantom, stack_field
from objectives import eval_penalty_objective
from oracle import dense_operator, reference_tv_solve

# A flux-1 blur that is not point-symmetric, so K^ is complex and K^T is not K: a u-step that
# drops conj(K^) passes with every KernelSpec kind (all symmetric) but fails c03 with this one.
SKEWED_TAPS = np.random.default_rng(5).uniform(0.0, 1.0, (5, 5))
SKEWED_TAPS /= SKEWED_TAPS.sum()
assert not np.allclose(SKEWED_TAPS, SKEWED_TAPS[::-1, ::-1])


def _report(index, name):
    class _Reporter:
        def __enter__(self):
            self.ok = False
            return self

        def passed(self):
            self.ok = True

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if self.ok and exc_type is None else "FAIL"
            print(f"[{status}] criterion {index}: {name}")
            return False

    return _Reporter()


def test_c01_operator_correctness():
    with _report(1, "operators match dense oracles (<=1e-10, <5s)") as rep:
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for n in (4, 8, 16):
            dmat = dense_operator("D", n)
            dtmat = dense_operator("Dt", n)
            kernels = (make_kernel(KernelSpec("average", 3)), SKEWED_TAPS)
            blurs = [(build_cache(k, n), dense_operator("K", n, k)) for k in kernels if k.shape[0] <= n]
            for _ in range(50):
                u = rng.standard_normal((n, n))
                g = rng.standard_normal((n, n, 2))
                assert np.abs(stack_field(forward_diff(u)) - dmat @ u.ravel()).max() <= 1e-10
                assert np.abs(divergence_adjoint(g).ravel() - dtmat @ stack_field(g)).max() <= 1e-10
                for cache, kmat in blurs:
                    assert np.abs(apply_kernel(cache, u).ravel() - kmat @ u.ravel()).max() <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        rep.passed()


def test_c02_adjointness():
    with _report(2, "adjointness |<Du,g> - <u,Dt g>| <= 1e-10 ||u|| ||g||") as rep:
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.choice([4, 8, 16]))
            u = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n, 2))
            lhs = float(np.sum(forward_diff(u) * g))
            rhs = float(np.sum(u * divergence_adjoint(g)))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(g)
        rep.passed()


def test_c03_u_subproblem_exactness():
    with _report(3, "solve_u matches dense normal equations (rel <= 1e-8)") as rep:
        rng = np.random.default_rng(103)
        n = 8
        dmat = dense_operator("D", n)
        for kernel in (make_kernel(KernelSpec("gaussian", 3, 0.8)), SKEWED_TAPS):
            cache = build_cache(kernel, n)
            kmat = dense_operator("K", n, kernel)
            for _ in range(20):
                mu = float(10 ** rng.uniform(-1, 3))
                beta = float(10 ** rng.uniform(-1, 3))
                f = rng.standard_normal((n, n))
                w = rng.standard_normal((n, n, 2))
                lam = rng.standard_normal((n, n, 2))
                system = prepare_u(f, mu, beta, cache)
                u, u_hat = solve_u(system, w - lam / beta)
                a = mu * kmat.T @ kmat + beta * dmat.T @ dmat
                rhs = mu * kmat.T @ f.ravel() + dmat.T @ (beta * stack_field(w) - stack_field(lam))
                u_dense = np.linalg.solve(a, rhs)
                assert np.linalg.norm(u.ravel() - u_dense) <= 1e-8 * np.linalg.norm(u_dense)
                # the fidelity a solve records, from the same u^: ||K u - f||^2 by Parseval
                r = kmat @ u.ravel() - f.ravel()
                assert abs(residual_sq(system, u_hat) - r @ r) <= 1e-10 * (r @ r)
        rep.passed()


def test_c04_shrinkage_optimality():
    with _report(4, "shrinkage beats 100 random perturbations per draw (+1e-12)") as rep:
        rng = np.random.default_rng(104)

        def obj_iso(w, v, t):
            return np.hypot(w[..., 0], w[..., 1]) + ((w - v) ** 2).sum(axis=-1) / (2 * t)

        def obj_aniso(w, v, t):
            return np.abs(w).sum(axis=-1) + ((w - v) ** 2).sum(axis=-1) / (2 * t)

        for _ in range(10):  # 10 thresholds x 100 pixels = 1000 (v, t) draws
            t = float(rng.uniform(0.05, 2.0))
            v = rng.standard_normal((10, 10, 2)) * 2
            iso = shrink(v, t, "iso")[0]
            aniso = shrink(v, t, "aniso")[0]
            base_iso = obj_iso(iso, v, t)
            base_aniso = obj_aniso(aniso, v, t)
            for _ in range(100):
                delta = rng.standard_normal((10, 10, 2))
                norms = np.linalg.norm(delta, axis=-1, keepdims=True)
                delta *= rng.uniform(0, 1e-2, size=(10, 10, 1)) / norms
                assert np.all(base_iso <= obj_iso(iso + delta, v, t) + 1e-12)
                assert np.all(base_aniso <= obj_aniso(aniso + delta, v, t) + 1e-12)
        rep.passed()


def test_c05_penalty_descent(alternations):
    with _report(5, "penalty objective nonincreasing on 10 random instances") as rep:
        rng = np.random.default_rng(105)
        n = 16
        for _ in range(10):
            size = int(rng.choice([3, 5]))
            kernel = make_kernel(KernelSpec("gaussian", size, float(rng.uniform(0.5, 2.0))))
            cache = build_cache(kernel, n)
            f = rng.random((n, n))
            mu = float(rng.uniform(10, 1000))
            beta = float(rng.uniform(0.5, 64))
            cfg = SolverConfig(mu=mu, tol=1e-10, max_inner_iters=150, beta_schedule=(beta,))
            # one continuation stage at this beta, cold-started from f; the
            # fixture records (u, w) after every inner alternation
            alternations.clear()
            solve("ftvd3", f, kernel, cfg)
            values = [eval_penalty_objective(u, w, f, cache, mu, beta) for u, w in alternations]
            assert len(values) >= 2
            for prev, cur in zip(values, values[1:]):
                assert cur <= prev + 1e-10 * max(1.0, abs(prev))
        rep.passed()


def test_c06_tv_solution_agreement():
    with _report(6, "ftvd3/ftvd4/reference agree (5e-3 vs oracle, 1e-2 cross, <60s)") as rep:
        start = time.perf_counter()
        n = 16
        u0 = piecewise_constant_phantom(n)
        kernel = make_kernel(KernelSpec("average", 3))
        sigma = 0.005
        f = degrade(u0, kernel, sigma, seed=7)
        mu = 0.05 / sigma**2

        tr3 = solve("ftvd3", f, kernel, SolverConfig(mu=mu, tol=1e-6, max_inner_iters=500))
        tr4 = solve("ftvd4", f, kernel, SolverConfig(mu=mu, tol=1e-8, max_multiplier_updates=2000))
        u_ref = reference_tv_solve(f, kernel, mu)

        u3 = tr3.records[-1].u
        u4 = tr4.records[-1].u
        rel = lambda a, b: np.linalg.norm(a - b) / np.linalg.norm(b)
        assert rel(u3, u_ref) <= 5e-3
        assert rel(u4, u_ref) <= 5e-3
        assert rel(u3, u4) <= 1e-2
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        rep.passed()


def test_c07_constraint_feasibility(ftvd3_default_trace):
    with _report(7, "ftvd4 final residual <= 10*tol; ftvd3 residuals fall >= 10x") as rep:
        u0 = make_phantom(128)
        kernel = make_kernel(KernelSpec("average", 9))
        f = degrade(u0, kernel, 0.01, seed=0)
        mu = 0.05 / 0.01**2
        tol = 1e-3
        tr4 = solve("ftvd4", f, kernel, SolverConfig(mu=mu, tol=tol), ground_truth=u0)
        assert tr4.converged
        assert tr4.records[-1].constraint_residual <= 10 * tol

        res3 = [r.constraint_residual for r in ftvd3_default_trace.records]
        assert all(b < a for a, b in zip(res3, res3[1:]))
        assert res3[-1] <= res3[0] / 10.0
        rep.passed()


def test_c08_snr_peak_before_final():
    with _report(8, "SNR argmax strictly before final stage, both solvers (<120s)") as rep:
        start = time.perf_counter()
        u0 = make_phantom(128)
        kernel = make_kernel(KernelSpec("average", 9))
        sigma = 0.01
        f = degrade(u0, kernel, sigma, seed=0)
        mu = 0.05 / sigma**2

        for method in ("ftvd3", "ftvd4"):
            trace = solve(method, f, kernel, SolverConfig(mu=mu), ground_truth=u0)
            snrs = [r.snr_db for r in trace.records]
            best = best_iterate(trace)
            last = len(snrs) - 1
            assert best < last
            assert snrs[best] >= snrs[last]
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        rep.passed()


def test_c09_decomposition():
    with _report(9, "u1+u2 == u (1e-12/pixel); D u1 is the projection of w (1e-9)") as rep:
        rng = np.random.default_rng(109)
        for case in range(20):
            n = int(rng.choice([8, 16]))
            cache = build_cache(make_kernel(KernelSpec("delta")), n)
            u = rng.random((n, n))
            w = rng.standard_normal((n, n, 2))
            u1, u2 = decompose(u, w, cache)
            assert np.abs(u1 + u2 - u).max() <= 1e-12
            resid = w - forward_diff(u1)
            for _ in range(20):
                z = rng.standard_normal((n, n))
                assert abs(float(np.sum(resid * forward_diff(z)))) <= 1e-9
        rep.passed()


def test_c10_determinism(tmp_path):
    with _report(10, "same config => byte-identical trace.csv") as rep:
        gt = tmp_path / "gt.pgm"
        write_pgm(gt, make_phantom(64))

        def go(sub):
            cfg = ExperimentConfig(
                input_path=gt,
                output_dir=tmp_path / sub,
                solver="ftvd3",
                kernel=KernelSpec("average", 9),
                sigma=0.01,
                seed=4,
            )
            run_experiment(cfg)
            return tmp_path / sub / "trace.csv"

        assert go("one").read_bytes() == go("two").read_bytes()
        rep.passed()
