import csv

import numpy as np
import pytest

from tvdeblur import (
    ExperimentConfig,
    KernelSpec,
    SolverConfig,
    degrade,
    make_kernel,
    make_phantom,
    read_pgm,
    run_experiment,
    write_pgm,
)
from tvdeblur import harness, spectral
from tvdeblur.errors import BadSpec, KernelTooLarge
from tvdeblur.harness import TRACE_HEADER

from oracle import convolve_periodic, dense_operator


def test_degrade_noiseless_matches_dense_blur():
    # the spectral blur is exact up to FFT rounding (a few ulp), so even the
    # delta kernel is checked to a tolerance rather than bit for bit
    rng = np.random.default_rng(91)
    u0 = rng.random((16, 16))
    for spec in (KernelSpec.delta(), KernelSpec.average(3), KernelSpec.gaussian(5, 1.2)):
        kernel = make_kernel(spec)
        f = degrade(u0, kernel, sigma=0.0, seed=5)
        assert np.abs(f.ravel() - dense_operator("K", 16, kernel) @ u0.ravel()).max() <= 1e-14


def test_degrade_noise_level_statistics():
    u0 = make_phantom(256)
    k = make_kernel(KernelSpec.delta())
    sigma = 0.01
    f = degrade(u0, k, sigma, seed=1)
    noise = f - convolve_periodic(u0, k)
    assert abs(noise.std() - sigma) <= 0.05 * sigma
    assert abs(noise.mean()) < 5 * sigma / 256  # zero-mean within 5 standard errors


def test_degrade_is_seed_deterministic():
    u0 = make_phantom(32)
    k = make_kernel(KernelSpec.average(3))
    a = degrade(u0, k, 0.02, seed=99)
    b = degrade(u0, k, 0.02, seed=99)
    assert np.array_equal(a, b)
    c = degrade(u0, k, 0.02, seed=100)
    assert not np.array_equal(a, c)


def test_degrade_rejects_negative_sigma():
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            degrade(np.zeros((4, 4)), np.ones((1, 1)), sigma, seed=0)


def test_degrade_rejects_bad_kernels():
    u0 = np.zeros((4, 4))
    with pytest.raises(KernelTooLarge):
        degrade(u0, np.ones((5, 5)) / 25.0, 0.0, seed=0)
    with pytest.raises(BadSpec):
        degrade(u0, np.ones((2, 2)) / 4.0, 0.0, seed=0)
    with pytest.raises(BadSpec):
        degrade(u0, np.ones((1, 3)) / 3.0, 0.0, seed=0)


@pytest.fixture()
def ground_truth_file(tmp_path):
    path = tmp_path / "gt.pgm"
    write_pgm(path, make_phantom(32))
    return path


def test_identity_pipeline_hits_snr_cap(ground_truth_file, tmp_path):
    cfg = ExperimentConfig(
        input_path=ground_truth_file,
        output_dir=tmp_path / "out",
        solver="ftvd3",
        kernel=KernelSpec.delta(),
        sigma=0.0,
        solver_cfg=SolverConfig(mu=1e18, beta_schedule=(1.0,)),
    )
    summary = run_experiment(cfg)
    assert summary.final_snr_db == 300.0
    assert summary.best_stage == summary.final_stage == 0


def test_run_experiment_outputs(ground_truth_file, tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        input_path=ground_truth_file,
        output_dir=out,
        solver="ftvd3",
        kernel=KernelSpec.average(3),
        sigma=0.01,
        save_intermediates=True,
        seed=2,
        solver_cfg=SolverConfig(mu="auto", beta_schedule=(1.0, 4.0, 16.0, 64.0)),
    )
    summary = run_experiment(cfg)

    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == TRACE_HEADER
    assert len(rows) - 1 == len(summary.trace.records) == 4

    for name in ("best.pgm", "final.pgm", "best_u1.pgm", "best_u2.pgm", "final_u1.pgm", "final_u2.pgm"):
        img = read_pgm(out / name)
        assert img.shape == (32, 32)
    for rec in summary.trace.stage_records:
        assert (out / f"iter_{rec.stage_index:04}.pgm").exists()
    assert "noise generator" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("solver,tv_variant", [("ftvd3", "iso"), ("ftvd4", "aniso")])
def test_streamed_intermediates_match_best_and_final(tmp_path, solver, tv_variant):
    # at 64x64 with the default protocol the best stage is the first one, the final one the last
    gt = tmp_path / "gt.pgm"
    write_pgm(gt, make_phantom(64))
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        input_path=gt,
        output_dir=out,
        solver=solver,
        save_intermediates=True,
        solver_cfg=SolverConfig(mu="auto", tv_variant=tv_variant),
    )
    summary = run_experiment(cfg)
    assert summary.best_stage < summary.final_stage
    iters = sorted(out.glob("iter_*.pgm"))
    assert len(iters) == len(summary.trace.records)
    assert (out / f"iter_{summary.best_stage:04}.pgm").read_bytes() == (out / "best.pgm").read_bytes()
    assert iters[-1].read_bytes() == (out / "final.pgm").read_bytes()


def test_run_experiment_builds_two_spectral_caches(ground_truth_file, tmp_path, monkeypatch):
    # one cache for degrade, one shared by the solve and the decomposition
    built = []
    original = spectral.build_cache

    def counting(kernel, n):
        built.append(n)
        return original(kernel, n)

    monkeypatch.setattr(spectral, "build_cache", counting)
    monkeypatch.setattr(harness, "build_cache", counting)
    for solver in ("ftvd3", "ftvd4"):
        built.clear()
        run_experiment(ExperimentConfig(input_path=ground_truth_file, output_dir=tmp_path / solver, solver=solver))
        assert built == [32, 32]


def test_trace_csv_floats_round_trip(ground_truth_file, tmp_path):
    cfg = ExperimentConfig(
        input_path=ground_truth_file,
        output_dir=tmp_path / "rt",
        solver="ftvd4",
        kernel=KernelSpec.average(3),
        sigma=0.01,
        solver_cfg=SolverConfig(mu="auto", max_multiplier_updates=5, tol=1e-12),
    )
    summary = run_experiment(cfg)
    with open(summary.trace_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, rec in zip(rows, summary.trace.records):
        assert int(row["stage_index"]) == rec.stage_index
        assert float(row["beta"]) == rec.beta
        assert float(row["snr_db"]) == rec.snr_db
        assert float(row["objective_tv"]) == rec.objective_tv
        assert float(row["constraint_residual"]) == rec.constraint_residual


def test_run_experiment_is_deterministic(ground_truth_file, tmp_path):
    def go(d):
        cfg = ExperimentConfig(
            input_path=ground_truth_file,
            output_dir=tmp_path / d,
            solver="ftvd4",
            kernel=KernelSpec.average(5),
            sigma=0.01,
            seed=11,
            solver_cfg=SolverConfig(mu="auto", max_multiplier_updates=40),
        )
        return run_experiment(cfg)

    s1, s2 = go("a"), go("b")
    assert s1.trace_csv.read_bytes() == s2.trace_csv.read_bytes()
    assert (s1.output_dir / "best.pgm").read_bytes() == (s2.output_dir / "best.pgm").read_bytes()


def test_default_experiment_summary_reports_earlier_best(tmp_path):
    # the standard 128x128 protocol: best iterate lands strictly before the
    # final continuation step and scores at least as well
    gt = tmp_path / "gt128.pgm"
    write_pgm(gt, make_phantom(128))
    summary = run_experiment(ExperimentConfig(input_path=gt, output_dir=tmp_path / "dflt"))
    assert summary.best_stage < summary.final_stage
    assert summary.snr_gain_db >= 0.0


def test_auto_mu_requires_noise(ground_truth_file, tmp_path):
    cfg = ExperimentConfig(input_path=ground_truth_file, output_dir=tmp_path / "x", sigma=0.0)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_unknown_solver_rejected(ground_truth_file, tmp_path):
    cfg = ExperimentConfig(input_path=ground_truth_file, output_dir=tmp_path / "y", solver="ftvd5")
    with pytest.raises(ValueError):
        run_experiment(cfg)
    assert not (tmp_path / "y").exists()
