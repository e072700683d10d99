import csv

import numpy as np
import pytest

from tvdeblur import (
    ExperimentConfig,
    KernelSpec,
    SolverConfig,
    best_iterate,
    build_cache,
    degrade,
    make_kernel,
    make_phantom,
    read_pgm,
    run_experiment,
    solve,
    write_pgm,
)
from tvdeblur import harness, spectral
from tvdeblur.harness import TRACE_HEADER

from oracle import convolve_periodic, dense_operator


def test_degrade_noiseless_matches_dense_blur():
    # the spectral blur is exact up to FFT rounding (a few ulp), so even the
    # delta kernel is checked to a tolerance rather than bit for bit
    rng = np.random.default_rng(91)
    u0 = rng.random((16, 16))
    for spec in (KernelSpec("delta"), KernelSpec("average", 3), KernelSpec("gaussian", 5, 1.2)):
        kernel = make_kernel(spec)
        f = degrade(u0, kernel, sigma=0.0, seed=5)
        assert np.abs(f.ravel() - dense_operator("K", 16, kernel) @ u0.ravel()).max() <= 1e-14


def test_degrade_noise_level_statistics():
    u0 = make_phantom(256)
    k = make_kernel(KernelSpec("delta"))
    sigma = 0.01
    f = degrade(u0, k, sigma, seed=1)
    noise = f - convolve_periodic(u0, k)
    assert abs(noise.std() - sigma) <= 0.05 * sigma
    assert abs(noise.mean()) < 5 * sigma / 256  # zero-mean within 5 standard errors


def test_degrade_is_seed_deterministic():
    u0 = make_phantom(32)
    k = make_kernel(KernelSpec("average", 3))
    a = degrade(u0, k, 0.02, seed=99)
    b = degrade(u0, k, 0.02, seed=99)
    assert np.array_equal(a, b)
    c = degrade(u0, k, 0.02, seed=100)
    assert not np.array_equal(a, c)


def test_degrade_rejects_seeds_outside_the_philox_key_range():
    u0, kernel = make_phantom(8), np.ones((1, 1))
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            degrade(u0, kernel, 0.01, seed)
    assert np.isfinite(degrade(u0, kernel, 0.01, 2**128 - 1)).all()


@pytest.mark.parametrize("seed", [1.5, None, True, np.int64(3)], ids=["float", "none", "bool", "numpy_int64"])
def test_degrade_takes_only_integer_seeds(seed):
    # Philox would truncate the key 1.5 to 1 and give seed 1's bytes
    u0, kernel = make_phantom(8), np.ones((1, 1))
    if isinstance(seed, np.integer):
        assert np.array_equal(degrade(u0, kernel, 0.01, seed), degrade(u0, kernel, 0.01, int(seed)))
    else:
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
            degrade(u0, kernel, 0.01, seed)


def test_degrade_rejects_negative_sigma():
    for sigma in (-0.1, float("nan"), float("inf"), "0.01", True):
        with pytest.raises(ValueError, match=f"sigma must be a finite nonnegative real number, got {sigma!r}"):
            degrade(np.zeros((4, 4)), np.ones((1, 1)), sigma, seed=0)


ENTRY_POINTS = {
    "degrade": lambda u0, kernel: degrade(u0, kernel, 0.0, seed=0),
    "solve-ftvd3": lambda u0, kernel: solve("ftvd3", u0, kernel, SolverConfig(mu=1.0)),
    "solve-ftvd4": lambda u0, kernel: solve("ftvd4", u0, kernel, SolverConfig(mu=1.0)),
    "build_cache": lambda u0, kernel: build_cache(kernel, u0.shape[0]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_degrade_rejects_bad_kernels(entry):
    # every kernel passes build_cache, so each entry point enforces the same rules
    run, u0 = ENTRY_POINTS[entry], np.zeros((4, 4))
    with pytest.raises(ValueError, match="kernel side 5 exceeds grid side 4"):
        run(u0, np.ones((5, 5)) / 25.0)
    for bad, message in (
        (np.ones((2, 2)) / 4.0, "kernel side must be odd, got 2"),
        (np.ones((1, 3)) / 3.0, r"kernel must be a square 2-D array, got shape \(1, 3\)"),
        (np.ones(3) / 3.0, r"kernel must be a square 2-D array, got shape \(3,\)"),
        (np.full((3, 3), np.nan), "kernel taps must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            run(u0, bad)


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
        kernel=KernelSpec("delta"),
        sigma=0.0,
        mu=1e18, beta_schedule=(1.0,),
    )
    trace = run_experiment(cfg)
    assert trace.records[-1].snr_db == 300.0
    assert best_iterate(trace) == len(trace.records) - 1 == 0


def test_run_experiment_outputs(ground_truth_file, tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        input_path=ground_truth_file,
        output_dir=out,
        solver="ftvd3",
        kernel=KernelSpec("average", 3),
        sigma=0.01,
        save_intermediates=True,
        seed=2,
        mu="auto", beta_schedule=(1.0, 4.0, 16.0, 64.0),
    )
    trace = run_experiment(cfg)

    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == TRACE_HEADER
    assert len(rows) - 1 == len(trace.records) == 4

    for name in ("best.pgm", "final.pgm", "best_u1.pgm", "best_u2.pgm", "final_u1.pgm", "final_u2.pgm"):
        img = read_pgm(out / name)
        assert img.shape == (32, 32)
    for rec in trace.stage_records:
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
        mu="auto", tv_variant=tv_variant,
    )
    trace = run_experiment(cfg)
    best = best_iterate(trace)
    assert best < len(trace.records) - 1
    iters = sorted(out.glob("iter_*.pgm"))
    assert len(iters) == len(trace.records)
    assert (out / f"iter_{best:04}.pgm").read_bytes() == (out / "best.pgm").read_bytes()
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
        kernel=KernelSpec("average", 3),
        sigma=0.01,
        mu="auto", max_multiplier_updates=5, tol=1e-12,
    )
    trace = run_experiment(cfg)
    with open(tmp_path / "rt" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, rec in zip(rows, trace.records):
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
            kernel=KernelSpec("average", 5),
            sigma=0.01,
            seed=11,
            mu="auto", max_multiplier_updates=40,
        )
        run_experiment(cfg)
        return tmp_path / d

    a, b = go("a"), go("b")
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "best.pgm").read_bytes() == (b / "best.pgm").read_bytes()


def test_default_experiment_summary_reports_earlier_best(tmp_path):
    # the standard 128x128 protocol: best iterate lands strictly before the
    # final continuation step and scores at least as well
    gt = tmp_path / "gt128.pgm"
    write_pgm(gt, make_phantom(128))
    trace = run_experiment(ExperimentConfig(input_path=gt, output_dir=tmp_path / "dflt"))
    best = best_iterate(trace)
    assert best < len(trace.records) - 1
    assert trace.records[best].snr_db - trace.records[-1].snr_db >= 0.0


def test_auto_mu_requires_noise(ground_truth_file, tmp_path):
    cfg = ExperimentConfig(input_path=ground_truth_file, output_dir=tmp_path / "x", sigma=0.0)
    with pytest.raises(ValueError):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("solver", "ftvd5", "unknown solver 'ftvd5'"),
        ("kernel", "average:3", "kernel must be a KernelSpec, got 'average:3'"),
        ("sigma", "0.01", "sigma must be a finite nonnegative real number, got '0.01'"),
    ],
    ids=["unknown_solver", "kernel_str", "sigma_str"],
)
def test_bad_config_rejected_before_output_dir(ground_truth_file, tmp_path, field, value, message):
    cfg = ExperimentConfig(input_path=ground_truth_file, output_dir=tmp_path / "y", **{field: value})
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert not (tmp_path / "y").exists()
