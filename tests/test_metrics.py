import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvdeblur
from tvdeblur import IterateRecord, IterateTrace, best_iterate, make_phantom, rel_change, snr_db, write_pgm


def test_equal_images_hit_the_cap():
    rng = np.random.default_rng(61)
    ref = rng.random((8, 8))
    assert snr_db(ref.copy(), ref) == 300.0


def test_constant_offset_closed_form():
    rng = np.random.default_rng(62)
    n = 16
    ref = rng.standard_normal((n, n))
    ref -= ref.mean()
    ref /= ref.std()
    # offset c: snr = 10 log10(var / c^2) with var = 1
    for c in (1.0, 0.5, 3.0):
        expected = 10.0 * np.log10(1.0 / c**2)
        assert abs(snr_db(ref + c, ref) - expected) < 1e-9


def test_doubling_the_error_costs_six_db():
    rng = np.random.default_rng(63)
    ref = rng.random((8, 8))
    err = rng.standard_normal((8, 8))
    drop = snr_db(ref + err, ref) - snr_db(ref + 2 * err, ref)
    assert abs(drop - 20.0 * np.log10(2.0)) < 1e-10


def test_constant_reference_is_degenerate():
    with pytest.raises(ValueError, match="reference image is constant"):
        snr_db(np.zeros((4, 4)), np.full((4, 4), 0.3))


def test_reference_must_be_an_image():
    # a row would broadcast against u and score every row of u against it
    u = np.random.default_rng(66).random((8, 8))
    with pytest.raises(ValueError):
        snr_db(u, u[0])


def test_snr_invariant_under_common_shift():
    rng = np.random.default_rng(64)
    ref = rng.random((8, 8))
    u = ref + 0.1 * rng.standard_normal((8, 8))
    assert abs(snr_db(u, ref) - snr_db(u + 5.0, ref + 5.0)) < 1e-9


def test_snr_decreases_with_noise_amplitude():
    rng = np.random.default_rng(65)
    ref = rng.random((16, 16))
    noise = rng.standard_normal((16, 16))
    values = [snr_db(ref + a * noise, ref) for a in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_rel_change_values():
    rng = np.random.default_rng(66)
    u = rng.random((8, 8))
    assert rel_change(u, u) == 0.0
    assert abs(rel_change(1.01 * u, u) - 0.01) < 1e-12
    # guarded denominator path
    z = np.zeros((4, 4))
    v = np.full((4, 4), 1e-6)
    assert rel_change(v, z) == np.linalg.norm(v) / 1e-12


def test_rel_change_does_not_depend_on_the_blas_thread_count():
    # a threaded BLAS dot product splits its sum by thread, so the last digits of
    # a 512² norm would move with OPENBLAS_NUM_THREADS, and trace.csv with them;
    # 1 and 2 threads give the same BLAS sum at some seeds, so four are compared
    code = (
        "import numpy as np; from tvdeblur import rel_change\n"
        "for seed in range(4):\n"
        "    rng = np.random.default_rng(seed); a = rng.random((512, 512))\n"
        "    print(repr(rel_change(a + 1e-3 * rng.standard_normal((512, 512)), a)))"
    )
    outs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(tvdeblur.__file__).resolve().parents[1]),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_rel_change_is_nan_when_the_norm_overflows():
    # ||u_old||^2 overflows, so num / inf would read 0.0 and stop a solve as converged
    big = np.full((4, 4), 1e160)
    with np.errstate(over="ignore"):
        assert np.isnan(rel_change(1.5 * big, big))


def _fake_trace(snrs):
    n = 2
    records = []
    for i, s in enumerate(snrs):
        records.append(
            IterateRecord(
                stage_index=i,
                inner_iter=1,
                beta=1.0,
                u=np.zeros((n, n)),
                w=np.zeros((n, n, 2)),
                lam=None,
                snr_db=s,
                objective_tv=1.0,
                penalty_objective=1.0,
                constraint_residual=0.0,
                rel_change=0.0,
            )
        )
    return IterateTrace(records=records, converged=True)


def test_best_iterate_single_record():
    assert best_iterate(_fake_trace([5.0])) == 0


def test_best_iterate_earliest_tie():
    assert best_iterate(_fake_trace([3.0, 7.0, 7.0, 5.0])) == 1


def test_best_iterate_stable_under_appending_worse():
    trace = _fake_trace([3.0, 7.0, 5.0])
    idx = best_iterate(trace)
    longer = _fake_trace([3.0, 7.0, 5.0, 4.0, 2.0])
    assert best_iterate(longer) == idx


def test_best_iterate_missing_scores():
    with pytest.raises(ValueError, match="trace records carry no snr_db"):
        best_iterate(_fake_trace([3.0, None, 5.0]))
    with pytest.raises(ValueError):
        best_iterate(_fake_trace([]))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda u, tmp: write_pgm(tmp / "c.pgm", u + 1j), "image"),
        (lambda u, tmp: snr_db(u + 1j, u), "scored image"),
        (lambda u, tmp: rel_change(u + 1j, u), "u_new"),
        (lambda u, tmp: rel_change(u, u + 1j), "u_old"),
    ],
    ids=["write_pgm", "snr_db", "rel_change_new", "rel_change_old"],
)
def test_complex_arrays_are_refused_by_name(tmp_path, call, name):
    # without the check, the float64 cast drops the imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match=f"{name} must be real"):
        call(make_phantom(8), tmp_path)
    assert not (tmp_path / "c.pgm").exists()
