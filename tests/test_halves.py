"""The two-halves split of the alternation's full-plane passes (``tvdeblur.halves``).

A split pass must give the bits a one-thread pass gives, so each test
forces the split on small planes: the threshold goes to 0 and the CPU count
to 2, a test-only override (on a one-CPU host the halves still run on two
threads, only more slowly).  The guard rails run in fresh interpreters,
where starting no thread, a fork and a narrowed CPU affinity act on that
process alone.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tvdeblur
from tvdeblur import KernelSpec, SolverConfig, degrade, halves, make_kernel, make_phantom, solve, write_trace_csv

SRC = str(Path(tvdeblur.__file__).resolve().parents[1])
ARRAYS = ("u", "w", "lam")


@pytest.fixture()
def split(monkeypatch):
    monkeypatch.setattr(halves, "SPLIT_MIN_PIXELS", 0)
    monkeypatch.setattr(halves, "_cpus", lambda: 2)


def run_in_fresh_python(script, timeout=120):
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


def solve_case(method, tv_variant, n):
    u0 = make_phantom(n)
    kernel = make_kernel(KernelSpec("average", 5))
    f = degrade(u0, kernel, 0.01, seed=3)
    return solve(method, f, kernel, SolverConfig(mu=500.0, tv_variant=tv_variant), ground_truth=u0)


@pytest.mark.parametrize("n", [24, 37])
@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
@pytest.mark.parametrize("method", ["ftvd3", "ftvd4"])
def test_split_solve_matches_the_inline_solve_bit_for_bit(tmp_path, monkeypatch, method, tv_variant, n):
    inline = solve_case(method, tv_variant, n)
    monkeypatch.setattr(halves, "SPLIT_MIN_PIXELS", 0)
    monkeypatch.setattr(halves, "_cpus", lambda: 2)
    split = solve_case(method, tv_variant, n)
    assert any(t.name == "tvdeblur-half" for t in threading.enumerate())
    assert len(split.records) == len(inline.records) and split.converged == inline.converged
    for a, b in zip(inline.records, split.records):
        for name in ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None) and (x is None or np.array_equal(x, y)), name
        assert {k: v for k, v in vars(a).items() if k not in ARRAYS} == {k: v for k, v in vars(b).items() if k not in ARRAYS}
    write_trace_csv(tmp_path / "inline.csv", inline)
    write_trace_csv(tmp_path / "split.csv", split)
    assert (tmp_path / "inline.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()


def test_split_passes_match_numpy_bit_for_bit(split):
    # odd and even n; the field is plane-major (from forward_diff) and interleaved (C-ordered)
    from tvdeblur import divergence_adjoint, forward_diff, shrink
    from tvdeblur.spectral import _irfft2, _rfft2

    rng = np.random.default_rng(29)
    for n in (5, 16, 33):
        u = rng.standard_normal((n, n))
        spec = np.fft.rfft2(u)
        assert np.array_equal(_rfft2(u), spec)
        assert np.array_equal(_irfft2(spec), np.fft.irfft2(spec, s=(n, n)))
        g = forward_diff(u)
        assert np.array_equal(g, np.stack([np.roll(u, -1, axis=1) - u, np.roll(u, -1, axis=0) - u], axis=-1))
        for field in (g, np.ascontiguousarray(g)):
            gx, gy = field[..., 0], field[..., 1]
            expected = (np.roll(gx, 1, axis=1) - gx) + (np.roll(gy, 1, axis=0) - gy)
            assert np.array_equal(divergence_adjoint(field), expected)
            for variant in ("iso", "aniso"):
                with pytest.MonkeyPatch.context() as inline:
                    inline.setattr(halves, "SPLIT_MIN_PIXELS", 10**18)
                    expected_w, expected_sum = shrink(field, 0.3, variant)
                w, norm_sum = shrink(field, 0.3, variant)
                assert np.array_equal(w, expected_w) and norm_sum == expected_sum


def test_split_solve_that_diverges_raises_floating_point_error(split):
    # mu * |K|^2 overflows and the u-step's update on the worker's half meets inf / inf: solve's errstate
    # must hold on that thread too, or the pytest warning filter turns the RuntimeWarning into the error
    u0 = make_phantom(16)
    kernel = make_kernel(KernelSpec("average", 3))
    message = r"^the solve diverged at stage 0 \(beta 1\.0\), inner iteration 1: relative change nan$"
    with pytest.raises(FloatingPointError, match=message):
        solve("ftvd3", degrade(u0, kernel, 0.01, seed=0), kernel, SolverConfig(mu=1e308))


def test_an_exception_in_the_workers_half_reaches_the_caller(split):
    def fail_above(lo, hi):
        if lo > 0:
            raise KeyError(f"rows {lo}:{hi}")

    with pytest.raises(KeyError, match="rows 5:10"):
        halves.run(fail_above, 10, 100)
    seen = []
    halves.run(lambda lo, hi: seen.append((lo, hi)), 10, 100)  # the worker is still there, and free
    assert sorted(seen) == [(0, 5), (5, 10)]


def test_concurrent_solves_share_the_worker_and_keep_their_bits(split):
    # more calling threads than cores, switching often: a caller that finds the worker busy runs its pass
    # whole, and no caller may read a half that another caller's task wrote
    expected = [vars(r) for r in solve_case("ftvd3", "aniso", 24).records]
    results, interval = [], sys.getswitchinterval()

    def work():
        for _ in range(3):
            results.append([vars(r) for r in solve_case("ftvd3", "aniso", 24).records])

    threads = [threading.Thread(target=work) for _ in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    scalars = [[{k: v for k, v in r.items() if k not in ARRAYS} for r in run] for run in [expected, *results]]
    assert len(results) == 12 and all(run == scalars[0] for run in scalars[1:])


SOLVE_16 = """
from tvdeblur import KernelSpec, SolverConfig, degrade, halves, make_kernel, make_phantom, solve
u0 = make_phantom(16)
kernel = make_kernel(KernelSpec("average", 3))
f = degrade(u0, kernel, 0.01, seed=0)
def digest():
    return [r.objective_tv for r in solve("ftvd3", f, kernel, SolverConfig(mu=500.0)).records]
"""


def test_import_and_a_solve_below_the_threshold_start_no_thread():
    out = run_in_fresh_python(
        "import sys, threading\nimport tvdeblur\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        + SOLVE_16
        + "digest()\nprint(threading.active_count())\n"
    )
    assert out.split() == ["1", "False", "1"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_finishes_a_split_solve_its_parent_ran():
    # the child inherits no worker thread; it must start its own, not wait on the parent's forever
    out = run_in_fresh_python(
        SOLVE_16
        + """
import os, signal, time
halves.SPLIT_MIN_PIXELS, halves._cpus = 0, lambda: 2
expected = digest()
pid = os.fork()
if pid == 0:
    os._exit(0 if digest() == expected else 3)
deadline = time.monotonic() + 60
while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
    time.sleep(0.01)
if done[0] == 0:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    print("hung")
else:
    print("exit", os.waitstatus_to_exitcode(done[1]))
""",
        timeout=120,
    )
    assert out.split() == ["exit", "0"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_process_on_one_cpu_starts_no_worker():
    # the affinity call narrows this fresh interpreter only; the threshold is lowered, the CPU count is not
    out = run_in_fresh_python(
        "import os, threading\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        + SOLVE_16
        + "halves.SPLIT_MIN_PIXELS = 0\ndigest()\nprint(threading.active_count())\n"
    )
    assert out.split() == ["1"]
