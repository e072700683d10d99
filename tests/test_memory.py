"""Each solve's allocation peak, pinned, and the page faults of a repeated solve.

The four solves (ftvd3/ftvd4 x iso/aniso) run the standard protocol at 128²
and 256² (phantom, ``average:9``, sigma 0.01, mu 500, seed 7) under
``tracemalloc``, which counts every block numpy and Python allocate.  That
peak repeats to within about 10 KB in every process, whereas the process
RSS moves by megabytes with allocation order alone, so a change that raises
a peak fails here instead of hiding in RSS noise.  Each peak may exceed its
pin by at most a quarter plane (one plane is n²·8 bytes).  Both sizes are
pinned because the peak sits at a different step at each (whether a stage's
SNR beats the best record's decides which arrays are live), so some of
``solve``'s releases show at one size only; undoing any one of them, or
``shrink``'s, fails at least one pin.  Each pin is checked twice: inline, as
these sizes run by default, and with the two-halves split of
``tvdeblur.halves`` forced, whose halves run at the same time.

Importing the solver raises glibc's trim and mmap thresholds, so a
process keeps the heap a solve frees: under glibc, a repeated solve takes
next to no minor page faults (``ru_minflt``), where glibc's defaults cost
thousands.

The pins were measured with numpy 2.4.6 on Python 3.11.7.  To re-pin them
(after a change that lowers a peak, or on another numpy), run
``PYTHONPATH=src python tests/test_memory.py`` and copy the printed bytes
into ``PINNED_PEAKS``.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tvdeblur
from tvdeblur import KernelSpec, SolverConfig, degrade, halves, make_kernel, make_phantom, solve

try:
    GLIBC = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (AttributeError, ValueError, OSError):  # no confstr (Windows), or no such name (not glibc)
    GLIBC = False

PINNED_PEAKS = {
    ("ftvd3", "iso", 128): 2_054_185,
    ("ftvd3", "aniso", 128): 2_047_816,
    ("ftvd4", "iso", 128): 2_588_768,
    ("ftvd4", "aniso", 128): 2_597_032,
    ("ftvd3", "iso", 256): 7_887_444,
    ("ftvd3", "aniso", 256): 7_887_492,
    ("ftvd4", "iso", 256): 8_435_912,
    ("ftvd4", "aniso", 256): 10_018_136,
}


def solve_peak(method, tv_variant, n):
    """The tracemalloc peak, in bytes, of one solve (spectral cache included) at n²."""
    u0 = make_phantom(n)
    kernel = make_kernel(KernelSpec("average", 9))
    f = degrade(u0, kernel, 0.01, seed=7)
    cfg = SolverConfig(mu=500.0, tv_variant=tv_variant)
    tracemalloc.start()
    try:
        solve(method, f, kernel, cfg, ground_truth=u0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("split", [False, True], ids=["inline", "split"])
@pytest.mark.parametrize("method, tv_variant, n", PINNED_PEAKS, ids=[f"{m}-{v}-{n}" for m, v, n in PINNED_PEAKS])
def test_solve_allocation_peak_is_pinned(monkeypatch, method, tv_variant, n, split):
    # with the split forced, both halves of a pass run at once, so a buffer either half allocated, or one
    # the worker let go late, would show; the pins are those of the one-thread solve
    if split:
        monkeypatch.setattr(halves, "SPLIT_MIN_PIXELS", 0)
        monkeypatch.setattr(halves, "_cpus", lambda: 2)
    peak, pinned, plane = solve_peak(method, tv_variant, n), PINNED_PEAKS[method, tv_variant, n], n * n * 8
    assert peak <= pinned + plane // 4, f"peak {peak / plane:.2f} planes, pinned {pinned / plane:.2f}"


# Two identical solves in one fresh process: in the test process, glibc's dynamic thresholds, raised by
# whatever earlier tests freed, could hide the faults.
REPEATED_SOLVE = """
import resource
from tvdeblur import KernelSpec, SolverConfig, degrade, make_kernel, make_phantom, solve
u0 = make_phantom(128)
kernel = make_kernel(KernelSpec("average", 9))
f = degrade(u0, kernel, 0.01, seed=7)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solve("ftvd4", f, kernel, SolverConfig(mu=500.0, tv_variant="aniso"), ground_truth=u0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the solver tunes the heap through glibc's mallopt only")
def test_a_repeated_solve_takes_no_page_faults():
    env = {**os.environ, "PYTHONPATH": str(Path(tvdeblur.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", REPEATED_SOLVE], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    faults = [int(line) for line in run.stdout.split()]
    # with glibc's default thresholds the second solve faults its trimmed heap back in: about 11.6k faults
    assert faults[1] <= 50, faults


if __name__ == "__main__":
    for method, tv_variant, n in PINNED_PEAKS:
        print(f'    ("{method}", "{tv_variant}", {n}): {solve_peak(method, tv_variant, n):_},')
