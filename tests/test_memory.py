"""Each solve's allocation peak, pinned.

The four solves (ftvd3/ftvd4 x iso/aniso) run the standard protocol at 128²
(phantom, ``average:9``, sigma 0.01, mu 500, seed 7) under ``tracemalloc``,
which counts every block numpy and Python allocate.  That peak repeats to
within about 10 KB in every process, whereas the process RSS moves by
megabytes with allocation order alone, so a change that raises a peak fails
here instead of hiding in RSS noise.  Each peak may exceed its pin by at
most a quarter plane (one plane is n²·8 bytes).  ftvd3-aniso runs at 256²
as well: at 128² its peak is not set in the w-step, so a w-step that
allocates one plane more shows only at the larger size.

The pins were measured with numpy 2.4.6 on Python 3.11.7.  To re-pin them
(after a change that lowers a peak, or on another numpy), run
``PYTHONPATH=src python tests/test_memory.py`` and copy the printed bytes
into ``PINNED_PEAKS``.
"""

import tracemalloc

import pytest

from tvdeblur import KernelSpec, SolverConfig, degrade, make_kernel, make_phantom, solve

PINNED_PEAKS = {
    ("ftvd3", "iso", 128): 2_711_103,
    ("ftvd3", "aniso", 128): 2_704_840,
    ("ftvd4", "iso", 128): 3_312_736,
    ("ftvd4", "aniso", 128): 3_320_920,
    ("ftvd3", "aniso", 256): 10_186_496,
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


@pytest.mark.parametrize("method, tv_variant, n", PINNED_PEAKS, ids=[f"{m}-{v}-{n}" for m, v, n in PINNED_PEAKS])
def test_solve_allocation_peak_is_pinned(method, tv_variant, n):
    peak, pinned, plane = solve_peak(method, tv_variant, n), PINNED_PEAKS[method, tv_variant, n], n * n * 8
    assert peak <= pinned + plane // 4, f"peak {peak / plane:.2f} planes, pinned {pinned / plane:.2f}"


if __name__ == "__main__":
    for method, tv_variant, n in PINNED_PEAKS:
        print(f'    ("{method}", "{tv_variant}", {n}): {solve_peak(method, tv_variant, n):_},')
