"""The command-line contract of `tvdeblur deblur`, property-tested.

Whatever the options, a run exits 0, 1 (bad input) or 2 (numerical
failure).  A failure prints exactly one `error:` or `numerical failure:`
line and no warning, and a run rejected as bad input leaves no output
directory.  A successful run scores finite SNRs, and rerunning it gives
byte-identical files.  Examples are derandomized so that every run checks
the same cases; temp dirs come from `tempfile`, since one function-scoped
`tmp_path` would be shared by all examples.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdeblur import cli, make_phantom, write_pgm

CONTRACT_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def run_cli(argv):
    """``cli.main(argv)`` with its exit code, stdout, stderr and every warning it raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def decades(lo=-330, hi=330):
    """Positive numbers as text, from below the smallest subnormal (parses to 0) to beyond the largest float.

    Half of them lie within four decades of 1, where most runs succeed.
    """
    exponents = st.one_of(st.integers(max(lo, -4), min(hi, 4)), st.integers(lo, hi))
    return st.builds(lambda m, e: f"{m}e{e}", st.integers(1, 9), exponents)


def maybe(strategy):
    return st.one_of(st.none(), strategy)


odd_sides = st.integers(0, 4).map(lambda k: 2 * k + 1)
kernels = st.one_of(
    st.just("delta"),
    odd_sides.map(lambda m: f"average:{m}"),
    st.builds(lambda m, w: f"gaussian:{m}:{w}", odd_sides, st.one_of(st.just("1.5"), decades())),
)
schedules = st.lists(st.integers(-330, 330), min_size=1, max_size=3, unique=True).map(
    lambda exps: ",".join(f"1e{e}" for e in sorted(exps))
)
# Zeros, values that break a rule and text that does not parse; each example sets at most one
EDGE_OPTIONS = [
    ("--sigma", "0"), ("--mu", "0"), ("--beta-fixed", "0"), ("--beta-schedule", "0"), ("--tol", "0"), ("--sigma", "-1"), ("--sigma", "nan"), ("--sigma", "inf"), ("--mu", "-1"), ("--mu", "nan"), ("--mu", "x"),
    ("--beta-fixed", "0"), ("--beta-fixed", "inf"), ("--beta-schedule", "4,2"), ("--beta-schedule", "1,nan"),
    ("--tol", "1"), ("--tol", "-1"), ("--kernel", "average:4"), ("--kernel", "average:17"), ("--kernel", "gaussian:3:0"),
    ("--max-inner-iters", "0"), ("--max-inner-iters", "1.5"), ("--max-multiplier-updates", "-1"),
    ("--seed", "-1"), ("--seed", str(2**128)), ("--seed", "1.5"), ("--seed", "x"), ("--solver", "ftvd5"), ("--kernel", "box:3"),
]

# The caps are always set, so that no example runs the default 100 x 11 alternations, and the
# kernel, so that the default average:9 does not reject every grid below 9 x 9
options = st.fixed_dictionaries(
    {
        "--solver": maybe(st.sampled_from(["ftvd3", "ftvd4"])),
        "--tv-variant": maybe(st.sampled_from(["iso", "aniso"])),
        "--kernel": kernels,
        "--sigma": maybe(decades()),
        "--mu": maybe(st.one_of(st.just("auto"), decades())),
        "--beta-schedule": maybe(schedules),
        "--beta-fixed": maybe(decades()),
        "--tol": maybe(decades(hi=-1)),
        "--max-inner-iters": st.integers(1, 6).map(str),
        "--max-multiplier-updates": st.integers(1, 6).map(str),
        "--seed": maybe(st.integers(0, 2**128 - 1).map(str)),
    }
)


def snapshot(directory):
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*"))}


@CONTRACT_SETTINGS
@given(
    n=st.integers(2, 16),
    image_seed=st.integers(0, 3),
    opts=options,
    edge=maybe(st.sampled_from(EDGE_OPTIONS)),
    save=st.booleans(),
)
def test_deblur_exits_cleanly_on_any_options(n, image_seed, opts, edge, save):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gt, out = tmp / "gt.pgm", tmp / "out"
        write_pgm(gt, np.random.default_rng(image_seed).random((n, n)))
        argv = ["deblur", "--input-path", str(gt), "--output-dir", str(out)]
        if edge is not None:
            opts = {**opts, edge[0]: edge[1]}
        for name, value in opts.items():
            if value is not None:
                argv += [name, value]
        if save:
            argv.append("--save-intermediates")

        code, stdout, stderr, caught = run_cli(argv)
        assert caught == []
        assert code in (0, 1, 2)
        if code:
            assert stdout == ""
            lines = stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: " if code == 1 else "numerical failure: ")
            if code == 1:
                assert not out.exists()
            return

        assert stderr == ""
        summary = (out / "summary.txt").read_text().splitlines()
        snrs = [float(line.split(": ")[1]) for line in summary if line.startswith(("best snr", "final snr"))]
        assert len(snrs) == 2 and all(math.isfinite(s) for s in snrs)
        rerun = tmp / "rerun"
        assert run_cli(argv[:4] + [str(rerun)] + argv[5:])[:3] == (0, stdout, "")
        assert snapshot(rerun) == snapshot(out)


BASE = "deblur --input-path {gt} --output-dir {out} --kernel average:3"


@pytest.mark.parametrize(
    "argv, name",
    [
        ("deblur --output-dir {out}", "--input-path"),
        (BASE + " --bogus 1", "--bogus"),
        (BASE + " --sigma", "--sigma"),
        (BASE + " --solver ftvd5", "--solver"),
        (BASE + " --tv-variant huber", "--tv-variant"),
        (BASE + " --kernel box:3", "--kernel"),
        (BASE + " --kernel average:4", "kernel"),
        (BASE + " --kernel average:17", "kernel"),
        (BASE + " --sigma abc", "--sigma"),
        (BASE + " --sigma -1", "sigma"),
        (BASE + " --sigma 1e-300", "sigma"),
        (BASE + " --sigma nan --mu 500", "sigma"),
        (BASE + " --mu abc", "--mu"),
        (BASE + " --mu 0", "mu"),
        (BASE + " --mu -inf", "mu"),
        (BASE + " --beta-schedule 1,x", "--beta-schedule"),
        (BASE + " --beta-schedule 4,2", "beta_schedule"),
        (BASE + " --beta-schedule ,", "beta_schedule"),
        (BASE + " --beta-fixed x", "--beta-fixed"),
        (BASE + " --beta-fixed 0", "beta_fixed"),
        (BASE + " --tol x", "--tol"),
        (BASE + " --tol 1", "tol"),
        (BASE + " --max-inner-iters 1.5", "--max-inner-iters"),
        (BASE + " --max-inner-iters 0", "max_inner_iters"),
        (BASE + " --max-multiplier-updates 0", "max_multiplier_updates"),
        (BASE + " --seed x", "--seed"),
        (BASE + " --seed -1", "seed"),
        (BASE + f" --seed {2**128}", "seed"),
    ],
)
def test_one_bad_option_gives_one_line_naming_it(tmp_path, argv, name):
    paths = {"gt": tmp_path / "gt.pgm", "out": tmp_path / "o"}
    write_pgm(paths["gt"], make_phantom(16))
    code, stdout, stderr, caught = run_cli([arg.format(**paths) for arg in argv.split()])
    assert (code, stdout, caught) == (1, "", [])
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert not paths["out"].exists()
