"""The command-line contract: property-tested for `tvdeblur deblur`, and one table of refusals.

Whatever the options, a run exits 0, 1 (bad input) or 2 (numerical
failure).  A failure prints exactly one `error:` or `numerical failure:`
line and no warning, and a run rejected as bad input leaves no output
directory.  A successful run scores finite SNRs, and rerunning it gives
byte-identical files.  Examples are derandomized so that every run checks
the same cases; temp dirs come from `tempfile`, since one function-scoped
`tmp_path` would be shared by all examples.

``REFUSALS`` lists every refusal of every command by its exact stderr line:
a new one is a row there, not a test of its own.
"""

import contextlib
import importlib.util
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
from tvdeblur.harness import TRACE_HEADER

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

# Each example passes only its solver's own options (deblur refuses the other solver's).  The solver's
# cap is always set, so that no example runs the default 100 x 11 alternations, and the kernel, so that
# the default average:9 does not reject every grid below 9 x 9
SOLVER_OPTIONS = {
    "ftvd3": {"--beta-schedule": maybe(schedules), "--max-inner-iters": st.integers(1, 6).map(str)},
    "ftvd4": {"--beta-fixed": maybe(decades()), "--max-multiplier-updates": st.integers(1, 6).map(str)},
}
options = st.sampled_from([None, "ftvd3", "ftvd4"]).flatmap(
    lambda solver: st.fixed_dictionaries(
        {
            "--solver": st.just(solver),
            "--tv-variant": maybe(st.sampled_from(["iso", "aniso"])),
            "--kernel": kernels,
            "--sigma": maybe(decades()),
            "--mu": maybe(st.one_of(st.just("auto"), decades())),
            "--tol": maybe(decades(hi=-1)),
            "--seed": maybe(st.integers(0, 2**128 - 1).map(str)),
            **SOLVER_OPTIONS[solver or "ftvd3"],
        }
    )
)


def snapshot(directory):
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*"))}


@settings(max_examples=100)  # more than the profile's 60; the rest comes from the profile in conftest.py
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


DEBLUR = "deblur --input-path {d}/gt.pgm --output-dir {d}/o"
BASE = DEBLUR + " --kernel average:3"
FTVD4 = BASE + " --solver ftvd4"
DEGRADE = "degrade --input {d}/gt.pgm --out {d}/o"
# The traces the report rows read, by their snr_db cells, one per stage
TRACES = {
    "header_only.csv": [], "unscored.csv": [""], **{f"snr_{bad}.csv": ["3.0", bad, "5.0"] for bad in ("nan", "inf", "abc")},
}

# Every refusal the CLI makes: the argv, its exit code and its one stderr line.  {d} is the test's
# directory, which holds the inputs written below; {d}/o is the output that must never appear.
REFUSALS = [
    ("deblur --output-dir {d}/o", 1, "error: the following arguments are required: --input-path"),
    (BASE + " --bogus 1", 1, "error: unrecognized arguments: --bogus 1"),
    (BASE + " --sigma", 1, "error: argument --sigma: expected one argument"),
    (BASE + " --solver ftvd5", 1, "error: argument --solver: invalid choice: 'ftvd5' (choose from 'ftvd3', 'ftvd4')"),
    (BASE + " --tv-variant huber", 1, "error: argument --tv-variant: invalid choice: 'huber' (choose from 'iso', 'aniso')"),
    (BASE + " --kernel box:3", 1, "error: argument --kernel: unknown kernel spec 'box:3'"),
    (DEBLUR + " --kernel average:4", 1, "error: argument --kernel: kernel size must be odd and positive, got 4"),
    (DEBLUR + " --kernel average:17", 1, "error: kernel side 17 exceeds grid side 16"),
    (DEBLUR + " --kernel gaussian:3:1e-300", 1,
     "error: argument --kernel: gaussian width must be positive and finite with 2*width^2 > 0, got 1e-300"),
    (BASE + " --sigma abc", 1, "error: argument --sigma: invalid float value: 'abc'"),
    (BASE + " --sigma -1", 1, "error: sigma must be a finite nonnegative real number, got -1.0"),
    (BASE + " --sigma -1e5", 1, "error: sigma must be a finite nonnegative real number, got -100000.0"),
    (DEBLUR + " --mu 500 --sigma nan", 1, "error: sigma must be a finite nonnegative real number, got nan"),
    # sigma 1e308 is finite, but its noise overflows to inf
    (DEBLUR + " --mu 1 --sigma 1e308", 1, "error: sigma 1e+308 is too large: the noisy observation overflows"),
    (BASE + " --sigma 1e-300", 1,
     "error: mu='auto' needs 0.05/sigma^2 in [1e-14, inf), got sigma 1e-300; pass mu explicitly"),
    (BASE + " --sigma 1e-160", 1,
     "error: mu='auto' needs 0.05/sigma^2 in [1e-14, inf), got sigma 1e-160; pass mu explicitly"),
    (BASE + " --sigma 1e7", 1,
     "error: mu='auto' needs 0.05/sigma^2 in [1e-14, inf), got sigma 10000000.0; pass mu explicitly"),
    (BASE + " --mu abc", 1, "error: argument --mu: could not convert string to float: 'abc'"),
    (BASE + " --mu 0", 1, "error: mu must be positive and finite, got 0.0"),
    # a negative number in exponent or inf form is a value that reaches its rule, not an unknown option
    (BASE + " --mu -inf", 1, "error: mu must be positive and finite, got -inf"),
    (BASE + " --mu -1e-3", 1, "error: mu must be positive and finite, got -0.001"),
    (DEBLUR + " --mu inf", 1, "error: mu must be positive and finite, got inf"),
    (BASE + " --beta-schedule 1,x", 1, "error: argument --beta-schedule: could not convert string to float: 'x'"),
    (DEBLUR + " --beta-schedule 4,2", 1, "error: beta_schedule must be strictly ascending"),
    (BASE + " --beta-schedule ,", 1, "error: beta_schedule must be a nonempty sequence of real numbers, got ()"),
    (DEBLUR + " --beta-schedule 1,inf", 1,
     "error: beta_schedule entries must be positive and finite with 1/beta finite, got (1.0, inf)"),
    # finite, but shrink's threshold 1/beta is not
    (DEBLUR + " --beta-schedule 1e-320,1", 1,
     "error: beta_schedule entries must be positive and finite with 1/beta finite, got (1e-320, 1.0)"),
    (BASE + " --beta-fixed x", 1, "error: argument --beta-fixed: invalid float value: 'x'"),
    (FTVD4 + " --beta-fixed 0", 1, "error: beta_fixed must be positive and finite with 1/beta finite, got 0.0"),
    (FTVD4 + " --beta-fixed -1e2", 1, "error: beta_fixed must be positive and finite with 1/beta finite, got -100.0"),
    (DEBLUR + " --solver ftvd4 --beta-fixed inf", 1,
     "error: beta_fixed must be positive and finite with 1/beta finite, got inf"),
    (DEBLUR + " --solver ftvd4 --beta-fixed 1e-320", 1,
     "error: beta_fixed must be positive and finite with 1/beta finite, got 1e-320"),
    (BASE + " --tol x", 1, "error: argument --tol: invalid float value: 'x'"),
    (DEBLUR + " --tol 0", 1, "error: tol must lie in (0, 1), got 0.0"),
    (BASE + " --tol 1", 1, "error: tol must lie in (0, 1), got 1.0"),
    (BASE + " --max-inner-iters 1.5", 1, "error: argument --max-inner-iters: invalid int value: '1.5'"),
    (BASE + " --max-inner-iters 0", 1, "error: max_inner_iters must be an integer of at least 1, got 0"),
    (FTVD4 + " --max-multiplier-updates 0", 1, "error: max_multiplier_updates must be an integer of at least 1, got 0"),
    # an option of the other solver is refused whatever its value: the solver would ignore it
    (BASE + " --beta-fixed 1e308", 1, "error: solver ftvd3 does not read --beta-fixed"),
    (BASE + " --solver ftvd3 --max-multiplier-updates 5", 1, "error: solver ftvd3 does not read --max-multiplier-updates"),
    (FTVD4 + " --beta-schedule 1,2", 1, "error: solver ftvd4 does not read --beta-schedule"),
    (FTVD4 + " --max-inner-iters 3 --beta-schedule 0", 1,
     "error: solver ftvd4 does not read --max-inner-iters, --beta-schedule"),
    (BASE + " --seed x", 1, "error: argument --seed: invalid int value: 'x'"),
    (DEBLUR + " --seed -1", 1, "error: seed must lie in [0, 2**128), got -1"),
    (DEBLUR + f" --seed {2**128}", 1, f"error: seed must lie in [0, 2**128), got {2**128}"),
    ("deblur --input-path {d}/flat.pgm --output-dir {d}/o", 1, "error: ground truth is constant"),
    ("deblur --input-path {d}/truncated.pgm --output-dir {d}/o", 1,
     "error: {d}/truncated.pgm: truncated PGM raster: expected 512 bytes for 16x16, found 100"),
    # an 8-bit sample of 255 under maxval 100 would load as 2.55
    ("deblur --input-path {d}/over_maxval.pgm --output-dir {d}/o", 1,
     "error: {d}/over_maxval.pgm: largest PGM sample 255 exceeds maxval 100"),
    ("deblur --input-path {d}/ --output-dir {d}/o", 1, "error: {d}: is a directory, not an image file"),
    # a PGM by content, but no suffix tells the format
    ("deblur --input-path {d}/gt --output-dir {d}/o", 1,
     "error: {d}/gt: has no image suffix (.pgm, or .png and the like with Pillow)"),
    # a missing .png is named as missing, as a .pgm is, not blamed on Pillow, whether or not that is installed
    ("deblur --input-path {d}/missing.png --output-dir {d}/o", 1,
     "error: [Errno 2] No such file or directory: '{d}/missing.png'"),
    pytest.param(
        "deblur --input-path {d}/empty.png --output-dir {d}/o", 1,
        "error: loading .png files requires Pillow (pip install tvdeblur[png])",
        marks=pytest.mark.skipif(importlib.util.find_spec("PIL") is not None, reason="Pillow is installed"),
    ),
    (DEBLUR + " --mu 1e-300", 2,
     "numerical failure: frequency-domain denominator mu |K^|^2 + beta |D^|^2 reaches 1.000e-300 at mu 1e-300, beta 1.0: "
     "mu is too small or the kernel has (near-)zero flux"),
    (DEBLUR + " --sigma 1e200 --mu 1", 2,
     "numerical failure: the solve diverged at stage 0 (beta 1.0), inner iteration 1: relative change nan"),
    (DEBLUR + " --mu 1e308", 2,
     "numerical failure: the solve diverged at stage 0 (beta 1.0), inner iteration 1: relative change nan"),
    # beta_fixed is ftvd4's; beta |D^|^2 passes the float64 range
    (DEBLUR + " --solver ftvd4 --beta-fixed 1e308", 2,
     "numerical failure: frequency-domain denominator mu |K^|^2 + beta |D^|^2 overflows at mu 500.0, beta 1e+308"),
    ("degrade --input {d}/nope.pgm --out {d}/o", 1, "error: [Errno 2] No such file or directory: '{d}/nope.pgm'"),
    ("degrade --input {d}/nope.png --out {d}/o", 1, "error: [Errno 2] No such file or directory: '{d}/nope.png'"),
    (DEGRADE + " --kernel box:3", 1, "error: argument --kernel: unknown kernel spec 'box:3'"),
    (DEGRADE + " --kernel gaussian:3:1e-300", 1,
     "error: argument --kernel: gaussian width must be positive and finite with 2*width^2 > 0, got 1e-300"),
    (DEGRADE + " --sigma 1e308", 1, "error: sigma 1e+308 is too large: the noisy observation overflows"),
    (DEGRADE + " --seed -1", 1, "error: seed must lie in [0, 2**128), got -1"),
    (DEGRADE + f" --seed {2**128}", 1, f"error: seed must lie in [0, 2**128), got {2**128}"),
    ("phantom --size 2 --out {d}/o", 1, "error: phantom needs n >= 4, got 2"),
    ("report --trace {d}/header_only.csv", 1, "error: trace carries no snr scores"),
    ("report --trace {d}/unscored.csv", 1, "error: trace carries no snr scores"),
    ("report --trace {d}/no_stage.csv", 1, "error: {d}/no_stage.csv has no stage_index column"),
    # np.argmax would pick the NaN and report it as the best record; float() alone would name neither file nor row
    ("report --trace {d}/snr_nan.csv", 1, "error: {d}/snr_nan.csv has an snr_db that is not a finite number at stage 1"),
    ("report --trace {d}/snr_inf.csv", 1, "error: {d}/snr_inf.csv has an snr_db that is not a finite number at stage 1"),
    ("report --trace {d}/snr_abc.csv", 1, "error: {d}/snr_abc.csv has an snr_db that is not a finite number at stage 1"),
]


@pytest.mark.parametrize("argv, code, line", REFUSALS)
def test_refused_input_exits_with_one_line_and_writes_nothing(tmp_path, argv, code, line):
    # ValueError, OSError and a usage error are bad input (exit 1), FloatingPointError a numerical failure (exit 2)
    write_pgm(tmp_path / "gt.pgm", make_phantom(16))
    write_pgm(tmp_path / "gt", make_phantom(16))
    write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 0.5))
    (tmp_path / "truncated.pgm").write_bytes(b"P5\n16 16\n65535\n" + bytes(100))
    (tmp_path / "over_maxval.pgm").write_bytes(b"P5 2 2 100\n" + bytes([0, 100, 255, 7]))
    (tmp_path / "empty.png").write_bytes(b"")
    for name, snrs in TRACES.items():
        rows = [f"{i},1,1.0,{snr},1.0,1.0,0.0,0.1" for i, snr in enumerate(snrs)]
        (tmp_path / name).write_text("\n".join([TRACE_HEADER, *rows]) + "\n")
    (tmp_path / "no_stage.csv").write_text("snr_db,rel_change\n7.0,0.1\n")
    inputs = sorted(tmp_path.iterdir())
    result = run_cli([arg.format(d=tmp_path) for arg in argv.split()])
    assert result == (code, "", line.format(d=tmp_path) + "\n", [])
    assert sorted(tmp_path.iterdir()) == inputs
