import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvdeblur
from tvdeblur import ExperimentConfig, cli, harness, read_pgm, write_pgm
from tvdeblur.harness import TRACE_HEADER


def test_full_pipeline(tmp_path, capsys):
    gt = tmp_path / "gt.pgm"
    assert cli.main(["phantom", "--size", "32", "--out", str(gt)]) == 0
    assert read_pgm(gt).shape == (32, 32)

    blurred = tmp_path / "f.pgm"
    rc = cli.main(
        ["degrade", "--input", str(gt), "--out", str(blurred), "--kernel", "average:3", "--sigma", "0.01"]
    )
    assert rc == 0
    assert read_pgm(blurred).shape == (32, 32)

    out = tmp_path / "out"
    rc = cli.main(
        [
            "deblur",
            "--input-path", str(gt),
            "--output-dir", str(out),
            "--solver", "ftvd3",
            "--kernel", "average:3",
            "--sigma", "0.01",
            "--beta-schedule", "1,4,16,64",
            "--save-intermediates",
        ]
    )
    assert rc == 0
    assert (out / "trace.csv").exists()
    assert (out / "best.pgm").exists()
    capsys.readouterr()

    assert cli.main(["report", "--trace", str(out / "trace.csv")]) == 0
    text = capsys.readouterr().out
    assert "best record" in text
    assert "final record" in text


def test_deblur_ftvd4(tmp_path):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "32", "--out", str(gt)])
    rc = cli.main(
        [
            "deblur",
            "--input-path", str(gt),
            "--output-dir", str(tmp_path / "o4"),
            "--solver", "ftvd4",
            "--kernel", "average:3",
            "--sigma", "0.01",
            "--max-multiplier-updates", "20",
        ]
    )
    assert rc == 0


def test_usage_error_exits_one(capsys):
    assert cli.main(["deblur", "--output-dir", "x"]) == 1  # missing --input-path
    assert capsys.readouterr().err == "error: the following arguments are required: --input-path\n"


def test_bad_kernel_spec_exits_one(tmp_path, capsys):
    assert cli.main(["degrade", "--input", "a.pgm", "--out", "b.pgm", "--kernel", "box:3"]) == 1
    assert capsys.readouterr().err == "error: argument --kernel: unknown kernel spec 'box:3'\n"


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["deblur", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tvdeblur deblur")


def test_missing_input_file_returns_one(tmp_path):
    rc = cli.main(["degrade", "--input", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "f.pgm")])
    assert rc == 1


def test_numerical_failure_returns_two(tmp_path, monkeypatch):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])

    def boom(cfg):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def test_report_without_scores_returns_one(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("stage_index,inner_iter,beta,snr_db,objective_tv,penalty_objective,constraint_residual,rel_change\n")
    assert cli.main(["report", "--trace", str(trace)]) == 1


def test_report_picks_the_earliest_best_record(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rows = [f"{i},1,1.0,{snr},1.0,1.0,0.0,0.1" for i, snr in enumerate((3.0, 7.0, 7.0, 5.0))]
    trace.write_text("\n".join([TRACE_HEADER, *rows]) + "\n")
    assert cli.main(["report", "--trace", str(trace)]) == 0
    assert "best record: stage 1 snr 7.0000 dB" in capsys.readouterr().out


def test_report_without_stage_column_exits_one(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("snr_db,rel_change\n7.0,0.1\n")
    assert cli.main(["report", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == f"error: {trace} has no stage_index column\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "abc"])
def test_report_with_non_finite_snr_exits_one(tmp_path, capsys, bad):
    # np.argmax would pick the NaN and report it as the best record; float() alone would name neither file nor row
    trace = tmp_path / "trace.csv"
    rows = [f"{i},1,1.0,{snr},1.0,1.0,0.0,0.1" for i, snr in enumerate(("3.0", bad, "5.0"))]
    trace.write_text("\n".join([TRACE_HEADER, *rows]) + "\n")
    assert cli.main(["report", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {trace} has an snr_db that is not a finite number at stage 1\n"


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 26.8 GiB"), "error: out of memory: Unable to allocate 26.8 GiB"),
        (MemoryError(), "error: out of memory"),
    ],
    ids=["numpy_message", "bare"],
)
def test_memory_exhaustion_exits_one_with_one_line(tmp_path, capsys, monkeypatch, exc, line):
    def exhausted(size):
        raise exc

    monkeypatch.setattr(cli, "make_phantom", exhausted)
    assert cli.main(["phantom", "--size", "60000", "--out", str(tmp_path / "p.pgm")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert not (tmp_path / "p.pgm").exists()


def test_phantom_rejects_tiny_size(tmp_path):
    rc = cli.main(["phantom", "--size", "2", "--out", str(tmp_path / "p.pgm")])
    assert rc == 1


def test_deblur_defaults_are_the_config_defaults(monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise FloatingPointError("stop after parsing")

    monkeypatch.setattr(cli, "run_experiment", capture)
    assert cli.main(["deblur", "--input-path", "gt.pgm", "--output-dir", "out"]) == 2
    assert seen == [ExperimentConfig(input_path="gt.pgm", output_dir="out")]


def test_deblur_solver_flags_go_to_the_solver_config(monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise FloatingPointError("stop after parsing")

    monkeypatch.setattr(cli, "run_experiment", capture)
    argv = [
        "deblur", "--input-path", "gt.pgm", "--output-dir", "out",
        "--mu", "300", "--tv-variant", "aniso", "--tol", "1e-6", "--max-inner-iters", "7",
        "--beta-schedule", "1,8,64", "--beta-fixed", "5", "--max-multiplier-updates", "30",
    ]
    assert cli.main(argv) == 2
    assert seen == [ExperimentConfig(
        input_path="gt.pgm",
        output_dir="out",
        mu=300.0,
        tv_variant="aniso",
        tol=1e-6,
        max_inner_iters=7,
        beta_schedule=(1.0, 8.0, 64.0),
        beta_fixed=5.0,
        max_multiplier_updates=30,
    )]


def test_degrade_defaults_are_the_deblur_defaults(monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise FloatingPointError("stop after parsing")

    monkeypatch.setattr(cli, "run_experiment", capture)
    cli.main(["deblur", "--input-path", "gt.pgm", "--output-dir", "out"])
    args = cli.build_parser().parse_args(["degrade", "--input", "gt.pgm", "--out", "f.pgm"])
    assert (args.kernel, args.sigma, args.seed) == (seen[0].kernel, seen[0].sigma, seen[0].seed)


@pytest.mark.parametrize(
    "extra, name",
    [
        (["--mu", "inf"], "mu"),
        (["--beta-fixed", "inf"], "beta_fixed"),
        (["--beta-schedule", "1,inf"], "beta_schedule"),
        (["--mu", "500", "--sigma", "nan"], "sigma"),
    ],
)
def test_deblur_rejects_non_finite_parameters(tmp_path, capsys, extra, name):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])
    capsys.readouterr()
    rc = cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(tmp_path / "o")] + extra)
    assert rc == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--tol", "0"], ["--beta-schedule", "4,2"]])
def test_deblur_rejected_config_writes_no_output_dir(tmp_path, capsys, extra):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])
    out = tmp_path / "o"
    assert cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(out)] + extra) == 1
    assert not out.exists()
    capsys.readouterr()


def test_deblur_constant_ground_truth_writes_no_output_dir(tmp_path, capsys):
    gt = tmp_path / "gt.pgm"
    write_pgm(gt, np.full((16, 16), 0.5))
    out = tmp_path / "o"
    assert cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(out)]) == 1
    assert "constant" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["degrade", "deblur"])
@pytest.mark.parametrize(
    "extra, name",
    [(["--kernel", "gaussian:3:1e-300"], "width"), (["--seed", "-1"], "seed"), (["--seed", str(2**128)], "seed")],
    ids=["underflowing_width", "negative_seed", "seed_2_128"],
)
def test_bad_kernel_width_or_seed_exits_one_and_writes_nothing(tmp_path, capsys, command, extra, name):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])
    capsys.readouterr()
    out = tmp_path / "o"
    argv = {
        "degrade": ["degrade", "--input", str(gt), "--out", str(out)],
        "deblur": ["deblur", "--input-path", str(gt), "--output-dir", str(out)],
    }[command]
    assert cli.main(argv + extra) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, cause",
    [(["--mu", "1e-300"], "mu 1e-300"), (["--sigma", "1e200", "--mu", "1"], "diverged at stage 0")],
    ids=["tiny_mu", "huge_sigma"],
)
def test_deblur_numerical_failure_in_stage_zero_writes_no_output_dir(tmp_path, capsys, extra, cause):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])
    capsys.readouterr()
    out = tmp_path / "o"
    assert cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(out)] + extra) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and cause in err[0]
    assert not out.exists()


def test_deblur_divergence_exits_two(tmp_path, capsys):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])
    with np.errstate(all="ignore"):
        rc = cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(tmp_path / "o"), "--mu", "1e308"])
    assert rc == 2
    assert "diverged" in capsys.readouterr().err


def test_deblur_truncated_input_exits_one(tmp_path, capsys):
    gt = tmp_path / "gt.pgm"
    gt.write_bytes(b"P5\n16 16\n65535\n" + bytes(100))
    rc = cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["degrade", "deblur"])
def test_oversized_kernel_spec_exits_one_before_building_taps(tmp_path, capsys, monkeypatch, command):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])
    capsys.readouterr()

    def never(spec):
        raise AssertionError(f"make_kernel({spec}) ran for a kernel larger than the image")

    monkeypatch.setattr(harness, "make_kernel", never)  # both commands reach the taps through harness.observe
    out = str(tmp_path / "o")
    argv = {
        "degrade": ["degrade", "--input", str(gt), "--out", out],
        "deblur": ["deblur", "--input-path", str(gt), "--output-dir", out],
    }[command]
    assert cli.main(argv + ["--kernel", "average:2001"]) == 1
    assert "error: kernel side 2001 exceeds grid side 16" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, line",
    [
        ("deblur --input-path {gt} --output-dir {out} --kernel average:4",
         1, "error: argument --kernel: kernel size must be odd and positive, got 4"),
        ("deblur --input-path {gt} --output-dir {out} --kernel average:17",
         1, "error: kernel side 17 exceeds grid side 16"),
        ("deblur --input-path {flat} --output-dir {out}",
         1, "error: reference image is constant"),
        ("deblur --input-path {gt} --output-dir {out} --mu 1e-300",
         2, "numerical failure: frequency-domain denominator mu |K^|^2 + beta |D^|^2 reaches"),
        ("deblur --input-path {gt} --output-dir {out} --kernel average:3 --sigma 1e-300",
         1, "error: mu='auto' needs 0.05/sigma^2 in [1e-14, inf), got sigma 1e-300"),
        ("deblur --input-path {gt} --output-dir {out} --kernel average:3 --sigma 1e-160",
         1, "error: mu='auto' needs 0.05/sigma^2 in [1e-14, inf), got sigma 1e-160"),
        ("deblur --input-path {gt} --output-dir {out} --kernel average:3 --sigma 1e7",
         1, "error: mu='auto' needs 0.05/sigma^2 in [1e-14, inf), got sigma 10000000.0"),
        ("report --trace {unscored}",
         1, "error: trace carries no snr scores"),
    ],
    ids=[
        "bad_kernel_spec", "oversized_kernel", "constant_ground_truth", "singular_system",
        "underflowing_auto_sigma", "overflowing_auto_mu", "singular_auto_mu", "report_without_snr",
    ],
)
def test_each_raise_site_maps_to_its_exit_code_and_one_stderr_line(tmp_path, capsys, argv, code, line):
    # ValueError is bad input (exit 1), FloatingPointError a numerical failure (exit 2)
    paths = {"gt": tmp_path / "gt.pgm", "flat": tmp_path / "flat.pgm", "out": tmp_path / "o", "unscored": tmp_path / "t.csv"}
    write_pgm(paths["gt"], tvdeblur.make_phantom(16))
    write_pgm(paths["flat"], np.full((16, 16), 0.5))
    paths["unscored"].write_text(TRACE_HEADER + "\n0,1,1.0,,1.0,1.0,0.0,0.1\n")
    assert cli.main([arg.format(**paths) for arg in argv.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(line)
    assert not paths["out"].exists()


@pytest.mark.skipif(importlib.util.find_spec("PIL") is not None, reason="Pillow is installed")
def test_png_input_without_pillow_exits_one(tmp_path, capsys):
    png = tmp_path / "gt.png"
    png.write_bytes(b"")
    assert cli.main(["deblur", "--input-path", str(png), "--output-dir", str(tmp_path / "o")]) == 1
    assert "error: loading .png files requires Pillow" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(tvdeblur.__file__).resolve().parents[1])}
    code = "import sys, tvdeblur; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
