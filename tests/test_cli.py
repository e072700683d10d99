import os
import subprocess
import sys
from pathlib import Path

import pytest

import tvdeblur
from tvdeblur import ExperimentConfig, cli, harness, read_pgm
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


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["deblur", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tvdeblur deblur")


def test_numerical_failure_returns_two(tmp_path, monkeypatch):
    gt = tmp_path / "gt.pgm"
    cli.main(["phantom", "--size", "16", "--out", str(gt)])

    def boom(cfg):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["deblur", "--input-path", str(gt), "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def test_report_picks_the_earliest_best_record(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rows = [f"{i},1,1.0,{snr},1.0,1.0,0.0,0.1" for i, snr in enumerate((3.0, 7.0, 7.0, 5.0))]
    trace.write_text("\n".join([TRACE_HEADER, *rows]) + "\n")
    assert cli.main(["report", "--trace", str(trace)]) == 0
    assert "best record: stage 1 snr 7.0000 dB" in capsys.readouterr().out


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


def test_deblur_defaults_are_the_config_defaults(monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise FloatingPointError("stop after parsing")

    monkeypatch.setattr(cli, "run_experiment", capture)
    assert cli.main(["deblur", "--input-path", "gt.pgm", "--output-dir", "out"]) == 2
    assert seen == [ExperimentConfig(input_path="gt.pgm", output_dir="out")]


@pytest.mark.parametrize(
    "solver, flags, fields",
    [
        ("ftvd3", ["--max-inner-iters", "7", "--beta-schedule", "1,8,64"],
         {"max_inner_iters": 7, "beta_schedule": (1.0, 8.0, 64.0)}),
        ("ftvd4", ["--beta-fixed", "5", "--max-multiplier-updates", "30"],
         {"beta_fixed": 5.0, "max_multiplier_updates": 30}),
    ],
)
def test_deblur_solver_flags_go_to_the_solver_config(monkeypatch, solver, flags, fields):
    # each solver's own flags; the other solver's are refused (REFUSALS in test_cli_contract.py)
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise FloatingPointError("stop after parsing")

    monkeypatch.setattr(cli, "run_experiment", capture)
    argv = [
        "deblur", "--input-path", "gt.pgm", "--output-dir", "out", "--solver", solver,
        "--mu", "300", "--tv-variant", "aniso", "--tol", "1e-6", *flags,
    ]
    assert cli.main(argv) == 2
    assert seen == [ExperimentConfig(
        input_path="gt.pgm", output_dir="out", solver=solver, mu=300.0, tv_variant="aniso", tol=1e-6, **fields
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


def test_import_does_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(tvdeblur.__file__).resolve().parents[1])}
    code = "import sys, tvdeblur; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
