"""Command-line interface: phantom, degrade, deblur, report.

Exit codes: 0 success, 1 usage/configuration/IO error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path

from .errors import SingularSystem, TVDeblurError
from .grid_ops import KernelSpec, check_kernel_side, make_kernel, validate_image
from .harness import ExperimentConfig, degrade, run_experiment
from .metrics import best_index
from .pgm import load_image, write_pgm
from .phantom import make_phantom
from .solvers import SolverConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_mu(text: str):
    if text == "auto":
        return "auto"
    return float(text)


def _parse_schedule(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tvdeblur", description="TV/L2 deconvolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_phantom = sub.add_parser("phantom", help="write the synthetic ground-truth image")
    p_phantom.add_argument("--size", type=int, default=128)
    p_phantom.add_argument("--out", required=True)

    p_degrade = sub.add_parser("degrade", help="blur an image and add seeded Gaussian noise")
    p_degrade.add_argument("--input", required=True)
    p_degrade.add_argument("--out", required=True)
    p_degrade.add_argument("--kernel", type=KernelSpec.from_string, default=ExperimentConfig.kernel)
    p_degrade.add_argument("--sigma", type=float, default=ExperimentConfig.sigma)
    p_degrade.add_argument("--seed", type=int, default=ExperimentConfig.seed)

    # Options left out of the command line are absent from the namespace, so
    # the ExperimentConfig and SolverConfig field defaults are the only ones,
    # except --mu: SolverConfig has no default mu, and run_experiment
    # resolves "auto".
    p_deblur = sub.add_parser(
        "deblur", help="degrade a ground truth, solve, export trace and images", argument_default=argparse.SUPPRESS
    )
    p_deblur.add_argument("--input-path", required=True, help="ground-truth image (pgm, or png with Pillow)")
    p_deblur.add_argument("--output-dir", required=True)
    p_deblur.add_argument("--solver", choices=("ftvd3", "ftvd4"))
    p_deblur.add_argument("--kernel", type=KernelSpec.from_string)
    p_deblur.add_argument("--sigma", type=float)
    p_deblur.add_argument("--mu", type=_parse_mu, default="auto", help="fidelity weight, or 'auto' for 0.05/sigma^2")
    p_deblur.add_argument("--beta-schedule", type=_parse_schedule, help="comma-separated ascending betas (ftvd3)")
    p_deblur.add_argument("--beta-fixed", type=float, help="fixed beta (ftvd4)")
    p_deblur.add_argument("--seed", type=int)
    p_deblur.add_argument("--tv-variant", choices=("iso", "aniso"))
    p_deblur.add_argument("--save-intermediates", action="store_true")
    p_deblur.add_argument("--tol", type=float)
    p_deblur.add_argument("--max-inner-iters", type=int)
    p_deblur.add_argument("--max-multiplier-updates", type=int)

    p_report = sub.add_parser("report", help="summarize an existing trace.csv")
    p_report.add_argument("--trace", required=True)

    return parser


def _cmd_phantom(args) -> int:
    write_pgm(args.out, make_phantom(args.size))
    print(f"wrote {args.size}x{args.size} phantom to {args.out}")
    return 0


def _cmd_degrade(args) -> int:
    u0 = validate_image(load_image(args.input))
    check_kernel_side(args.kernel.size, u0.shape[0])
    f = degrade(u0, make_kernel(args.kernel), args.sigma, args.seed)
    write_pgm(args.out, f)
    print(f"wrote degraded image to {args.out} (kernel {args.kernel}, sigma {args.sigma}, seed {args.seed})")
    return 0


def _cmd_deblur(args) -> int:
    opts = {k: v for k, v in vars(args).items() if k != "command"}
    solver_opts = {f.name: opts.pop(f.name) for f in fields(SolverConfig) if f.name in opts}
    cfg = ExperimentConfig(**opts, solver_cfg=SolverConfig(**solver_opts))
    run_experiment(cfg)
    print((Path(cfg.output_dir) / "summary.txt").read_text(), end="")
    return 0


def _cmd_report(args) -> int:
    with open(args.trace, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in ("stage_index", "snr_db") if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.trace} has no {' or '.join(missing)} column")
        rows = [row for row in reader if row["snr_db"]]
    if not rows:
        print("trace carries no snr scores", file=sys.stderr)
        return 1
    snrs = [float(row["snr_db"]) for row in rows]
    bad = [row["stage_index"] for row, snr in zip(rows, snrs) if not math.isfinite(snr)]
    if bad:
        raise ValueError(f"{args.trace} has a non-finite snr_db at stage {', '.join(bad)}")
    best = best_index(snrs)
    final = len(rows) - 1
    print(f"records with snr: {len(rows)}")
    print(f"best record: stage {rows[best]['stage_index']} snr {snrs[best]:.4f} dB")
    print(f"final record: stage {rows[final]['stage_index']} snr {snrs[final]:.4f} dB")
    print(f"best minus final: {snrs[best] - snrs[final]:.4f} dB")
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "degrade": _cmd_degrade,
    "deblur": _cmd_deblur,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SingularSystem, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (TVDeblurError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
