"""Command-line interface: phantom, degrade, deblur, report.

Exit codes: 0 success, 1 usage error, bad input (ValueError), I/O error
(OSError) or exhausted memory (MemoryError), 2 numerical failure
(FloatingPointError).
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path

from .grid_ops import KernelSpec
from .harness import ExperimentConfig, observe, run_experiment
from .metrics import best_index
from .pgm import write_pgm
from .phantom import make_phantom


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: it leaves through ``main`` as a ValueError, one line and exit 1.

    A negative number in exponent or ``inf`` form (``--mu -1e-3``, ``--mu
    -inf``) is a value, so it reaches its option's rule; argparse's own
    pattern takes only ``-1`` and ``-.5`` and would read it as an option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):
        raise ValueError(message)


def _option(convert):
    """Pass on a converter's own ValueError text; argparse would print "invalid <name> value"."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None

    return parse


_parse_kernel = _option(KernelSpec.from_string)
_parse_mu = _option(lambda text: text if text == "auto" else float(text))
_parse_schedule = _option(lambda text: tuple(float(tok) for tok in text.split(",") if tok.strip()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tvdeblur", description="TV/L2 deconvolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_phantom = sub.add_parser("phantom", help="write the synthetic ground-truth image")
    p_phantom.add_argument("--size", type=int, default=128)
    p_phantom.add_argument("--out", required=True)

    p_degrade = sub.add_parser("degrade", help="blur an image and add seeded Gaussian noise")
    p_degrade.add_argument("--input", required=True)
    p_degrade.add_argument("--out", required=True)
    p_degrade.add_argument("--kernel", type=_parse_kernel, default=ExperimentConfig.kernel)
    p_degrade.add_argument("--sigma", type=float, default=ExperimentConfig.sigma)
    p_degrade.add_argument("--seed", type=int, default=ExperimentConfig.seed)

    # Options left out of the command line are absent from the namespace, so
    # the ExperimentConfig field defaults are the only ones.
    p_deblur = sub.add_parser(
        "deblur", help="degrade a ground truth, solve, export trace and images", argument_default=argparse.SUPPRESS
    )
    p_deblur.add_argument("--input-path", required=True, help="ground-truth image (pgm, or png with Pillow)")
    p_deblur.add_argument("--output-dir", required=True)
    p_deblur.add_argument("--solver", choices=("ftvd3", "ftvd4"))
    p_deblur.add_argument("--kernel", type=_parse_kernel)
    p_deblur.add_argument("--sigma", type=float)
    p_deblur.add_argument("--mu", type=_parse_mu, help="fidelity weight, or 'auto' for 0.05/sigma^2")
    p_deblur.add_argument("--beta-schedule", type=_parse_schedule, help="comma-separated ascending betas (ftvd3)")
    p_deblur.add_argument("--beta-fixed", type=float, help="fixed beta (ftvd4)")
    p_deblur.add_argument("--seed", type=int)
    p_deblur.add_argument("--tv-variant", choices=("iso", "aniso"))
    p_deblur.add_argument("--save-intermediates", action="store_true")
    p_deblur.add_argument("--tol", type=float)
    p_deblur.add_argument("--max-inner-iters", type=int, help="alternation cap per beta (ftvd3)")
    p_deblur.add_argument("--max-multiplier-updates", type=int, help="multiplier update cap (ftvd4)")

    p_report = sub.add_parser("report", help="summarize an existing trace.csv")
    p_report.add_argument("--trace", required=True)

    return parser


def _cmd_phantom(args) -> int:
    write_pgm(args.out, make_phantom(args.size))
    print(f"wrote {args.size}x{args.size} phantom to {args.out}")
    return 0


def _cmd_degrade(args) -> int:
    _, _, f = observe(args.input, args.kernel, args.sigma, args.seed)
    write_pgm(args.out, f)
    print(f"wrote degraded image to {args.out} (kernel {args.kernel}, sigma {args.sigma}, seed {args.seed})")
    return 0


# The deblur options one solver alone reads.  The library ignores the other solver's; the command line refuses them.
_SOLVER_OF = {
    "beta_schedule": "ftvd3", "max_inner_iters": "ftvd3", "beta_fixed": "ftvd4", "max_multiplier_updates": "ftvd4"
}


def _cmd_deblur(args) -> int:
    cfg = ExperimentConfig(**{k: v for k, v in vars(args).items() if k != "command"})
    foreign = [f"--{k.replace('_', '-')}" for k in vars(args) if _SOLVER_OF.get(k, cfg.solver) != cfg.solver]
    if foreign:
        raise ValueError(f"solver {cfg.solver} does not read {', '.join(foreign)}")
    run_experiment(cfg)
    print((Path(cfg.output_dir) / "summary.txt").read_text(), end="")
    return 0


def _number(text: str) -> float:
    """``float(text)``, or NaN for a cell that does not parse, so the finite check names its row."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _cmd_report(args) -> int:
    with open(args.trace, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in ("stage_index", "snr_db") if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.trace} has no {' or '.join(missing)} column")
        rows = [row for row in reader if row["snr_db"]]
    if not rows:
        raise ValueError("trace carries no snr scores")
    snrs = [_number(row["snr_db"]) for row in rows]
    bad = [row["stage_index"] for row, snr in zip(rows, snrs) if not math.isfinite(snr)]
    if bad:
        raise ValueError(f"{args.trace} has an snr_db that is not a finite number at stage {', '.join(bad)}")
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
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation that failed; Python's own is bare
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
