"""Golden outputs: `tvdeblur deblur` on a 24x24 phantom, both solvers x both TV variants.

Every exported PGM must match the committed fixture byte for byte (16-bit
quantisation absorbs last-digit noise), and every trace.csv value must
match to 1e-12 relative.  The trace comparison is numeric, not textual, so
an FFT library that moves the last digits does not fail it.  Regenerate the
fixture from the repository root, only when an output is meant to change:

    export PYTHONPATH=src G=tests/data/golden24
    python -m tvdeblur.cli phantom --size 24 --out $G/gt.pgm
    for s in ftvd3 ftvd4; do for v in iso aniso; do
      python -m tvdeblur.cli deblur --input-path $G/gt.pgm --output-dir $G/$s-$v --solver $s --tv-variant $v
      rm $G/$s-$v/summary.txt
    done; done
"""

import csv
import math
from pathlib import Path

import pytest

from tvdeblur import cli

GOLDEN = Path(__file__).parent / "data" / "golden24"
IMAGES = ("best", "final", "best_u1", "final_u1", "best_u2", "final_u2")


def read_trace(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_phantom_matches_the_fixture(tmp_path, capsys):
    assert cli.main(["phantom", "--size", "24", "--out", str(tmp_path / "gt.pgm")]) == 0
    capsys.readouterr()
    assert (tmp_path / "gt.pgm").read_bytes() == (GOLDEN / "gt.pgm").read_bytes()


@pytest.mark.parametrize("tv_variant", ["iso", "aniso"])
@pytest.mark.parametrize("solver", ["ftvd3", "ftvd4"])
def test_deblur_matches_the_fixture(tmp_path, capsys, solver, tv_variant):
    golden = GOLDEN / f"{solver}-{tv_variant}"
    out = tmp_path / "out"
    argv = ["deblur", "--input-path", str(GOLDEN / "gt.pgm"), "--output-dir", str(out)]
    assert cli.main(argv + ["--solver", solver, "--tv-variant", tv_variant]) == 0
    capsys.readouterr()

    for name in IMAGES:
        assert (out / f"{name}.pgm").read_bytes() == (golden / f"{name}.pgm").read_bytes(), name

    got, want = read_trace(out / "trace.csv"), read_trace(golden / "trace.csv")
    assert len(got) == len(want)
    assert all(g.keys() == w.keys() for g, w in zip(got, want))
    for g, w in zip(got, want):
        assert (g["stage_index"], g["inner_iter"]) == (w["stage_index"], w["inner_iter"])
        for name in w.keys() - {"stage_index", "inner_iter"}:
            assert math.isclose(float(g[name]), float(w[name]), rel_tol=1e-12, abs_tol=0.0), (w["stage_index"], name)
