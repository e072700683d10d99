"""README's library example runs as written, so it cannot drift from the API."""

import re
from pathlib import Path

from tvdeblur import make_phantom, read_pgm, write_pgm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    write_pgm("gt.pgm", make_phantom(128))
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["u1"].shape == namespace["u2"].shape == (128, 128)
    assert len(namespace["snrs_and_images"]) > 1
    # the last statement rebinds trace to the run_experiment result
    assert len(Path("run/trace.csv").read_text().splitlines()) == 1 + len(namespace["trace"].records)
    assert read_pgm("run/best.pgm").shape == (128, 128)
