"""README's library example and command-line block run as written, and its module list names every module,
so they cannot drift from the code."""

import re
import shlex
from pathlib import Path

import tvdeblur
from tvdeblur import cli, make_phantom, read_pgm, write_pgm

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


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    commands = [line for line in block.group(1).replace("\\\n", " ").splitlines() if line.startswith("tvdeblur ")]
    assert [shlex.split(line)[1] for line in commands] == ["phantom", "degrade", "deblur", "report"]
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert "best record: stage " in capsys.readouterr().out


def test_readme_names_every_module_in_its_module_paragraph():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"^Core pieces, one module each:.*?\n\n", text, re.DOTALL | re.MULTILINE).group(0)
    modules = sorted(p.stem for p in Path(tvdeblur.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert modules and [m for m in modules if f"`{m}`" not in paragraph] == []
