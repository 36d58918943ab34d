"""README's library quick start and its example configuration, run as written."""

import contextlib
import io
import json
import re
from pathlib import Path

from hnbody.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language: str, after: str) -> str:
    """The first fenced ``language`` block after the text ``after``."""
    return re.search(rf"```{language}\n(.*?)```", README[README.index(after):], re.S).group(1)


def test_library_quick_start_keeps_its_comments():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(_block("python", "## Quick start (library)"), namespace)
    _, residual, verdict = out.getvalue().split()  # the energy, then the two commented values
    assert float(residual) == namespace["report"].max_residual < 1e-14  # "~5e-15"
    assert verdict == "True" and namespace["cert"].verdict is True


def test_sim_json_example_runs(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(_block("json", "Example `sim.json`"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "results")]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "outputs": ["trajectory.csv", "trajectory.json"]}
