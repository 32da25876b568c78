"""The package's public names resolve, and the README's library example runs."""

import re
from pathlib import Path

import fibered_lrc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    missing = [name for name in fibered_lrc.__all__
               if not hasattr(fibered_lrc, name)]
    assert not missing


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "cw.json").exists()
