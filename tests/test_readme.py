"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README's Library use section has no python block"
    return match.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), "README.md", "exec"), {"__name__": "readme"})
    assert (tmp_path / "runs" / "demo" / "manifest.json").is_file()
