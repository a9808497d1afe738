"""The README's library example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, f"{README}:Library example", "exec"), {})
    verdict, *checks = capsys.readouterr().out.splitlines()
    assert verdict.split()[0] == "solved"
    assert checks and {line.split()[0] for line in checks} == {"pass"}
