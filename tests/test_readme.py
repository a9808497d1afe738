"""The README's examples run against the library as it is."""

import json
import re
import shlex
from pathlib import Path

from monosplit import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_library_example_runs(capsys):
    section = TEXT.split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, f"{README}:Library example", "exec"), {})
    verdict, *checks = capsys.readouterr().out.splitlines()
    assert verdict.split()[0] == "solved"
    assert checks and {line.split()[0] for line in checks} == {"pass"}


def test_readme_cli_lines_parse():
    # a dropped option cannot linger in the README
    section = TEXT.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines()
             if line.startswith("monosplit ")]
    assert {shlex.split(line)[1] for line in lines} == {
        "params", "solve", "bench", "certify"}
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_config_loads(tmp_path):
    # nor a dropped config field
    config = re.search(r"```json\n(.*?)```", TEXT, re.S).group(1)
    path = tmp_path / "cfg.json"
    path.write_text(config)
    cfg = cli.load_config(str(path))
    assert cfg["raw"] == json.loads(config)
