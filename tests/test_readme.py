"""The README's examples run against the library as it is."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from monosplit import cli, instances

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


def test_readme_csv_recipe_writes_the_runs_csv(tmp_path, capsys):
    # the recipe turns the trace solve wrote into the run's own CSV
    config = tmp_path / "cfg.json"
    config.write_text(re.search(r"```json\n(.*?)```", TEXT, re.S).group(1))
    assert cli.main(["solve", "--config", str(config), "--out",
                     str(tmp_path / "run")]) in (0, 1)
    capsys.readouterr()
    argv = shlex.split(re.search(r"^python3 -c .*write_csv.*$", TEXT,
                                 re.M).group(0))
    assert argv[-2:] == ["run/trace.jsonl", "run/trace.csv"]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, *argv[1:]], cwd=tmp_path, check=True,
                   env=dict(os.environ, PYTHONPATH=path))
    cfg = cli.load_config(str(config))
    instances.solve(cfg["problem"], cfg["instance"], cfg["params"],
                    stop=cfg["stop"]).trace.write_csv(tmp_path / "expected.csv")
    assert ((tmp_path / "run" / "trace.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
