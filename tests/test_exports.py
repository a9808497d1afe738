import ast
import re
from pathlib import Path

import monosplit

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    names = monosplit.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(monosplit, name)]
    assert missing == []


def test_no_export_exists_only_for_the_tests():
    # each export is read by a library module or named in the README
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for path in (ROOT / "src" / "monosplit").glob("*.py")
              if path.name != "__init__.py"
              for node in ast.walk(ast.parse(path.read_text("utf-8")))
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    named = set(re.findall(r"\w+", (ROOT / "README.md").read_text("utf-8")))
    assert [name for name in monosplit.__all__
            if name not in loaded | named] == []
