"""The README's Library import block runs and names only exported API,
and its Configuration table lists the keys the config schema reads."""

import ast
import re
from pathlib import Path

import twoslit
from twoslit import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_imports_are_exported():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    names = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "twoslit"
        for alias in node.names
    ]
    assert "ChannelSet" in names
    assert sorted(set(names) - set(twoslit.__all__)) == []


def test_readme_configuration_table_matches_the_schema():
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `"):
            table[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    schema = {name: list(keys) for name, (keys, _) in config._SCHEMA.items()}
    assert table == schema
