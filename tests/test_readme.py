"""The README's Library import block runs, and names only exported API."""

import ast
import re
from pathlib import Path

import twoslit

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
