import ast
from pathlib import Path

import oplex


def test_every_export_resolves():
    missing = [name for name in oplex.__all__ if not hasattr(oplex, name)]
    assert not missing
    assert len(set(oplex.__all__)) == len(oplex.__all__)


def test_every_public_import_is_exported():
    tree = ast.parse(Path(oplex.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(oplex.__all__) == set()
