"""The package namespace: everything tbswap/__init__.py imports is exported."""

import ast
from pathlib import Path

import tbswap


def test_all_lists_every_public_import_and_resolves():
    tree = ast.parse(Path(tbswap.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(tbswap.__all__), sorted(public - set(tbswap.__all__))
    assert len(tbswap.__all__) == len(set(tbswap.__all__))
    for name in tbswap.__all__:
        assert hasattr(tbswap, name), name
