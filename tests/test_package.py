"""The public names: ``kinser.__all__`` lists each name that
``kinser/__init__.py`` imports, once, and nothing else, and each resolves."""

import ast
from pathlib import Path

import kinser as K


def test_all_equals_the_imported_names():
    tree = ast.parse(Path(K.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(K.__all__) == len(set(K.__all__))
    assert set(K.__all__) == imported
    assert all(hasattr(K, name) for name in K.__all__)
