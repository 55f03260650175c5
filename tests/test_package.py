import ast
from pathlib import Path

import qwjoin


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(qwjoin.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert len(qwjoin.__all__) == len(set(qwjoin.__all__))
    assert set(qwjoin.__all__) == set(imported)
    for name in qwjoin.__all__:
        assert getattr(qwjoin, name) is not None, name
