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


SOURCES = sorted(Path(qwjoin.__file__).parent.glob("*.py"))


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, top-level function or class) of each node of the package that match accepts."""
    sites = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", None)
            sites += [(path.stem, name) for node in ast.walk(top) if match(node)]
    return sites


def _calls(node, name: str) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return getattr(func, "id", None) == name or getattr(func, "attr", None) == name


def test_the_confirmation_gate_is_compared_in_one_check_and_the_phase_proxy():
    def compares_the_gate(node):
        return isinstance(node, ast.Compare) and any(
            getattr(n, "id", None) == "CONFIRMATION_GATE" for n in ast.walk(node)
        )

    assert _sites(compares_the_gate) == [("transfer", "_confirmed"), ("transfer", "minimum_period")]


def test_strong_cospectral_is_read_through_pair_partition_alone():
    assert _sites(lambda node: _calls(node, "strong_cospectral")) == [
        ("transfer", "pair_partition")
    ]


def test_no_public_function_takes_a_side():
    def takes_a_side(node):
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            return False
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        return any(p.arg == "side" for p in params)

    assert _sites(takes_a_side) == []
