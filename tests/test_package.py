import ast
import os
import subprocess
import sys
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


def test_a_join_record_carries_its_matrix():
    def takes_params_and_matrix(node):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        return {"params", "matrix"} <= {a.arg for a in args}

    def names_the_old_reading(node):
        names = [getattr(node, attr, None) for attr in ("id", "attr", "name", "value")]
        return any(name in ("join_reading", "JoinReading") for name in names)

    assert _sites(takes_params_and_matrix) == []
    assert _sites(names_the_old_reading) == []


def test_the_package_names_no_numpy_random():
    # the refinement hashes with a fixed table, so no module needs numpy.random
    def names_numpy_random(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.random") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        return False

    assert _sites(names_numpy_random) == []


def test_a_cli_call_imports_no_numpy_random():
    script = (
        "import sys\n"
        "from qwjoin import cli\n"
        "status = cli.main(['analyze', '--family', 'C 4', '--pair', '0', '2'])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qwjoin.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
