import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10, so no file may use newer syntax
    paths = sorted(p for top in ("src/lsurf", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# numpy functions added in 2.x; pyproject.toml allows numpy 1.24
NUMPY_2_NAMES = {
    "astype", "unique_values", "unique_counts", "unique_inverse", "unique_all", "bitwise_count",
    "isdtype", "concat", "permute_dims", "matrix_transpose", "vecdot", "cumulative_sum",
}


def _numpy_2_uses(source: str) -> list[str]:
    """Lines that reach a numpy 2.x name through the numpy module or an
    alias of it, or import one from numpy."""
    tree = ast.parse(source, feature_version=(3, 10))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    uses = [
        f"{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and node.attr in NUMPY_2_NAMES
    ]
    return uses + [
        f"{node.lineno}: from numpy import {alias.name}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names if alias.name in NUMPY_2_NAMES
    ]


def test_library_uses_no_numpy_2_names():
    sample = "import numpy as np\nfrom numpy import vecdot\nx = np.concat([a]).astype(int)\n"
    assert _numpy_2_uses(sample) == ["3: np.concat", "2: from numpy import vecdot"]
    paths = sorted((ROOT / "src/lsurf").rglob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        assert _numpy_2_uses(path.read_text(encoding="utf-8")) == [], path.name
