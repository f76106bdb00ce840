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


def _scipy_imports(source: str, allowed: str | None = None) -> list[str]:
    """Lines that import scipy, by an import statement or by
    ``importlib.import_module``/``__import__`` of a literal name, outside the
    module-level function named ``allowed``."""
    tree = ast.parse(source, feature_version=(3, 10))
    inside = {
        id(node)
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == allowed
        for node in ast.walk(fn)
    }

    def names(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in ("import_module", "__import__"):
                return [str(node.args[0].value)]
        return []

    return [
        f"{node.lineno}: {name}"
        for node in ast.walk(tree) if id(node) not in inside
        for name in names(node) if name.split(".")[0] == "scipy"
    ]


def test_scipy_is_imported_only_inside_spectral_scipy():
    # importing scipy costs about 0.2 s and 30 MB; spectral._scipy loads it at
    # the first ARPACK solve, and no other line of the library may
    sample = (
        "import numpy, scipy.sparse\n"
        "def _scipy():\n    import scipy.sparse.linalg\n"
        "def f():\n    from scipy import linalg\n    importlib.import_module('scipy.sparse')\n"
    )
    assert _scipy_imports(sample, "_scipy") == ["1: scipy.sparse", "5: scipy", "6: scipy.sparse"]
    assert _scipy_imports(sample) == ["1: scipy.sparse", "3: scipy.sparse.linalg", "5: scipy", "6: scipy.sparse"]
    paths = sorted((ROOT / "src/lsurf").rglob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        source = path.read_text(encoding="utf-8")
        allowed = "_scipy" if path.name == "spectral.py" else None
        assert _scipy_imports(source, allowed) == [], path.name
    assert _scipy_imports((ROOT / "src/lsurf/spectral.py").read_text(encoding="utf-8")), "no scipy import found"
