import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10, so no file may use newer syntax
    paths = sorted(p for top in ("src/lsurf", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
