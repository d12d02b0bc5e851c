from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "bsharp"


def test_source_tree_holds_only_python_files():
    # no generated, compiled or stale files next to the modules
    stray = sorted(
        str(path.relative_to(SOURCE))
        for path in SOURCE.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    )
    assert stray == []
