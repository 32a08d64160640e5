import ast
from pathlib import Path

import ella


def test_every_exported_name_resolves():
    assert [name for name in ella.__all__ if not hasattr(ella, name)] == []
    assert len(set(ella.__all__)) == len(ella.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ella import *", namespace)
    assert set(ella.__all__) <= set(namespace)


# the reference code the package keeps though no caller of its own uses it
REFERENCE_EXPORTS = {"forward", "pretrain_loss", "similarity", "enumerate_walks"}


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    """A name the package exports but uses nowhere else (besides its
    definition and ``__init__``) and the benchmark never reads is code only
    the tests run."""
    root = Path(ella.__file__).parent
    files = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    files += sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(ella.__all__) - used - REFERENCE_EXPORTS) == []
