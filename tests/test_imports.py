"""Import guard: every name a src/msvq module imports is used in that module.

No linter is part of the toolchain, so this parses each module with ast and
looks for a load of every imported name. A package's __init__ uses a name by
listing it in __all__, and every name in msvq.__all__ must resolve.
"""

import ast
from pathlib import Path

import msvq

SRC = Path(msvq.__file__).resolve().parent

# (module, name): why the module imports a name it never uses
ALLOWED_UNUSED = {
    ("rate", "nearest_batch"):
        "perfbench/spans.py wraps msvq.rate.nearest_batch as a traced edge",
    ("rate", "nearest_rate_penalized_batch"):
        "perfbench/spans.py wraps msvq.rate.nearest_rate_penalized_batch as a traced edge",
    ("bitstream", "canonical_code"):
        "perfbench/spans.py wraps msvq.bitstream.canonical_code as a traced edge",
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # __all__ = [...] re-exports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def _unused_imports() -> set[tuple[str, str]]:
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused.update((path.stem, name) for name in _imported(tree) - _used(tree))
    return unused


def test_every_import_is_used():
    assert _unused_imports() - set(ALLOWED_UNUSED) == set()


def test_allow_list_names_only_unused_imports():
    # once perfbench stops wrapping an edge, its import goes and so does the entry
    assert set(ALLOWED_UNUSED) <= _unused_imports()


def test_every_exported_name_resolves():
    missing = [name for name in msvq.__all__ if not hasattr(msvq, name)]
    assert missing == []
    assert len(set(msvq.__all__)) == len(msvq.__all__)
