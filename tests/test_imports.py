"""Import guard: every name a src/msvq module imports is used in that module,
and no module imports another module's private names.

No linter is part of the toolchain, so this parses each module with ast and
looks for a load of every imported name. A package's __init__ uses a name by
listing it in __all__, and every name in msvq.__all__ must resolve. A rule
that several modules need is public in the module that owns it. Rows are
chunked in one place and there is one worker pool: only
quantizer.map_row_chunks names the row chunk, and only quantizer.map_workers
the pool.
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
    ("bitstream", "encode_batch"):
        "perfbench/spans.py wraps msvq.bitstream.encode_batch as a traced edge",
}


# names that, beyond their definition and import, only quantizer.map_row_chunks
# (the row chunk) and quantizer.map_workers (the pool) use
ROW_CHUNKING = {"ROW_CHUNK", "ThreadPoolExecutor"}


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


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports() -> set[tuple[str, str]]:
    return {(stem, name) for stem, tree in _trees() for name in _imported(tree) - _used(tree)}


def test_every_import_is_used():
    assert _unused_imports() - set(ALLOWED_UNUSED) == set()


def test_allow_list_names_only_unused_imports():
    # once perfbench stops wrapping an edge, its import goes and so does the entry
    assert set(ALLOWED_UNUSED) <= _unused_imports()


def test_no_module_imports_a_private_name():
    private = [(stem, node.module, a.name) for stem, tree in _trees()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if a.name.startswith("_")]
    assert private == []


def test_every_exported_name_resolves():
    missing = [name for name in msvq.__all__ if not hasattr(msvq, name)]
    assert missing == []
    assert len(set(msvq.__all__)) == len(msvq.__all__)


def _named(node: ast.AST, func: str | None = None):
    """(enclosing function, name, how) of every name, attribute and import alias under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Name):
        yield func, node.id, "store" if isinstance(node.ctx, ast.Store) else "load"
    elif isinstance(node, ast.Attribute):
        yield func, node.attr, "load"
    elif isinstance(node, ast.alias):
        yield func, (node.asname or node.name).split(".")[-1], "import"
    for child in ast.iter_child_nodes(node):
        yield from _named(child, func)


def test_rows_are_chunked_only_in_map_row_chunks():
    uses = {(stem, func, name, how) for stem, tree in _trees()
            for func, name, how in _named(tree) if name in ROW_CHUNKING}
    assert uses == {
        ("codebook", None, "ROW_CHUNK", "store"),
        ("quantizer", None, "ROW_CHUNK", "import"),
        ("quantizer", None, "ThreadPoolExecutor", "import"),
        ("quantizer", "map_row_chunks", "ROW_CHUNK", "load"),
        ("quantizer", "map_workers", "ThreadPoolExecutor", "load"),
    }
