"""Import guard: every name a src/msvq module imports is used in that module,
and no module imports another module's private names.

No linter is part of the toolchain, so this parses each module with ast and
looks for a load of every imported name. A package's __init__ uses a name by
listing it in __all__, and every name in msvq.__all__ must resolve. A rule
that several modules need is public in the module that owns it. Rows are
chunked in one place and there is one worker pool: only
quantizer.map_row_chunks names the row chunk, and only quantizer.map_workers
the pool. Each of two rules has one owner: quantizer.map_workers resolves and
checks every worker count, and layout.assemble_layout alone checks bit
matrices. Plans are derived in two places only: the table's memo
(MarginalLossTable.plan), which every serving path goes through, and the CLI's
verify command, whose budget sweep checks the uncached derivation. A plan's
field order, fixed-width packing and prefix encoder are derived only where
its serving layout is made (quantizer.plan_layout keeps one per model), apart
from the explicit plan's header, which is packed at its own widths. Stage
vectors, from callers and from explicit-plan headers alike, are checked only
where a plan's layout is made (quantizer.plan_layout). A codebook's search
constants are built where a model keeps them and where training fits. Code
tables are kept only by their owners, never in a cache beside them: no
module memoizes a function or keys anything by id().
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


# rule owners: a name whose every load must sit in one of its owning functions
ONE_OWNER = {
    "usable_cores": {("quantizer", "map_workers")},
    "validate_bits": {("layout", "assemble_layout")},
    # a serving path that re-solved the plan per payload would load it elsewhere
    "greedy_order": {("rate", "plan"), ("cli", "_cmd_verify")},
    # serving reads a plan's field order and fixed-width packing from the
    # plan's layout, which _build_layout alone makes once per (model, plan); the
    # explicit plan's header packs one stage count per sub-vector, not a plan
    "field_order": {("quantizer", "_build_layout")},
    "fixed_plan": {("quantizer", "_build_layout"), ("bitstream", "_plan_header")},
    "prefix_encoder": {("quantizer", "_build_layout")},
    # a plan is its layout, so a stage vector is checked where a layout is made
    "_checked_stages": {("quantizer", "plan_layout")},
    # a codebook's search constants are built once per model and kept on it
    # (MsvqModel.search_tables); only training builds them per codebook it
    # fits: for each Lloyd round's moving centres, and once for the finalized
    # codebook its stage walk quantizes with. A serving path that rebuilt them
    # per call would load search_constants elsewhere.
    "search_constants": {("codebook", "search_tables"), ("trainer", "_assign"),
                         ("trainer", "fit_group")},
}


def test_each_rule_is_applied_only_by_its_owner():
    loads = {(name, (stem, func)) for stem, tree in _trees()
             for func, name, how in _named(tree) if name in ONE_OWNER and how == "load"}
    assert loads == {(name, owner) for name, owners in ONE_OWNER.items() for owner in owners}


# A code's decode table is kept on the code (HuffmanCode.decoder), the codes
# on the model (MsvqModel.huffman_codes), and a plan's encoder and decoder in
# its layout on the model (MsvqModel.plan_memo). A cache beside them, per call
# or keyed by id(), hands a collected object's tables to a new object that
# reuses its id.
CACHING = {"id", "cache", "lru_cache"}


def test_code_tables_are_kept_only_by_their_owners():
    uses = {(stem, func, name) for stem, tree in _trees()
            for func, name, _ in _named(tree) if name in CACHING}
    assert uses == set()
