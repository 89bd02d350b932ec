"""perfbench's traced run wraps codec module attributes by name.

perfbench/spans.py replaces each (module, attribute) pair in its EDGES list
with a timing wrapper and fails with AttributeError when one is missing, so a
refactor that drops or renames such an attribute breaks the benchmark. The
file imports only the standard library and is loaded here without writing
bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_edge_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.EDGES
    missing = [(module, attr) for module, attr, *_ in spans.EDGES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
