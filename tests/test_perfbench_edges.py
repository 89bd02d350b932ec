"""perfbench's traced run wraps codec module attributes by name.

perfbench/spans.py replaces each (module, attribute) pair in its EDGES list
with a timing wrapper and fails with AttributeError when one is missing, so a
refactor that drops or renames such an attribute breaks the benchmark. Its
counters also read codec return values (greedy_order's pick order, a payload
plan's stages), so a toy encode and decode runs under the wrappers too. The
file imports only the standard library and is loaded here without writing
bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_layout, make_toy_model
from msvq import bitstream, rate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_edge_resolves(spans):
    assert spans.EDGES
    missing = [(module, attr) for module, attr, *_ in spans.EDGES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_payload_round_trip_fills_the_counters(spans, tmp_path):
    lay = make_layout(4, 2, [3, 2], groups=2)
    model = make_toy_model(lay, np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(32, lay.m_dim))
    table = rate.build_table(model, data)
    path = str(tmp_path / "p.msvp")
    with spans.instrumented(spans.Tracer()) as tracer:
        bitstream.write_payload(path, model, 7, table, data, b_cap=12)
        bitstream.read_payload(path, model, 7, table)
    metrics = spans.layer_metrics(tracer.spans, 0.0)
    # the search count and the codec-layer times also show that the stage walk
    # reaches the kernels through the module attributes the wrappers replace
    for name in ("rate.greedy_calls", "rate.greedy_picks", "bitstream.symbols_written",
                 "bitstream.symbols_read", "codebook.search_calls",
                 "quantizer.decode_batch_s"):
        assert metrics[name] > 0, name
    # serving's searches are traced inside the payload write that makes them
    by_id = {s["id"]: s for s in tracer.spans}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["name"]

    searches = [s for s in tracer.spans
                if s["name"] == "codebook.search" and s["via"] == "quantizer"]
    assert searches
    assert all("bitstream.write_payload" in ancestors(s) for s in searches)
