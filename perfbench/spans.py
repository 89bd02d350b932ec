"""Layer spans for the traced benchmark run, recorded from outside the codec.

The codec has no tracing of its own, so the traced run replaces, in this
process only, the module attributes through which one layer calls another
(for example ``msvq.trainer.nearest_batch`` or ``msvq.bitstream.encode_batch``)
with wrappers that record a span per call. Each attribute is wrapped
separately, so a span knows which module made the call (``via``). Python
resolves module globals at call time, so the wrappers also see calls made
inside the codec. Spans are kept in memory and written out once the run ends.

Span names are ``<layer>.<function>`` with the layer named after the module
that owns the function; the in-program trace planned for the codec is meant to
reuse these names.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time


def _search_counts(args, kwargs, result):
    rows, k = len(args[0]), len(args[1])
    return {"rows": rows, "row_codewords": rows * k}


def _payload_symbols(info):
    return {"symbols": int(info.count) * int(info.plan.stages.sum())}


# (module, attribute, span name, counters(args, kwargs, result) or None)
EDGES = [
    ("msvq.layout", "compute_stats", "layout.compute_stats", None),
    ("msvq.layout", "build_layout", "layout.build_layout", None),
    ("msvq.trainer", "train", "trainer.train",
     lambda a, k, r: {"lloyd_iters": sum(r[1].iterations.values())}),
    ("msvq.trainer", "nearest_batch", "codebook.search", _search_counts),
    ("msvq.trainer", "nearest_rate_penalized_batch", "codebook.search", _search_counts),
    ("msvq.rate", "nearest_batch", "codebook.search", _search_counts),
    ("msvq.rate", "nearest_rate_penalized_batch", "codebook.search", _search_counts),
    ("msvq.quantizer", "nearest_batch", "codebook.search", _search_counts),
    ("msvq.quantizer", "nearest_rate_penalized_batch", "codebook.search", _search_counts),
    ("msvq.entropy", "measure_group_pmfs", "entropy.measure_pmfs", None),
    ("msvq.entropy", "build_code", "entropy.build_code", None),
    ("msvq.bitstream", "canonical_code", "entropy.canonical_code", None),
    ("msvq.bitstream", "decode_table", "entropy.decode_table", None),
    ("msvq.rate", "build_table", "rate.build_table", None),
    ("msvq.rate", "greedy_order", "rate.greedy_order",
     lambda a, k, r: {"picks": len(r[2])}),
    ("msvq.bitstream", "encode_batch", "quantizer.encode_batch", None),
    ("msvq.bitstream", "decode_batch", "quantizer.decode_batch", None),
    ("msvq.bitstream", "write_payload", "bitstream.write_payload",
     lambda a, k, r: _payload_symbols(r)),
    ("msvq.bitstream", "read_payload", "bitstream.read_payload",
     lambda a, k, r: _payload_symbols(r[1])),
    ("msvq.bitstream", "read_features", "bitstream.read_features", None),
    ("msvq.bitstream", "write_features", "bitstream.write_features", None),
    ("msvq.bitstream", "write_model", "bitstream.write_model", None),
    ("msvq.bitstream", "read_model", "bitstream.read_model", None),
    ("msvq.bitstream", "write_table", "bitstream.write_table", None),
    ("msvq.bitstream", "read_table", "bitstream.read_table", None),
    ("msvq.bitstream", "stamp_table_digest", "bitstream.stamp_table_digest", None),
    ("msvq.bitstream", "file_digest", "bitstream.file_digest", None),
]

_MODEL_TABLE_IO = {"bitstream.write_model", "bitstream.read_model", "bitstream.write_table",
                   "bitstream.read_table", "bitstream.stamp_table_digest",
                   "bitstream.file_digest"}

# Per-layer metric names and units, in report order.
PER_LAYER_UNITS = {
    "layout.build_s": "s",
    "trainer.train_s": "s",
    "trainer.self_s": "s",
    "trainer.lloyd_iters": "count",
    "codebook.search_s": "s",
    "codebook.search_calls": "count",
    "codebook.search_rows": "count",
    "codebook.search_row_codewords": "count",
    "codebook.search.trainer_s": "s",
    "codebook.search.rate_s": "s",
    "codebook.search.quantizer_s": "s",
    "entropy.measure_pmfs_s": "s",
    "entropy.build_code_s": "s",
    "entropy.canonical_code_calls": "count",
    "entropy.decode_table_calls": "count",
    "rate.build_table_s": "s",
    "rate.greedy_s": "s",
    "rate.greedy_calls": "count",
    "rate.greedy_picks": "count",
    "quantizer.encode_batch_s": "s",
    "quantizer.decode_batch_s": "s",
    "bitstream.write_payload_s": "s",
    "bitstream.write_payload.self_s": "s",
    "bitstream.read_payload_s": "s",
    "bitstream.read_payload.self_s": "s",
    "bitstream.symbols_written": "count",
    "bitstream.symbols_read": "count",
    "bitstream.write_ns_per_symbol": "ns",
    "bitstream.read_ns_per_symbol": "ns",
    "bitstream.fmat_io_s": "s",
    "bitstream.model_table_io_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory span recorder; spans carry a parent id, a thread and counters.

    A call from a codec worker thread that has no open span of its own is
    parented to the innermost span open in the client thread, which is blocked
    inside the codec call that started the workers.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._client_stack = self._stack()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, via, counters, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else (self._client_stack[-1] if self._client_stack
                                          else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        record = {"id": span_id, "parent": parent, "name": name, "via": via,
                  "thread": threading.get_ident(), "start": start - self._t0,
                  "end": end - self._t0}
        if counters is not None:
            record.update(counters(args, kwargs, result))
        with self._lock:
            self.spans.append(record)
        return result

    @contextlib.contextmanager
    def paused(self):
        """Leave the benchmark's own output checks out of the trace."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every EDGES attribute for the duration of the block."""
    originals = []
    try:
        for module_name, attr, name, counters in EDGES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            via = module_name.rsplit(".", 1)[-1]

            def wrapper(*args, _fn=fn, _name=name, _via=via, _counters=counters, **kwargs):
                return tracer.call(_name, _via, _counters, _fn, args, kwargs)

            setattr(module, attr, functools.wraps(fn)(wrapper))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def _self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, reach = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def layer_metrics(spans: list[dict], overhead_pct: float) -> dict[str, float]:
    """Fold the spans of one traced run into the per-layer metrics."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name, via=None):
        return [s for s in spans if s["name"] == name and (via is None or s["via"] == via)]

    def seconds(name, via=None):
        return sum(s["end"] - s["start"] for s in named(name, via))

    def self_seconds(name):
        return sum(_self_time(s, children.get(s["id"], [])) for s in named(name))

    def total(name, key):
        return sum(s[key] for s in named(name))

    def per_symbol_ns(self_s, symbols):
        return 1e9 * self_s / symbols if symbols else 0.0

    # model/table I/O nests (stamping re-reads the model); count outermost spans only
    io = sum(s["end"] - s["start"] for s in spans if s["name"] in _MODEL_TABLE_IO
             and by_id.get(s["parent"], {}).get("name") not in _MODEL_TABLE_IO)
    write_self = self_seconds("bitstream.write_payload")
    read_self = self_seconds("bitstream.read_payload")
    written = total("bitstream.write_payload", "symbols")
    read = total("bitstream.read_payload", "symbols")
    return {
        "layout.build_s": seconds("layout.compute_stats") + seconds("layout.build_layout"),
        "trainer.train_s": seconds("trainer.train"),
        "trainer.self_s": self_seconds("trainer.train"),
        "trainer.lloyd_iters": total("trainer.train", "lloyd_iters"),
        "codebook.search_s": seconds("codebook.search"),
        "codebook.search_calls": len(named("codebook.search")),
        "codebook.search_rows": total("codebook.search", "rows"),
        "codebook.search_row_codewords": total("codebook.search", "row_codewords"),
        "codebook.search.trainer_s": seconds("codebook.search", "trainer"),
        "codebook.search.rate_s": seconds("codebook.search", "rate"),
        "codebook.search.quantizer_s": seconds("codebook.search", "quantizer"),
        "entropy.measure_pmfs_s": seconds("entropy.measure_pmfs"),
        "entropy.build_code_s": seconds("entropy.build_code"),
        "entropy.canonical_code_calls": len(named("entropy.canonical_code")),
        "entropy.decode_table_calls": len(named("entropy.decode_table")),
        "rate.build_table_s": seconds("rate.build_table"),
        "rate.greedy_s": seconds("rate.greedy_order"),
        "rate.greedy_calls": len(named("rate.greedy_order")),
        "rate.greedy_picks": total("rate.greedy_order", "picks"),
        "quantizer.encode_batch_s": seconds("quantizer.encode_batch"),
        "quantizer.decode_batch_s": seconds("quantizer.decode_batch"),
        "bitstream.write_payload_s": seconds("bitstream.write_payload"),
        "bitstream.write_payload.self_s": write_self,
        "bitstream.read_payload_s": seconds("bitstream.read_payload"),
        "bitstream.read_payload.self_s": read_self,
        "bitstream.symbols_written": written,
        "bitstream.symbols_read": read,
        "bitstream.write_ns_per_symbol": per_symbol_ns(write_self, written),
        "bitstream.read_ns_per_symbol": per_symbol_ns(read_self, read),
        "bitstream.fmat_io_s": seconds("bitstream.read_features")
        + seconds("bitstream.write_features"),
        "bitstream.model_table_io_s": io,
        "trace.overhead_pct": overhead_pct,
    }
