"""Workloads, set-up, the closed serving loop and its output checks.

One client in one process sends its payloads back to back: it encodes a
payload, decodes it, checks the decoder's output, then moves on to the next.
The codec's worker count is fixed at the number of usable cores. See
README.md in this directory for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from msvq import bitstream, datagen, layout, quantizer, rate, trainer

from spans import PER_LAYER_UNITS, Tracer, instrumented, layer_metrics

WORKERS = len(os.sched_getaffinity(0))
TRAIN_SEED = 11  # the README quickstart's; inputs vary with --seed, the model recipe does not
SETUP_REPEATS = 3  # set-up is timed this many times per run and reported as the median
_HELDOUT_TAG = 0x4E1D  # held-out inputs come from a seed stream no plain --seed reaches
# Serving rates are scaled to a machine on which calibrate() takes this long
# (about the median on the 2-vCPU Xeon VM the benchmark was written on).
CALIBRATION_REF_S = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    dist: str
    rows: int
    dim: int
    groups: int
    alloc: str
    b_cap: int
    payload_rows: int
    ec: bool = False
    max_iters: int = 50
    sub_dim: int = 4
    t_max: int = 3
    rho: float = 0.9


WORKLOADS = {
    w.name: w for w in (
        Workload("quickstart", "gauss-corr", rows=8192, dim=64, groups=16, alloc="type3",
                 b_cap=150, payload_rows=8192),
        Workload("quickstart-ec", "gauss-corr", rows=8192, dim=64, groups=16, alloc="type3",
                 b_cap=64, payload_rows=8192, ec=True),
        Workload("wide-stream", "gmm", rows=512, dim=2048, groups=16, alloc="type2",
                 b_cap=4608, payload_rows=64, max_iters=10),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_vps": "1/s",
    "decode_vps": "1/s",
    "encode_vps_raw": "1/s",
    "decode_vps_raw": "1/s",
    "payload_bits_per_vector": "bit",
    "mse": "sq/vector",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


class Ledger:
    """Counts operations; a failure is recorded and reported, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the serving loop must keep running
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def data_seed(seed: int, heldout: bool) -> int:
    """Input seed: --seed itself, or one from a separate stream when held out."""
    if not heldout:
        return seed
    return int(np.random.SeedSequence([seed, _HELDOUT_TAG]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int, heldout: bool) -> np.ndarray:
    return datagen.generate(w.dist, w.rows, w.dim, data_seed(seed, heldout), rho=w.rho)


def settings(w: Workload, seed: int, heldout: bool, seconds: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name, "seed": seed, "heldout": heldout,
        "data_seed": data_seed(seed, heldout), "train_seed": TRAIN_SEED,
        "seconds": seconds, "trace": trace, "setup_repeats": 1 if trace else SETUP_REPEATS,
        "codec_workers": WORKERS, "nproc": WORKERS, "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MSVQ_THREADS")
                             if k in os.environ},
    }


def _digest(path: Path) -> str:
    """blake2b of a file; "missing" when a failed operation never wrote it."""
    if not path.exists():
        return "missing"
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


@dataclass
class Session:
    """A loaded, bound model+table pair, as a serving process holds it."""

    model: object
    info: object
    table: object
    model_path: Path
    table_path: Path


def set_up(w: Workload, X: np.ndarray, directory: Path) -> tuple[Session, float]:
    """Features in memory -> trained, tabled, stamped and re-loaded pair."""
    directory.mkdir(parents=True, exist_ok=True)
    model_path, table_path = directory / "model.msvq", directory / "table.json"
    start = time.perf_counter()
    lay = layout.build_layout(layout.compute_stats(X), w.sub_dim, w.t_max, w.groups, w.alloc)
    model, _ = trainer.train(X, lay, trainer.TrainConfig(max_iters=w.max_iters,
                                                         seed=TRAIN_SEED, ec=w.ec))
    bitstream.write_model(str(model_path), model)
    table = rate.build_table(model, X, threads=WORKERS)
    bitstream.write_table(str(table_path), table)
    bitstream.stamp_table_digest(str(model_path), bitstream.file_digest(str(table_path)))
    model, info = bitstream.read_model(str(model_path))
    table = bitstream.read_table(str(table_path))
    if info.table_digest != bitstream.file_digest(str(table_path)):
        raise CheckFailed("re-loaded model is not bound to the table just written")
    elapsed = time.perf_counter() - start
    return Session(model, info, table, model_path, table_path), elapsed


@dataclass
class Payload:
    features: np.ndarray
    features_path: Path
    payload_path: Path
    recon_path: Path
    expected: dict[bytes, np.ndarray] = field(default_factory=dict)  # plan -> encode_batch


def make_payloads(w: Workload, X: np.ndarray, directory: Path) -> list[Payload]:
    directory.mkdir(parents=True, exist_ok=True)
    payloads = []
    for k, a in enumerate(range(0, X.shape[0], w.payload_rows)):
        p = Payload(X[a:a + w.payload_rows], directory / f"feat{k}.fmat",
                    directory / f"payload{k}.msvp", directory / f"recon{k}.fmat")
        bitstream.write_features(str(p.features_path), p.features)
        payloads.append(p)
    return payloads


def encode_op(sess: Session, w: Workload, p: Payload, threads: int = WORKERS):
    """Read features, write the payload; returns (seconds, PayloadInfo)."""
    start = time.perf_counter()
    Z = bitstream.read_features(str(p.features_path))
    info = bitstream.write_payload(str(p.payload_path), sess.model, sess.info.file_digest,
                                   sess.table, Z, w.b_cap, threads=threads)
    return time.perf_counter() - start, info


def decode_op(sess: Session, p: Payload):
    """Read the payload, write the reconstruction; returns (seconds, z_hat, PayloadInfo)."""
    start = time.perf_counter()
    z_hat, info = bitstream.read_payload(str(p.payload_path), sess.model,
                                         sess.info.file_digest, sess.table)
    bitstream.write_features(str(p.recon_path), z_hat.astype(np.float32))
    return time.perf_counter() - start, z_hat, info


def check_round_trip(sess: Session, p: Payload, enc, z_hat: np.ndarray, dec) -> None:
    """The three output checks of one encode/decode pair."""
    if not np.array_equal(dec.plan.stages, enc.plan.stages):
        raise CheckFailed("decoder re-derived a different plan than the encoder used")
    plan_key = enc.plan.stages.tobytes()
    if plan_key not in p.expected:
        p.expected[plan_key] = quantizer.encode_batch(sess.model, p.features, enc.plan)[1]
    expected = p.expected[plan_key]
    if z_hat.shape != expected.shape or not np.array_equal(z_hat, expected):
        raise CheckFailed("reconstruction is not bit-identical to encode_batch under the plan")
    size = p.payload_path.stat().st_size
    accounted = bitstream.PAYLOAD_HEADER_SIZE + int(((enc.bits_per_vector + 7) // 8).sum())
    if enc.mode != bitstream.MODE_DERIVED or size != accounted:
        raise CheckFailed(f"payload is {size} bytes, header plus per-vector bytes is "
                          f"{accounted}")


def decode_and_check(sess: Session, p: Payload, enc, tracer: Tracer | None):
    seconds, z_hat, dec = decode_op(sess, p)
    with tracer.paused() if tracer else contextlib.nullcontext():
        check_round_trip(sess, p, enc, z_hat, dec)
        mse = quantizer.reconstruction_mse(p.features, z_hat)
    return seconds, mse


def calibrate() -> float:
    """Seconds for fixed benchmark-owned work: the machine's current speed.

    On a shared VM the CPU speed drifts by a third over minutes, so each
    operation's rate is scaled by the calibrations just before and after it.
    The work is interpreted code, like the serving path at the time of
    writing: an integer loop and a bit-packing loop. No codec change can move
    it. (Small numpy matrix products were tried as well; under contention they
    slowed by up to 3x and tracked the operations worse.)
    """
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i & 7
    buf, acc, nbits = bytearray(), 0, 0
    for i in range(80_000):
        acc = (acc << 6) | (i & 63)
        nbits += 6
        while nbits >= 8:
            nbits -= 8
            buf.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    return time.perf_counter() - start


@dataclass
class Served:
    encode: list[tuple[int, float, float]]  # (rows, seconds, calibration seconds)
    decode: list[tuple[int, float, float]]
    mse: dict[int, float]
    bytes: dict[int, int]


def serve(sess: Session, w: Workload, payloads: list[Payload], ledger: Ledger,
          seconds: float | None, tracer: Tracer | None = None) -> Served:
    """Closed loop over the payloads: at least one full pass, then until `seconds`."""
    out = Served([], [], {}, {})
    deadline = time.perf_counter() + (seconds or 0.0)
    before_enc = calibrate()
    k = 0
    while k < len(payloads) or (seconds is not None and time.perf_counter() < deadline):
        i = k % len(payloads)
        p = payloads[i]
        k += 1
        enc = ledger.run(f"encode payload {i}", encode_op, sess, w, p)
        before_dec = calibrate()
        dec = None
        if enc is not None:
            dec = ledger.run(f"decode payload {i}", decode_and_check, sess, p, enc[1], tracer)
        after_dec = calibrate()
        if dec is not None:
            rows = len(p.features)
            out.encode.append((rows, enc[0], (before_enc + before_dec) / 2))
            out.decode.append((rows, dec[0], (before_dec + after_dec) / 2))
            out.mse[i] = dec[1]
            out.bytes[i] = p.payload_path.stat().st_size
        before_enc = after_dec
    return out


def artefact_digests(sess: Session, payloads: list[Payload]) -> dict[str, str]:
    return {"model": _digest(sess.model_path), "table": _digest(sess.table_path),
            "payload": _digest(payloads[0].payload_path),
            "recon": _digest(payloads[0].recon_path)}


def _throughput(samples: list[tuple[int, float, float]], scaled: bool) -> float:
    """Vectors over seconds, summed over operations; seconds scaled if asked."""
    seconds = sum(s * (CALIBRATION_REF_S / c if scaled else 1.0) for _, s, c in samples)
    return sum(rows for rows, _, _ in samples) / seconds if seconds else 0.0


def _weighted(per_payload: dict[int, float], payloads: list[Payload]) -> float:
    rows = sum(len(payloads[i].features) for i in per_payload)
    return sum(v * len(payloads[i].features) for i, v in per_payload.items()) / max(rows, 1)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    digests: dict[str, str]
    notes: list[str]
    samples: dict[str, list[float]]
    spans: Tracer | None = None


def run_untraced(w: Workload, X: np.ndarray, work: Path, seconds: int) -> Result:
    """Set up SETUP_REPEATS times, then serve for `seconds`; end-to-end metrics."""
    notes = []
    setups = [set_up(w, X, work / f"setup{r}") for r in range(SETUP_REPEATS)]
    sess = setups[0][0]
    pairs = {(_digest(s.model_path), _digest(s.table_path)) for s, _ in setups}
    if len(pairs) != 1:
        notes.append("repeated set-ups produced different model or table bytes")

    payloads = make_payloads(w, X, work / "serve")
    ledger = Ledger()
    served = serve(sess, w, payloads, ledger, seconds)
    digests = artefact_digests(sess, payloads)

    # The worker count must never change results: re-encode with one worker.
    single = Payload(payloads[0].features, payloads[0].features_path,
                     work / "serve" / "payload0-1worker.msvp", payloads[0].recon_path)
    ledger.run("encode payload 0 with 1 worker", encode_op, sess, w, single, 1)
    if _digest(single.payload_path) != digests["payload"]:
        notes.append(f"encoding with 1 and {WORKERS} workers gave different payload bytes")

    total_rows = sum(len(payloads[i].features) for i in served.bytes)
    metrics = {
        "setup_s": statistics.median(t for _, t in setups),
        "encode_vps": _throughput(served.encode, scaled=True),
        "decode_vps": _throughput(served.decode, scaled=True),
        "payload_bits_per_vector": 8 * sum(served.bytes.values()) / max(total_rows, 1),
        "mse": _weighted(served.mse, payloads),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "encode_vps_raw": _throughput(served.encode, scaled=False),
        "decode_vps_raw": _throughput(served.decode, scaled=False),
    }
    samples = {"setup_s": [t for _, t in setups],
               "encode_s": [s for _, s, _ in served.encode],
               "decode_s": [s for _, s, _ in served.decode],
               "calibration_s": [c for _, _, c in served.encode + served.decode]}
    return Result(correct=not notes and ledger.failed == 0, attempted=ledger.attempted,
                  failed=ledger.failed, metrics=metrics, units=END_TO_END_UNITS,
                  digests=digests, notes=notes, samples=samples)


def _one_pass(w: Workload, X: np.ndarray, work: Path, ledger: Ledger,
              tracer: Tracer | None) -> tuple[float, dict[str, str]]:
    """One set-up and one pass over the payloads; returns (seconds, digests)."""
    with tracer.paused() if tracer else contextlib.nullcontext():
        payloads = make_payloads(w, X, work / "serve")
    sess, setup_s = set_up(w, X, work / "setup")
    served = serve(sess, w, payloads, ledger, None, tracer)
    elapsed = setup_s + sum(s for _, s, _ in served.encode + served.decode)
    return elapsed, artefact_digests(sess, payloads)


def run_traced(w: Workload, X: np.ndarray, work: Path) -> Result:
    """A fixed amount of work untraced, then the same traced; per-layer metrics.

    The work is fixed (one set-up, one pass over the payloads) rather than
    timed, so that the counts in the per-layer metrics repeat exactly.
    """
    ledger = Ledger()
    plain_s, plain_digests = _one_pass(w, X, work / "untraced", ledger, None)
    tracer = Tracer()
    with instrumented(tracer):
        traced_s, traced_digests = _one_pass(w, X, work / "traced", ledger, tracer)
    notes = [] if traced_digests == plain_digests else [
        f"tracing changed artefact bytes: {plain_digests} vs {traced_digests}"]
    metrics = layer_metrics(tracer.spans, 100.0 * (traced_s / plain_s - 1.0))
    return Result(correct=not notes and ledger.failed == 0, attempted=ledger.attempted,
                  failed=ledger.failed, metrics=metrics, units=PER_LAYER_UNITS,
                  digests=traced_digests, notes=notes, samples={}, spans=tracer)
