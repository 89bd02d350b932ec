"""msvq benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a source checkout; the codec is imported from ./src:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` sets up the workload SETUP_REPEATS times, serves it in a closed
loop for ``--seconds`` and reports the end-to-end metrics. ``--trace 1`` runs
one set-up and one pass over the payloads untraced, then the same traced, and
reports the per-layer metrics. ``--workload all`` runs every workload both
ways, each in its own process. ``--heldout`` draws the inputs from a seed
stream kept apart from the plain seeds, for confirming a claim on data not
used while writing it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Settings, artefact digests and (traced) spans
are also written under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# fail_ratio is carried by attempted/failed instead: it is 0 on a healthy run,
# so a bound expressed as a share of its median would be meaningless. The raw
# rates are printed beside the calibrated ones that the result reports.
_PRINTED_ONLY = {"fail_ratio", "encode_vps_raw", "decode_vps_raw"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="draw inputs from the held-out seed stream")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_codec():
    """Import bench (and with it msvq) from this checkout, never from elsewhere."""
    if not (SRC / "msvq" / "__init__.py").is_file():
        raise SystemExit(f"error: no codec sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bench
    import msvq

    if Path(msvq.__file__).resolve().parent != SRC / "msvq":
        raise SystemExit(f"error: msvq was imported from {msvq.__file__}, not {SRC}")
    return bench


def _run_one(args) -> int:
    bench = _import_codec()
    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(bench.WORKLOADS)} or all")
    w = bench.WORKLOADS[args.workload]
    setup = bench.settings(w, args.seed, args.heldout, args.seconds, bool(args.trace))
    label = f"{w.name}-seed{args.seed}{'-heldout' if args.heldout else ''}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    try:
        X = bench.make_inputs(w, args.seed, args.heldout)
        if args.trace:
            result = bench.run_traced(w, X, work)
        else:
            result = bench.run_untraced(w, X, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"settings": setup, "correct": result.correct, "attempted": result.attempted,
              "failed": result.failed, "digests": result.digests, "notes": result.notes,
              "metrics": {k: {"value": v, "unit": result.units[k]}
                          for k, v in result.metrics.items()},
              "samples": result.samples}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.spans is not None:
        result.spans.write(OUT / f"{label}.spans.jsonl")

    print("settings " + json.dumps(setup))
    print("digests " + " ".join(f"{k}={v}" for k, v in result.digests.items()))
    for note in result.notes:
        print(f"CHECK FAILED: {note}")
    for name, value in result.metrics.items():
        print(f"{w.name} {name} = {value:.6g} {result.units[name]}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": {k: v for k, v in record["metrics"].items()
                                  if k not in _PRINTED_ONLY}}))
    return 0


def _run_all(args) -> int:
    bench = _import_codec()
    summary = {}
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--heldout"] if args.heldout else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"error: {' '.join(cmd)} exited with {proc.returncode}", file=sys.stderr)
                return 1
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
