"""Command-line surface: gen | train | table | encode | decode | sweep | verify | info.

Every command is deterministic given its inputs and seed; sweep reports differ
only in the wall-time column across runs. Decoding is bit-exact under any BLAS
build; training, the table pass and encoding search by BLAS matrix products
and are reproducible within one BLAS build. Error classes map to exit codes:
config 2, data 3, corruption 4, state 5.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import bitstream, datagen, oracle, rate
from .errors import ConfigError, MsvqError
from .layout import PRESETS, build_layout, compute_stats
from .quantizer import (
    decode_batch,
    encode_batch,
    encode_fields,
    exact_bit_total,
    field_order,
    full_plan,
    reconstruction_mse,
)
from .trainer import TrainConfig, train


def _resolve_threads(value: int | None) -> int | None:
    """--threads, else MSVQ_THREADS, else None (every usable core); errors name the source."""
    name = "--threads"
    if value is None:
        env = os.environ.get("MSVQ_THREADS")
        if not env:
            return None
        name = "MSVQ_THREADS"
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"MSVQ_THREADS must be an integer, got {env!r}") from exc
    if value < 1:
        raise ConfigError(f"{name} must be at least 1, got {value}")
    return value


def _parse_lambdas(text: str | None, t_max: int) -> list[float] | None:
    if text is None:
        return None
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--lambda must be comma-separated numbers, got {text!r}") from exc
    if len(values) == 1:
        values = values * t_max
    return values


def _parse_grid(text: str) -> list[int]:
    try:
        lo, hi, step = (int(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"budget grid must be lo:hi:step, got {text!r}") from exc
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad budget grid {text!r}")
    return list(range(lo, hi + 1, step))


def _stage_hist(stages: np.ndarray, t_max: int) -> str:
    counts = np.bincount(stages, minlength=t_max + 1)
    return "|".join(str(int(c)) for c in counts)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_svg(path: str, xs, ys, xlabel: str, ylabel: str) -> None:
    width, height, margin = 640, 440, 70
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xs_span = (x1 - x0) or 1.0
    ys_span = (y1 - y0) or 1.0

    def px(x):
        return margin + (x - x0) / xs_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y0) / ys_span * (height - 2 * margin)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    dots = "".join(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f6fb2"/>'
                   for x, y in zip(xs, ys))
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="{width}" height="{height}" fill="white"/>
<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>
<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>
<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>
{dots}
<text x="{width / 2:.0f}" y="{height - 18}" text-anchor="middle" font-size="13">{xlabel}</text>
<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="13" transform="rotate(-90 18 {height / 2:.0f})">{ylabel}</text>
<text x="{margin}" y="{height - margin + 16}" font-size="11" text-anchor="middle">{_fmt(x0)}</text>
<text x="{width - margin}" y="{height - margin + 16}" font-size="11" text-anchor="middle">{_fmt(x1)}</text>
<text x="{margin - 6}" y="{height - margin}" font-size="11" text-anchor="end">{y0:.4g}</text>
<text x="{margin - 6}" y="{margin + 4}" font-size="11" text-anchor="end">{y1:.4g}</text>
</svg>
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _cmd_gen(args) -> int:
    data = datagen.generate(args.dist, args.rows, args.dim, args.seed,
                            rho=args.rho, components=args.components)
    bitstream.write_features(args.out, data)
    print(f"wrote {args.rows}x{args.dim} {args.dist} features to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if (args.alloc == "file") != (args.alloc_file is not None):
        raise ConfigError("--alloc-file PATH goes with --alloc file, and only with it")
    data = bitstream.read_features(args.data)
    stats = compute_stats(data)
    if args.alloc == "file":
        with open(args.alloc_file, "r", encoding="utf-8") as fh:
            try:
                alloc = np.asarray(json.load(fh), dtype=np.float64)
            except (ValueError, TypeError, RecursionError) as exc:
                raise ConfigError(f"{args.alloc_file}: not a JSON bit matrix: {exc}") from exc
    else:
        alloc = args.alloc
    layout = build_layout(stats, args.sub_dim, args.t_max, args.groups, alloc)
    config = TrainConfig(
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        seed=args.seed,
        ec=args.ec,
        lambdas=_parse_lambdas(getattr(args, "lambda"), args.t_max),
    )
    model, report = train(data, layout, config, threads=_resolve_threads(args.threads))
    bitstream.write_model(args.out, model)
    print(json.dumps(report.to_dict(), indent=2))
    print(f"wrote model to {args.out}")
    return 0


def _cmd_table(args) -> int:
    if args.bind:
        bitstream.bind_table(args.model, args.bind)
        print(f"bound {args.model} to externally supplied table {args.bind}")
        return 0
    model, _ = bitstream.read_model(args.model)
    if not args.data or not args.out:
        raise ConfigError("table requires --data and --out (or --bind PATH)")
    data = bitstream.read_features(args.data)
    table = rate.build_table(model, data, threads=_resolve_threads(args.threads))
    bitstream.write_table(args.out, table)
    bitstream.bind_table(args.model, args.out)
    report = rate.validate_convexity(table)
    monotone = sum(r["monotone"] for r in report)
    convex = sum(r["convex"] for r in report)
    print(f"monotone rows: {monotone}/{len(report)}")
    print(f"convex rows:   {convex}/{len(report)}")
    for i, r in enumerate(report):
        if not (r["monotone"] and r["convex"]):
            print(f"  row {i}: monotone={r['monotone']} convex={r['convex']}")
    print(f"wrote table to {args.out} and stamped its digest into {args.model}")
    return 0


def _cmd_encode(args) -> int:
    model, info, table = bitstream.read_bound_pair(args.model, args.table)
    data = bitstream.read_features(args.data)
    result = bitstream.write_payload(
        args.out, model, info.file_digest, table, data, args.b_cap,
        strict=args.strict, threads=_resolve_threads(args.threads))
    print(f"encoded {result.count} vectors at b_cap={args.b_cap} "
          f"({bitstream.MODE_NAMES[result.mode]})")
    stages = result.plan.stages
    print(f"plan exact bits: {exact_bit_total(model.layout, stages)}"
          + (f", avg bits: {rate.plan_step_bits(table, stages):.4f}"
             if table.mode == rate.MODE_AVERAGE else ""))
    print(f"mean payload bits/vector: {result.bits_per_vector.mean():.4f} "
          f"(max {int(result.bits_per_vector.max(initial=0))})")
    return 0


def _cmd_decode(args) -> int:
    model, info, table = bitstream.read_bound_pair(args.model, args.table)
    z_hat, pinfo = bitstream.read_payload(args.payload, model, info.file_digest, table)
    bitstream.write_features(args.out, z_hat.astype(np.float32))
    print(f"decoded {pinfo.count} vectors to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    model, _, table = bitstream.read_bound_pair(args.model, args.table)
    data = bitstream.read_features(args.data)
    budgets = sorted(_parse_grid(args.b_cap_grid))
    threads = _resolve_threads(args.threads)
    lay = model.layout

    Z = np.asarray(data, dtype=np.float64)
    full = full_plan(lay)
    symbols = encode_fields(model, Z, full, threads=threads)

    rows = []
    for b_cap in budgets:
        start = time.perf_counter()
        plan = rate.select_stages(table, float(b_cap))
        planned = symbols[:, field_order(plan.stages, full.stages)[2]]
        z_hat = decode_batch(model, planned, plan)
        mse = reconstruction_mse(Z, z_hat)
        bits = bitstream.field_code_bits(model, plan.stages, planned).sum(axis=1)
        elapsed = time.perf_counter() - start
        rows.append({
            "b_cap": b_cap,
            "exact_bits": exact_bit_total(lay, plan.stages),
            "avg_bits": (rate.plan_step_bits(table, plan.stages)
                         if table.mode == rate.MODE_AVERAGE else ""),
            "stage_hist": _stage_hist(plan.stages, lay.t_max),
            "predicted_loss": rate.plan_predicted_loss(table, plan.stages),
            "measured_mse": mse,
            "mean_payload_bits": float(bits.mean()),
            "wall_time_s": round(elapsed, 6),
        })

    columns = ["b_cap", "exact_bits", "avg_bits", "stage_hist", "predicted_loss",
               "measured_mse", "mean_payload_bits", "wall_time_s"]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    if args.plot:
        _write_svg(args.plot, [r["b_cap"] for r in rows],
                   [r["measured_mse"] for r in rows],
                   "bit budget", "measured MSE")
        print(f"wrote rate-distortion curve to {args.plot}")
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ConfigError(f"--max-n must be at least 1, got {args.max_n}")
    model, info, table = bitstream.read_bound_pair(args.model, args.table)
    data = bitstream.read_features(args.data)
    Z = np.asarray(data, dtype=np.float64)
    lay = model.layout
    failures = 0

    def emit(ok: bool, name: str, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    sample = Z[:min(256, Z.shape[0])]
    b_cap = int(lay.bits.sum())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round_trip.msvp")
        bitstream.write_payload(path, model, info.file_digest, table, sample, b_cap)
        decoded, pinfo = bitstream.read_payload(path, model, info.file_digest, table)
    round_trip = np.array_equal(decoded, encode_batch(model, sample, pinfo.plan)[1])
    emit(round_trip, "round_trip",
         f"{sample.shape[0]} vectors at b_cap={b_cap}, payload decode bit-exact")

    pairs = sorted({(i, t) for i in {0, lay.n_sub // 2, lay.n_sub - 1}
                    for t in {0, lay.t_max // 2, lay.t_max}})
    worst = 0.0
    for i, t in pairs:
        direct = oracle.direct_marginal_loss(model, Z, i, t)
        entry = float(table.loss[i, t])
        worst = max(worst, abs(direct - entry) / max(abs(direct), 1e-30))
    emit(worst <= 1e-9, "table_consistency",
         f"{len(pairs)} entries re-evaluated directly, worst rel err {worst:.3e}")

    total_bits = float(table.step_bits.sum())
    budgets = [0.0, 0.25 * total_bits, 0.5 * total_bits, 0.75 * total_bits, total_bits]
    feasible = True
    deterministic = True
    plans = []
    for b in budgets:
        # used is the pick-order sum greedy compared against b; the row-order
        # plan_step_bits may exceed b by rounding on a plan that fits
        stages, used, _ = rate.greedy_order(table, b)
        deterministic &= np.array_equal(stages, rate.greedy_order(table, b)[0])
        feasible &= used <= b
        plans.append(stages)
    emit(feasible, "budget_feasibility", f"{len(budgets)} budgets within cap")
    emit(deterministic, "determinism", "repeated selection yields identical plans")

    uniform_steps = bool(np.all(table.step_bits == table.step_bits.flat[0]))
    if uniform_steps:
        nested = all(np.all(a <= b) for a, b in zip(plans[:-1], plans[1:]))
        emit(nested, "nested_plans", "plans grow coordinatewise with the budget")
    else:
        print("SKIP nested_plans: step bits are not uniform; nesting is not guaranteed")

    max_n = min(args.max_n, lay.n_sub)
    reduced = rate.MarginalLossTable(loss=table.loss[:max_n],
                                     step_bits=table.step_bits[:max_n], mode=table.mode)
    convexity = rate.validate_convexity(reduced)
    fox = uniform_steps and all(r["monotone"] and r["convex"] for r in convexity)
    reduced_total = float(reduced.step_bits.sum())
    gaps = []
    exact = True
    for frac in (0.2, 0.4, 0.6, 0.8):
        b = frac * reduced_total
        greedy_loss = rate.plan_predicted_loss(reduced, rate.select_stages(reduced, b).stages)
        best = oracle.exhaustive_select(reduced, b)
        exact &= greedy_loss <= best.best_loss + 1e-12 * abs(best.best_loss)
        gaps.append((greedy_loss - best.best_loss) / max(abs(best.best_loss), 1e-30))
    if fox:
        emit(exact, "greedy_vs_oracle",
             f"first {max_n} rows, 4 budgets, exact match required (optimality "
             f"conditions hold)")
    else:
        print(f"INFO greedy_vs_oracle: optimality conditions not met; "
              f"max gap {max(gaps):.3%} over 4 budgets on first {max_n} rows")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing properties")
    return 0 if failures == 0 else 1


def _cmd_info(args) -> int:
    for path in args.files:
        with open(path, "rb") as fh:
            head = fh.read(4)
        print(f"{path}:")
        if head == bitstream.MODEL_MAGIC:
            model, info = bitstream.read_model(path)
            lay = model.layout
            print(f"  model v{bitstream.MODEL_VERSION}: M={lay.m_dim} D={lay.sub_dim} "
                  f"N={lay.n_sub} G={lay.n_groups} T_max={lay.t_max}")
            print(f"  ec={model.ec_enabled}")
            print(f"  table_digest={info.table_digest:#018x}")
            print(f"  file_digest={info.file_digest:#018x}")
        elif head == bitstream.PAYLOAD_MAGIC:
            with open(path, "rb") as fh:
                header = bitstream.parse_payload_header(
                    fh.read(bitstream.PAYLOAD_HEADER_SIZE), path)
            print(f"  payload v{bitstream.PAYLOAD_VERSION}: {header.count} vectors, "
                  f"b_cap={header.b_cap}, {bitstream.MODE_NAMES[header.mode]}")
            print(f"  model_digest={header.model_digest:#018x}")
        elif head == bitstream.FMAT_MAGIC:
            data = bitstream.read_features(path)
            print(f"  features v1: {data.shape[0]} rows x {data.shape[1]} cols (f32)")
        else:
            try:
                table = bitstream.read_table(path)
            except MsvqError:
                print("  unrecognized format")
                continue
            print(f"  table (MLT1): n={table.n_sub} t_max={table.t_max} mode={table.mode}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msvq",
        description="Rate-adaptive multi-stage vector quantization codec.")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap for training, the table pass and encoding "
                             "(default: MSVQ_THREADS or the usable cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic features (FMAT1)")
    p.add_argument("--dist", required=True, choices=["gauss-iid", "gauss-corr", "gmm"])
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=0.9, help="gauss-corr correlation")
    p.add_argument("--components", type=int, default=4, help="gmm component count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train stage codebooks and write a model")
    p.add_argument("--data", required=True)
    p.add_argument("--sub-dim", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--alloc", required=True, choices=[*PRESETS, "file"])
    p.add_argument("--alloc-file", help="JSON bit matrix when --alloc file")
    p.add_argument("--ec", action="store_true", help="entropy-constrained training")
    p.add_argument("--lambda", dest="lambda", default=None,
                   help="per-stage distortion weights l1,l2,... (EC mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--rel-tol", type=float, default=1e-5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("table", help="build the marginal-loss table and bind it")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--bind", help="bind the model to an existing table file instead "
                                  "of building one (for externally supplied losses)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("encode", help="encode features into an MSVP payload")
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--b-cap", type=int, required=True)
    p.add_argument("--strict", action="store_true",
                   help="shrink the plan until every vector fits b_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode an MSVP payload back to features")
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--payload", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("sweep", help="rate-distortion sweep over a budget grid")
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--b-cap-grid", required=True, help="lo:hi:step in bits")
    p.add_argument("--out", required=True)
    p.add_argument("--plot", help="optional SVG rate-distortion curve")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run oracle cross-checks, print PASS/FAIL")
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--max-n", type=int, default=6,
                   help="rows of the reduced table for exhaustive search")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("info", help="dump file headers")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MsvqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
