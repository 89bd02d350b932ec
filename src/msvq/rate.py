"""Marginal-loss table construction and greedy stage selection under a budget.

The table entry loss(i, T) is the mean squared feature-space error when
sub-vector i is truncated to T stages while every other sub-vector uses all
stages. Squared error decomposes across sub-vectors, so one full-depth
encoding pass yields the whole table; a direct per-entry evaluation lives in
the oracle module for cross-checking.

Selection starts from all-zero stage counts and repeatedly grants one more
stage to the sub-vector with the best loss drop per bit among those whose next
step still fits the budget, stopping when nothing fits (Fox 1966, marginal
analysis). Ties go to the lowest sub-vector index. Each sub-vector's next step
waits in a heap keyed by (-ratio, index); a step that does not fit is dropped
for good, because the bits used only grow. A plan costs O(picks log N).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# perfbench/spans.py wraps these two names on this module; they are not called here.
from .codebook import MsvqModel, nearest_batch, nearest_rate_penalized_batch
from .errors import ConfigError, CorruptionError, DataError
from .layout import check_features, freeze
from .quantizer import (
    SelectionPlan,
    cumulative_bits,
    group_blocks,
    map_row_chunks,
    split_subvectors,
    walk_stages,
)

MODE_EXACT = "exact"
MODE_AVERAGE = "average"


@dataclass(frozen=True)
class MarginalLossTable:
    """Lookup table driving stage selection.

    loss has shape (N, t_max + 1); step_bits has shape (N, t_max) and holds
    exact bit widths (mode "exact") or measured mean code lengths per module
    (mode "average").
    """

    loss: np.ndarray
    step_bits: np.ndarray
    mode: str

    @property
    def n_sub(self) -> int:
        return self.loss.shape[0]

    @property
    def t_max(self) -> int:
        return self.step_bits.shape[1]


def _table_pass(model: MsvqModel, sub: np.ndarray):
    """Per-chunk sums of cumulative sub-vector distortions and (EC) code lengths."""
    lay = model.layout
    n, t_max = lay.n_sub, lay.t_max
    dist_sums = np.empty((n, t_max + 1), dtype=np.float64)
    ec = model.ec_enabled
    len_sums = np.zeros((n, t_max), dtype=np.float64) if ec else None
    fallback = model.fallback_means.astype(np.float64)
    for i in range(n):
        diff = sub[:, i, :] - fallback[i]
        dist_sums[i, 0] = np.einsum("rd,rd->", diff, diff)
    for g, blk in group_blocks(lay, sub.shape[0]):
        books = model.codebooks[g]
        # contiguous per-sub-vector slices: einsum's reduction order follows the memory layout
        r = sub[:, blk].transpose(1, 0, 2).copy()
        for t in range(t_max):
            idx = walk_stages(books, model.lambdas, r, t, t + 1)[:, :, 0]
            for j in range(r.shape[0]):
                dist_sums[blk.start + j, t + 1] = np.einsum("rd,rd->", r[j], r[j])
                if ec:
                    len_sums[blk.start + j, t] = float(books[t].code_lengths[idx[j]].sum())
    return dist_sums, len_sums


def build_table(model: MsvqModel, data: np.ndarray, threads: int = 1) -> MarginalLossTable:
    """Build the marginal-loss table from a feature matrix.

    The table is in "average" mode (measured code lengths) for an
    entropy-constrained model and in "exact" mode (layout bits) otherwise.
    """
    Z = check_features(data, model.layout.m_dim)
    if Z.shape[0] < 1:
        raise DataError("cannot build a marginal-loss table from an empty feature matrix")
    lay = model.layout
    sub = split_subvectors(lay, Z)
    parts = map_row_chunks(lambda s: _table_pass(model, sub[s]), len(sub), threads)

    rows = sub.shape[0]
    dist = sum(p[0] for p in parts) / rows
    full_loss = float(dist[:, -1].sum())
    loss = full_loss - dist[:, -1:] + dist
    if model.ec_enabled:
        step_bits, mode = sum(p[1] for p in parts) / rows, MODE_AVERAGE
    else:
        step_bits, mode = lay.bits.astype(np.float64), MODE_EXACT
    return MarginalLossTable(loss=freeze(loss), step_bits=freeze(np.ascontiguousarray(step_bits)),
                             mode=mode)


def greedy_order(table: MarginalLossTable, b_cap: float) -> tuple[np.ndarray, float, list[int]]:
    """Greedy increments under the budget; returns (stages, used_bits, order).

    order lists the sub-vector index granted a stage at each pick, in pick
    order, which is also descending priority; used_bits adds the granted step
    bits in that order. used_bits is the sum greedy compared against b_cap,
    so it is the witness that the plan fits: used_bits <= b_cap always holds.
    plan_step_bits adds the same steps in row order and may differ from it by
    rounding.

    Each sub-vector's next step waits in a heap keyed by (-ratio, index), so
    the top is the best loss drop per bit and ties go to the lowest index.
    A popped step that does not fit is dropped for good: used_bits only grows
    and float addition is monotone, so it would not fit later either. A step
    whose ratio is not above -inf (an overflowed drop) is never pushed, as a
    scan that must beat -inf would never pick it. Each pick costs O(log N).
    """
    if not b_cap >= 0:
        raise ConfigError(f"bit budget must be non-negative, got {b_cap}")
    step_bits = table.step_bits
    n, t_max = step_bits.shape
    ratios = ((table.loss[:, :-1] - table.loss[:, 1:]) / step_bits).tolist()
    steps = step_bits.tolist()
    stages = [0] * n
    used = 0.0
    order: list[int] = []
    heap = [(-row[0], i) for i, row in enumerate(ratios) if t_max and row[0] > -np.inf]
    heapq.heapify(heap)
    while heap:
        _, i = heapq.heappop(heap)
        t = stages[i]
        step = steps[i][t]
        if used + step > b_cap:
            continue
        used += step
        stages[i] = t = t + 1
        order.append(i)
        if t < t_max and ratios[i][t] > -np.inf:
            heapq.heappush(heap, (-ratios[i][t], i))
    return np.array(stages, dtype=np.int64), used, order


def select_stages(table: MarginalLossTable, b_cap: float) -> SelectionPlan:
    """Derive the stage-count plan for a bit budget."""
    return SelectionPlan(stages=freeze(greedy_order(table, b_cap)[0]))


def plan_predicted_loss(table: MarginalLossTable, stages: np.ndarray) -> float:
    """Table-predicted total loss of a stage-count vector."""
    return float(table.loss[np.arange(table.n_sub), np.asarray(stages, dtype=np.int64)].sum())


def plan_step_bits(table: MarginalLossTable, stages: np.ndarray) -> float:
    """Cumulative step-bit cost of a stage-count vector under the table.

    Rows and then their totals are added left to right (cumsum), the order a
    scalar loop would use. This row-order sum is the reported total (the
    encode printout and the sweep's avg_bits column). It is not the
    feasibility test: greedy_order's pick-order sum is, and for a plan that
    fits b_cap this sum can exceed b_cap by rounding.
    """
    stages = np.asarray(stages, dtype=np.int64)
    per_row = cumulative_bits(table.step_bits)[np.arange(stages.size), stages]
    return float(np.cumsum(per_row)[-1]) if per_row.size else 0.0


def validate_convexity(table: MarginalLossTable) -> list[dict[str, bool]]:
    """Per-row report: strictly-decreasing losses and non-increasing drops.

    Greedy selection is provably optimal only when every row passes both
    checks and its step bits are equal; this is a report, not a gate.
    """
    out = []
    for row in table.loss:
        drops = row[:-1] - row[1:]
        out.append({
            "monotone": bool(np.all(drops > 0.0)),
            "convex": bool(np.all(np.diff(drops) <= 0.0)),
        })
    return out


def table_to_dict(table: MarginalLossTable) -> dict:
    return {
        "format": "MLT1",
        "n": table.n_sub,
        "t_max": table.t_max,
        "mode": table.mode,
        "loss": table.loss.tolist(),
        "step_bits": table.step_bits.tolist(),
    }


def _number_rows(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float64 array; it must be a list of lists of JSON numbers."""
    rows = doc[key]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(v) in (int, float) for v in row)
            for row in rows)):
        raise CorruptionError(f"table {key} must be rows of JSON numbers")
    return np.asarray(rows, dtype=np.float64)


def table_from_dict(doc: dict) -> MarginalLossTable:
    """The table an MLT1 document describes; anything else is a CorruptionError.

    The format marker must be exactly "MLT1", n and t_max JSON integers, and
    every loss and step_bits entry a JSON number: booleans and numeric strings
    are rejected, not converted.
    """
    if doc.get("format") != "MLT1":
        raise CorruptionError('table format marker is missing or not "MLT1"')
    try:
        n, t_max, mode = doc["n"], doc["t_max"], str(doc["mode"])
        loss, step_bits = _number_rows(doc, "loss"), _number_rows(doc, "step_bits")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptionError(f"malformed table document: {exc}") from exc
    if type(n) is not int or type(t_max) is not int:  # bool is an int subclass
        raise CorruptionError("table n and t_max must be JSON integers")
    if mode not in (MODE_EXACT, MODE_AVERAGE):
        raise CorruptionError(f"table mode {mode!r} is not exact/average")
    if loss.shape != (n, t_max + 1) or step_bits.shape != (n, t_max):
        raise CorruptionError(f"table shapes {loss.shape}/{step_bits.shape} do not match "
                              f"n={n}, t_max={t_max}")
    if not (np.all(np.isfinite(loss)) and np.all(np.isfinite(step_bits))):
        raise CorruptionError("table contains non-finite values")
    if np.any(step_bits <= 0):
        raise CorruptionError("table step bits must be positive")
    full = loss[:, -1]
    scale = max(float(np.abs(full).max()), 1e-30)
    if float(np.abs(full - full[0]).max()) > 1e-9 * scale:
        raise CorruptionError("last loss column must equal the full-model loss in every row")
    return MarginalLossTable(loss=freeze(loss), step_bits=freeze(step_bits), mode=mode)
