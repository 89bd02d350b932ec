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
for good, because the bits used only grow. Deriving a plan costs
O(picks log N). A table memoizes the plan of the last budget it was asked for
(MarginalLossTable.plan), so a process serving a stream at one budget derives
it once and repeating the last budget costs nothing. Serving takes the plan
quantizer.plan_layout makes of table.plan(b)[0], the read-only stage vector.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

# perfbench/spans.py wraps these two names on this module; they are not called here.
from .codebook import MsvqModel, nearest_batch, nearest_rate_penalized_batch
from .errors import ConfigError, CorruptionError, DataError
from .layout import check_features, freeze
from .quantizer import map_row_chunks, stage_block, walk_stages

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
    # (b_cap, stages, used, order) of the last budget plan() derived
    _last_plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def plan(self, b_cap: float) -> tuple[np.ndarray, float, tuple[int, ...]]:
        """greedy_order(self, b_cap) with read-only stages and the order as a tuple.

        The table keeps one plan, the last budget's, as one tuple that a miss
        swaps in whole: a thread sees the old plan or the new one, never a mix,
        and the memo stays O(N) whatever budgets the callers ask for. Every
        caller that repeats the last budget shares its plan.
        """
        last = self._last_plan
        if last is None or last[0] != b_cap:
            stages, used, order = greedy_order(self, b_cap)
            last = (b_cap, freeze(stages), used, tuple(order))
            object.__setattr__(self, "_last_plan", last)
        return last[1:]

    @property
    def n_sub(self) -> int:
        return self.loss.shape[0]

    @property
    def t_max(self) -> int:
        return self.step_bits.shape[1]


def _table_pass(model: MsvqModel, z: np.ndarray):
    """Per-chunk sums of cumulative sub-vector distortions and (EC) code lengths."""
    lay = model.layout
    n, t_max = lay.n_sub, lay.t_max
    dist_sums = np.empty((n, t_max + 1), dtype=np.float64)
    ec = model.ec_enabled
    len_sums = np.zeros((n, t_max), dtype=np.float64) if ec else None
    fallback = model.fallback_means.astype(np.float64)
    for g in range(lay.n_groups):
        books, blk = model.codebooks[g], lay.group_members(g)
        # (members, D, rows): the stage-0 einsums follow this memory order, which
        # their rounding depends on, as the later ones do each member's
        # contiguous residuals
        x = z.T[lay.group_columns(g)]
        for j in range(x.shape[0]):
            diff = x[j].T - fallback[blk.start + j]
            dist_sums[blk.start + j, 0] = np.einsum("rd,rd->", diff, diff)
        r = stage_block(x.transpose(0, 2, 1))
        for t in range(t_max):
            idx = walk_stages(model.search_tables[g], ec, r, t, t + 1)[:, :, 0]
            for j in range(r.shape[0]):
                res = np.ascontiguousarray(r[j, :, :-1])
                dist_sums[blk.start + j, t + 1] = np.einsum("rd,rd->", res, res)
                if ec:
                    len_sums[blk.start + j, t] = float(books[t].code_lengths[idx[j]].sum())
    return dist_sums, len_sums


def build_table(model: MsvqModel, data: np.ndarray, threads: int | None = 1) -> MarginalLossTable:
    """Build the marginal-loss table from a feature matrix.

    The table is in "average" mode (measured code lengths) for an
    entropy-constrained model and in "exact" mode (layout bits) otherwise.
    """
    Z = check_features(data, model.layout.m_dim)
    rows = Z.shape[0]
    if rows < 1:
        raise DataError("cannot build a marginal-loss table from an empty feature matrix")
    parts = map_row_chunks(lambda s: _table_pass(model, Z[s]), rows, threads)
    dist = sum(p[0] for p in parts) / rows
    full_loss = float(dist[:, -1].sum())
    loss = full_loss - dist[:, -1:] + dist
    if model.ec_enabled:
        step_bits, mode = sum(p[1] for p in parts) / rows, MODE_AVERAGE
    else:
        step_bits, mode = model.layout.bits.astype(np.float64), MODE_EXACT
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


def plan_predicted_loss(table: MarginalLossTable, stages: np.ndarray) -> float:
    """Table-predicted total loss of a stage-count vector."""
    return float(table.loss[np.arange(table.n_sub), np.asarray(stages, dtype=np.int64)].sum())


def cumulative_bits(bits: np.ndarray) -> np.ndarray:
    """(N, t_max) per-stage bits -> (N, t_max + 1) bits of each row's first t stages."""
    bits = np.asarray(bits)
    return np.concatenate([np.zeros((bits.shape[0], 1), dtype=bits.dtype),
                           np.cumsum(bits, axis=1)], axis=1)


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
