"""Brute-force references: exhaustive stage selection and direct marginal loss.

These are the independent sides of the dual-route checks. They share only the
table and plan types with the selection module and never call its internals;
clarity beats speed here, with a size guard keeping enumeration desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import MsvqModel
from .errors import ConfigError
from .quantizer import encode_batch, plan_layout, reconstruction_mse
from .rate import MarginalLossTable

MAX_PLANS = 10_000_000
_CHUNK = 65536


@dataclass(frozen=True)
class OracleResult:
    best_plan: np.ndarray
    best_loss: float
    enumerated: int


def exhaustive_select(table: MarginalLossTable, b_cap: float) -> OracleResult:
    """Enumerate every feasible plan and return the loss-minimal one.

    Plans are visited in lexicographic order, so loss ties resolve to the
    lexicographically smallest plan. enumerated counts the feasible plans.
    """
    n, t_max = table.step_bits.shape
    n_plans = (t_max + 1) ** n
    if n_plans > MAX_PLANS:
        raise ConfigError(f"{n_plans} candidate plans exceed the {MAX_PLANS} guard")

    cum_bits = np.zeros((n, t_max + 1), dtype=np.float64)
    cum_bits[:, 1:] = np.cumsum(table.step_bits, axis=1)
    radix = (t_max + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.arange(n)

    best_loss = np.inf
    best_id = -1
    feasible = 0
    for start in range(0, n_plans, _CHUNK):
        ids = np.arange(start, min(start + _CHUNK, n_plans), dtype=np.int64)
        digits = (ids[:, None] // radix[None, :]) % (t_max + 1)
        bits = cum_bits[rows, digits].sum(axis=1)
        ok = bits <= b_cap
        feasible += int(ok.sum())
        if not ok.any():
            continue
        losses = table.loss[rows, digits].sum(axis=1)
        losses[~ok] = np.inf
        j = int(np.argmin(losses))
        if losses[j] < best_loss:
            best_loss = float(losses[j])
            best_id = int(ids[j])

    if best_id < 0:
        raise ConfigError(f"no feasible plan under budget {b_cap}")
    plan = (best_id // radix) % (t_max + 1)
    plan.flags.writeable = False
    return OracleResult(best_plan=plan, best_loss=best_loss, enumerated=feasible)


def direct_marginal_loss(model: MsvqModel, data: np.ndarray, sub_index: int, t: int) -> float:
    """Mean squared loss with sub-vector sub_index truncated to t stages.

    Re-encodes the whole dataset for this single entry; no decomposition.
    """
    stages = np.full(model.layout.n_sub, model.t_max)
    stages[sub_index] = t
    _, z_hat = encode_batch(model, data, plan_layout(model, stages))
    return reconstruction_mse(data, z_hat)
