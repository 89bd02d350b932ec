"""Rate-adaptive multi-stage vector quantization codec.

Feature vectors are split into variance-sorted sub-vectors, each quantized by
a cascade of residual codebooks. An offline marginal-loss table drives greedy
per-sub-vector stage selection under a bit budget, optionally with entropy
coding of the codeword indices, and everything serializes to documented
container formats.
"""

from .codebook import Codebook, MsvqModel, codeword_param_count
from .entropy import HuffmanCode, avg_bits, build_code
from .errors import ConfigError, CorruptionError, DataError, MsvqError, StateError
from .layout import (
    SubVectorLayout,
    allocation_preset,
    build_layout,
    compute_stats,
)
from .oracle import OracleResult, direct_marginal_loss, exhaustive_select
from .quantizer import (
    PlanLayout,
    decode_batch,
    encode_batch,
    encode_fields,
    full_plan,
    plan_layout,
    reconstruction_mse,
)
from .rate import MarginalLossTable, build_table, validate_convexity
from .trainer import TrainConfig, TrainReport, lloyd_step, train

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "ConfigError",
    "CorruptionError",
    "DataError",
    "HuffmanCode",
    "MarginalLossTable",
    "MsvqError",
    "MsvqModel",
    "OracleResult",
    "PlanLayout",
    "StateError",
    "SubVectorLayout",
    "TrainConfig",
    "TrainReport",
    "allocation_preset",
    "avg_bits",
    "build_code",
    "build_layout",
    "build_table",
    "codeword_param_count",
    "compute_stats",
    "decode_batch",
    "direct_marginal_loss",
    "encode_batch",
    "encode_fields",
    "exhaustive_select",
    "full_plan",
    "lloyd_step",
    "plan_layout",
    "reconstruction_mse",
    "train",
    "validate_convexity",
]
