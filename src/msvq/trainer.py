"""Codebook training: multi-stage LBG on residuals, plus an entropy-constrained
variant.

Each codebook-sharing group's cascade is trained as one task. For stage t
the group's residual sub-vectors are pooled and fit with Lloyd iterations
seeded by k-means++; the finalized (float32) stage codebook then quantizes the
pooled points, and the residuals the search leaves feed stage t+1. A stage
depends only on the earlier stages of its own group, so each task gathers its
group's columns, keeps its residuals to itself and seeds stage t's rng with
[seed, t, g]; the tasks run on a worker pool (quantizer.map_workers), and the
model and report do not depend on the worker count. A Lloyd assignment
measures its distortions from those same residuals. In entropy-constrained
mode the assignment rule penalizes improbable codewords (lambda * distortion -
log2 prior) and the prior tracks smoothed empirical selection frequencies.

That final quantizing pass counts each codebook's selections
(TrainReport.codeword_usage); they equal the counts of a full-depth encoding
of the training data. In EC mode each codebook's Huffman code lengths are
built from the smoothed PMF of those counts (the cell counts of the training
partition, as in ECVQ), and the model is constructed once, complete; see
MsvqModel for the invariants it checks.

Each Lloyd round (lloyd_step) assesses the current parameters and proposes
their update. A round that worsens the objective is rejected and the last
accepted parameters are returned; on convergence the parameters just assessed
are. The trace is non-increasing. When max_iters runs out first, the fit
returns the last round's update, which is never assessed and whose objective
is not in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import entropy
from .codebook import (
    Codebook,
    MsvqModel,
    check_lambdas,
    nearest_batch,
    nearest_rate_penalized_batch,
    search_constants,
)
from .errors import ConfigError, DataError
from .layout import SubVectorLayout, check_features, freeze
from .quantizer import map_workers, stage_block, walk_stages

_ACCEPT_SLACK = 1e-12  # relative; rejects rounds that worsen the objective


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs; lambdas (one per stage) are taken only in EC mode."""

    max_iters: int = 50
    rel_tol: float = 1e-5
    seed: int = 0
    ec: bool = False
    lambdas: Sequence[float] | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.rel_tol < np.inf:  # a NaN tolerance would never stop a fit
            raise ConfigError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.lambdas is not None and not self.ec:
            raise ConfigError("lambdas apply only to entropy-constrained training (ec)")


@dataclass
class TrainReport:
    """Convergence traces and usage histograms of a training run.

    per_stage_distortion[t] is the mean residual energy per vector after the
    finalized stage t+1 quantized the training data. objective_traces and
    usage are keyed by (group, stage), both 0-based; traces hold mean
    distortion per point (plain mode) or the Lagrangian lambda * distortion +
    mean code bits (EC mode), one entry per Lloyd round whose objective the
    fit kept, so a fit's iteration count is its trace's length.
    """

    per_stage_distortion: list[float] = field(default_factory=list)
    objective_traces: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    codeword_usage: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def iterations(self) -> dict[tuple[int, int], int]:
        return {key: len(trace) for key, trace in self.objective_traces.items()}

    def to_dict(self) -> dict:
        n_stages = len(self.per_stage_distortion)
        groups = sorted({g for g, _ in self.objective_traces})
        return {
            "stages": [
                {
                    "stage": t + 1,
                    "distortion": self.per_stage_distortion[t],
                    "groups": [
                        {
                            "group": g,
                            "iterations": len(self.objective_traces[(g, t)]),
                            "objective_trace": self.objective_traces[(g, t)],
                            "usage": self.codeword_usage[(g, t)].tolist(),
                        }
                        for g in groups
                    ],
                }
                for t in range(n_stages)
            ]
        }


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed k centers: first uniform, then proportional to squared distance.

    Each draw is the one rng.choice(n, p=d2 / total) makes (the cumulative
    sum of p, scaled to end at 1, searched for one uniform draw), without
    choice's checks of p; the scratch arrays are allocated once. Raises
    DataError when the squared distances overflow.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    diff = np.empty_like(points, dtype=np.float64)
    d2, new, cdf = (np.empty(n, dtype=np.float64) for _ in range(3))
    centers[0] = points[rng.integers(n)]
    np.einsum("nd,nd->n", np.subtract(points, centers[0], out=diff), diff, out=d2)
    for c in range(1, k):
        total = float(d2.sum())
        if not np.isfinite(total):
            raise DataError("squared distances overflow while seeding codewords; "
                            "scale the features down")
        if total <= 0.0:
            j = int(rng.integers(n))
        else:
            np.cumsum(np.divide(d2, total, out=cdf), out=cdf)
            cdf /= cdf[-1]
            j = int(cdf.searchsorted(rng.random(), side="right"))
        centers[c] = points[j]
        np.einsum("nd,nd->n", np.subtract(points, centers[c], out=diff), diff, out=new)
        np.minimum(d2, new, out=d2)
    return centers


def _assign(points, vectors, prior, rd_lambda):
    """(indices, distortions, objective) of one assignment pass, rate-penalized
    when rd_lambda is given; einsum rounds by memory order, so the distortions
    sum contiguous residuals."""
    block = stage_block(points)
    consts = search_constants(vectors, prior, rd_lambda)
    kernel = nearest_batch if rd_lambda is None else nearest_rate_penalized_batch
    idx, res = kernel(block, *consts)
    res = np.ascontiguousarray(res)
    dist = np.einsum("pd,pd->p", res, res)
    objective = float(dist.mean())
    if rd_lambda is not None:
        objective = rd_lambda * objective + float(np.mean(-np.log2(prior[idx])))
    return idx, dist, objective


def _cell_sums(points, idx, k):
    """(k, D) sum of each cell's points, added in input order (as np.add.at
    does), one bincount per dimension."""
    sums = np.empty((k, points.shape[1]), dtype=np.float64)
    for d in range(points.shape[1]):
        sums[:, d] = np.bincount(idx, weights=points[:, d], minlength=k)
    return sums


def _update_centers(points, idx, dist, vectors):
    """Cell means for non-empty cells; empty cells grab the worst-quantized point."""
    k = vectors.shape[0]
    counts = np.bincount(idx, minlength=k)
    sums = _cell_sums(points, idx, k)
    new = vectors.astype(np.float64).copy()
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    err = dist.copy()
    for cell in np.flatnonzero(~nonempty):
        worst = int(np.argmax(err))
        new[cell] = points[worst]
        err[worst] = 0.0
    return new, counts


def lloyd_step(
    points: np.ndarray,
    codebook: Codebook,
    rd_lambda: float | None = None,
) -> tuple[Codebook, float]:
    """One (assign, update, re-prior, reseed) round.

    With rd_lambda the round is entropy-constrained: points go to the codeword
    minimizing rd_lambda * distortion - log2 prior, and the prior is
    re-estimated from the cell counts; without it the round is plain and the
    prior is passed through. Returns the updated codebook and the objective
    measured under the input codebook.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise DataError(f"need at least one point, got shape {points.shape}")
    idx, dist, objective = _assign(points, codebook.vectors, codebook.prior, rd_lambda)
    new_vectors, counts = _update_centers(points, idx, dist, codebook.vectors)
    new_prior = codebook.prior if rd_lambda is None else entropy.smoothed_pmf(counts)
    updated = Codebook(vectors=new_vectors, prior=new_prior,
                       code_lengths=codebook.code_lengths)
    return updated, objective


def _fit_codebook(points, k, rng, rd_lambda, max_iters, rel_tol):
    book = Codebook(vectors=_kmeanspp(points, k, rng),
                    prior=None if rd_lambda is None else np.full(k, 1.0 / k))
    accepted = book
    trace: list[float] = []
    for _ in range(max_iters):
        updated, objective = lloyd_step(points, book, rd_lambda)
        if trace and objective > trace[-1] * (1.0 + _ACCEPT_SLACK):
            book = accepted
            break
        trace.append(objective)
        if len(trace) > 1 and (trace[-2] - trace[-1]) <= rel_tol * abs(trace[-2]):
            break
        accepted, book = book, updated
    return book.vectors, book.prior, trace


def _resolve_lambdas(config: TrainConfig, t_max: int, data: np.ndarray) -> np.ndarray | None:
    """None (plain), the configured lambdas, or 2 / data's mean variance per stage."""
    if not config.ec:
        return None
    if config.lambdas is None:
        variance = float(data.var(axis=0).mean())
        return np.full(t_max, 2.0 / max(variance, 1e-30), dtype=np.float64)
    return check_lambdas(config.lambdas, t_max)


def train(
    data: np.ndarray,
    layout: SubVectorLayout,
    config: TrainConfig,
    threads: int | None = None,
) -> tuple[MsvqModel, TrainReport]:
    """Train all stage codebooks on a feature matrix.

    Each group's cascade is one task, and the tasks run on up to `threads`
    workers (default: every usable core, capped at the group count; see
    quantizer.map_workers); the model and report do not depend on the worker
    count. Raises DataError when data has fewer rows than the largest codebook
    has codewords, when seeding overflows, or when residual propagation
    produces non-finite values (reported for the lowest (stage, group)). Each
    group pools rows x members >= rows residuals per stage, so every codebook
    then has enough points to fill.
    """
    data = check_features(data, layout.m_dim)
    rows = data.shape[0]
    max_k = 1 << int(layout.bits.max())
    if rows < max_k:
        raise DataError(f"need at least {max_k} rows (largest codebook size), got {rows}")

    lambdas = _resolve_lambdas(config, layout.t_max, data)
    seed = int(config.seed) & 0xFFFFFFFFFFFFFFFF

    def fit_group(g: int):
        """Fit group g's stages in order until one leaves non-finite residuals.
        Returns its fallback means, its codebooks, each fitted stage's (trace,
        usage, residual energy), and the (stage, group, member) that failed, or None."""
        # one (members, D, rows) gather: the means sum each coordinate's rows in
        # that memory order. The pooled points (a view of it for a one-member
        # group) keep their own memory order, which the seeding's and the
        # energy's einsum sums round by: each stage walks a stage block of them
        # and copies its residuals back
        pts = data.T[layout.group_columns(g)]
        means = pts.mean(axis=2)
        pts = pts.transpose(2, 0, 1).reshape(-1, layout.sub_dim)
        books, tables, stages = [], [], []
        for t in range(layout.t_max):
            k = 1 << int(layout.group_bits(g)[t])
            lam = None if lambdas is None else float(lambdas[t])
            centers, prior, trace = _fit_codebook(
                pts, k, np.random.default_rng([seed, t, g]), lam, config.max_iters,
                config.rel_tol)
            if prior is not None:
                prior = np.maximum(prior, entropy.PRIOR_FLOOR)
                prior = freeze(prior / prior.sum())
            books.append(Codebook(vectors=freeze(centers.astype(np.float32)), prior=prior))
            tables.append(search_constants(books[t].vectors, prior, lam))
            block = stage_block(pts)[None]
            idx = walk_stages(tables, lam is not None, block, t, t + 1)
            pts[:] = block[0, :, :-1]
            stages.append((trace, np.bincount(idx.ravel(), minlength=k),
                           float(np.einsum("pd,pd->", pts, pts))))
            finite = np.isfinite(pts.reshape(rows, -1, layout.sub_dim)).all(axis=(0, 2))
            if not finite.all():
                return means, books, stages, (t, g, int(finite.argmin()))
        return means, books, stages, None

    means, books, stages, failed = zip(*map_workers(fit_group, range(layout.n_groups), threads))
    if any(failed):
        t, g, j = min(f for f in failed if f)
        raise DataError(f"non-finite residuals after stage {t + 1} (sub-vector "
                        f"{layout.group_members(g).start + j}, group {g})")
    report = TrainReport()
    for t in range(layout.t_max):
        fitted = [group[t] for group in stages]
        for g, (trace, usage, _) in enumerate(fitted):
            report.objective_traces[(g, t)] = trace
            report.codeword_usage[(g, t)] = usage
        report.per_stage_distortion.append(sum(f[2] for f in fitted) / rows)

    if lambdas is not None:
        pmfs = entropy.measure_group_pmfs(report.codeword_usage)
        books = [[replace(cb, code_lengths=entropy.build_code(pmfs[g, t]).lengths)
                  for t, cb in enumerate(group)] for g, group in enumerate(books)]
    model = MsvqModel(
        layout=layout,
        codebooks=tuple(tuple(group) for group in books),
        fallback_means=freeze(np.concatenate(means).astype(np.float32)),
        lambdas=None if lambdas is None else freeze(lambdas),
    )
    return model, report
