import numpy as np
import pytest

from msvq import bitstream, datagen, entropy, layout, quantizer, trainer
from msvq.codebook import Codebook, MsvqModel


# (M, D, N) of model headers whose layout has no coordinates: no sub-vectors,
# or sub-vectors of dimension 0
EMPTY_LAYOUTS = [(0, 4, 0), (0, 0, 2)]


def empty_layout_model(m: int, d: int, n: int) -> bytes:
    """A plain one-group, one-stage model file with the given M, D and N: header,
    identity perm, group map and 5-bit widths; with M = N * D = 0 the means and
    codewords take no bytes."""
    return (bitstream._MODEL_HEADER.pack(bitstream.MODEL_MAGIC, bitstream.MODEL_VERSION, 0,
                                         m, d, n, 1, 1, 0)
            + np.arange(m, dtype="<u4").tobytes() + np.zeros(n, dtype="<u4").tobytes()
            + bytes([5] * n))


@pytest.fixture(scope="session")
def corr_data():
    return datagen.gauss_corr(2048, 16, 0.9, seed=7)


@pytest.fixture(scope="session")
def small_layout(corr_data):
    stats = layout.compute_stats(corr_data)
    return layout.build_layout(stats, sub_dim=4, t_max=3, groups=2,
                               alloc=np.full((4, 3), 5))


@pytest.fixture(scope="session")
def trained(corr_data, small_layout):
    return trainer.train(corr_data, small_layout, trainer.TrainConfig(seed=3))


@pytest.fixture(scope="session")
def model(trained):
    return trained[0]


@pytest.fixture(scope="session")
def report(trained):
    return trained[1]


@pytest.fixture(scope="session")
def ec_trained(corr_data, small_layout):
    config = trainer.TrainConfig(seed=3, ec=True, lambdas=[8.0, 8.0, 8.0])
    return trainer.train(corr_data, small_layout, config)


@pytest.fixture(scope="session")
def ec_model(ec_trained):
    return ec_trained[0]


def make_layout(n_sub, sub_dim, bits_row, groups=1):
    """Layout with identical bit rows; perm is the identity."""
    bits = np.tile(np.asarray(bits_row, dtype=np.int64), (n_sub, 1))
    m = n_sub * sub_dim
    return layout.assemble_layout(
        m, sub_dim, n_sub,
        perm=np.arange(m),
        group_of=np.repeat(np.arange(groups), n_sub // groups),
        bits=bits,
    )


def make_toy_model(lay, rng, ec=False):
    """Random-codebook model for structural tests; priors uniform in EC mode,
    with the Huffman code lengths of those priors."""
    books = []
    for g in range(lay.n_groups):
        row = []
        for t in range(lay.t_max):
            k = 1 << int(lay.group_bits(g)[t])
            vec = rng.normal(size=(k, lay.sub_dim)).astype(np.float32)
            prior = np.full(k, 1.0 / k) if ec else None
            lengths = entropy.build_code(prior).lengths if ec else None
            row.append(Codebook(vectors=vec, prior=prior, code_lengths=lengths))
        books.append(tuple(row))
    fallback = rng.normal(size=(lay.n_sub, lay.sub_dim)).astype(np.float32)
    lambdas = np.ones(lay.t_max) if ec else None
    return MsvqModel(layout=lay, codebooks=tuple(books), fallback_means=fallback,
                     lambdas=lambdas)


def encoded_usage(model, data):
    """Per-(group, stage) codeword counts of a full-depth encoding of data."""
    plan = quantizer.full_plan(model)
    symbols = quantizer.encode_fields(model, data, plan)
    sub, stage = quantizer.field_order(plan.stages)
    group = model.layout.group_of[sub]
    return {(g, t): np.bincount(symbols[:, (group == g) & (stage == t)].ravel(),
                                minlength=cb.size)
            for g, books in enumerate(model.codebooks) for t, cb in enumerate(books)}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.rsplit("::", 1)[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {outcome}", flush=True)


def record_searches(monkeypatch) -> list[int]:
    """Count the stage walk's searches: wraps both kernels on quantizer and returns
    the list that each call appends its row count to."""
    rows: list[int] = []
    for name in ("nearest_batch", "nearest_rate_penalized_batch"):
        def counted(points, *args, kernel=getattr(quantizer, name)):
            rows.append(points.shape[0])
            return kernel(points, *args)
        monkeypatch.setattr(quantizer, name, counted)
    return rows
