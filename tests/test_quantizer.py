import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_layout, make_toy_model, record_searches, search
from msvq import bitstream, datagen, entropy, layout, quantizer, rate, trainer
from msvq.codebook import ROW_CHUNK, SCORE_BYTES, Codebook, MsvqModel
from msvq.errors import ConfigError, CorruptionError, DataError


def to_coordinate_order(lay, sub):
    """(rows, N, D) in variance order -> (rows, M) in original coordinate order."""
    return np.take(sub.reshape(sub.shape[0], lay.m_dim), np.argsort(lay.perm), axis=1)


def encode_batch_reference(model, Z, plan):
    """The per-sub-vector encode loop that the grouped stage walk replaced.

    Fields are numbered by a running counter: sub-vector-major, then stage order.
    """
    stages = plan.stages
    lay = model.layout
    Z = np.asarray(Z, dtype=np.float64)
    sub = Z[:, lay.perm].reshape(Z.shape[0], lay.n_sub, lay.sub_dim)
    lambdas = model.lambdas if model.ec_enabled else None
    symbols = np.empty((Z.shape[0], int(stages.sum())), dtype=np.uint8)
    for a in range(0, max(Z.shape[0], 1), ROW_CHUNK):
        rows = slice(a, a + ROW_CHUNK)
        field = 0
        for i in range(lay.n_sub):
            books = model.codebooks[int(lay.group_of[i])]
            r = sub[rows, i, :].copy()
            acc = np.zeros_like(r)
            if stages[i] == 0:
                acc[:] = model.fallback_means[i]
            for t in range(int(stages[i])):
                cb = books[t]
                if lambdas is None:
                    col, _ = search(r, cb.vectors)
                else:
                    col, _ = search(r, cb.vectors, cb.prior, float(lambdas[t]))
                cw = cb.vectors.astype(np.float64)[col]
                r -= cw
                acc += cw
                symbols[rows, field] = col
                field += 1
            sub[rows, i, :] = acc
    return symbols, to_coordinate_order(lay, sub)


def decode_batch_reference(model, symbols, plan):
    """A per-sub-vector float64 codeword sum, which decode_batch must match bit for bit."""
    stages = plan.stages
    lay = model.layout
    rows = symbols.shape[0]
    zhat = np.empty((rows, lay.n_sub, lay.sub_dim), dtype=np.float64)
    field = 0
    for i in range(lay.n_sub):
        if stages[i] == 0:
            zhat[:, i, :] = model.fallback_means[i]
            continue
        books = model.codebooks[int(lay.group_of[i])]
        acc = np.zeros((rows, lay.sub_dim), dtype=np.float64)
        for t in range(int(stages[i])):
            acc += books[t].vectors.astype(np.float64)[symbols[:, field]]
            field += 1
        zhat[:, i, :] = acc
    return to_coordinate_order(lay, zhat)


def zero_plan(model):
    return quantizer.plan_layout(model, np.zeros(model.layout.n_sub, dtype=np.int64))


def grouped_toy_model(ec, seed=0):
    """8 sub-vectors in 2 groups of 4; EC priors are skewed so the rate term decides picks."""
    lay = make_layout(8, 3, [5, 4, 3], groups=2)
    rng = np.random.default_rng(seed)
    m = make_toy_model(lay, rng, ec=ec)
    if not ec:
        return m

    def skewed(cb):
        prior = rng.dirichlet(np.full(cb.size, 0.5))
        return Codebook(vectors=cb.vectors, prior=prior,
                        code_lengths=entropy.build_code(prior).lengths)

    books = tuple(tuple(skewed(cb) for cb in group) for group in m.codebooks)
    return MsvqModel(layout=lay, codebooks=books, fallback_means=m.fallback_means,
                     lambdas=rng.uniform(0.5, 2.0, lay.t_max))


class TestPlans:
    def test_exact_bits_arithmetic(self):
        lay = layout.assemble_layout(4, 2, 2, perm=np.arange(4),
                                     group_of=np.array([0, 1]),
                                     bits=np.array([[3, 3], [2, 2]]))
        toy = make_toy_model(lay, np.random.default_rng(0))
        assert quantizer.plan_layout(toy, [2, 1]).exact_bits == 3 + 3 + 2

    def test_zero_and_full_plans(self, model):
        assert zero_plan(model).exact_bits == 0
        assert quantizer.full_plan(model).exact_bits == int(model.layout.bits.sum())

    def test_bad_stage_counts_rejected(self, model):
        with pytest.raises(ConfigError):
            quantizer.plan_layout(model, [1, 1, 1])
        with pytest.raises(ConfigError):
            quantizer.plan_layout(model, [4, 0, 0, 0])

    def test_field_order_and_columns_in_a_deeper_plan(self):
        sub, stage = quantizer.field_order([2, 0, 3])
        assert sub.tolist() == [0, 0, 2, 2, 2]
        assert stage.tolist() == [0, 1, 0, 1, 2]
        toy = make_toy_model(make_layout(3, 1, [2, 2, 2]), np.random.default_rng(0))
        deeper = quantizer.plan_layout(toy, [3, 1, 3])
        assert quantizer.plan_layout(toy, [2, 0, 3]).columns_in(deeper).tolist() == \
            [0, 1, 4, 5, 6]
        assert deeper.columns_in(deeper).tolist() == list(range(7))

    def test_plan_leaves_callers_stage_array_writeable(self, model):
        stages = np.array([3, 2, 1, 0], dtype=np.int64)
        plan = quantizer.plan_layout(model, stages)
        assert stages.flags.writeable
        stages[0] = 1
        assert plan.stages.tolist() == [3, 2, 1, 0]
        assert not plan.stages.flags.writeable


class TestEncodeDecode:
    def test_zero_plan_reconstructs_stored_means(self, model):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(1, model.layout.m_dim))
        plan = zero_plan(model)
        symbols, z_hat = quantizer.encode_batch(model, z, plan)
        expected = to_coordinate_order(
            model.layout, model.fallback_means.astype(np.float64)[None, :, :])
        assert np.array_equal(z_hat, expected)
        assert symbols.shape == (1, 0)
        assert plan.exact_bits == 0

    def test_round_trip_is_bit_exact(self, corr_data, model):
        plan = quantizer.full_plan(model)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=(1, model.layout.m_dim))
            idx, z_hat = quantizer.encode_batch(model, z, plan)
            assert np.array_equal(quantizer.decode_batch(model, idx, plan), z_hat)
        idx, z_hat = quantizer.encode_batch(model, corr_data[:128], plan)
        decoded = quantizer.decode_batch(model, idx, plan)
        assert np.array_equal(decoded, z_hat)

    def test_single_stage_reconstructs_codeword_exactly(self):
        lay = make_layout(2, 3, [4], groups=1)
        m = make_toy_model(lay, np.random.default_rng(7))
        plan = quantizer.full_plan(m)
        z_hat = quantizer.decode_batch(m, np.array([[5, 11]]), plan)
        sub = z_hat[0, lay.perm].reshape(2, 3)
        assert np.array_equal(sub[0], m.codebooks[0][0].vectors[5].astype(np.float64))
        assert np.array_equal(sub[1], m.codebooks[0][0].vectors[11].astype(np.float64))

    def test_full_plan_matches_reported_distortion(self, corr_data, model, report):
        _, z_hat = quantizer.encode_batch(model, corr_data, quantizer.full_plan(model))
        mse = quantizer.reconstruction_mse(corr_data, z_hat)
        assert mse == pytest.approx(report.per_stage_distortion[-1], rel=1e-9)

    def test_mean_distortion_non_increasing_in_stage_count(self, corr_data, model):
        lay = model.layout
        prev = np.inf
        for t in range(lay.t_max + 1):
            plan = quantizer.plan_layout(model, np.full(lay.n_sub, t))
            _, z_hat = quantizer.encode_batch(model, corr_data, plan)
            mse = quantizer.reconstruction_mse(corr_data, z_hat)
            assert mse <= prev
            prev = mse

    def test_every_coordinate_set_exactly_once(self):
        lay = make_layout(4, 2, [2], groups=1)
        m = make_toy_model(lay, np.random.default_rng(3))
        marks = np.arange(8, dtype=np.float32).reshape(4, 2)
        m = type(m)(layout=lay, codebooks=m.codebooks, fallback_means=marks,
                    lambdas=None)
        z_hat = quantizer.encode_batch(m, np.zeros((1, 8)), zero_plan(m))[1][0]
        assert sorted(z_hat.tolist()) == list(range(8))
        for i in range(4):
            assert np.array_equal(z_hat[lay.perm[2 * i:2 * i + 2]], marks[i])

    def test_threaded_encode_matches_serial(self, model):
        # more rows than two row chunks, so the pool really splits the work
        data = datagen.gauss_corr(2 * ROW_CHUNK + 37, model.layout.m_dim, 0.9, seed=5)
        plan = quantizer.full_plan(model)
        i1, z1 = quantizer.encode_batch(model, data, plan, threads=1)
        i4, z4 = quantizer.encode_batch(model, data, plan, threads=4)
        assert np.array_equal(z1, z4)
        assert np.array_equal(i1, i4)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_rows_give_empty_index_arrays(self, model, threads):
        plan = quantizer.full_plan(model)
        Z = np.empty((0, model.layout.m_dim))
        symbols, z_hat = quantizer.encode_batch(model, Z, plan, threads=threads)
        assert symbols.shape == (0, model.layout.n_sub * model.t_max)
        assert z_hat.shape == (0, model.layout.m_dim)

    @pytest.mark.parametrize("ec", [False, True])
    def test_walk_in_steps_equals_walk_at_once(self, corr_data, model, ec_model, ec):
        m = ec_model if ec else model
        books, tables = m.codebooks[0], m.search_tables[0]
        lay = m.layout
        members = lay.group_members(0)
        n = members.stop - members.start
        assert n > 1
        x = corr_data.astype(np.float64)[:, lay.perm].reshape(-1, lay.n_sub, lay.sub_dim)
        x = quantizer.stage_block(x[:, members, :].transpose(1, 0, 2))
        whole = x.copy()
        idx = quantizer.walk_stages(tables, ec, whole, 0, m.t_max)
        assert idx.shape == (n, x.shape[1], m.t_max)
        steps = x.copy()
        cols = [quantizer.walk_stages(tables, ec, steps, t, t + 1) for t in range(m.t_max)]
        assert np.array_equal(np.concatenate(cols, axis=2), idx)
        assert np.array_equal(steps, whole)
        for j in range(n):  # a member walked alone matches its block row
            alone = x[j:j + 1].copy()
            assert np.array_equal(quantizer.walk_stages(tables, ec, alone, 0, m.t_max),
                                  idx[j:j + 1])
            assert np.array_equal(alone, whole[j:j + 1])
        assert np.all(whole[..., -1] == 1.0)  # the ones column is never overwritten
        recon = sum(books[t].vectors[idx[:, :, t]].astype(np.float64) for t in range(m.t_max))
        np.testing.assert_allclose((x - whole)[..., :-1], recon, rtol=0, atol=1e-12)

    def test_walk_stops_each_member_at_its_depth(self, corr_data, model):
        books, tables = model.codebooks[0], model.search_tables[0]
        lay = model.layout
        x = corr_data.astype(np.float64)[:, lay.perm].reshape(-1, lay.n_sub, lay.sub_dim)[:, :2]
        x = quantizer.stage_block(x.transpose(1, 0, 2))
        full = x.copy()
        idx_full = quantizer.walk_stages(tables, False, full, 0, model.t_max)
        once = x[1:].copy()
        quantizer.walk_stages(tables, False, once, 0, 1)
        mixed = x.copy()
        idx = quantizer.walk_stages(tables, False, mixed, 0, np.array([model.t_max, 1]))
        assert np.array_equal(idx[0], idx_full[0])
        assert np.array_equal(idx[1, :, :1], idx_full[1, :, :1])
        assert not idx[1, :, 1:].any()
        assert np.array_equal(mixed[0], full[0])
        assert np.array_equal(mixed[1], once[0])
        assert np.array_equal(mixed[1, :, :-1],
                              x[1, :, :-1] - books[0].vectors[idx[1, :, 0]].astype(np.float64))

    def test_decode_rejects_out_of_range_index(self, model):
        plan = quantizer.plan_layout(model, [1, 0, 0, 0])
        with pytest.raises(CorruptionError):
            quantizer.decode_batch(model, np.array([[99]]), plan)

    @pytest.mark.parametrize("stage, value", [(0, 99), (1, 32), (1, -1)])
    def test_decode_names_second_group_member_and_stage(self, model, stage, value):
        lay = model.layout
        assert lay.group_of[0] == lay.group_of[1]
        plan = quantizer.plan_layout(model, [2, 2, 0, 0])
        symbols = np.zeros((3, 4), dtype=np.int64)
        symbols[1, 2 + stage] = value  # sub-vector 1's fields follow sub-vector 0's two
        with pytest.raises(CorruptionError, match=rf"^sub-vector 1 stage {stage}: "):
            quantizer.decode_batch(model, symbols, plan)

    def test_decode_rejects_shape_mismatch(self, model):
        plan = quantizer.plan_layout(model, [1, 0, 0, 0])
        with pytest.raises(CorruptionError):
            quantizer.decode_batch(model, np.array([[0, 0]]), plan)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (2, 0), (6,), (1, 2, 6)])
    def test_decode_rejects_field_count_not_plan_total(self, model, shape):
        plan = quantizer.plan_layout(model, [3, 2, 1, 0])
        with pytest.raises(CorruptionError, match="symbol matrix must be integer"):
            quantizer.decode_batch(model, np.zeros(shape, dtype=np.uint8), plan)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_decode_rejects_negative_entries(self, model, dtype):
        # a negative index would otherwise gather a codeword from the end of the book
        plan = quantizer.full_plan(model)
        symbols = np.zeros((4, int(plan.stages.sum())), dtype=dtype)
        symbols[2, -1] = -1
        with pytest.raises(CorruptionError,
                           match=rf"^sub-vector 3 stage {model.t_max - 1}: .*out of range"):
            quantizer.decode_batch(model, symbols, plan)

    def test_ec_encode_uses_rate_penalty(self, corr_data, ec_model):
        # with a strongly non-uniform prior the EC rule must sometimes disagree
        plan = quantizer.full_plan(ec_model)
        idx_ec, _ = quantizer.encode_batch(ec_model, corr_data[:256], plan)
        books = tuple(tuple(Codebook(vectors=cb.vectors) for cb in group)
                      for group in ec_model.codebooks)
        plain = type(ec_model)(layout=ec_model.layout, codebooks=books,
                               fallback_means=ec_model.fallback_means,
                               lambdas=None)
        idx_plain, _ = quantizer.encode_batch(plain, corr_data[:256], plan)
        diffs = int((idx_ec != idx_plain).sum())
        assert diffs > 0


def mixed_width_model(ec, seed=0):
    """8 sub-vectors in 4 groups of 2 under a shuffled perm, M = 24 as in
    grouped_toy_model; the groups' stage-t codebooks differ in size (stage 0
    has 7, 6, 5 and 5 bits), so the stage tables' offsets matter.

    Every stage-0 codeword of group 1 has a -0.0 first component: a sum that
    starts from +0.0 gives +0.0 there, one that starts from the codeword -0.0.
    """
    rng = np.random.default_rng(seed)
    lay = layout.assemble_layout(24, 3, 8, perm=rng.permutation(24),
                                 group_of=np.repeat(np.arange(4), 2),
                                 bits=np.repeat([[7, 5, 2], [6, 5, 2], [5, 4, 1], [5, 3, 1]], 2,
                                                axis=0))
    m = make_toy_model(lay, rng, ec=ec)
    books = [list(group) for group in m.codebooks]
    vec = books[1][0].vectors.copy()
    vec[:, 0] = -0.0
    books[1][0] = dataclasses.replace(books[1][0], vectors=vec)
    return MsvqModel(layout=lay, codebooks=tuple(map(tuple, books)),
                     fallback_means=m.fallback_means, lambdas=m.lambdas)


M24_BLOCK = SCORE_BYTES // (8 * 24)  # decode_batch's row block at both models' M


class TestGroupedWalkMatchesReference:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [0, 1, 37, 1500, M24_BLOCK - 1, M24_BLOCK, M24_BLOCK + 1,
                                      ROW_CHUNK + 37, 2 * ROW_CHUNK + 37])
    @pytest.mark.parametrize("ec", [False, True])
    def test_indices_and_reconstruction_identical(self, ec, rows, threads, monkeypatch):
        for m in (grouped_toy_model(ec), mixed_width_model(ec)):
            lay = m.layout
            assert lay.m_dim == 24
            Z = np.random.default_rng(rows).normal(size=(rows, lay.m_dim)) * 1.5
            if rows == 1500:  # one search per group and stage, even past one ROW_CHUNK
                searched = record_searches(monkeypatch)
                quantizer.encode_batch(m, Z, quantizer.full_plan(m), threads=threads)
                members = lay.n_sub // lay.n_groups
                assert searched == [members * rows] * (lay.n_groups * lay.t_max)
            rng = np.random.default_rng(1)
            plans = [quantizer.full_plan(m), zero_plan(m),
                     quantizer.plan_layout(m, [3, 0, 1, 2, 0, 0, 3, 1])]
            plans += [quantizer.plan_layout(m, rng.integers(0, lay.t_max + 1, lay.n_sub))
                      for _ in range(3)]
            for plan in plans:
                want_idx, want_z = encode_batch_reference(m, Z, plan)
                got_idx, got_z = quantizer.encode_batch(m, Z, plan, threads=threads)
                assert got_idx.shape == (rows, int(plan.stages.sum()))
                assert got_idx.dtype == np.uint8 and np.array_equal(got_idx, want_idx)
                fields = quantizer.encode_fields(m, Z, plan, threads=threads)
                assert fields.dtype == np.uint8 and np.array_equal(fields, got_idx)
                assert got_z.tobytes() == want_z.tobytes()
                decoded = quantizer.decode_batch(m, got_idx, plan)
                assert decoded.tobytes() == decode_batch_reference(m, want_idx, plan).tobytes()
                assert decoded.tobytes() == got_z.tobytes()
                assert decoded.tobytes() == quantizer.decode_batch(
                    m, got_idx.astype(np.int64), plan).tobytes()


class TestOneBlockPerGroupAndChunk:
    """The walk's block is one whole group inside one map_row_chunks row chunk."""

    ROWS = 2 * ROW_CHUNK + 37

    def test_encode_searches_once_per_chunk_group_and_reached_stage(self, monkeypatch):
        m = grouped_toy_model(False)
        lay = m.layout
        stages = np.array([3, 0, 1, 2, 0, 1, 0, 0])
        Z = np.random.default_rng(3).normal(size=(self.ROWS, lay.m_dim))
        searched = record_searches(monkeypatch)
        quantizer.encode_batch(m, Z, quantizer.plan_layout(m, stages))
        depths = [stages[lay.group_members(g)] for g in range(lay.n_groups)]
        want = [rows * int((d > t).sum()) for rows in (ROW_CHUNK, ROW_CHUNK, 37)
                for d in depths for t in range(d.max())]
        assert len(want) == 3 * (3 + 1)
        assert searched == want

    def test_decode_peak_memory_is_a_few_row_blocks(self):
        rows = 6 * ROW_CHUNK + 37
        lay = make_layout(32, 4, [3, 3, 3])  # one group of every sub-vector
        m = make_toy_model(lay, np.random.default_rng(0))
        stages = np.arange(lay.n_sub) % (lay.t_max + 1)  # mixed depths, some zero
        plan = quantizer.plan_layout(m, stages)
        symbols = np.random.default_rng(1).integers(0, 8, size=(rows, int(stages.sum())),
                                                    dtype=np.uint8)
        quantizer.decode_batch(m, symbols[:1], plan)  # builds the stage tables
        out = rows * lay.m_dim * 8  # float64 Z_hat in coordinate order
        block = plan.step * lay.m_dim * 8  # one row block's float64 sums
        assert plan.step == SCORE_BYTES // (8 * lay.m_dim) < ROW_CHUNK
        tracemalloc.start()
        try:
            z_hat = quantizer.decode_batch(m, symbols, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z_hat.nbytes == out
        # decode's scratch is one row block's accumulator, gather and indices;
        # a whole ROW_CHUNK of rows at once, or a variance-ordered Z_hat beside
        # the output, would add eight blocks or more
        assert peak < out + 3 * block

    def test_encode_peak_memory_is_one_group_block(self):
        lay = make_layout(16, 4, [8, 6, 4], groups=16)  # one sub-vector per group
        m = make_toy_model(lay, np.random.default_rng(0))
        Z = np.random.default_rng(1).normal(size=(self.ROWS, lay.m_dim)).astype(np.float32)
        plan = quantizer.full_plan(m)
        assert m.search_tables  # built once per model, before any encoding
        block = ROW_CHUNK * (lay.sub_dim + 1) * 8  # one chunk of one group's stage block
        tracemalloc.start()
        try:
            symbols = quantizer.encode_fields(m, Z, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no float64 copy of the input (4.2 MB here): the group walk holds a few
        # block-sized arrays (the stage block, the codewords its search
        # subtracts, the indices and their field-order copy, the last group's
        # block and indices) and one score buffer; permuting a whole chunk first
        # would hold another 16 blocks
        assert peak < symbols.nbytes + 4 * block + SCORE_BYTES


def random_fields(lay, plan, rows, seed):
    sub, stage = quantizer.field_order(plan.stages)
    sizes = 1 << lay.bits[sub, stage]
    return np.random.default_rng(seed).integers(0, sizes, size=(rows, sub.size), dtype=np.uint8)


class TestInputDtypes:
    """encode_fields checks a float32 or float64 matrix as it is, and each
    group's columns are cast to float64 as they fill its block; any other
    dtype is cast to float64 first."""

    @pytest.mark.parametrize("ec", [False, True])
    def test_equal_values_give_equal_fields_and_payloads(self, ec, model, ec_model,
                                                         corr_data, tmp_path):
        m = ec_model if ec else model
        table = rate.build_table(m, corr_data)
        values = np.rint(corr_data * 4.0)  # integers, exact in every dtype below
        plan = quantizer.full_plan(m)
        fields, payloads = set(), set()
        for dtype in (np.float32, np.float64, np.int32):
            Z = values.astype(dtype)
            fields.add(quantizer.encode_fields(m, Z, plan).tobytes())
            path = tmp_path / f"{Z.dtype.name}.msvp"
            bitstream.write_payload(str(path), m, 7, table, Z, 40)
            payloads.add(path.read_bytes())
        assert len(fields) == 1 and len(payloads) == 1
        assert len(np.unique(np.frombuffer(fields.pop(), dtype=np.uint8))) > 8

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_float32_raises(self, model, bad):
        Z = np.zeros((3, model.layout.m_dim), dtype=np.float32)
        Z[1, 5] = bad
        with pytest.raises(DataError, match="non-finite"):
            quantizer.encode_fields(model, Z, quantizer.full_plan(model))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_longdouble_beyond_float64_raises(self, model):
        if np.finfo(np.longdouble).max <= np.finfo(np.float64).max:
            pytest.skip("long double is no wider than float64 on this platform")
        Z = np.zeros((2, model.layout.m_dim), dtype=np.longdouble)
        Z[1, 3] = np.longdouble(np.finfo(np.float64).max) * 4
        assert np.isfinite(Z).all()  # finite as given, infinite once cast to float64
        with pytest.raises(DataError, match="non-finite"):
            quantizer.encode_fields(model, Z, quantizer.full_plan(model))


class TestStageMajorDecode:
    """decode_batch sums every group's codewords stage-major, in row blocks of
    max(1, SCORE_BYTES // (8 M)) rows."""

    def test_stage_tables_are_shared_read_only(self):
        m = mixed_width_model(False)
        assert m.stage_tables is m.stage_tables
        assert m.stage_tables[0][1].tolist() == [0, 128, 192, 224]
        for arrays in m.stage_tables:
            for a in arrays:
                with pytest.raises(ValueError):
                    a[0] = 1

    def test_sum_starts_from_positive_zero(self):
        m = mixed_width_model(False)
        lay = m.layout
        plan = quantizer.plan_layout(m, [3, 3, 1, 1, 2, 2, 0, 0])
        decoded = quantizer.decode_batch(m, random_fields(lay, plan, 5, 0), plan)
        first = decoded[:, lay.perm.reshape(lay.n_sub, lay.sub_dim)[2:4, 0]]
        assert np.all(first == 0.0) and not np.signbit(first).any()

    def test_scratch_does_not_grow_with_rows(self):
        lay = make_layout(128, 4, [8, 8, 8])  # M = 512: a block is 128 rows
        m = make_toy_model(lay, np.random.default_rng(0))
        plan = quantizer.plan_layout(m, np.arange(lay.n_sub) % (lay.t_max + 1))
        quantizer.decode_batch(m, random_fields(lay, plan, 1, 0), plan)  # builds the stage tables
        scratch = {}
        for rows in (64, 128, 4096):
            symbols = random_fields(lay, plan, rows, 1)
            gc.collect()
            tracemalloc.start()
            try:
                z_hat = quantizer.decode_batch(m, symbols, plan)
                scratch[rows] = tracemalloc.get_traced_memory()[1] - z_hat.nbytes
            finally:
                tracemalloc.stop()
        # a block holds its accumulator, one stage's gather and its indices; a
        # (rows, N, D) buffer of the whole batch would add 16 MiB at 4096 rows
        assert max(scratch.values()) < 3 * SCORE_BYTES
        # 64 rows fill half a block; past one full block nothing grows
        assert scratch[4096] < scratch[128] + SCORE_BYTES // 16


class TestWorkerCountRule:
    """quantizer.map_workers owns the worker-count rule of every entry point:
    threads=None is every usable core, a count below 1 is a ConfigError."""

    ENTRY_POINTS = ["build_table", "encode_fields", "encode_batch", "write_payload", "train"]

    @pytest.fixture(scope="class")
    def serve(self, model, corr_data):
        # more rows than two row chunks, so a pool has several chunks to share
        data = datagen.gauss_corr(2 * ROW_CHUNK + 37, model.layout.m_dim, 0.9, seed=5)
        return data, rate.build_table(model, corr_data)

    @staticmethod
    def _run(entry, threads, model, corr_data, serve, path) -> bytes:
        """The entry point's output at `threads`, as bytes."""
        data, table = serve
        plan = quantizer.full_plan(model)
        if entry == "build_table":
            return json.dumps(rate.table_to_dict(
                rate.build_table(model, data, threads=threads))).encode()
        if entry == "encode_fields":
            return quantizer.encode_fields(model, data, plan, threads=threads).tobytes()
        if entry == "encode_batch":
            symbols, z_hat = quantizer.encode_batch(model, data, plan, threads=threads)
            return symbols.tobytes() + z_hat.tobytes()
        if entry == "write_payload":
            bitstream.write_payload(str(path), model, 7, table, data, 40, threads=threads)
            return path.read_bytes()
        config = trainer.TrainConfig(max_iters=2, seed=1)
        return bitstream.model_to_bytes(
            trainer.train(corr_data, model.layout, config, threads=threads)[0])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_none_means_usable_cores_and_matches_one(self, entry, model, corr_data, serve,
                                                     tmp_path):
        assert model.layout.n_groups > 1  # training has more than one fit per stage
        want = self._run(entry, 1, model, corr_data, serve, tmp_path / "one.msvp")
        assert self._run(entry, None, model, corr_data, serve, tmp_path / "all.msvp") == want

    @pytest.mark.parametrize("which, strict", [("plain", False), ("ec", False), ("ec", True)])
    def test_payloads_match_at_every_worker_count(self, which, strict, model, ec_model,
                                                  corr_data, serve, tmp_path):
        """Encoding and packing both run at the caller's worker count: over
        more than two row chunks, plain and EC payloads, and strict EC
        payloads whose cap binds, have the same bytes and bits at every count."""
        data, _ = serve
        m = model if which == "plain" else ec_model
        table = rate.build_table(m, corr_data)
        written = set()
        for threads in (1, 2, 3, 4, None):
            path = tmp_path / f"{threads}.msvp"
            info = bitstream.write_payload(str(path), m, 7, table, data, 30, strict=strict,
                                           threads=threads)
            written.add((path.read_bytes(), info.bits_per_vector.tobytes()))
        assert info.count > 2 * ROW_CHUNK
        assert info.mode == (bitstream.MODE_EXPLICIT if strict else bitstream.MODE_DERIVED)
        assert len(written) == 1

    @pytest.mark.parametrize("threads", [0, -2])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_below_one_rejected(self, entry, threads, model, corr_data, serve, tmp_path):
        path = tmp_path / "p.msvp"
        with pytest.raises(ConfigError, match="threads"):
            self._run(entry, threads, model, corr_data, serve, path)
        assert not path.exists()
