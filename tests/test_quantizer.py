import numpy as np
import pytest

from conftest import make_layout, make_toy_model
from msvq import datagen, layout, quantizer
from msvq.codebook import ROW_CHUNK
from msvq.errors import ConfigError, CorruptionError
from msvq.quantizer import EncodedFeature, SelectionPlan


class TestPlans:
    def test_exact_bits_arithmetic(self):
        lay = layout.assemble_layout(4, 2, 2, perm=np.arange(4),
                                     group_of=np.array([0, 1]),
                                     bits=np.array([[3, 3], [2, 2]]))
        plan = quantizer.plan_from_stages(lay, [2, 1])
        assert plan.exact_bits == 3 + 3 + 2

    def test_zero_and_full_plans(self, model):
        lay = model.layout
        assert quantizer.zero_plan(lay).exact_bits == 0
        assert quantizer.full_plan(lay).exact_bits == int(lay.bits.sum())

    def test_bad_stage_counts_rejected(self, model):
        with pytest.raises(ConfigError):
            quantizer.plan_from_stages(model.layout, [1, 1, 1])
        with pytest.raises(ConfigError):
            quantizer.plan_from_stages(model.layout, [4, 0, 0, 0])

    def test_inconsistent_exact_bits_is_corruption(self, model):
        stages = np.array([1, 1, 1, 1])
        plan = SelectionPlan(stages=stages, exact_bits=1)
        with pytest.raises(CorruptionError):
            quantizer.validate_plan(model, plan)


class TestEncodeDecode:
    def test_zero_plan_reconstructs_stored_means(self, model):
        rng = np.random.default_rng(0)
        z = rng.normal(size=model.layout.m_dim)
        enc, z_hat = quantizer.encode(model, z, quantizer.zero_plan(model.layout))
        expected = quantizer.merge_subvectors(
            model.layout, model.fallback_means.astype(np.float64)[None, :, :])
        assert np.array_equal(z_hat, expected[0])
        assert all(idx.size == 0 for idx in enc.indices)
        assert enc.plan.exact_bits == 0

    def test_round_trip_is_bit_exact(self, corr_data, model):
        plan = quantizer.full_plan(model.layout)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=model.layout.m_dim)
            enc, z_hat = quantizer.encode(model, z, plan)
            assert np.array_equal(quantizer.decode(model, enc), z_hat)
        idx, z_hat = quantizer.encode_batch(model, corr_data[:128], plan)
        decoded = quantizer.decode_batch(model, idx, plan, rows=128)
        assert np.array_equal(decoded, z_hat)

    def test_single_stage_reconstructs_codeword_exactly(self):
        lay = make_layout(2, 3, [4], groups=1)
        m = make_toy_model(lay, np.random.default_rng(7))
        plan = quantizer.full_plan(lay)
        enc = EncodedFeature(indices=(np.array([5]), np.array([11])), plan=plan)
        z_hat = quantizer.decode(m, enc)
        sub = z_hat[lay.perm].reshape(2, 3)
        assert np.array_equal(sub[0], m.codebooks[0][0].vectors[5].astype(np.float64))
        assert np.array_equal(sub[1], m.codebooks[0][0].vectors[11].astype(np.float64))

    def test_full_plan_matches_reported_distortion(self, corr_data, model, report):
        _, z_hat = quantizer.encode_batch(model, corr_data, quantizer.full_plan(model.layout))
        mse = quantizer.reconstruction_mse(corr_data, z_hat)
        assert mse == pytest.approx(report.per_stage_distortion[-1], rel=1e-9)

    def test_mean_distortion_non_increasing_in_stage_count(self, corr_data, model):
        lay = model.layout
        prev = np.inf
        for t in range(lay.t_max + 1):
            plan = quantizer.plan_from_stages(lay, np.full(lay.n_sub, t))
            _, z_hat = quantizer.encode_batch(model, corr_data, plan)
            mse = quantizer.reconstruction_mse(corr_data, z_hat)
            assert mse <= prev
            prev = mse

    def test_every_coordinate_set_exactly_once(self):
        lay = make_layout(4, 2, [2], groups=1)
        m = make_toy_model(lay, np.random.default_rng(3))
        marks = np.arange(8, dtype=np.float32).reshape(4, 2)
        m = type(m)(layout=lay, codebooks=m.codebooks, fallback_means=marks,
                    ec_enabled=False, lambdas=None)
        _, z_hat = quantizer.encode(m, np.zeros(8), quantizer.zero_plan(lay))
        assert sorted(z_hat.tolist()) == list(range(8))
        for i in range(4):
            assert np.array_equal(z_hat[lay.perm[2 * i:2 * i + 2]], marks[i])

    def test_threaded_encode_matches_serial(self, model):
        # more rows than two row chunks, so the pool really splits the work
        data = datagen.gauss_corr(2 * ROW_CHUNK + 37, model.layout.m_dim, 0.9, seed=5)
        plan = quantizer.full_plan(model.layout)
        i1, z1 = quantizer.encode_batch(model, data, plan, threads=1)
        i4, z4 = quantizer.encode_batch(model, data, plan, threads=4)
        assert np.array_equal(z1, z4)
        assert all(np.array_equal(a, b) for a, b in zip(i1, i4))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_rows_give_empty_index_arrays(self, model, threads):
        plan = quantizer.full_plan(model.layout)
        Z = np.empty((0, model.layout.m_dim))
        indices, z_hat = quantizer.encode_batch(model, Z, plan, threads=threads)
        assert [idx.shape for idx in indices] == [(0, model.t_max)] * model.layout.n_sub
        assert z_hat.shape == (0, model.layout.m_dim)

    @pytest.mark.parametrize("ec", [False, True])
    def test_walk_in_steps_equals_walk_at_once(self, corr_data, model, ec_model, ec):
        m = ec_model if ec else model
        books, lambdas = m.codebooks[0], m.lambdas if ec else None
        x = quantizer.split_subvectors(m.layout, corr_data.astype(np.float64))[:, 0, :]
        whole, acc = x.copy(), np.zeros_like(x)
        idx = quantizer.walk_stages(books, lambdas, whole, 0, m.t_max, acc)
        steps = x.copy()
        cols = [quantizer.walk_stages(books, lambdas, steps, t, t + 1) for t in range(m.t_max)]
        assert np.array_equal(np.concatenate(cols, axis=1), idx)
        assert np.array_equal(steps, whole)
        recon = sum(books[t].vectors[idx[:, t]].astype(np.float64) for t in range(m.t_max))
        assert np.array_equal(acc, recon)
        np.testing.assert_allclose(x - whole, recon, rtol=0, atol=1e-12)

    def test_decode_rejects_out_of_range_index(self, model):
        plan = quantizer.plan_from_stages(model.layout, [1, 0, 0, 0])
        bad = [np.array([[99]]), np.empty((1, 0)), np.empty((1, 0)), np.empty((1, 0))]
        with pytest.raises(CorruptionError):
            quantizer.decode_batch(model, bad, plan, rows=1)

    def test_decode_rejects_shape_mismatch(self, model):
        plan = quantizer.plan_from_stages(model.layout, [1, 0, 0, 0])
        bad = [np.array([[0, 0]]), np.empty((1, 0)), np.empty((1, 0)), np.empty((1, 0))]
        with pytest.raises(CorruptionError):
            quantizer.decode_batch(model, bad, plan, rows=1)

    def test_ec_encode_uses_rate_penalty(self, corr_data, ec_model):
        # with a strongly non-uniform prior the EC rule must sometimes disagree
        plan = quantizer.full_plan(ec_model.layout)
        idx_ec, _ = quantizer.encode_batch(ec_model, corr_data[:256], plan)
        plain = type(ec_model)(layout=ec_model.layout, codebooks=ec_model.codebooks,
                               fallback_means=ec_model.fallback_means,
                               ec_enabled=False, lambdas=None)
        idx_plain, _ = quantizer.encode_batch(plain, corr_data[:256], plan)
        diffs = sum(int((a != b).sum()) for a, b in zip(idx_ec, idx_plain))
        assert diffs > 0
