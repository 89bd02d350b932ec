import numpy as np
import pytest

from conftest import encoded_usage, make_layout
from msvq import bitstream, datagen, entropy, layout, quantizer, trainer
from msvq.codebook import ROW_CHUNK, Codebook, nearest_batch, nearest_rate_penalized_batch
from msvq.errors import ConfigError, DataError


def direct_distortion(points, vectors):
    """Mean quantization error measured by an independent scan."""
    pts = np.asarray(points, dtype=np.float64)
    vec = np.asarray(vectors, dtype=np.float64)
    d2 = ((pts[:, None, :] - vec[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).mean())


class TestLloydStep:
    def test_two_cluster_separation(self):
        cb = Codebook(vectors=np.array([[0.4], [0.6]], dtype=np.float32))
        updated, _ = trainer.lloyd_step(np.array([[0.0], [1.0]]), cb)
        assert np.array_equal(updated.vectors[:, 0], [0.0, 1.0])
        assert direct_distortion([[0.0], [1.0]], updated.vectors) == 0.0
        idx, _ = nearest_batch(np.array([[0.0], [1.0]]), cb.vectors)
        assert np.bincount(idx, minlength=2).tolist() == [1, 1]

    def test_identical_points_reseed_to_same_point(self):
        cb = Codebook(vectors=np.array([[0.0], [1.0]], dtype=np.float32))
        points = np.full((4, 1), 2.5)
        updated, _ = trainer.lloyd_step(points, cb)
        assert np.array_equal(updated.vectors[:, 0], [2.5, 2.5])
        assert direct_distortion(points, updated.vectors) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_step_never_increases_distortion(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(200, 3))
        cb = Codebook(vectors=rng.normal(size=(8, 3)).astype(np.float32))
        updated, _ = trainer.lloyd_step(points, cb)
        assert direct_distortion(points, updated.vectors) <= \
            direct_distortion(points, cb.vectors) + 1e-12

    def test_ec_step_updates_prior_to_smoothed_frequencies(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(50, 2))
        cb = Codebook(vectors=rng.normal(size=(4, 2)).astype(np.float32),
                      prior=np.full(4, 0.25))
        updated, _ = trainer.lloyd_step(points, cb, rd_lambda=2.0)
        idx, _ = nearest_rate_penalized_batch(points, cb.vectors, cb.prior, 2.0)
        expected = (np.bincount(idx, minlength=4) + 1.0) / (50.0 + 4.0)
        np.testing.assert_allclose(updated.prior, expected / expected.sum(), rtol=1e-12)

    def test_requires_points(self):
        cb = Codebook(vectors=np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(DataError):
            trainer.lloyd_step(np.empty((0, 1)), cb)


class TestFitCodebook:
    @pytest.mark.parametrize("ec", [False, True])
    def test_exhausted_iterations_return_unassessed_update(self, ec):
        # with max_iters=1 the fit returns the first round's update, whose own
        # objective was never evaluated and is not in the trace
        rng = np.random.default_rng(6)
        points = rng.normal(size=(300, 2))
        lam = 2.0 if ec else None
        vectors, prior, trace = trainer._fit_codebook(
            points, 8, np.random.default_rng(1), lam, max_iters=1, rel_tol=1e-5)
        start = Codebook(vectors=trainer._kmeanspp(points, 8, np.random.default_rng(1)),
                         prior=np.full(8, 1.0 / 8) if ec else None)
        updated, objective = trainer.lloyd_step(points, start, lam)
        assert trace == [objective]
        assert np.array_equal(vectors, updated.vectors)
        assert (prior is None) if not ec else np.array_equal(prior, updated.prior)
        _, own = trainer.lloyd_step(points, updated, lam)
        assert own < trace[0]


class TestTrain:
    def test_interpolation_regime_zero_distortion(self):
        lay = make_layout(1, 1, [3], groups=1)
        data = np.arange(8.0)[:, None]
        model, report = trainer.train(data, lay, trainer.TrainConfig(seed=0))
        assert report.per_stage_distortion[-1] == pytest.approx(0.0, abs=1e-12)
        assert sorted(model.codebooks[0][0].vectors[:, 0].tolist()) == data[:, 0].tolist()

    def test_per_stage_distortion_strictly_decreases(self, report):
        d = report.per_stage_distortion
        assert all(b < a for a, b in zip(d, d[1:]))

    def test_reported_distortion_matches_independent_encode(self, corr_data, model,
                                                            report):
        # oracle: re-encode with truncated plans and recompute residual energy
        for t in range(1, model.t_max + 1):
            stages = np.full(model.layout.n_sub, t)
            plan = quantizer.plan_from_stages(model.layout, stages)
            _, z_hat = quantizer.encode_batch(model, corr_data, plan)
            mse = quantizer.reconstruction_mse(corr_data, z_hat)
            assert mse == pytest.approx(report.per_stage_distortion[t - 1], rel=1e-9)

    def test_plain_traces_non_increasing(self, report):
        for trace in report.objective_traces.values():
            for a, b in zip(trace, trace[1:]):
                assert b <= a * (1.0 + 1e-12)

    def test_ec_traces_non_increasing(self, ec_trained):
        _, report = ec_trained
        for trace in report.objective_traces.values():
            for a, b in zip(trace, trace[1:]):
                assert b <= a * (1.0 + 1e-9)

    def test_ec_stage_distortion_non_increasing(self, ec_trained):
        _, report = ec_trained
        d = report.per_stage_distortion
        assert all(b <= a for a, b in zip(d, d[1:]))

    def test_usage_histograms_cover_all_points(self, corr_data, model, report):
        lay = model.layout
        for (g, t), usage in report.codeword_usage.items():
            assert usage.sum() == corr_data.shape[0] * len(lay.group_members(g))

    @pytest.mark.parametrize("ec", [False, True])
    def test_usage_equals_full_depth_encoding_counts(self, ec):
        # encoding walks ROW_CHUNK-row chunks, training walks all rows at once;
        # the last chunk here is partial
        data = datagen.gauss_corr(2 * ROW_CHUNK + 37, 16, 0.9, seed=4)
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=4, t_max=3, groups=2,
                                  alloc=np.full((4, 3), 5))
        config = trainer.TrainConfig(max_iters=5, seed=1, ec=ec,
                                     lambdas=[8.0] * 3 if ec else None)
        model, report = trainer.train(data, lay, config)
        usage = encoded_usage(model, data)
        assert usage.keys() == report.codeword_usage.keys()
        for (g, t), counts in usage.items():
            assert np.array_equal(report.codeword_usage[g, t], counts)
            if ec:  # the Huffman code is built from exactly these counts
                lengths = entropy.build_code(entropy.smoothed_pmf(counts)).lengths
                assert np.array_equal(model.codebooks[g][t].code_lengths, lengths)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(256, 8)).astype(np.float32)
        lay = make_layout(4, 2, [4, 3], groups=2)
        config = trainer.TrainConfig(seed=123)
        m1, _ = trainer.train(data, lay, config)
        m2, _ = trainer.train(data, lay, config)
        assert bitstream.model_to_bytes(m1) == bitstream.model_to_bytes(m2)

    def test_ec_low_lambda_collapses_codewords(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(512, 8)).astype(np.float32)
        lay = make_layout(4, 2, [5, 5], groups=2)
        config = trainer.TrainConfig(seed=5, ec=True, lambdas=[0.05, 0.05])
        model, report = trainer.train(data, lay, config)
        pmfs = entropy.measure_group_pmfs(report.codeword_usage)
        for g in range(model.n_groups):
            for t in range(lay.t_max):
                code = entropy.canonical_code(model.codebooks[g][t].code_lengths)
                avg, _ = entropy.avg_bits(pmfs[g, t], code)
                assert avg < lay.group_bits(g)[t]

    def test_insufficient_rows_rejected(self):
        lay = make_layout(2, 2, [5], groups=1)
        with pytest.raises(DataError):
            trainer.train(np.zeros((8, 4)), lay, trainer.TrainConfig(seed=0))

    def test_nonfinite_data_rejected(self):
        lay = make_layout(2, 2, [2], groups=1)
        data = np.zeros((16, 4))
        data[3, 1] = np.inf
        with pytest.raises(DataError):
            trainer.train(data, lay, trainer.TrainConfig(seed=0))

    def test_ec_lambda_shape_checked(self):
        lay = make_layout(2, 2, [2, 2], groups=1)
        with pytest.raises(ConfigError):
            trainer.train(np.random.default_rng(0).normal(size=(32, 4)), lay,
                          trainer.TrainConfig(seed=0, ec=True, lambdas=[1.0]))

    def test_caller_lambdas_stay_writeable(self):
        lay = make_layout(2, 2, [2, 2], groups=1)
        lambdas = np.array([1.0, 1.0])
        model, _ = trainer.train(np.random.default_rng(0).normal(size=(32, 4)), lay,
                                 trainer.TrainConfig(seed=0, ec=True, lambdas=lambdas))
        assert lambdas.flags.writeable and not model.lambdas.flags.writeable

    def test_lambdas_without_ec_rejected(self):
        with pytest.raises(ConfigError, match="entropy-constrained"):
            trainer.TrainConfig(seed=0, lambdas=[1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ec_lambda_must_be_positive_and_finite(self, bad):
        lay = make_layout(2, 2, [2, 2], groups=1)
        with pytest.raises(ConfigError, match="positive and finite"):
            trainer.train(np.random.default_rng(0).normal(size=(32, 4)), lay,
                          trainer.TrainConfig(seed=0, ec=True, lambdas=[1.0, bad]))

    def test_model_is_immutable_after_training(self, model):
        import dataclasses

        with pytest.raises(ValueError):
            model.codebooks[0][0].vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.fallback_means[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.ec_enabled = True

    def test_stage_codebooks_fit_residuals_not_raw_data(self, corr_data, model):
        # stage-2 codewords should live at the scale of stage-1 residuals
        lay = model.layout
        sub = np.asarray(corr_data, dtype=np.float64)[:, lay.perm].reshape(
            corr_data.shape[0], lay.n_sub, lay.sub_dim)
        cb1 = model.codebooks[0][0]
        idx, _ = nearest_batch(sub[:, 0, :], cb1.vectors)
        resid = sub[:, 0, :] - cb1.vectors[idx].astype(np.float64)
        cb2 = model.codebooks[0][1]
        assert np.abs(cb2.vectors).max() <= 3 * np.abs(resid).max()


class TestTrainReportExport:
    def test_to_dict_is_json_serializable_and_structured(self, report, small_layout):
        import json

        doc = json.loads(json.dumps(report.to_dict()))
        assert len(doc["stages"]) == small_layout.t_max
        for t, stage in enumerate(doc["stages"]):
            assert stage["stage"] == t + 1
            assert stage["distortion"] == report.per_stage_distortion[t]
            assert len(stage["groups"]) == small_layout.n_groups
            for g, group in enumerate(stage["groups"]):
                assert group["iterations"] == len(group["objective_trace"])
                assert len(group["usage"]) == 1 << int(small_layout.group_bits(g)[t])


class TestTrainConfig:
    def test_validates_bounds(self):
        with pytest.raises(ConfigError):
            trainer.TrainConfig(max_iters=0)
        with pytest.raises(ConfigError):
            trainer.TrainConfig(rel_tol=0.0)
        for bad in (np.nan, np.inf):  # a NaN tolerance would let every fit run to max_iters
            with pytest.raises(ConfigError, match="positive and finite"):
                trainer.TrainConfig(rel_tol=bad)
