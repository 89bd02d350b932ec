import sys
import tracemalloc

import numpy as np
import pytest

from conftest import encoded_usage, make_layout, record_searches
from msvq import bitstream, datagen, entropy, layout, quantizer, trainer
from msvq.codebook import (
    ROW_CHUNK,
    SCORE_BYTES,
    Codebook,
    nearest_batch,
    nearest_rate_penalized_batch,
)
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


def add_at_update(points, idx, dist, vectors):
    """Reference Lloyd update: cell sums by np.add.at, then the trainer's
    means and worst-point reseeding of empty cells."""
    k = vectors.shape[0]
    counts = np.bincount(idx, minlength=k)
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, idx, points)
    new = vectors.astype(np.float64).copy()
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    err = dist.copy()
    for cell in np.flatnonzero(~nonempty):
        worst = int(np.argmax(err))
        new[cell] = points[worst]
        err[worst] = 0.0
    return sums, new, counts


class TestCenterUpdate:
    """The Lloyd update's cell sums are bit-identical to np.add.at's."""

    @staticmethod
    def _case(k, seed):
        # magnitudes far apart, so that the sums depend on the order of addition
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(3000, 3)) * 10.0 ** rng.integers(-8, 9, size=(3000, 1))
        vectors = rng.normal(size=(k, 3)).astype(np.float32)
        vectors[k // 2:] += 1e12  # cells no point reaches: empty, so reseeded
        idx, res = nearest_batch(points, vectors)
        return points, idx, np.einsum("pd,pd->p", res, res), vectors

    @pytest.mark.parametrize("k", [2, 16, 256])
    def test_sums_match_add_at(self, k):
        points, idx, dist, vectors = self._case(k, k)
        want, _, _ = add_at_update(points, idx, dist, vectors)
        assert np.array_equal(trainer._cell_sums(points, idx, k), want)
        backward = np.zeros_like(want)
        np.add.at(backward, idx[::-1], points[::-1])
        assert not np.array_equal(backward, want)  # the order is what is pinned

    @pytest.mark.parametrize("k", [2, 16, 256])
    def test_update_matches_reference_with_reseeding(self, k):
        points, idx, dist, vectors = self._case(k, k + 1)
        _, want, want_counts = add_at_update(points, idx, dist, vectors)
        assert (want_counts == 0).sum() >= k // 2
        new, counts = trainer._update_centers(points, idx, dist, vectors)
        assert np.array_equal(new, want) and np.array_equal(counts, want_counts)
        updated, _ = trainer.lloyd_step(points, Codebook(vectors=vectors))
        assert np.array_equal(updated.vectors, want)


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
            plan = quantizer.plan_layout(model, stages)
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
            members = lay.group_members(g)
            assert usage.sum() == corr_data.shape[0] * (members.stop - members.start)

    def test_propagation_walks_each_group_once_per_stage(self, monkeypatch):
        # the walk sees each group's pooled points as one block, whatever the row count
        data = datagen.gauss_corr(2 * ROW_CHUNK + 37, 16, 0.9, seed=4)
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=4, t_max=3, groups=2,
                                  alloc=np.full((4, 3), 4))
        searched = record_searches(monkeypatch)
        trainer.train(data, lay, trainer.TrainConfig(max_iters=2, seed=1))
        assert searched == [data.shape[0] * 2] * (lay.n_groups * lay.t_max)

    def test_peak_memory_is_one_copy_of_the_input_and_one_group(self):
        data = datagen.gauss_corr(4 * ROW_CHUNK, 64, 0.9, seed=3)
        assert data.dtype == np.float32
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=4, t_max=2, groups=16,
                                  alloc=np.full((16, 2), 3))
        copy = data.size * 8  # one float64 copy of the input
        group = copy // lay.n_groups  # one group's residuals
        tracemalloc.start()
        try:
            trainer.train(data, lay, trainer.TrainConfig(max_iters=2, seed=1), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # check_features' float64 copy, plus one group task at a time: its
        # residuals and its fit's scratch (seeding distances, the search's
        # residuals and one score buffer); the residuals of every group held
        # at once would add another copy
        assert peak < copy + 8 * group + SCORE_BYTES

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_nonfinite_residuals_name_the_first_stage_and_group(self, threads):
        # 2**130 is exact, its columns have zero variance, so they sort last
        # (sub-vector 3, group 3), and it exceeds float32, so the stage-1
        # codewords are infinite and leave non-finite residuals
        data = np.random.default_rng(0).normal(size=(256, 16))
        data[:, [2, 7, 9, 13]] = 2.0 ** 130
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=4, t_max=2, groups=4,
                                  alloc=np.full((4, 2), 3))
        with pytest.raises(DataError, match=r"after stage 1 \(sub-vector 3, group 3\)"):
            trainer.train(data, lay, trainer.TrainConfig(max_iters=2, seed=0), threads=threads)

    def test_default_ec_lambdas_are_twice_the_inverse_mean_variance(self):
        data = datagen.gauss_corr(512, 16, 0.9, seed=4)
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=4, t_max=2, groups=2,
                                  alloc=np.full((4, 2), 3))
        model, _ = trainer.train(data, lay, trainer.TrainConfig(max_iters=2, seed=1, ec=True))
        variance = float(data.astype(np.float64).var(axis=0).mean())
        assert model.lambdas.tolist() == [2.0 / variance] * 2

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


def choice_kmeanspp(points, k, rng):
    """k-means++ seeding drawn by Generator.choice, the reference for _kmeanspp."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        j = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers[c] = points[j]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


class TestKmeansppSeeding:
    @pytest.mark.parametrize("n, k, dim", [(1000, 16, 1), (4096, 256, 4), (3001, 64, 2)])
    def test_draws_equal_generator_choice(self, n, k, dim):
        # the draw re-implements Generator.choice(n, p=...); a numpy change shows here
        points = np.random.default_rng(n).normal(size=(n, dim))
        got = trainer._kmeanspp(points, k, np.random.default_rng([1, 2]))
        want = choice_kmeanspp(points, k, np.random.default_rng([1, 2]))
        assert np.array_equal(got, want)

    def test_coincident_points_draw_uniformly(self):
        points = np.ones((64, 3))
        got = trainer._kmeanspp(points, 8, np.random.default_rng(4))
        assert np.array_equal(got, choice_kmeanspp(points, 8, np.random.default_rng(4)))

    def test_overflowing_distances_are_a_data_error(self):
        # finite features whose squared distances overflow float64
        data = np.random.default_rng(0).standard_normal((256, 8)) * 1e170
        lay = make_layout(2, 4, [4], groups=1)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflow"):
            trainer.train(data, lay, trainer.TrainConfig(max_iters=2, seed=0))


class TestWorkerCount:
    """Each group's cascade is one task, the tasks run concurrently, and the
    worker count changes nothing."""

    def test_one_pool_over_the_groups(self, monkeypatch):
        # every stage of a group runs in its group's task: no pool per stage,
        # and no wait between stages
        calls = []

        def spy(fn, items, threads=1):
            items = list(items)
            calls.append(len(items))
            return quantizer.map_workers(fn, items, threads)

        monkeypatch.setattr(trainer, "map_workers", spy)
        data = datagen.gauss_corr(512, 32, 0.9, seed=8)
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=2, t_max=3, groups=8,
                                  alloc=np.full((16, 3), 3))
        trainer.train(data, lay, trainer.TrainConfig(max_iters=2, seed=6), threads=2)
        assert calls == [lay.n_groups]

    @pytest.mark.parametrize("ec", [False, True])
    def test_model_and_report_ignore_worker_count(self, ec):
        data = datagen.gauss_corr(1024, 24, 0.9, seed=5)
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=4, t_max=2, groups=3,
                                  alloc=np.full((6, 2), 4))
        assert lay.n_groups == 3
        config = trainer.TrainConfig(max_iters=8, seed=2, ec=ec,
                                     lambdas=[8.0, 8.0] if ec else None)
        runs = [trainer.train(data, lay, config, threads=w)
                for w in (1, 2, 3, lay.n_groups + 1, None)]
        want_model, want = runs[0]
        for model, report in runs[1:]:
            assert bitstream.model_to_bytes(model) == bitstream.model_to_bytes(want_model)
            assert report.per_stage_distortion == want.per_stage_distortion
            assert list(report.objective_traces.items()) == list(want.objective_traces.items())
            assert list(report.codeword_usage) == list(want.codeword_usage)
            for key, usage in want.codeword_usage.items():
                assert np.array_equal(report.codeword_usage[key], usage)

    def test_more_workers_than_cores_under_frequent_switching(self):
        # each fit walks its own group's residual array in place; a lost or
        # crossed write would change the next stage's codebooks
        data = datagen.gauss_corr(512, 32, 0.9, seed=8)
        lay = layout.build_layout(layout.compute_stats(data), sub_dim=2, t_max=3, groups=8,
                                  alloc=np.full((16, 3), 3))
        config = trainer.TrainConfig(max_iters=4, seed=6)
        want = bitstream.model_to_bytes(trainer.train(data, lay, config, threads=1)[0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                model, _ = trainer.train(data, lay, config, threads=2 * lay.n_groups)
                assert bitstream.model_to_bytes(model) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_worker_count_below_one_rejected(self, threads):
        lay = make_layout(2, 2, [2], groups=1)
        with pytest.raises(ConfigError, match="threads"):
            trainer.train(np.random.default_rng(0).normal(size=(32, 4)), lay,
                          trainer.TrainConfig(seed=0), threads=threads)


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
