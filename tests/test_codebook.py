import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_layout, make_toy_model
from msvq import codebook
from msvq.codebook import Codebook, MsvqModel
from msvq.errors import ConfigError, CorruptionError, MsvqError


def scan_oracle(vectors, r):
    """Independent exhaustive scan: plain loop, squared difference per codeword."""
    best_idx, best_dist = -1, math.inf
    for k, c in enumerate(np.asarray(vectors, dtype=np.float64)):
        d = float(((np.asarray(r, dtype=np.float64) - c) ** 2).sum())
        if d < best_dist:
            best_idx, best_dist = k, d
    return best_idx, best_dist


class TestNearest:
    def test_two_point_geometry(self):
        cb = Codebook(vectors=np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32))
        idx, res = codebook.nearest_batch(np.array([[0.9, 0.9]]), cb.vectors)
        assert idx.tolist() == [1]
        assert res[0] == pytest.approx([-0.1, -0.1], abs=1e-12)

    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(1)
        cb = Codebook(vectors=rng.normal(size=(8, 3)).astype(np.float32))
        idx, res = codebook.nearest_batch(cb.vectors[5:6].astype(np.float64), cb.vectors)
        assert idx.tolist() == [5]
        assert not res.any()

    def test_matches_independent_scan(self):
        rng = np.random.default_rng(11)
        cb = Codebook(vectors=rng.normal(size=(16, 4)).astype(np.float32))
        for _ in range(100):
            r = rng.normal(size=(1, 4))
            idx, res = codebook.nearest_batch(r, cb.vectors)
            oidx, odist = scan_oracle(cb.vectors, r[0])
            assert idx[0] == oidx
            assert float(res[0] @ res[0]) == pytest.approx(odist, rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook(vectors=np.array([[1.0], [-1.0]], dtype=np.float32))
        idx, _ = codebook.nearest_batch(np.array([[0.0]]), cb.vectors)
        assert idx.tolist() == [0]


class TestNearestRatePenalized:
    def test_uniform_prior_matches_plain(self):
        rng = np.random.default_rng(2)
        cb = Codebook(vectors=rng.normal(size=(16, 4)).astype(np.float32),
                      prior=np.full(16, 1.0 / 16))
        for lam in (0.1, 1.0, 10.0):
            for _ in range(25):
                r = rng.normal(size=(1, 4))
                plain_idx, _ = codebook.nearest_batch(r, cb.vectors)
                pen_idx, _ = codebook.nearest_rate_penalized_batch(r, cb.vectors,
                                                                   cb.prior, lam)
                assert pen_idx[0] == plain_idx[0]

    def test_worked_example(self):
        cb = Codebook(vectors=np.array([[0.0], [1.0]], dtype=np.float32),
                      prior=np.array([0.9, 0.1]))
        idx, res = codebook.nearest_rate_penalized_batch(np.array([[0.45]]), cb.vectors,
                                                         cb.prior, 1.0)
        # objective: 1*0.2025 - log2(0.9) = 0.3545 beats 1*0.3025 - log2(0.1) = 3.624
        assert idx.tolist() == [0]
        assert res[0] == pytest.approx([0.45], abs=1e-12)
        assert 1.0 * 0.2025 - math.log2(0.9) < 1.0 * 0.3025 - math.log2(0.1)

    def test_distortion_dominant_limit(self):
        rng = np.random.default_rng(3)
        cb = Codebook(vectors=rng.normal(size=(8, 2)).astype(np.float32),
                      prior=np.array([0.6, 0.2, 0.05, 0.05, 0.04, 0.03, 0.02, 0.01]))
        for _ in range(50):
            r = rng.normal(size=(1, 2))
            plain_idx, _ = codebook.nearest_batch(r, cb.vectors)
            pen_idx, _ = codebook.nearest_rate_penalized_batch(r, cb.vectors, cb.prior, 1e9)
            assert pen_idx[0] == plain_idx[0]

    def test_corrupted_prior_raises(self):
        cb = Codebook(vectors=np.zeros((2, 1), dtype=np.float32),
                      prior=np.array([1.0, 0.0]))
        with pytest.raises(CorruptionError):
            codebook.nearest_rate_penalized_batch(np.array([[0.0]]), cb.vectors, cb.prior, 1.0)

    def test_missing_prior_raises(self):
        cb = Codebook(vectors=np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(CorruptionError):
            codebook.nearest_rate_penalized_batch(np.array([[0.0]]), cb.vectors, cb.prior, 1.0)


def _block(k):
    """Rows per score block of a K-codeword scan."""
    return max(1, codebook.SCORE_BYTES // (8 * k))


class TestResiduals:
    """Both kernels hand back points - vectors[indices], computed in float64."""

    # (rows, codewords); the last row count straddles a K=256 score block
    CASES = [(0, 16), (5, 16), (codebook.ROW_CHUNK + 3, 16),
             (3 * _block(256) // 2, 256)]

    @pytest.mark.parametrize("rows, k", CASES, ids=[str(rows) for rows, _ in CASES])
    def test_residual_is_exact_difference(self, rows, k):
        rng = np.random.default_rng(rows)
        vectors = rng.normal(size=(k, 3)).astype(np.float32)
        points = rng.normal(size=(rows, 3))
        prior = rng.dirichlet(np.ones(k))
        for idx, res in (codebook.nearest_batch(points, vectors),
                         codebook.nearest_rate_penalized_batch(points, vectors, prior, 2.0)):
            assert idx.shape == (rows,) and res.shape == (rows, 3)
            assert res.dtype == np.float64
            assert np.array_equal(res, points - vectors.astype(np.float64)[idx])


KERNELS = {
    "plain": lambda points, vectors, prior: codebook.nearest_batch(points, vectors),
    "rate": lambda points, vectors, prior: codebook.nearest_rate_penalized_batch(
        points, vectors, prior, 0.7),
}


class TestBlockedScan:
    """Scores are computed one SCORE_BYTES block of rows at a time; a block
    boundary changes no result."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("k", [2, 16, 256])
    def test_batch_equals_row_at_a_time(self, kernel, k):
        rng = np.random.default_rng(k)
        vectors = rng.normal(size=(k, 4)).astype(np.float32)
        vectors[-1] = vectors[0]  # exact ties, which go to the lower index
        prior = rng.dirichlet(np.ones(k))
        block = _block(k)
        points = rng.normal(size=(5 * block // 2, 4))
        one = [KERNELS[kernel](points[i:i + 1], vectors, prior) for i in range(len(points))]
        want_idx = np.concatenate([i for i, _ in one])
        want_res = np.concatenate([r for _, r in one])
        for rows in (0, 1, block - 1, block, block + 1, len(points)):
            idx, res = KERNELS[kernel](points[:rows], vectors, prior)
            assert np.array_equal(idx, want_idx[:rows])
            assert np.array_equal(res, want_res[:rows])

    @pytest.mark.parametrize("k", [2, 16, 256])
    def test_folded_scores_pick_the_unfolded_argmin(self, k):
        rng = np.random.default_rng(k + 1)
        vectors = rng.normal(size=(k, 4)).astype(np.float32)
        vectors[-1] = vectors[0]
        points = np.concatenate([rng.normal(size=(3 * _block(256), 4)),
                                 vectors[rng.integers(k, size=100)].astype(np.float64)])
        vec = vectors.astype(np.float64)
        unfolded = (points @ vec.T) * -2.0 + np.einsum("kd,kd->k", vec, vec)
        idx, _ = codebook.nearest_batch(points, vectors)
        assert np.array_equal(idx, np.argmin(unfolded, axis=1))

    def test_scratch_memory_is_one_score_block(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(8192, 4))
        vectors = rng.normal(size=(256, 4))
        codebook.nearest_batch(points[:1], vectors)  # first-call set-up is not the scan's
        tracemalloc.start()
        try:
            idx, res = codebook.nearest_batch(points, vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = points.nbytes + vectors.nbytes + idx.nbytes + res.nbytes + codebook.SCORE_BYTES
        assert peak < bound


class TestSearchRounding:
    """Both kernels score by the expanded norm. Near-ties may then resolve
    differently from a direct-difference argmin, but only within the rounding
    of ||x||^2 + ||c||^2."""

    D = 4

    def _case(self, seed):
        # far from the origin, so that rounding is large next to the distance gaps
        rng = np.random.default_rng(seed)
        offset = rng.normal(size=self.D) * 1e3
        vectors = (offset + rng.normal(size=(64, self.D)) * 1e-3).astype(np.float32)
        points = offset + rng.normal(size=(2000, self.D)) * 1e-3
        vec = vectors.astype(np.float64)
        direct = ((points[:, None, :] - vec[None, :, :]) ** 2).sum(axis=2)
        scale = np.einsum("pd,pd->p", points, points) + np.einsum("kd,kd->k", vec, vec).max()
        return rng, vectors, points, direct, 4 * self.D * np.finfo(np.float64).eps * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_plain_choice_within_rounding_of_direct_minimum(self, seed):
        _, vectors, points, direct, tol = self._case(seed)
        idx, _ = codebook.nearest_batch(points, vectors)
        chosen = direct[np.arange(len(points)), idx]
        assert np.all(chosen - direct.min(axis=1) <= tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_rate_penalized_choice_within_rounding_of_direct_minimum(self, seed):
        rng, vectors, points, direct, tol = self._case(seed)
        prior = rng.dirichlet(np.ones(len(vectors)))
        lam = 1e6  # rate and distortion terms of similar size
        objective = lam * direct - np.log2(prior)
        idx, _ = codebook.nearest_rate_penalized_batch(points, vectors, prior, lam)
        chosen = objective[np.arange(len(points)), idx]
        rate_tol = lam * tol + 4 * self.D * np.finfo(np.float64).eps * -np.log2(prior).max()
        assert np.all(chosen - objective.min(axis=1) <= rate_tol)


class TestSharing:
    @staticmethod
    def book(m, i, t):
        return m.codebooks[m.layout.group_of[i]][t]

    def test_own_codebook_per_subvector(self):
        lay = make_layout(4, 2, [3, 3], groups=4)
        m = make_toy_model(lay, np.random.default_rng(0))
        seen = {id(self.book(m, i, 0)) for i in range(4)}
        assert len(seen) == 4

    def test_full_sharing(self):
        lay = make_layout(4, 2, [3, 3], groups=1)
        m = make_toy_model(lay, np.random.default_rng(0))
        for t in range(2):
            assert len({id(self.book(m, i, t)) for i in range(4)}) == 1

    def test_contiguous_sharing_blocks(self):
        lay = make_layout(128, 4, [6, 6, 6], groups=16)
        m = make_toy_model(lay, np.random.default_rng(0))
        first_block = {id(self.book(m, i, 0)) for i in range(8)}
        assert len(first_block) == 1
        assert self.book(m, 8, 0) is not self.book(m, 7, 0)


class TestAccounting:
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_param_count_formula(self, groups):
        lay = make_layout(4, 2, [4, 3], groups=groups)
        m = make_toy_model(lay, np.random.default_rng(0))
        per_group = sum(1 << b for b in (4, 3))
        assert codebook.codeword_param_count(m) == 2 * groups * per_group


class TestValidateCodebook:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            codebook.validate_codebook(Codebook(vectors=np.zeros((3, 2), dtype=np.float32)))

    def test_rejects_bad_prior_sum(self):
        cb = Codebook(vectors=np.zeros((2, 1), dtype=np.float32),
                      prior=np.array([0.7, 0.7]))
        with pytest.raises(CorruptionError):
            codebook.validate_codebook(cb)

    def test_rejects_kraft_violation(self):
        cb = Codebook(vectors=np.zeros((2, 1), dtype=np.float32),
                      prior=np.array([0.5, 0.5]),
                      code_lengths=np.array([1, 0]))
        with pytest.raises(ConfigError):
            codebook.validate_codebook(cb)
        cb = Codebook(vectors=np.zeros((4, 1), dtype=np.float32),
                      prior=np.full(4, 0.25),
                      code_lengths=np.array([1, 1, 1, 1]))
        with pytest.raises(CorruptionError):
            codebook.validate_codebook(cb)


def _toy(ec):
    return make_toy_model(make_layout(4, 2, [3, 2], groups=2), np.random.default_rng(0), ec=ec)


def _with_books(model, fn):
    """The model with fn applied to every codebook, rebuilt through the constructor."""
    books = tuple(tuple(fn(cb) for cb in group) for group in model.codebooks)
    return dataclasses.replace(model, codebooks=books)


def _nan_first(a):
    a = np.array(a, dtype=np.float64)
    a.flat[0] = np.nan
    return a


# each case breaks one model invariant; all of them constructed unchecked before
BROKEN_MODELS = {
    "missing_group": ("groups of", lambda: dataclasses.replace(
        _toy(False), codebooks=_toy(False).codebooks[:1])),
    "missing_stage": ("groups of", lambda: dataclasses.replace(
        _toy(False), codebooks=tuple(g[:1] for g in _toy(False).codebooks))),
    "512_codewords_under_8_bits": ("vectors are", lambda: MsvqModel(
        layout=make_layout(1, 1, [8]),
        codebooks=((Codebook(vectors=np.zeros((512, 1), dtype=np.float32)),),),
        fallback_means=np.zeros((1, 1), dtype=np.float32))),
    "wrong_codeword_dim": ("vectors are", lambda: _with_books(
        _toy(False), lambda cb: Codebook(vectors=np.zeros((cb.size, 3), dtype=np.float32)))),
    "nonfinite_codeword": ("non-finite", lambda: _with_books(
        _toy(False), lambda cb: Codebook(vectors=_nan_first(cb.vectors)))),
    "fallback_shape": ("fallback means", lambda: dataclasses.replace(
        _toy(False), fallback_means=np.zeros((4, 3), dtype=np.float32))),
    "fallback_nonfinite": ("fallback means", lambda: dataclasses.replace(
        _toy(False), fallback_means=_nan_first(_toy(False).fallback_means))),
    "plain_with_lambdas": ("priors and code lengths", lambda: dataclasses.replace(
        _toy(False), lambdas=np.ones(2))),
    "plain_with_ec_codebooks": ("priors and code lengths", lambda: dataclasses.replace(
        _toy(True), lambdas=None)),
    "ec_without_lambdas": ("priors and code lengths", lambda: dataclasses.replace(
        _toy(True), lambdas=None)),
    "ec_lambda_count": ("lambdas must be positive and finite", lambda: dataclasses.replace(
        _toy(True), lambdas=np.ones(3))),
    "ec_lambda_nonpositive": ("lambdas must be positive and finite", lambda: dataclasses.replace(
        _toy(True), lambdas=np.array([1.0, 0.0]))),
    "ec_lambda_nan": ("lambdas must be positive and finite", lambda: dataclasses.replace(
        _toy(True), lambdas=np.array([1.0, np.nan]))),
    "ec_without_lengths": ("priors and code lengths", lambda: _with_books(
        _toy(True), lambda cb: Codebook(vectors=cb.vectors, prior=cb.prior))),
    "ec_without_priors": ("priors and code lengths", lambda: _with_books(
        _toy(True), lambda cb: Codebook(vectors=cb.vectors, code_lengths=cb.code_lengths))),
    "ec_bad_prior": ("prior", lambda: _with_books(
        _toy(True), lambda cb: Codebook(vectors=cb.vectors, prior=cb.prior * 2,
                                        code_lengths=cb.code_lengths))),
    "ec_code_length_over_cap": ("code lengths", lambda: _with_books(
        _toy(True), lambda cb: Codebook(vectors=cb.vectors, prior=cb.prior,
                                        code_lengths=cb.code_lengths + 30))),
}


class TestModelInvariants:
    @pytest.mark.parametrize("ec", [False, True])
    def test_toy_models_are_valid(self, ec):
        dataclasses.replace(_toy(ec))  # rebuilding a valid model runs the same checks

    @pytest.mark.parametrize("case", sorted(BROKEN_MODELS))
    def test_constructor_rejects(self, case):
        match, build = BROKEN_MODELS[case]
        with pytest.raises(MsvqError, match=match):
            build()
