import math

import numpy as np
import pytest

from conftest import make_layout
from msvq import oracle, quantizer, rate, trainer
from msvq.errors import ConfigError

from test_rate import WORKED, table_from_drops


class TestExhaustiveSelect:
    def test_worked_instance_optimum(self):
        result = oracle.exhaustive_select(WORKED, 6.0)
        assert result.best_plan.tolist() == [1, 2, 0]
        initial = rate.plan_predicted_loss(WORKED, [0, 0, 0])
        assert initial - result.best_loss == pytest.approx(21.0)

    def test_unbounded_budget_takes_everything(self):
        result = oracle.exhaustive_select(WORKED, math.inf)
        assert result.best_plan.tolist() == [2, 2, 2]
        assert result.enumerated == 3 ** 3

    def test_zero_budget_counts_single_plan(self):
        result = oracle.exhaustive_select(WORKED, 0.0)
        assert result.best_plan.tolist() == [0, 0, 0]
        assert result.enumerated == 1

    def test_loss_ties_resolve_lexicographically(self):
        tab = table_from_drops([[4.0], [4.0]], 2.0)
        result = oracle.exhaustive_select(tab, 2.0)  # (0,1) and (1,0) tie
        assert result.best_plan.tolist() == [0, 1]

    def test_size_guard(self):
        big = table_from_drops(np.ones((16, 3)), 1.0)
        with pytest.raises(ConfigError):
            oracle.exhaustive_select(big, 1.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_convex_equal_bit_instances_match_greedy(self, seed):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        drops = -np.sort(-rng.lognormal(0.0, 1.0, size=(n, t)), axis=1)
        drops += np.arange(t, 0, -1) * 1e-3
        tab = table_from_drops(drops, float(rng.integers(1, 5)),
                               full_loss=float(rng.uniform(0, 1)))
        b_cap = float(rng.uniform(0.0, tab.step_bits.sum()))
        greedy_loss = rate.plan_predicted_loss(tab, tab.plan(b_cap)[0])
        best = oracle.exhaustive_select(tab, b_cap)
        assert greedy_loss == pytest.approx(best.best_loss, rel=1e-12)


class TestDirectMarginalLoss:
    def test_full_depth_equals_full_model_loss(self, corr_data, model):
        lay = model.layout
        _, z_hat = quantizer.encode_batch(model, corr_data, quantizer.full_plan(model))
        full = quantizer.reconstruction_mse(corr_data, z_hat)
        direct = oracle.direct_marginal_loss(model, corr_data, 2, lay.t_max)
        assert direct == pytest.approx(full, rel=1e-12)

    def test_single_subvector_matches_trainer(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(256, 2)).astype(np.float32)
        lay = make_layout(1, 2, [3, 3], groups=1)
        m, rep = trainer.train(data, lay, trainer.TrainConfig(seed=4))
        for t in (1, 2):
            direct = oracle.direct_marginal_loss(m, data, 0, t)
            assert direct == pytest.approx(rep.per_stage_distortion[t - 1], rel=1e-9)
