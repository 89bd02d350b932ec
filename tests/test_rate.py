import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_layout, make_toy_model
from msvq import datagen, layout, oracle, quantizer, rate, trainer
from msvq.codebook import ROW_CHUNK
from msvq.errors import ConfigError, CorruptionError


def table_from_drops(drops, step_bits, full_loss=0.0):
    """Assemble a table row-wise from loss drops (last column = full_loss)."""
    drops = np.asarray(drops, dtype=np.float64)
    n, t = drops.shape
    loss = np.zeros((n, t + 1))
    loss[:, t] = full_loss
    for tt in range(t - 1, -1, -1):
        loss[:, tt] = loss[:, tt + 1] + drops[:, tt]
    step = np.asarray(step_bits, dtype=np.float64)
    if step.ndim == 0:
        step = np.full((n, t), float(step))
    return rate.MarginalLossTable(loss=loss, step_bits=step, mode=rate.MODE_EXACT)


def greedy_scan_reference(table, b_cap):
    """Independent greedy: rescan every sub-vector for the best fitting step at each pick."""
    loss, step_bits = table.loss, table.step_bits
    n, t_max = step_bits.shape
    stages = np.zeros(n, dtype=np.int64)
    used = 0.0
    order = []
    while True:
        best_i = -1
        best_ratio = -np.inf
        for i in range(n):
            t = stages[i]
            if t >= t_max:
                continue
            step = step_bits[i, t]
            if used + step > b_cap:
                continue
            ratio = (loss[i, t] - loss[i, t + 1]) / step
            if ratio > best_ratio:
                best_ratio = ratio
                best_i = i
        if best_i < 0:
            return stages, used, order
        used += step_bits[best_i, stages[best_i]]
        stages[best_i] += 1
        order.append(best_i)


# few distinct values, so ratios tie; 0.0 and -0.0 give zero drops of both signs
_LOSSES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0]),
                    st.floats(-10.0, 10.0))
_STEPS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(0.125, 8.0))


@st.composite
def greedy_cases(draw):
    n, t_max = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    loss = np.array(draw(st.lists(_LOSSES, min_size=n * (t_max + 1), max_size=n * (t_max + 1))))
    step = np.array(draw(st.lists(_STEPS, min_size=n * t_max, max_size=n * t_max)))
    table = rate.MarginalLossTable(loss=loss.reshape(n, t_max + 1),
                                   step_bits=step.reshape(n, t_max), mode=rate.MODE_AVERAGE)
    total = float(step.sum())
    b_cap = draw(st.one_of(st.just(0.0), st.floats(0.0, total), st.just(total), st.just(math.inf)))
    return table, b_cap


WORKED = table_from_drops([[10.0, 1.0], [6.0, 5.0], [3.0, 2.0]], 2.0)
ONE_BY_ONE = table_from_drops([[2.0]], 1.0)  # n = t_max = 1, so a boolean true matches both


@pytest.fixture(scope="module")
def table(model, corr_data):
    return rate.build_table(model, corr_data)


class TestBuildTable:
    def test_last_column_is_full_model_loss(self, table, corr_data, model):
        _, z_hat = quantizer.encode_batch(model, corr_data, quantizer.full_plan(model))
        full = quantizer.reconstruction_mse(corr_data, z_hat)
        np.testing.assert_allclose(table.loss[:, -1], full, rtol=1e-9)

    @pytest.mark.parametrize("ec", [False, True])
    def test_identical_for_any_thread_count(self, model, ec_model, ec):
        # more rows than two row chunks, so the pool really splits the work
        m = ec_model if ec else model
        data = datagen.gauss_corr(2 * ROW_CHUNK + 37, m.layout.m_dim, 0.9, seed=5)
        one = rate.build_table(m, data, threads=1)
        two = rate.build_table(m, data, threads=2)
        assert np.array_equal(one.loss, two.loss)
        assert np.array_equal(one.step_bits, two.step_bits)

    def test_peak_memory_is_chunk_blocks_not_a_permuted_copy(self):
        data = datagen.gauss_corr(6 * ROW_CHUNK + 37, 64, 0.9, seed=3).astype(np.float64)
        lay = layout.build_layout(layout.compute_stats(data), 4, 3, 1, "type3")
        m = make_toy_model(lay, np.random.default_rng(0))
        chunk = ROW_CHUNK * lay.m_dim * 8  # one row chunk of the whole group
        tracemalloc.start()
        try:
            rate.build_table(m, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # check_features' finiteness mask, then per chunk the group's gather, its
        # contiguous copy, the residuals its search leaves and one score buffer;
        # a variance-ordered copy of all the data would add six more chunks
        assert peak < data.nbytes // 8 + 4 * chunk

    def test_single_subvector_matches_train_report(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(512, 4)).astype(np.float32)
        lay = make_layout(1, 4, [4, 4, 4], groups=1)
        m, rep = trainer.train(data, lay, trainer.TrainConfig(seed=2))
        tab = rate.build_table(m, data)
        for t in range(1, 4):
            assert tab.loss[0, t] == pytest.approx(rep.per_stage_distortion[t - 1],
                                                   rel=1e-9)

    def test_fast_path_matches_direct_evaluation(self, table, corr_data, model):
        for i in range(model.layout.n_sub):
            for t in range(model.layout.t_max + 1):
                direct = oracle.direct_marginal_loss(model, corr_data, i, t)
                assert table.loss[i, t] == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("n,d,t,g,bits,ec", [
        (2, 2, 1, 1, 3, False),
        (4, 3, 2, 2, 4, False),
        (6, 2, 3, 3, 3, True),
    ])
    def test_fast_path_matches_direct_on_varied_shapes(self, n, d, t, g, bits, ec):
        rng = np.random.default_rng(n * 100 + d)
        data = rng.normal(size=(300, n * d)).astype(np.float32)
        lay = make_layout(n, d, [bits] * t, groups=g)
        config = trainer.TrainConfig(seed=7, ec=ec, lambdas=[4.0] * t if ec else None)
        m, _ = trainer.train(data, lay, config)
        tab = rate.build_table(m, data)
        for i in range(n):
            for tt in range(t + 1):
                direct = oracle.direct_marginal_loss(m, data, i, tt)
                assert tab.loss[i, tt] == pytest.approx(direct, rel=1e-9)

    def test_exact_mode_step_bits_are_layout_bits(self, table, model):
        assert np.array_equal(table.step_bits, model.layout.bits.astype(np.float64))

    def test_average_mode_measures_code_lengths(self, ec_model, corr_data):
        tab = rate.build_table(ec_model, corr_data)
        assert tab.mode == rate.MODE_AVERAGE
        assert np.all(tab.step_bits > 0)
        assert np.all(tab.step_bits <= ec_model.layout.bits + 1e-9)


class TestSelectStages:
    def test_worked_instance(self):
        stages = WORKED.plan(6.0)[0]
        assert stages.tolist() == [1, 2, 0]
        assert rate.plan_step_bits(WORKED, stages) == 6
        drop = rate.plan_predicted_loss(WORKED, [0, 0, 0]) - \
            rate.plan_predicted_loss(WORKED, stages)
        assert drop == pytest.approx(21.0)
        best = oracle.exhaustive_select(WORKED, 6.0)
        assert rate.plan_predicted_loss(WORKED, stages) == pytest.approx(best.best_loss)

    def test_zero_budget(self):
        stages = WORKED.plan(0.0)[0]
        assert stages.tolist() == [0, 0, 0]
        assert rate.plan_step_bits(WORKED, stages) == 0

    def test_unconstrained_budget_selects_everything(self):
        assert WORKED.plan(float(WORKED.step_bits.sum()))[0].tolist() == [2, 2, 2]

    def test_tie_breaks_to_lowest_row(self):
        tab = table_from_drops([[4.0, 1.0], [4.0, 1.0]], 2.0)
        _, _, order = rate.greedy_order(tab, 4.0)
        assert order == [0, 1]

    @pytest.mark.parametrize("drops, order", [
        # row 1's second step ties row 0's first step
        ([[2.0, 0.0], [5.0, 2.0]], [1, 0, 1]),
        # row 0's second step, pushed after row 1's first, ties it
        ([[5.0, 2.0], [2.0, 0.0]], [0, 0, 1]),
    ])
    def test_tie_across_stages_breaks_to_lowest_row(self, drops, order):
        assert rate.greedy_order(table_from_drops(drops, 1.0), 3.0)[2] == order

    def test_skips_best_step_that_does_not_fit(self):
        # row 0's step has the best ratio (2.5) but needs 4 bits; row 1's fits
        tab = rate.MarginalLossTable(loss=table_from_drops([[10.0], [1.0]], 1.0).loss,
                                     step_bits=np.array([[4.0], [1.0]]), mode=rate.MODE_AVERAGE)
        stages, used, order = rate.greedy_order(tab, 2.0)
        assert stages.tolist() == [0, 1]
        assert used == 1.0
        assert order == [1]

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            WORKED.plan(-1.0)

    def test_nan_budget_rejected(self):
        with pytest.raises(ConfigError):
            oracle.exhaustive_select(WORKED, math.nan)
        with pytest.raises(ConfigError):
            WORKED.plan(math.nan)

    def test_infinite_budget_selects_everything(self):
        assert WORKED.plan(math.inf)[0].tolist() == [2, 2, 2]

    @settings(max_examples=150, deadline=None)
    @given(greedy_cases())
    def test_matches_scan_reference(self, case):
        table, b_cap = case
        stages, used, order = rate.greedy_order(table, b_cap)
        ref_stages, ref_used, ref_order = greedy_scan_reference(table, b_cap)
        assert stages.tolist() == ref_stages.tolist()
        assert used == ref_used
        assert order == ref_order

    def test_overflowed_drop_is_never_granted(self):
        # row 0's drop overflows to -inf, row 2's to +inf
        loss = np.array([[-1e308, 1e308], [2.0, 1.0], [1e308, -1e308]])
        tab = rate.MarginalLossTable(loss=loss, step_bits=np.ones((3, 1)), mode=rate.MODE_EXACT)
        with np.errstate(over="ignore"):
            stages, used, order = rate.greedy_order(tab, math.inf)
            ref_stages, ref_used, ref_order = greedy_scan_reference(tab, math.inf)
        assert stages.tolist() == [0, 1, 1]
        assert used == 2.0
        assert order == [2, 1]
        assert (ref_stages.tolist(), ref_used, ref_order) == ([0, 1, 1], 2.0, [2, 1])

    @pytest.mark.parametrize("seed", range(25))
    def test_budget_feasibility_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        drops = rng.uniform(0.1, 5.0, size=(n, t))
        step = rng.uniform(0.5, 4.0, size=(n, t))
        tab = rate.MarginalLossTable(
            loss=table_from_drops(drops, 1.0).loss, step_bits=step, mode=rate.MODE_AVERAGE)
        b_cap = float(rng.uniform(0.0, step.sum()))
        assert rate.plan_step_bits(tab, tab.plan(b_cap)[0]) <= b_cap

    def test_deterministic(self, table):
        a = table.plan(77.0)[0]
        b = table.plan(77.0)[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(25))
    def test_nested_plans_and_monotone_loss_equal_bits(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, t = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        drops = rng.uniform(0.1, 5.0, size=(n, t))
        tab = table_from_drops(drops, float(rng.integers(1, 5)))
        total = float(tab.step_bits.sum())
        prev_stages = np.zeros(n, dtype=np.int64)
        prev_loss = np.inf
        for b in np.linspace(0.0, total, 9):
            stages = tab.plan(float(b))[0]
            assert np.all(stages >= prev_stages)
            predicted = rate.plan_predicted_loss(tab, stages)
            assert predicted <= prev_loss + 1e-12
            prev_stages, prev_loss = stages, predicted


class TestValidateConvexity:
    def test_decreasing_drops_pass(self):
        tab = table_from_drops([[5.0, 3.0, 1.0]], 1.0)
        assert rate.validate_convexity(tab) == [{"monotone": True, "convex": True}]

    def test_increasing_drop_fails_convexity(self):
        tab = table_from_drops([[1.0, 4.0]], 1.0)
        assert rate.validate_convexity(tab) == [{"monotone": True, "convex": False}]

    def test_flat_row_fails_monotonicity(self):
        tab = table_from_drops([[0.0, 1.0]], 1.0)
        report = rate.validate_convexity(tab)
        assert report[0]["monotone"] is False

    def test_trained_table_report(self, table):
        report = rate.validate_convexity(table)
        assert len(report) == table.n_sub
        assert all(r["monotone"] for r in report)


class TestTableSerialization:
    def test_round_trip_through_dict(self, table):
        doc = rate.table_to_dict(table)
        back = rate.table_from_dict(doc)
        assert np.array_equal(back.loss, table.loss)
        assert np.array_equal(back.step_bits, table.step_bits)
        assert back.mode == table.mode

    def test_rejects_missing_fields(self):
        with pytest.raises(CorruptionError):
            rate.table_from_dict({"n": 1})

    @pytest.mark.parametrize("field", ["n", "t_max"])
    def test_rejects_infinite_size(self, field):
        doc = rate.table_to_dict(WORKED)
        doc[field] = math.inf  # JSON's Infinity; int() overflows on it
        with pytest.raises(CorruptionError):
            rate.table_from_dict(doc)

    def test_rejects_bad_mode(self):
        doc = rate.table_to_dict(WORKED)
        doc["mode"] = "fancy"
        with pytest.raises(CorruptionError):
            rate.table_from_dict(doc)

    def test_rejects_shape_mismatch(self):
        doc = rate.table_to_dict(WORKED)
        doc["n"] = 7
        with pytest.raises(CorruptionError):
            rate.table_from_dict(doc)

    def test_rejects_inconsistent_full_loss_column(self):
        doc = rate.table_to_dict(WORKED)
        doc["loss"][0][-1] = 123.0
        with pytest.raises(CorruptionError):
            rate.table_from_dict(doc)

    def test_rejects_nonpositive_step_bits(self):
        doc = rate.table_to_dict(WORKED)
        doc["step_bits"][0][0] = 0.0
        with pytest.raises(CorruptionError):
            rate.table_from_dict(doc)

    def test_rejects_missing_format_marker(self):
        doc = rate.table_to_dict(WORKED)
        del doc["format"]
        with pytest.raises(CorruptionError, match="MLT1"):
            rate.table_from_dict(doc)

    def test_rejects_wrong_format_marker(self):
        doc = rate.table_to_dict(WORKED)
        doc["format"] = "XXXX"
        with pytest.raises(CorruptionError, match="MLT1"):
            rate.table_from_dict(doc)

    @pytest.mark.parametrize("field", ["n", "t_max"])
    def test_rejects_boolean_size(self, field):
        doc = rate.table_to_dict(ONE_BY_ONE)
        rate.table_from_dict(doc)
        doc[field] = True
        with pytest.raises(CorruptionError, match="JSON integers"):
            rate.table_from_dict(doc)

    @pytest.mark.parametrize("field", ["n", "t_max"])
    def test_rejects_integral_float_size(self, field):
        doc = rate.table_to_dict(WORKED)
        doc[field] = float(doc[field])
        with pytest.raises(CorruptionError, match="JSON integers"):
            rate.table_from_dict(doc)

    @pytest.mark.parametrize("field", ["loss", "step_bits"])
    def test_rejects_numeric_string_entry(self, field):
        doc = rate.table_to_dict(WORKED)
        doc[field][0][0] = str(doc[field][0][0])
        with pytest.raises(CorruptionError, match="JSON numbers"):
            rate.table_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("loss", False), ("step_bits", True)])
    def test_rejects_boolean_entry(self, field, value):
        doc = rate.table_to_dict(WORKED)
        doc[field][0][-1] = value  # False equals the full loss 0.0, True a 1-bit step
        with pytest.raises(CorruptionError, match="JSON numbers"):
            rate.table_from_dict(doc)

    def test_accepts_integer_entries(self):
        doc = rate.table_to_dict(WORKED)
        doc["step_bits"] = [[int(v) for v in row] for row in doc["step_bits"]]
        assert np.array_equal(rate.table_from_dict(doc).step_bits, WORKED.step_bits)
