import numpy as np
import pytest

from msvq import layout
from msvq.errors import ConfigError, DataError


class TestComputeStats:
    def test_two_point_sample(self):
        variance = layout.compute_stats(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.array_equal(variance, [1.0, 0.0])

    def test_constant_data_has_zero_variance(self):
        variance = layout.compute_stats(np.full((5, 3), 2.5))
        assert np.array_equal(variance, np.zeros(3))

    def test_seeded_normal_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((1000, 8))
        variance = layout.compute_stats(data)
        # independent route: E[x^2] - E[x]^2 instead of mean of squared deviations
        mean = data.sum(axis=0) / 1000.0
        var = (data ** 2).sum(axis=0) / 1000.0 - mean ** 2
        np.testing.assert_allclose(variance, var, rtol=1e-10)
        assert np.all((variance >= 0.8) & (variance <= 1.2))

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DataError):
            layout.compute_stats(bad)

    def test_rejects_single_row(self):
        with pytest.raises(DataError):
            layout.compute_stats(np.ones((1, 4)))


def _stats(variance):
    return np.asarray(variance, dtype=np.float64)


class TestBuildLayout:
    def test_variance_sort_example(self):
        lay = layout.build_layout(_stats([5.0, 1.0, 9.0, 3.0]), sub_dim=2, t_max=1,
                                  groups=1, alloc=np.full((2, 1), 4))
        assert lay.perm.tolist() == [2, 0, 3, 1]
        assert lay.perm[0:2].tolist() == [2, 0]   # first sub-vector owns coords {2, 0}
        assert lay.perm[2:4].tolist() == [3, 1]

    def test_tie_break_by_index(self):
        lay = layout.build_layout(_stats([1.0, 1.0, 1.0, 1.0]), sub_dim=2, t_max=1,
                                  groups=1, alloc=np.full((2, 1), 4))
        assert lay.perm.tolist() == [0, 1, 2, 3]

    def test_contiguous_groups_128_16(self):
        rng = np.random.default_rng(0)
        lay = layout.build_layout(_stats(rng.uniform(0.5, 2.0, 512)), sub_dim=4,
                                  t_max=3, groups=16, alloc="type3")
        expected = np.repeat(np.arange(16), 8)
        assert np.array_equal(lay.group_of, expected)

    def test_descending_variance_partition(self):
        rng = np.random.default_rng(3)
        variance = rng.uniform(0.0, 10.0, 24)
        lay = layout.build_layout(_stats(variance), sub_dim=4, t_max=2, groups=3,
                                  alloc=np.full((6, 2), 3))
        per_sub = variance[lay.perm].reshape(6, 4)
        for i in range(5):
            assert per_sub[i].min() >= per_sub[i + 1].max()

    def test_perm_then_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        lay = layout.build_layout(_stats(rng.uniform(1, 2, 12)), sub_dim=3, t_max=1,
                                  groups=2, alloc=np.full((4, 1), 2))
        z = rng.normal(size=12)
        inv = np.argsort(lay.perm)
        assert np.array_equal(z[lay.perm][inv], z)

    def test_group_columns_are_the_groups_variance_ordered_coordinates(self):
        rng = np.random.default_rng(6)
        lay = layout.build_layout(_stats(rng.uniform(1, 2, 24)), sub_dim=2, t_max=1,
                                  groups=3, alloc=np.full((12, 1), 2))
        assert not np.array_equal(lay.perm, np.arange(24))
        cols = [lay.group_columns(g) for g in range(lay.n_groups)]
        assert all(c.shape == (4, 2) for c in cols)
        assert np.array_equal(np.concatenate(cols), lay.perm.reshape(12, 2))
        Z = rng.normal(size=(5, 24))
        split = Z[:, lay.perm].reshape(5, 12, 2)  # every sub-vector, in variance order
        for g, c in enumerate(cols):
            assert np.array_equal(Z[:, c], split[:, lay.group_members(g)])

    def test_divisibility_errors(self):
        with pytest.raises(ConfigError):
            layout.build_layout(_stats(np.ones(10)), sub_dim=4, t_max=1, groups=1,
                                alloc=np.full((2, 1), 4))
        with pytest.raises(ConfigError):
            layout.build_layout(_stats(np.ones(16)), sub_dim=4, t_max=1, groups=3,
                                alloc=np.full((4, 1), 4))

    def test_group_needs_identical_bit_rows(self):
        # type1 gives two distinct halves, incompatible with a single shared group
        with pytest.raises(ConfigError, match="use more groups or another preset"):
            layout.build_layout(_stats(np.ones(16)), sub_dim=4, t_max=3, groups=1,
                                alloc="type1")


class TestAllocationPresets:
    def test_type1_128_3(self):
        bits = layout.allocation_preset("type1", 128, 3)
        assert np.all(bits[:64] == [8, 7, 6])
        assert np.all(bits[64:] == [6, 5, 4])

    def test_type2_128_3(self):
        bits = layout.allocation_preset("type2", 128, 3)
        assert np.all(bits[:64] == [7, 7, 7])
        assert np.all(bits[64:] == [5, 5, 5])

    def test_type3_4_2(self):
        assert np.all(layout.allocation_preset("type3", 4, 2) == 6)

    @pytest.mark.parametrize("name", ["type1", "type2", "type3"])
    def test_presets_satisfy_monotonicity(self, name):
        bits = layout.allocation_preset(name, 32, 3)
        assert np.all(np.diff(bits, axis=0) <= 0)
        assert np.all(np.diff(bits, axis=1) <= 0)

    def test_custom_increasing_in_stage_rejected(self):
        with pytest.raises(ConfigError):
            layout.validate_bits(np.array([[4, 5], [4, 4]]))

    def test_custom_increasing_in_row_rejected(self):
        with pytest.raises(ConfigError):
            layout.validate_bits(np.array([[4, 4], [5, 5]]))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            layout.allocation_preset("type9", 4, 2)

    @pytest.mark.parametrize("name", ["typeI", "TYPE1", "type_2", "type-3", "typeiii"])
    def test_presets_have_one_spelling(self, name):
        assert layout.PRESETS == ("type1", "type2", "type3")
        with pytest.raises(ConfigError, match="unknown allocation preset"):
            layout.allocation_preset(name, 4, 2)

    def test_odd_rows_rejected_for_halved_presets(self):
        with pytest.raises(ConfigError):
            layout.allocation_preset("type1", 5, 2)


class TestAssembleLayout:
    def test_rejects_non_permutation(self):
        with pytest.raises(ConfigError):
            layout.assemble_layout(4, 2, 2, perm=np.array([0, 0, 1, 2]),
                                   group_of=np.array([0, 0]),
                                   bits=np.full((2, 1), 3))

    def test_rejects_non_contiguous_groups(self):
        with pytest.raises(ConfigError):
            layout.assemble_layout(4, 2, 2, perm=np.arange(4),
                                   group_of=np.array([1, 0]),
                                   bits=np.full((2, 1), 3))
