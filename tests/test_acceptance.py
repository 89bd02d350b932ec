"""Acceptance suite: one test per release criterion, at its stated tolerance.

The shared benchmark is correlated Gaussian data (rho 0.9, 8192 x 64) with
4-dimensional sub-vectors, three stages of 6 bits, and per-sub-vector
codebooks. Each test prints a PASS/FAIL line via the conftest hook.
"""

import time

import numpy as np
import pytest

from msvq import bitstream, cli, datagen, entropy, layout, oracle, quantizer, rate, trainer
from msvq.codebook import SCORE_BYTES, codeword_param_count

DATA_SEED = 20260808
TRAIN_SEED = 13
ROWS, M, D, T_MAX = 8192, 64, 4, 3
N = M // D
B_TOT = N * 6 * T_MAX  # fixed-length bits of the full plan


@pytest.fixture(scope="module")
def c1_data():
    return datagen.gauss_corr(ROWS, M, 0.9, seed=DATA_SEED)


@pytest.fixture(scope="module")
def c1_layout(c1_data):
    stats = layout.compute_stats(c1_data)
    return layout.build_layout(stats, sub_dim=D, t_max=T_MAX, groups=N, alloc="type3")


@pytest.fixture(scope="module")
def c1(c1_data, c1_layout):
    start = time.perf_counter()
    model, report = trainer.train(c1_data, c1_layout, trainer.TrainConfig(seed=TRAIN_SEED))
    elapsed = time.perf_counter() - start
    return model, report, elapsed


@pytest.fixture(scope="module")
def c1_files(tmp_path_factory, c1, c1_data):
    """The criterion-1 artifacts on disk, table built and bound via the CLI."""
    d = tmp_path_factory.mktemp("acceptance")
    model, _, _ = c1
    data_path = d / "feat.fmat"
    model_path = d / "model.msvq"
    table_path = d / "table.json"
    bitstream.write_features(str(data_path), c1_data)
    bitstream.write_model(str(model_path), model)
    assert cli.main(["table", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(table_path)]) == 0
    return {"dir": d, "data": data_path, "model": model_path, "table": table_path}


def test_criterion_1_stage_monotonicity(c1, c1_data):
    model, report, elapsed = c1
    z = c1_data.astype(np.float64)
    energies = [float(np.mean(np.einsum("rm,rm->r", z, z)))]  # energy of r^(0) = z
    energies += report.per_stage_distortion
    for before, after in zip(energies, energies[1:]):
        assert after < before
        reduction = (before - after) / before
        assert reduction >= 0.20
    print(f"reductions: {[f'{(a - b) / a:.1%}' for a, b in zip(energies, energies[1:])]}, "
          f"train time {elapsed:.1f}s")
    assert elapsed < 30.0


def _convex_table(rng):
    n = int(rng.integers(2, 7))
    t = int(rng.integers(1, 4))
    drops = -np.sort(-rng.lognormal(0.0, 1.0, size=(n, t)), axis=1)
    drops += np.arange(t, 0, -1) * 1e-3
    loss = np.zeros((n, t + 1))
    loss[:, t] = float(rng.uniform(0.0, 1.0))
    for tt in range(t - 1, -1, -1):
        loss[:, tt] = loss[:, tt + 1] + drops[:, tt]
    step = np.full((n, t), float(rng.integers(1, 5)))
    return rate.MarginalLossTable(loss=loss, step_bits=step, mode=rate.MODE_EXACT)


def test_criterion_2_greedy_optimal_under_fox_condition():
    start = time.perf_counter()
    matches = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        table = _convex_table(rng)
        report = rate.validate_convexity(table)
        assert all(r["monotone"] and r["convex"] for r in report)
        b_cap = float(rng.uniform(0.0, table.step_bits.sum()))
        greedy = rate.plan_predicted_loss(table, table.plan(b_cap)[0])
        best = oracle.exhaustive_select(table, b_cap).best_loss
        if abs(greedy - best) <= 1e-12 * max(1.0, abs(best)):
            matches += 1
    elapsed = time.perf_counter() - start
    print(f"greedy == oracle on {matches}/1000 instances in {elapsed:.1f}s")
    assert matches == 1000
    assert elapsed < 60.0


def _unconstrained_table(rng):
    """Residual-energy-shaped rows without any convexity guarantee."""
    n = int(rng.integers(2, 7))
    t = int(rng.integers(1, 4))
    energy = rng.lognormal(0.0, 0.8, size=n)
    ratios = rng.uniform(0.1, 0.8, size=(n, t))
    d = np.empty((n, t + 1))
    d[:, 0] = energy
    for tt in range(t):
        d[:, tt + 1] = d[:, tt] * ratios[:, tt]
    full = d[:, t].sum()
    loss = full - d[:, t:t + 1] + d
    bits = np.repeat(rng.integers(1, 5, size=(n, 1)).astype(np.float64), t, axis=1)
    return rate.MarginalLossTable(loss=loss, step_bits=bits, mode=rate.MODE_EXACT)


def test_criterion_3_greedy_gap_reporting():
    gaps = []
    nonconvex = 0
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        table = _unconstrained_table(rng)
        if not all(r["convex"] for r in rate.validate_convexity(table)):
            nonconvex += 1
        b_cap = float(rng.uniform(0.0, table.step_bits.sum()))
        greedy = rate.plan_predicted_loss(table, table.plan(b_cap)[0])
        best = oracle.exhaustive_select(table, b_cap).best_loss
        gaps.append((greedy - best) / max(abs(best), 1e-30))
    gaps = np.asarray(gaps)
    p95 = float(np.quantile(gaps, 0.95))
    print(f"mean gap {gaps.mean():.4%}, p95 {p95:.4%}, max {gaps.max():.4%} "
          f"({nonconvex}/1000 tables non-convex)")
    assert gaps.mean() <= 0.05


def test_criterion_4_rate_distortion_monotone_sweep(c1, c1_files):
    _, report, _ = c1
    out = c1_files["dir"] / "sweep.csv"
    assert cli.main(["sweep", "--model", str(c1_files["model"]),
                     "--table", str(c1_files["table"]),
                     "--data", str(c1_files["data"]),
                     "--b-cap-grid", f"0:{B_TOT}:{B_TOT // 9}",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 10

    table = bitstream.read_table(str(c1_files["table"]))
    assert all(r["monotone"] for r in rate.validate_convexity(table))

    mse = [float(r["measured_mse"]) for r in rows]
    for a, b in zip(mse, mse[1:]):
        assert b <= a + 1e-9
    predicted = [float(r["predicted_loss"]) for r in rows]
    for a, b in zip(predicted, predicted[1:]):
        assert b <= a + 1e-9
    assert mse[-1] == pytest.approx(report.per_stage_distortion[-1], rel=1e-6)
    print(f"sweep mse {mse[0]:.3f} -> {mse[-1]:.4f} over {len(rows)} budgets")


def test_criterion_5_entropy_coding_efficiency(tmp_path, c1_data, c1_layout):
    scale = 1.0 / float(c1_data.astype(np.float64).var(axis=0).mean())
    measured = {}
    for factor in (0.5, 2.0, 8.0):
        lam = factor * scale
        config = trainer.TrainConfig(seed=TRAIN_SEED, ec=True, lambdas=[lam] * T_MAX)
        model, report = trainer.train(c1_data, c1_layout, config)

        pmfs = entropy.measure_group_pmfs(report.codeword_usage)
        for g in range(model.n_groups):
            for t in range(T_MAX):
                code = entropy.canonical_code(model.codebooks[g][t].code_lengths)
                avg, ent = entropy.avg_bits(pmfs[g, t], code)
                assert ent <= avg + 1e-12
                assert avg < ent + 1.0

        table = rate.build_table(model, c1_data)
        path = str(tmp_path / f"ec{factor}.msvp")
        info = bitstream.write_payload(path, model, 1, table, c1_data,
                                       b_cap=2 ** 30)
        assert info.plan.stages.tolist() == [T_MAX] * N
        measured[factor] = float(info.bits_per_vector.mean())

    print(f"mean payload bits vs fixed {B_TOT}: " +
          ", ".join(f"lambda x{f}: {b:.1f}" for f, b in measured.items()))
    assert measured[0.5] < B_TOT
    assert measured[2.0] < B_TOT
    assert measured[0.5] <= measured[2.0] <= measured[8.0]


def test_criterion_6_bit_exact_interop(tmp_path):
    d = tmp_path
    data_path, model_path = d / "feat.fmat", d / "model.msvq"
    table_path, payload_path, recon_path = d / "t.json", d / "p.msvp", d / "r.fmat"
    b_cap = 150

    assert cli.main(["gen", "--dist", "gauss-corr", "--rho", "0.9", "--rows", "10000",
                     "--dim", str(M), "--seed", str(DATA_SEED),
                     "--out", str(data_path)]) == 0
    assert cli.main(["train", "--data", str(data_path), "--sub-dim", str(D),
                     "--t-max", str(T_MAX), "--groups", str(N), "--alloc", "type3",
                     "--seed", str(TRAIN_SEED), "--out", str(model_path)]) == 0
    assert cli.main(["table", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(table_path)]) == 0
    assert cli.main(["encode", "--model", str(model_path), "--table", str(table_path),
                     "--data", str(data_path), "--b-cap", str(b_cap),
                     "--out", str(payload_path)]) == 0
    assert cli.main(["decode", "--model", str(model_path), "--table", str(table_path),
                     "--payload", str(payload_path), "--out", str(recon_path)]) == 0

    model, info = bitstream.read_model(str(model_path))
    table = bitstream.read_table(str(table_path))
    data = bitstream.read_features(str(data_path))

    # receiver side
    z_hat_rx, pinfo = bitstream.read_payload(str(payload_path), model,
                                             info.file_digest, table)
    # transmitter side, derived independently from (table, b_cap)
    tx_stages = table.plan(float(b_cap))[0]
    assert np.array_equal(pinfo.plan.stages, tx_stages)
    _, z_hat_tx = quantizer.encode_batch(model, data, quantizer.plan_layout(model, tx_stages))
    assert z_hat_rx.shape == (10000, M)
    assert np.array_equal(z_hat_rx, z_hat_tx)

    exact_bits = pinfo.plan.exact_bits
    assert np.all(pinfo.bits_per_vector == exact_bits)
    expected_size = bitstream.PAYLOAD_HEADER_SIZE + 10000 * ((exact_bits + 7) // 8)
    assert payload_path.stat().st_size == expected_size

    recon = bitstream.read_features(str(recon_path))
    assert np.array_equal(recon, z_hat_rx.astype(np.float32))
    print(f"10000 vectors bit-exact at b_cap={b_cap} "
          f"({exact_bits} bits + {(-exact_bits) % 8} padding per vector)")


def test_criterion_7_entropy_round_trip_property_suite():
    rng = np.random.default_rng(77)
    cases = 0
    for _ in range(1000):
        k = int(rng.integers(2, 65))
        pmf = rng.dirichlet(np.full(k, float(rng.uniform(0.2, 3.0)))) + 1e-12
        pmf /= pmf.sum()
        code = entropy.build_code(pmf)
        assert entropy.kraft_sum(code.lengths) == 1.0
        table = entropy.decode_table(code)
        for _ in range(100):
            stream = rng.integers(k, size=int(rng.integers(0, 17)))
            encoder = entropy.prefix_encoder([code] * stream.size, SCORE_BYTES)
            payload = entropy.pack_prefix(stream[None, :], encoder)[0].tobytes()
            decoder = entropy.prefix_decoder([table] * stream.size)
            decoded, _, end = entropy.unpack_prefix(payload, 1, decoder)
            assert decoded[0].tolist() == stream.tolist()
            assert end == len(payload)
            cases += 1
    print(f"{cases} randomized round-trip cases, 0 failures")
    assert cases >= 100_000


def test_criterion_8_shared_codebook_memory(c1, c1_data, c1_layout):
    model_gn, report_gn, _ = c1
    per_stage_k = sum(1 << b for b in c1_layout.bits[0])  # 3 x 2^6
    results = {}
    for groups in sorted({1, 16, N}):
        if groups == N:
            model, report = model_gn, report_gn
        else:
            stats = layout.compute_stats(c1_data)
            lay = layout.build_layout(stats, D, T_MAX, groups, "type3")
            model, report = trainer.train(c1_data, lay,
                                          trainer.TrainConfig(seed=TRAIN_SEED))
        assert codeword_param_count(model) == D * groups * per_stage_k
        results[groups] = report.per_stage_distortion[-1]
    ratio = results[N] / results[1]
    print(f"distortion G=N {results[N]:.4f} vs G=1 {results[1]:.4f} "
          f"(ratio {ratio:.3f}); params {D * N * per_stage_k} vs {D * 1 * per_stage_k}")
    assert results[N] <= results[1]


def test_criterion_9_allocation_presets_match_published_matrices():
    type1 = layout.allocation_preset("type1", 128, 3)
    assert np.array_equal(type1[:64], np.tile([8, 7, 6], (64, 1)))
    assert np.array_equal(type1[64:], np.tile([6, 5, 4], (64, 1)))
    type2 = layout.allocation_preset("type2", 128, 3)
    assert np.array_equal(type2[:64], np.tile([7, 7, 7], (64, 1)))
    assert np.array_equal(type2[64:], np.tile([5, 5, 5], (64, 1)))
    type3 = layout.allocation_preset("type3", 128, 3)
    assert np.array_equal(type3, np.full((128, 3), 6))
