import json
from pathlib import Path

import numpy as np
import pytest

from conftest import EMPTY_LAYOUTS, empty_layout_model
from msvq import bitstream, cli, rate

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small end-to-end pipeline: gen, train, table."""
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "data": d / "feat.fmat",
        "model": d / "model.msvq",
        "table": d / "table.json",
        "dir": d,
    }
    assert run("gen", "--dist", "gauss-corr", "--rho", "0.9", "--rows", 512,
               "--dim", 16, "--seed", 7, "--out", paths["data"]) == 0
    assert run("train", "--data", paths["data"], "--sub-dim", 4, "--t-max", 2,
               "--groups", 4, "--alloc", "type3", "--seed", 11,
               "--out", paths["model"]) == 0
    assert run("table", "--model", paths["model"], "--data", paths["data"],
               "--out", paths["table"]) == 0
    return paths


class TestGen:
    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.fmat", tmp_path / "b.fmat"
        for out in (a, b):
            assert run("gen", "--dist", "gmm", "--components", 3, "--rows", 64,
                       "--dim", 8, "--seed", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_dist_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--dist", "cauchy", "--rows", 4, "--dim", 2,
                "--out", tmp_path / "x.fmat")
        assert exc.value.code == 2


class TestPipeline:
    def test_full_budget_recon_matches_trainer_distortion(self, workdir, capsys):
        model, _ = bitstream.read_model(str(workdir["model"]))
        b_tot = int(model.layout.bits.sum())
        payload = workdir["dir"] / "full.msvp"
        recon = workdir["dir"] / "recon.fmat"
        assert run("encode", "--model", workdir["model"], "--table", workdir["table"],
                   "--data", workdir["data"], "--b-cap", b_tot, "--out", payload) == 0
        assert run("decode", "--model", workdir["model"], "--table", workdir["table"],
                   "--payload", payload, "--out", recon) == 0
        capsys.readouterr()

        data = bitstream.read_features(str(workdir["data"])).astype(np.float64)
        back = bitstream.read_features(str(recon)).astype(np.float64)
        mse = float(np.mean(np.einsum("rm,rm->r", data - back, data - back)))

        table = bitstream.read_table(str(workdir["table"]))
        full_loss = float(table.loss[0, -1])  # full-model loss, any row
        assert mse == pytest.approx(full_loss, rel=1e-6)

    def test_encode_before_table_is_state_error(self, workdir, tmp_path, capsys):
        unbound = tmp_path / "unbound.msvq"
        model, _ = bitstream.read_model(str(workdir["model"]))
        bitstream.write_model(str(unbound), model)  # digest 0
        code = run("encode", "--model", unbound, "--table", workdir["table"],
                   "--data", workdir["data"], "--b-cap", 10,
                   "--out", tmp_path / "x.msvp")
        assert code == 5
        assert "table" in capsys.readouterr().err

    def test_wrong_table_is_corruption_error(self, workdir, tmp_path, capsys):
        doc = json.loads(workdir["table"].read_text())
        doc["loss"] = [[v * 2 for v in row] for row in doc["loss"]]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        code = run("encode", "--model", workdir["model"], "--table", other,
                   "--data", workdir["data"], "--b-cap", 10,
                   "--out", tmp_path / "x.msvp")
        assert code == 4

    def test_tampered_payload_is_corruption_error(self, workdir, tmp_path, capsys):
        payload = tmp_path / "p.msvp"
        assert run("encode", "--model", workdir["model"], "--table", workdir["table"],
                   "--data", workdir["data"], "--b-cap", 20, "--out", payload) == 0
        blob = bytearray(payload.read_bytes())
        blob[17] ^= 0xFF  # inside b_cap field
        payload.write_bytes(bytes(blob))
        code = run("decode", "--model", workdir["model"], "--table", workdir["table"],
                   "--payload", payload, "--out", tmp_path / "r.fmat")
        assert code == 4

    def test_insufficient_data_is_data_error(self, tmp_path, capsys):
        small = tmp_path / "small.fmat"
        assert run("gen", "--dist", "gauss-iid", "--rows", 16, "--dim", 8,
                   "--seed", 1, "--out", small) == 0
        code = run("train", "--data", small, "--sub-dim", 4, "--t-max", 1,
                   "--groups", 2, "--alloc", "type3", "--out", tmp_path / "m.msvq")
        assert code == 3

    def test_bad_group_count_is_config_error(self, workdir, tmp_path, capsys):
        code = run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 3, "--alloc", "type3", "--out", tmp_path / "m.msvq")
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run("info", tmp_path / "nope.msvq")
        assert code == 3

    def test_bind_external_table(self, workdir, tmp_path, capsys):
        # an externally supplied table binds without rebuilding
        external = tmp_path / "external.json"
        external.write_text(workdir["table"].read_text())
        model_copy = tmp_path / "m.msvq"
        model_copy.write_bytes(workdir["model"].read_bytes())
        assert run("table", "--model", model_copy, "--bind", external) == 0
        assert run("encode", "--model", model_copy, "--table", external,
                   "--data", workdir["data"], "--b-cap", 12,
                   "--out", tmp_path / "p.msvp") == 0


class TestDeterminism:
    def test_rerunning_train_and_encode_is_byte_identical(self, workdir, tmp_path,
                                                          capsys):
        models, payloads = [], []
        for tag in ("a", "b"):
            m = tmp_path / f"{tag}.msvq"
            p = tmp_path / f"{tag}.msvp"
            assert run("train", "--data", workdir["data"], "--sub-dim", 4,
                       "--t-max", 2, "--groups", 4, "--alloc", "type3",
                       "--seed", 11, "--out", m) == 0
            assert run("--threads", 2, "table", "--model", m,
                       "--data", workdir["data"], "--out", tmp_path / f"{tag}.json") == 0
            assert run("encode", "--model", m, "--table", tmp_path / f"{tag}.json",
                       "--data", workdir["data"], "--b-cap", 30, "--out", p) == 0
            models.append(m.read_bytes())
            payloads.append(p.read_bytes())
        assert models[0] == models[1]
        assert payloads[0] == payloads[1]


class TestSweep:
    def test_rows_and_determinism(self, workdir, capsys):
        out1 = workdir["dir"] / "s1.csv"
        out2 = workdir["dir"] / "s2.csv"
        svg = workdir["dir"] / "rd.svg"
        for out in (out1, out2):
            assert run("sweep", "--model", workdir["model"], "--table", workdir["table"],
                       "--data", workdir["data"], "--b-cap-grid", "0:48:16",
                       "--out", out, "--plot", svg) == 0
        lines1 = out1.read_text().strip().splitlines()
        header = lines1[0].split(",")
        assert header == ["b_cap", "exact_bits", "avg_bits", "stage_hist",
                          "predicted_loss", "measured_mse", "mean_payload_bits",
                          "wall_time_s"]
        assert len(lines1) == 1 + 4  # budgets 0, 16, 32, 48

        def strip_wall(text):
            return [",".join(line.split(",")[:-1]) for line in text.strip().splitlines()]

        assert strip_wall(out1.read_text()) == strip_wall(out2.read_text())

        mse = [float(line.split(",")[5]) for line in lines1[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(mse, mse[1:]))
        assert svg.read_text().startswith("<svg")


class TestVerifyAndInfo:
    def test_verify_passes_on_consistent_pipeline(self, workdir, capsys):
        assert run("verify", "--model", workdir["model"], "--table", workdir["table"],
                   "--data", workdir["data"], "--max-n", 4) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS round_trip" in out

    def test_verify_passes_on_ec_pipeline(self, workdir, tmp_path, capsys):
        model = tmp_path / "ec.msvq"
        table = tmp_path / "ec.json"
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "type3", "--ec", "--lambda", "4",
                   "--seed", 11, "--out", model) == 0
        assert run("table", "--model", model, "--data", workdir["data"],
                   "--out", table) == 0
        assert run("verify", "--model", model, "--table", table,
                   "--data", workdir["data"], "--max-n", 4) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_verify_feasibility_uses_greedys_own_sum(self, tmp_path, capsys):
        # average-mode step bits for which the row-order total of the full plan
        # exceeds the step-bit sum by one ulp, while greedy's pick-order sum fits
        doc = json.loads((GOLDEN / "table_ec.json").read_text())
        doc["step_bits"] = np.random.default_rng(1).uniform(0.5, 8.0, (6, 3)).tolist()
        table = tmp_path / "crafted.json"
        table.write_text(json.dumps(doc))
        crafted = bitstream.read_table(str(table))
        total = float(crafted.step_bits.sum())
        stages, used, _ = rate.greedy_order(crafted, total)
        assert used <= total < rate.plan_step_bits(crafted, stages)
        model = tmp_path / "m.msvq"
        model.write_bytes((GOLDEN / "model_ec.msvq").read_bytes())
        assert run("table", "--model", model, "--bind", table) == 0
        assert run("verify", "--model", model, "--table", table,
                   "--data", GOLDEN / "features.fmat") == 0
        assert "PASS budget_feasibility" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["invalid_utf8", "deep_nesting"])
    def test_unreadable_table_is_corruption(self, workdir, tmp_path, capsys, kind):
        if kind == "invalid_utf8":
            blob = bytearray((GOLDEN / "table_plain.json").read_bytes())
            blob[len(blob) // 2] = 0xFF
        else:
            blob = b"[" * 200000
        bad = tmp_path / "bad.json"
        bad.write_bytes(bytes(blob))
        model = tmp_path / "m.msvq"
        model.write_bytes(workdir["model"].read_bytes())
        assert run("table", "--model", model, "--bind", bad) == 4
        assert run("info", bad) == 0
        assert "unrecognized format" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["no_format", "wrong_format", "boolean_n",
                                      "string_entry", "boolean_entry"])
    def test_table_that_is_not_mlt1_is_corruption(self, workdir, tmp_path, capsys, kind):
        doc = json.loads(workdir["table"].read_text())
        if kind == "no_format":
            del doc["format"]
        elif kind == "wrong_format":
            doc["format"] = "XXXX"
        elif kind == "boolean_n":
            doc = {**doc, "n": True, "loss": doc["loss"][:1], "step_bits": doc["step_bits"][:1]}
        elif kind == "string_entry":
            doc["loss"][0][0] = str(doc["loss"][0][0])
        else:
            doc["step_bits"][0][0] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        model = tmp_path / "m.msvq"
        model.write_bytes(workdir["model"].read_bytes())
        assert run("table", "--model", model, "--bind", bad) == 4
        assert run("info", bad) == 0
        assert "unrecognized format" in capsys.readouterr().out

    def test_info_reports_headers(self, workdir, capsys):
        assert run("info", workdir["model"], workdir["data"], workdir["table"]) == 0
        out = capsys.readouterr().out
        assert "model v1" in out
        assert "features v1" in out
        assert "table (MLT1)" in out

    @pytest.mark.parametrize("bit", [1, 3])
    def test_info_rejects_reserved_model_flag(self, workdir, tmp_path, capsys, bit):
        blob = bytearray(workdir["model"].read_bytes())
        blob[6] |= 1 << bit
        bad = tmp_path / "bad.msvq"
        bad.write_bytes(bytes(blob))
        assert run("info", bad) == 4
        assert "reserved model flag" in capsys.readouterr().err

    @pytest.mark.parametrize("m, d, n", EMPTY_LAYOUTS)
    def test_info_rejects_layout_without_coordinates(self, tmp_path, capsys, m, d, n):
        bad = tmp_path / "bad.msvq"
        bad.write_bytes(empty_layout_model(m, d, n))
        assert run("info", bad) == 4
        captured = capsys.readouterr()
        assert "at least one sub-vector" in captured.err and "model v1" not in captured.out

    def test_verify_fails_on_inconsistent_table(self, workdir, tmp_path, capsys):
        doc = json.loads(workdir["table"].read_text())
        doc["loss"][0][0] += 1.0  # no longer matches direct re-evaluation
        bad_table = tmp_path / "bad.json"
        bad_table.write_text(json.dumps(doc))
        model = tmp_path / "m.msvq"
        model.write_bytes(workdir["model"].read_bytes())
        assert run("table", "--model", model, "--bind", bad_table) == 0
        assert run("verify", "--model", model, "--table", bad_table,
                   "--data", workdir["data"], "--max-n", 4) == 1
        assert "FAIL table_consistency" in capsys.readouterr().out


class TestParseErrors:
    @pytest.mark.parametrize("value", ["abc", "1,x", "nan"])
    def test_bad_lambda_is_config_error(self, workdir, tmp_path, capsys, value):
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "type3", "--ec", "--lambda", value,
                   "--out", tmp_path / "m.msvq") == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "m.msvq").exists()

    def test_lambda_without_ec_is_config_error(self, workdir, tmp_path, capsys):
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "type3", "--lambda", "3",
                   "--out", tmp_path / "m.msvq") == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "m.msvq").exists()

    @pytest.mark.parametrize("text", ["[[5,5],[5", "[[5,5],[5]]", "[[]]"])
    def test_bad_alloc_file_is_config_error(self, workdir, tmp_path, capsys, text):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(text)
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "file", "--alloc-file", alloc,
                   "--out", tmp_path / "m.msvq") == 2
        assert "bit matrix" in capsys.readouterr().err
        assert not (tmp_path / "m.msvq").exists()

    def test_alloc_file_without_alloc_file_preset_is_config_error(self, workdir, tmp_path,
                                                                  capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps(np.full((4, 2), 5).tolist()))
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "type3", "--alloc-file", alloc,
                   "--out", tmp_path / "m.msvq") == 2
        assert "--alloc-file" in capsys.readouterr().err
        assert not (tmp_path / "m.msvq").exists()

    def test_alloc_file_preset_without_path_is_config_error(self, workdir, tmp_path, capsys):
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "file", "--out", tmp_path / "m.msvq") == 2
        assert "--alloc-file" in capsys.readouterr().err
        assert not (tmp_path / "m.msvq").exists()

    def test_bad_thread_env_is_config_error(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSVQ_THREADS", "x")
        model = tmp_path / "m.msvq"
        model.write_bytes(workdir["model"].read_bytes())
        assert run("table", "--model", model, "--data", workdir["data"],
                   "--out", tmp_path / "t.json") == 2
        assert "MSVQ_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [(0, None), (-1, None), (None, "0")])
    def test_thread_count_below_one_is_config_error(self, workdir, tmp_path, monkeypatch,
                                                    capsys, flag, env):
        monkeypatch.delenv("MSVQ_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("MSVQ_THREADS", env)
        model = tmp_path / "m.msvq"
        model.write_bytes(workdir["model"].read_bytes())
        flags = () if flag is None else ("--threads", flag)
        assert run(*flags, "table", "--model", model, "--data", workdir["data"],
                   "--out", tmp_path / "t.json") == 2
        assert ("MSVQ_THREADS" if env else "--threads") in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("value", [0, -1])
    def test_verify_max_n_below_one_is_config_error(self, workdir, capsys, value):
        # 0 rows would pass vacuously and -1 would slice off only the last row
        assert run("verify", "--model", workdir["model"], "--table", workdir["table"],
                   "--data", workdir["data"], "--max-n", value) == 2
        captured = capsys.readouterr()
        assert "--max-n" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rel_tol_is_config_error(self, workdir, tmp_path, capsys, value):
        assert run("train", "--data", workdir["data"], "--sub-dim", 4, "--t-max", 2,
                   "--groups", 4, "--alloc", "type3", "--rel-tol", value,
                   "--out", tmp_path / "m.msvq") == 2
        assert "rel_tol" in capsys.readouterr().err
        assert not (tmp_path / "m.msvq").exists()


class TestThreads:
    def test_env_var_fallback_does_not_change_results(self, workdir, tmp_path,
                                                      monkeypatch, capsys):
        outs = []
        for env in (None, "3"):
            if env is None:
                monkeypatch.delenv("MSVQ_THREADS", raising=False)
            else:
                monkeypatch.setenv("MSVQ_THREADS", env)
            model = tmp_path / f"m{env}.msvq"
            model.write_bytes(workdir["model"].read_bytes())
            out = tmp_path / f"t{env}.json"
            assert run("table", "--model", model, "--data", workdir["data"],
                       "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
