import json

import numpy as np
import pytest

from helpers import NanBundleModel
from lfs import cli
from lfs.output import read_samples_csv


def run_cli(args):
    return cli.main(args)


def test_reject_writes_csv_and_summary(tmp_path):
    out = tmp_path / "samples.csv"
    code = run_cli(["reject", "--n-accept", "500", "--seed", "11",
                    "--kernel", "gaussian", "--h", "1.0", "--out", str(out)])
    assert code == 0
    _, header, data = read_samples_csv(out)
    assert header == ["theta_0"]
    assert data.shape == (500, 1)
    summary = json.loads((tmp_path / "samples.summary.json").read_text())
    assert summary["n_accepted"] == 500
    assert 0 < summary["acceptance_rate"] <= 1
    assert "ks_vs_oracle" in summary


def test_reject_emit_bundles(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli(["reject", "--n-accept", "50", "--seed", "1", "--s", "3",
                    "--emit-bundles", "--out", str(out)])
    assert code == 0
    _, header, data = read_samples_csv(tmp_path / "s.bundles.csv")
    assert header == ["t0_0", "t1_0", "t2_0"]
    assert data.shape == (50, 3)


def test_mcmc_csv_columns(tmp_path):
    out = tmp_path / "chain.csv"
    code = run_cli(["mcmc", "--variant", "carried", "--n-iter", "1000",
                    "--burn-in", "100", "--seed", "2", "--out", str(out)])
    assert code == 0
    _, header, data = read_samples_csv(out)
    assert header == ["iteration", "theta_0", "accepted", "log_num"]
    assert data.shape[0] == 900
    assert set(np.unique(data[:, 2])).issubset({0.0, 1.0})


def test_mcmc_fresh_variant_labeled(tmp_path):
    out = tmp_path / "chain.csv"
    code = run_cli(["mcmc", "--variant", "fresh", "--n-iter", "500", "--seed", "2",
                    "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "chain.summary.json").read_text())
    assert "biased reference variant" in summary["note"]


def test_smc_summary_contents(tmp_path):
    out = tmp_path / "p.csv"
    code = run_cli(["smc", "--particles", "200", "--steps", "5", "--h-start", "2.0",
                    "--h-end", "0.5", "--seed", "4", "--out", str(out)])
    assert code == 0
    _, header, data = read_samples_csv(out)
    assert header == ["particle", "theta_0", "weight"]
    assert data[:, 2].sum() == pytest.approx(1.0, abs=1e-12)
    summary = json.loads((tmp_path / "p.summary.json").read_text())
    assert len(summary["ess_trace"]) == 5
    assert len(summary["bandwidths"]) == 5


def test_validate_config_ok_and_bad(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("[kernel]\nkind = uniform\nh = 0.5\n")
    assert run_cli(["validate-config", "--config", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("[kernel]\nkind = triangle\n")
    assert run_cli(["validate-config", "--config", str(bad)]) == cli.EXIT_CONFIG
    missing = tmp_path / "missing.cfg"
    assert run_cli(["validate-config", "--config", str(missing)]) == cli.EXIT_CONFIG


def test_budget_exhaustion_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli(["reject", "--n-accept", "100", "--kernel", "uniform",
                    "--h", "0.0001", "--budget", "5000", "--seed", "1",
                    "--out", str(out)])
    assert code == cli.EXIT_BUDGET


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[run]\nseed = 5\n\n[rejection]\nn_accept = 100\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["reject", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag overrides the file's n_accept
    assert run_cli(["reject", "--config", str(cfg), "--n-accept", "60",
                    "--out", str(out2)]) == 0
    assert read_samples_csv(out1)[2].shape[0] == 100
    assert read_samples_csv(out2)[2].shape[0] == 60


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LFS_OUT_DIR", str(tmp_path))
    assert run_cli(["reject", "--n-accept", "20", "--seed", "1",
                    "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()
    assert (tmp_path / "rel.summary.json").exists()


def test_experiment_exit_codes_and_report(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.EXPERIMENTS, "equivalence",
                        lambda cfg: {"experiment": "equivalence", "passed": False})
    out = tmp_path / "r.json"
    code = run_cli(["experiment", "equivalence", "--out", str(out)])
    assert code == cli.EXIT_STATISTICAL
    assert json.loads(out.read_text())["passed"] is False

    monkeypatch.setitem(cli.EXPERIMENTS, "equivalence",
                        lambda cfg: {"experiment": "equivalence", "passed": True})
    ok_out = tmp_path / "ok.json"
    assert run_cli(["experiment", "equivalence", "--out", str(ok_out)]) == 0
    report = json.loads(ok_out.read_text())
    assert report["passed"] is True
    assert "config" in report["provenance"]


def test_determinism_across_worker_counts(tmp_path, monkeypatch):
    payloads = []
    for i, workers in enumerate(("1", "4")):
        out_dir = tmp_path / f"run{i}"
        out_dir.mkdir()
        monkeypatch.setenv("LFS_OUT_DIR", str(out_dir))
        assert run_cli(["reject", "--n-accept", "400", "--seed", "33",
                        "--workers", workers, "--out", "w.csv"]) == 0
        payloads.append(((out_dir / "w.csv").read_bytes(),
                         (out_dir / "w.summary.json").read_bytes()))
    assert payloads[0] == payloads[1]


def test_smc_non_finite_simulator_output_exits_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("lfs.config.make_model", lambda name, **hyper: NanBundleModel())
    out = tmp_path / "smc.csv"
    code = run_cli(["smc", "--variant", "backward", "--kernel", "uniform",
                    "--particles", "200", "--steps", "4", "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_CONFIG == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
