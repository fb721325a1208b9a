import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import NanBundleModel
from lfs import cli
from lfs.output import read_samples_csv
from lfs.rejection import MAX_WORKERS


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
    # the sidecar sits next to the samples, also in a directory named like a CSV
    for out_dir in (tmp_path, tmp_path / "x.csv.d"):
        out_dir.mkdir(exist_ok=True)
        code = run_cli(["reject", "--n-accept", "50", "--seed", "1", "--s", "3",
                        "--emit-bundles", "--out", str(out_dir / "s.csv")])
        assert code == 0
        _, header, data = read_samples_csv(out_dir / "s.bundles.csv")
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


def test_validate_config_ok_and_bad(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("[kernel]\nkind = uniform\nh = 0.5\n")
    assert run_cli(["validate-config", "--config", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("[kernel]\nkind = triangle\n")
    assert run_cli(["validate-config", "--config", str(bad)]) == cli.EXIT_CONFIG
    missing = tmp_path / "missing.cfg"
    assert run_cli(["validate-config", "--config", str(missing)]) == cli.EXIT_CONFIG
    # configs that a run command or an experiment rejects must not validate either
    for i, text in enumerate(["[kernel]\ndistance = weighted-euclidean\n",
                              "[kernel]\ndistance = weighted-euclidean\ndistance_weights = 1, 1\n",
                              "[smc]\nsteps = 1\nh_end = -1\n",
                              "[smc]\nh_start = inf\n",
                              "[model]\ntau = nan\n",
                              "[experiment]\nsinv_step_sd = nan\n",
                              "[experiment]\nbias_s_grid = 0\n",
                              "[experiment]\ncross_s_grid = 1, 0\n",
                              "[experiment]\ncross_s_grid =\n",
                              "[experiment]\nbias_s_grid =\n",
                              "[experiment]\nsinv_s_grid =\n",
                              "[experiment]\nsinv_s_grid = 5, 5\n",
                              "[experiment]\nbias_s_grid = 100, 10, 1\n",
                              "[mcmc]\ninit = nan\n",
                              "[mcmc]\ninit = 2.5\n[model]\nname = bernoulli-count\n",
                              "[experiment]\nbias_chains = 0\n",
                              "[experiment]\nsinv_samples = 0\n",
                              "[experiment]\nbootstrap = 0\n",
                              "[experiment]\ncross_replicates = 1\n",
                              "[experiment]\npermutations = 0\n",
                              "[experiment]\nequivalence_steps = 1\n"]):
        rejected = tmp_path / f"rejected{i}.cfg"
        rejected.write_text(text)
        assert run_cli(["validate-config", "--config", str(rejected)]) == cli.EXIT_CONFIG, text
        section = text[:text.index("]") + 1]
        assert section in capsys.readouterr().err, text


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


def test_reject_workers_above_the_ceiling_exit_config_error(tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr("lfs.rejection.ThreadPoolExecutor", no_pool)
    out = tmp_path / "w.csv"
    code = run_cli(["reject", "--n-accept", "10", "--workers", str(MAX_WORKERS + 1),
                    "--out", str(out)])
    assert code == cli.EXIT_CONFIG == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_smc_non_finite_simulator_output_exits_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("lfs.config.make_model", lambda name, **hyper: NanBundleModel())
    out = tmp_path / "smc.csv"
    code = run_cli(["smc", "--variant", "backward", "--kernel", "uniform",
                    "--particles", "200", "--steps", "4", "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_CONFIG == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mcmc", "smc"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_step_sd_exits_config_error(tmp_path, capsys, command, value):
    # a NaN or infinite step never moves a chain or a particle
    out = tmp_path / "x.csv"
    code = run_cli([command, "--step-sd", value, "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["reject", "mcmc", "smc"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_observed_summary_exits_config_error(tmp_path, capsys, command, value):
    # no simulated summary can come near a non-finite t_y, so every sampler
    # would otherwise spend its budget or collapse
    out = tmp_path / "x.csv"
    code = run_cli([command, "--t-y", value, "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "[run] t_y must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["reject", "mcmc", "smc"])
@pytest.mark.parametrize("flag, value", [("--prior-mean", "nan"), ("--prior-sd", "inf"),
                                         ("--tau", "nan")])
def test_non_finite_hyperparameter_exits_config_error(tmp_path, capsys, command, flag,
                                                      value):
    # the model rejects it, not the simulator or the prior support later on
    out = tmp_path / "x.csv"
    code = run_cli([command, flag, value, "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "[model]" in capsys.readouterr().err
    assert not out.exists()


# Loading scipy in full is most of a command's start-up, so the package and
# the CLI import it only where a command calls it.  The second reject builds
# the normal-mean grid oracle (epanechnikov kernel), which needs no scipy.stats.
_SCIPY_MODULES_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lfs, lfs.cli
heavy = ("scipy.stats", "scipy.integrate", "scipy.special")
loaded = [[m for m in heavy if m in sys.modules]]
for model, kernel, h, t_y, out in (("bernoulli-count", "uniform", "0.5", "7", sys.argv[2]),
                                   ("normal-mean", "epanechnikov", "1.0", "0.5", sys.argv[3])):
    code = lfs.cli.main(["reject", "--model", model, "--kernel", kernel, "--h", h, "--t-y", t_y,
                         "--s", "1", "--n-accept", "200", "--seed", "3", "--out", out])
    loaded.append([code, [m for m in heavy if m in sys.modules]])
print(json.dumps(loaded))
"""


def test_import_and_exact_beta_reject_leave_scipy_stats_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES_SCRIPT, src,
                           str(tmp_path / "beta.csv"), str(tmp_path / "grid.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, beta_reject, grid_reject = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert beta_reject[0] == 0 and "scipy.stats" not in beta_reject[1]
    assert grid_reject[0] == 0 and "scipy.stats" not in grid_reject[1]
    assert "scipy.integrate" in grid_reject[1]  # the grid oracle was built
