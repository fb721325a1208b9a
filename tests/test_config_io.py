import argparse
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from lfs import cli
from lfs.config import RunConfig
from lfs.diagnostics import weighted_moments
from lfs.errors import ConfigurationError
from lfs.mcmc import ProposalSpec, check_arguments as check_mcmc
from lfs.models import make_model
from lfs.output import embedded_config, read_samples_csv, write_json_summary, write_samples_csv
from lfs.rejection import check_arguments as check_rejection
from lfs.smc import check_arguments as check_smc
from lfs.target import check_bundle_size, check_s_grid


def test_config_round_trip_identity():
    cfg = RunConfig()
    cfg.run.seed = 987654321
    cfg.model.prior_sd = 1.75
    cfg.kernel.kind = "epanechnikov"
    cfg.kernel.distance_weights = (2.0, 0.5)
    cfg.mcmc.step_sd = 0.3333333333333333
    cfg.smc.reject_threshold = 0.25
    text = cfg.to_text()
    again = RunConfig.from_text(text)
    assert again == cfg
    assert again.to_text() == text


def test_config_float_precision_survives():
    cfg = RunConfig()
    cfg.kernel.h = 0.1 + 0.2  # 0.30000000000000004
    again = RunConfig.from_text(cfg.to_text())
    assert again.kernel.h == cfg.kernel.h


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig.from_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigurationError):
        RunConfig.from_text("[run]\nbogus_key = 1\n")


def test_overrides_and_validation():
    cfg = RunConfig()
    cfg.apply_overrides({("kernel", "h"): "2.5", ("run", "seed"): 7,
                         ("mcmc", "step_sd"): ""})
    assert cfg.kernel.h == 2.5
    assert cfg.run.seed == 7
    assert cfg.mcmc.step_sd is None
    cfg.validate()
    cfg.kernel.h = -1.0
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_validation_messages_cover_sections():
    cfg = RunConfig()
    cfg.smc.reject_threshold = 0.5  # only valid for the backward variant
    with pytest.raises(ConfigurationError, match="backward"):
        cfg.validate()


# One bad value per input rule that a constructor or a sampler check owns:
# (overrides, section named in validate's message, the owner's own call).
# S is a [run] key that every sampler checks on entry, so [run] reports it.
_OWNED_RULES = [
    ({"run.s": 0}, "run", lambda c: check_bundle_size(c.run.s)),
    ({"model.name": "bogus"}, "model", lambda c: c.build_model()),
    ({"model.prior_sd": -1.0}, "model", lambda c: c.build_model()),
    ({"model.trials": 0}, "model",
     lambda c: make_model("bernoulli-count", trials=c.model.trials)),
    ({"kernel.kind": "triangle"}, "kernel", lambda c: c.build_kernel()),
    ({"kernel.h": -1.0}, "kernel", lambda c: c.build_kernel()),
    ({"kernel.distance": "manhattan"}, "kernel", lambda c: c.build_kernel()),
    ({"rejection.n_accept": 0}, "rejection",
     lambda c: check_rejection(c.rejection.n_accept, 1, 1, 1)),
    ({"rejection.block_size": 0}, "rejection",
     lambda c: check_rejection(1, 1, c.rejection.block_size, 1)),
    ({"mcmc.variant": "bogus"}, "mcmc", lambda c: check_mcmc(c.mcmc.variant, 10, 1, 1)),
    ({"mcmc.proposal": "bogus"}, "mcmc", lambda c: c.build_proposal()),
    ({"mcmc.burn_in": 20_000}, "mcmc",
     lambda c: check_mcmc("carried", c.mcmc.n_iter, c.mcmc.resolved_burn_in(), 1)),
    ({"mcmc.thin": 0}, "mcmc", lambda c: check_mcmc("carried", 10, 1, c.mcmc.thin)),
    ({"mcmc.step_sd": -0.5}, "mcmc", lambda c: c.build_proposal()),
    ({"smc.variant": "bogus"}, "smc", lambda c: check_smc(c.smc.variant, 10, 0.5)),
    ({"smc.steps": 0}, "smc", lambda c: c.build_schedule()),
    ({"smc.h_end": 3.0}, "smc", lambda c: c.build_schedule()),
    ({"smc.particles": 1}, "smc", lambda c: check_smc("joint-move", c.smc.particles, 0.5)),
    ({"smc.ess_threshold": 1.5}, "smc",
     lambda c: check_smc("joint-move", 10, c.smc.ess_threshold)),
    ({"smc.reject_threshold": 0.5}, "smc",
     lambda c: check_smc(c.smc.variant, 10, 0.5, c.smc.reject_threshold)),
    ({"smc.variant": "backward", "smc.reject_threshold": 1.5}, "smc",
     lambda c: check_smc(c.smc.variant, 10, 0.5, c.smc.reject_threshold)),
    ({"experiment.bias_step_sd": math.nan}, "experiment",
     lambda c: ProposalSpec("random-walk", c.experiment.bias_step_sd)),
    ({"experiment.sinv_s_grid": (1, 0)}, "experiment",
     lambda c: [check_bundle_size(S) for S in c.experiment.sinv_s_grid]),
    ({"experiment.bias_s_grid": ()}, "experiment",
     lambda c: check_s_grid("bias_s_grid", c.experiment.bias_s_grid)),
    # a repeated S collapses two populations; a decreasing grid flips the monotone check
    ({"experiment.sinv_s_grid": (5, 5)}, "experiment",
     lambda c: check_s_grid("sinv_s_grid", c.experiment.sinv_s_grid)),
    ({"experiment.bias_s_grid": (100, 10, 1)}, "experiment",
     lambda c: check_s_grid("bias_s_grid", c.experiment.bias_s_grid)),
]


def test_each_input_rule_has_one_owner():
    # every section.key flag names a config field
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in commands.choices.values() for a in p._actions if "." in a.dest}
    assert dests
    for dest in dests:
        section, key = dest.split(".")
        assert section in {f.name for f in fields(RunConfig)}, dest
        assert key in {f.name for f in fields(getattr(RunConfig(), section))}, dest
    # validate reports each rule under its section, and the rule's owner rejects it too
    for overrides, section, owner in _OWNED_RULES:
        owner(RunConfig().validate())
        cfg = RunConfig().apply_overrides(
            {tuple(dest.split(".")): value for dest, value in overrides.items()})
        with pytest.raises(ConfigurationError, match=re.escape(f"[{section}] ")):
            cfg.validate()
        with pytest.raises(ConfigurationError):
            owner(cfg)


def test_s_is_reported_once_under_run():
    cfg = RunConfig().apply_overrides({("run", "s"): 0})
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    assert str(err.value) == "[run] S must be >= 1"


def test_builders():
    cfg = RunConfig()
    cfg.model.name = "bernoulli-count"
    cfg.model.trials = 12
    cfg.kernel.kind = "uniform"
    cfg.kernel.h = 0.5
    model = cfg.build_model()
    kernel = cfg.build_kernel()
    assert model.trials == 12
    assert kernel.kind == "uniform" and kernel.bandwidth == 0.5
    assert cfg.build_schedule().n_steps == cfg.smc.steps


def test_csv_round_trip_exact(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "x.csv"
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 2))
    data[0, 0] = 0.1 + 0.2
    write_samples_csv(path, ["theta_0", "theta_1"], data, cfg.to_text())
    config_text, header, loaded = read_samples_csv(path)
    assert header == ["theta_0", "theta_1"]
    assert np.array_equal(loaded, data)  # bitwise float round trip
    assert RunConfig.from_text(config_text) == cfg


def test_embedded_config_recovery(tmp_path):
    cfg = RunConfig()
    cfg.run.seed = 31415
    csv_path = tmp_path / "samples.csv"
    write_samples_csv(csv_path, ["theta_0"], np.zeros((3, 1)), cfg.to_text())
    assert embedded_config(str(csv_path)) == cfg
    json_path = tmp_path / "summary.json"
    write_json_summary(json_path, {"a": 1}, cfg.to_text(), cfg.run.seed)
    assert embedded_config(str(json_path)) == cfg


def test_json_stable_and_jsonable(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    payload = {"z": np.float64(1.5), "a": np.arange(3), "flag": np.bool_(True),
               "neg": -np.inf, "steps": np.asarray([2, 5], dtype=np.int64)}
    write_json_summary(path_a, payload, "cfg", 1)
    write_json_summary(path_b, dict(reversed(list(payload.items()))), "cfg", 1)
    assert path_a.read_bytes() == path_b.read_bytes()
    body = json.loads(path_a.read_text())
    assert body["a"] == [0, 1, 2]
    assert body["neg"] == -math.inf
    assert body["provenance"]["seed"] == 1
    assert body["steps"] == [2, 5] and body["flag"] is True
    # only numpy values are converted; anything else json cannot encode is an error
    with pytest.raises(TypeError, match="object"):
        write_json_summary(tmp_path / "c.json", {"x": object()}, "cfg", 1)


def test_rerun_from_embedded_config_reproduces(tmp_path, monkeypatch):
    from lfs import cli

    dir1 = tmp_path / "first"
    dir2 = tmp_path / "second"
    dir1.mkdir()
    dir2.mkdir()
    monkeypatch.setenv("LFS_OUT_DIR", str(dir1))
    assert cli.main(["reject", "--n-accept", "300", "--seed", "5",
                     "--out", "r.csv"]) == 0
    cfg = embedded_config(str(dir1 / "r.csv"))
    cfg_path = tmp_path / "echo.cfg"
    cfg_path.write_text(cfg.to_text())
    monkeypatch.setenv("LFS_OUT_DIR", str(dir2))
    assert cli.main(["reject", "--config", str(cfg_path)]) == 0
    assert (dir1 / "r.csv").read_bytes() == (dir2 / "r.csv").read_bytes()
    assert (dir1 / "r.summary.json").read_bytes() == (dir2 / "r.summary.json").read_bytes()


def test_diagnostics_recomputable_from_csv(tmp_path):
    from lfs import cli

    out = tmp_path / "chain.csv"
    assert cli.main(["mcmc", "--n-iter", "2000", "--seed", "3",
                     "--out", str(out)]) == 0
    _, header, data = read_samples_csv(out)
    theta_cols = [i for i, name in enumerate(header) if name.startswith("theta_")]
    mean, var = weighted_moments(data[:, theta_cols])
    summary = json.loads((tmp_path / "chain.summary.json").read_text())
    assert abs(mean[0] - summary["posterior_mean"][0]) < 1e-12
    assert abs(var[0] - summary["posterior_variance"][0]) < 1e-12


def _per_cell_csv(path, columns, rows, config_text, int_columns=()):
    """The per-cell CSV writer, kept as the reference for the bulk one."""
    def cell_text(cell, j):
        if j in int_columns:
            return str(int(cell))
        if isinstance(cell, (bool, np.bool_)):
            return "1" if cell else "0"
        if isinstance(cell, (int, np.integer)):
            return str(int(cell))
        return repr(float(cell))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {line}\n" for line in config_text.splitlines()))
        fh.write(",".join(columns) + "\n")
        for row in np.asarray(rows):
            fh.write(",".join(cell_text(cell, j) for j, cell in enumerate(row)) + "\n")


def test_csv_writer_matches_per_cell_reference(tmp_path):
    edge = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e22,
                     -1e22, 1.0, -3.0, 0.1 + 0.2, 1.7976931348623157e308, 123456789.0,
                     2.5e-8, 1e-5, 1e15 + 0.5])
    with np.errstate(over="ignore"):
        float32 = edge.astype(np.float32).reshape(-1, 3)  # the largest double -> inf
    cases = {
        "float": edge.reshape(-1, 2),
        "one-column": edge.reshape(-1, 1),
        "one-row": edge.reshape(1, -1),
        "float32": float32,
        "int": np.array([[0, -1, 7], [2**62, -(2**63), 12]], dtype=np.int64),
        "uint8": np.arange(6, dtype=np.uint8).reshape(3, 2),
        "bool": np.array([[True, False], [False, True], [True, True]]),
        "mixed-columns": np.column_stack([np.arange(4), edge[:4], np.ones(4, dtype=bool)]),
        "no-rows": np.empty((0, 3)),
        "blocks": np.random.default_rng(3).normal(size=(600, 3)),  # more rows than one block
        "whole-blocks": np.arange(1024, dtype=float).reshape(512, 2) / 7.0,
    }
    # integral float columns written as integers, as the mcmc and smc rows are
    n = 150  # more rows than one block
    chain = np.column_stack([np.arange(1, n + 1), np.resize(edge, n),
                             np.arange(n) % 3 == 0, np.linspace(-2.0, 3.0, n)])
    int_cases = {
        "int-columns": (chain, [0, 2]),
        "int-first-column": (np.column_stack([np.arange(n), np.resize(edge, n)]), [0]),
        "int-last-column": (np.column_stack([edge[:8], np.arange(-4.0, 4.0)]), [1]),
    }
    text = "[run]\nseed = 1\n"
    for name, (rows, int_columns) in ({k: (v, []) for k, v in cases.items()}
                                       | int_cases).items():
        columns = [f"c{j}" for j in range(rows.shape[1])]
        write_samples_csv(tmp_path / "bulk.csv", columns, rows, text, int_columns)
        _per_cell_csv(tmp_path / "ref.csv", columns, rows, text, int_columns)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), name

