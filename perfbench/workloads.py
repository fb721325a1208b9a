"""Deterministic op lists for the three benchmark workloads.

An op is one `lfs` command line.  ``make_ops(workload, seed)`` turns the
workload seed into a list of rounds; every round holds each of the workload's
op templates once, in a seed-shuffled order, with fresh ``--seed`` values.
The benchmark runs whole rounds only, so every run executes the same op mix
and only the random streams and the order change with the seed.

Each op writes into its own output directory (``LFS_OUT_DIR``) under the same
file names, so two ops that must produce identical bytes (``--workers 1`` and
``--workers 2`` of one seed, or the untraced and traced run of one op) can be
compared file by file: the config echoed into every output then does not
differ by the output path.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("mcmc-chains", "smc-backward", "batch-abc")

MAX_ROUNDS = 400

# Reduced [experiment] section for the mcwm-bias ops of mcmc-chains.
MCWM_CONFIG = {
    "bias_s_grid": (1, 10, 100),
    "bias_chains": 3,
    "bias_iters": 1000,
    "bias_thin": 5,
    "bias_step_sd": 1.0,
    "bootstrap": 2000,
}
MCWM_CONFIG_FILE = "mcwm-bias.cfg"


@dataclass
class Op:
    """One `lfs` command with what the correctness gates need to know about it."""

    op_id: int
    round: int
    template: str          # names the op's shape; ops of one template differ only by seed
    argv: list
    command: str           # reject / mcmc / smc / experiment
    target: tuple = ()     # (model, kernel, h, t_y) the samples are checked against
    pair: tuple = ()       # ops sharing a pair key must write identical files
    gate: str = ""         # which correctness check applies to the samples
    files: tuple = ()      # output files the op writes, relative to its directory

    def out_dir(self, phase_dir):
        return f"{phase_dir}/op{self.op_id:05d}"


def _mcwm_config_text():
    lines = ["[experiment]"]
    for key, value in MCWM_CONFIG.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def mcwm_draws():
    """Kept chain samples one reduced mcwm-bias report is built from."""
    c = MCWM_CONFIG
    per_chain = math.ceil((c["bias_iters"] - c["bias_iters"] // 10) / c["bias_thin"])
    return 2 * len(c["bias_s_grid"]) * c["bias_chains"] * per_chain


SAMPLE_FILES = ("samples.csv", "samples.summary.json")
BUNDLE_FILES = SAMPLE_FILES + ("samples.bundles.csv",)


def _templates(workload):
    """(template name, argv without --seed, command, target, gate, files, paired)."""
    normal = ["--model", "normal-mean"]
    bern = ["--model", "bernoulli-count", "--t-y", "7"]
    out = ["--out", "samples.csv"]
    t = []
    if workload == "mcmc-chains":
        # the scalar MCMC loop: per-iteration Python cost, flat in S.  A fresh
        # iteration simulates twice, so fresh chains are shorter: all five
        # chain ops then take about as long, and the median op is one of them
        # rather than a boundary between two groups of different cost.
        for variant, n_iter in (("carried", "2000"), ("fresh", "1400")):
            for s in (1, 100):
                t.append((f"mcmc-{variant}-s{s}",
                          ["mcmc", "--variant", variant, *normal, "--kernel", "gaussian",
                           "--h", "1", "--s", str(s), "--step-sd", "1",
                           "--n-iter", n_iter, *out],
                          "mcmc", ("normal-mean", "gaussian", 1.0, 0.0),
                          "chain" if variant == "carried" else "finite", SAMPLE_FILES, False))
        t.append(("mcmc-carried-bernoulli",
                  ["mcmc", "--variant", "carried", *bern, "--kernel", "uniform",
                   "--h", "0.5", "--s", "1", "--n-iter", "2000", *out],
                  "mcmc", ("bernoulli-count", "uniform", 0.5, 7.0), "chain",
                  SAMPLE_FILES, False))
        t.append(("mcwm-bias",
                  ["experiment", "mcwm-bias", "--config", None, "--out", "report.json"],
                  "experiment", (), "report", ("report.json",), False))
    elif workload == "smc-backward":
        # the O(N^2) backward mixture; N sets both time and peak memory.  One
        # N=2000 op sets the peak; with 3 cheaper and 4 dearer N=1000 ops the
        # median and the tail fall inside one group of ops, not between two.
        models = (("normal", normal, "gaussian", 0.0, "normal-mean"),
                  ("bernoulli", bern, "epanechnikov", 7.0, "bernoulli-count"))
        for name, margs, kernel, t_y, model in models:
            for s in (1, 5):
                for thr in (None, "0.5"):
                    n = "2000" if thr and s == 5 and name == "normal" else "1000"
                    argv = ["smc", "--variant", "backward", *margs, "--kernel", kernel,
                            "--h-start", "2", "--h-end", "0.25", "--steps", "15",
                            "--particles", n, "--s", str(s), *out]
                    if thr:
                        argv += ["--reject-threshold", thr]
                    t.append((f"backward-{name}-s{s}-n{n}" + ("-thr" if thr else ""), argv,
                              "smc", (model, kernel, 0.25, t_y), "weighted",
                              SAMPLE_FILES, False))
    elif workload == "batch-abc":
        # batched samplers and output writing; each rejection op runs at 1 and 2
        # workers.  Acceptance counts make the rejection ops take about as long
        # as each other, so the median op is a rejection op.
        rejects = [
            ("reject-normal-gauss", [*normal, "--kernel", "gaussian", "--h", "0.1", "--s", "5",
                                     "--n-accept", "20000"],
             ("normal-mean", "gaussian", 0.1, 0.0), False),
            ("reject-normal-epan", [*normal, "--kernel", "epanechnikov", "--h", "0.1", "--s", "5",
                                    "--n-accept", "3000"],
             ("normal-mean", "epanechnikov", 0.1, 0.0), True),
            ("reject-bern-s1", [*bern, "--kernel", "uniform", "--h", "0.5", "--s", "1",
                                "--n-accept", "25000"], ("bernoulli-count", "uniform", 0.5, 7.0),
             False),
            ("reject-bern-s25", [*bern, "--kernel", "uniform", "--h", "0.5", "--s", "25",
                                 "--n-accept", "5000"], ("bernoulli-count", "uniform", 0.5, 7.0),
             True),
        ]
        for name, args, target, bundles in rejects:
            argv = ["reject", *args, *out] + (["--emit-bundles"] if bundles else [])
            t.append((name, argv, "reject", target, "iid",
                      BUNDLE_FILES if bundles else SAMPLE_FILES, True))
        for n in ("2000", "5000"):
            t.append((f"joint-move-n{n}",
                      ["smc", "--variant", "joint-move", *normal, "--kernel", "gaussian",
                       "--h-start", "2", "--h-end", "0.25", "--steps", "15",
                       "--particles", n, "--s", "5", *out],
                      "smc", ("normal-mean", "gaussian", 0.25, 0.0), "weighted",
                      SAMPLE_FILES, False))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return t


def make_ops(workload, seed, config_dir, rounds=MAX_ROUNDS):
    """The op list for (workload, seed) and the config files it refers to.

    Returns ``(ops, files)`` where ``files`` maps a path under ``config_dir``
    to its text.  The same arguments always give the same result.
    """
    templates = _templates(workload)
    rng = random.Random(f"{workload}/{seed}")
    config_path = f"{config_dir}/{MCWM_CONFIG_FILE}"
    files = {config_path: _mcwm_config_text()} if workload == "mcmc-chains" else {}
    ops = []
    for r in range(rounds):
        order = list(templates)
        rng.shuffle(order)
        for name, argv, command, target, gate, outs, paired in order:
            op_seed = str(rng.randrange(2**31))
            argv = [config_path if a is None else a for a in argv] + ["--seed", op_seed]
            for workers in (("1", "2") if paired else (None,)):
                ops.append(Op(
                    op_id=len(ops), round=r, template=name,
                    argv=argv + (["--workers", workers] if workers else []),
                    command=command, target=target,
                    pair=(name, op_seed) if paired else (), gate=gate, files=outs))
    return ops, files
