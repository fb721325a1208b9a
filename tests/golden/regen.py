"""Golden output digests: a fixed table of small `lfs` runs and their output hashes.

Every case is one `lfs` argv list run through ``lfs.cli.main`` in its own empty
output directory (``LFS_OUT_DIR``), with relative output names, so the config
echoed into each file does not depend on where the run happened.  A case is
recorded as its exit code and the sha256 of every file it wrote.

Output is a pure function of the seed, but not of the numpy version: numpy may
change a distribution's sampling algorithm between releases.  The table
therefore records the numpy version it was generated with, and the check
refuses to compare against any other.

Regenerate only when a change sets out to alter an output stream:

    PYTHONPATH=src python tests/golden/regen.py

Before writing, it lists every case whose exit code or file digests differ
from the committed table, naming the files that moved.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from lfs import cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# [experiment] sections of the three reduced experiment runs
CONFIGS = {
    "mcwm-bias.cfg": ("[experiment]\nbias_s_grid = 1, 10, 100\nbias_chains = 3\n"
                      "bias_iters = 1000\nbias_thin = 5\nbias_step_sd = 1.0\n"
                      "bootstrap = 2000\n"),
    "equivalence.cfg": ("[experiment]\nequivalence_iters = 400\n"
                        "equivalence_particles = 120\nequivalence_steps = 6\n"
                        "cross_replicates = 3\ncross_s_grid = 1, 3\n"
                        "cross_samples = 200\ncross_mcmc_iters = 1000\n"
                        "cross_smc_particles = 120\ncross_smc_steps = 4\n"),
    "s-invariance.cfg": ("[experiment]\nsinv_s_grid = 1, 2\nsinv_samples = 200\n"
                         "sinv_mcmc_thin = 2\npermutations = 19\n"),
}

_NORMAL = ["--model", "normal-mean"]
_BERN = ["--model", "bernoulli-count", "--t-y", "7"]
_OUT = ["--out", "samples.csv"]
_SMC = ["--h-start", "2", "--h-end", "0.3", "--steps", "6", "--particles", "200"]

CASES = [
    # rejection: both models, all three kernels, S in {1, 5, 25}, 1 and 2 workers
    ["reject", *_NORMAL, "--kernel", "gaussian", "--h", "0.5", "--s", "1",
     "--n-accept", "300", "--block-size", "128", "--workers", "1", "--seed", "11", *_OUT],
    ["reject", *_NORMAL, "--kernel", "epanechnikov", "--h", "0.5", "--s", "5",
     "--n-accept", "300", "--block-size", "128", "--workers", "2", "--emit-bundles",
     "--seed", "12", *_OUT],
    ["reject", *_NORMAL, "--kernel", "uniform", "--h", "0.5", "--s", "25",
     "--n-accept", "200", "--block-size", "128", "--workers", "1", "--seed", "13", *_OUT],
    ["reject", *_BERN, "--kernel", "uniform", "--h", "0.5", "--s", "1",
     "--n-accept", "300", "--block-size", "128", "--workers", "2", "--seed", "14", *_OUT],
    ["reject", *_BERN, "--kernel", "epanechnikov", "--h", "1.5", "--s", "5",
     "--n-accept", "300", "--block-size", "128", "--workers", "1", "--emit-bundles",
     "--seed", "15", *_OUT],
    ["reject", *_BERN, "--kernel", "gaussian", "--h", "1", "--s", "25",
     "--n-accept", "200", "--block-size", "128", "--workers", "2", "--emit-bundles",
     "--seed", "16", *_OUT],
    # a proposal budget too small for the requested acceptances: exit 3
    ["reject", *_NORMAL, "--kernel", "uniform", "--h", "0.01", "--n-accept", "1000",
     "--budget", "500", "--block-size", "128", "--seed", "17", *_OUT],
    # MCMC: carried and fresh at S in {1, 100}, the prior proposal, bernoulli-count
    ["mcmc", "--variant", "carried", *_NORMAL, "--kernel", "gaussian", "--h", "1",
     "--s", "1", "--step-sd", "1", "--n-iter", "1500", "--seed", "21", *_OUT],
    ["mcmc", "--variant", "carried", *_NORMAL, "--kernel", "gaussian", "--h", "1",
     "--s", "100", "--step-sd", "1", "--n-iter", "400", "--seed", "22", *_OUT],
    ["mcmc", "--variant", "fresh", *_NORMAL, "--kernel", "gaussian", "--h", "1",
     "--s", "1", "--step-sd", "1", "--n-iter", "1500", "--seed", "23", *_OUT],
    ["mcmc", "--variant", "fresh", *_NORMAL, "--kernel", "gaussian", "--h", "1",
     "--s", "100", "--step-sd", "1", "--n-iter", "400", "--seed", "24", *_OUT],
    ["mcmc", "--variant", "carried", *_NORMAL, "--kernel", "epanechnikov", "--h", "0.5",
     "--s", "5", "--proposal", "prior", "--n-iter", "1000", "--seed", "25", *_OUT],
    ["mcmc", "--variant", "carried", *_BERN, "--kernel", "uniform", "--h", "0.5",
     "--s", "1", "--n-iter", "1500", "--seed", "26", *_OUT],
    # fresh on bernoulli-count: about a third of the proposals leave [0, 1], so the
    # rows outside the prior's support skip their re-estimate and are rejected
    ["mcmc", "--variant", "fresh", *_BERN, "--kernel", "uniform", "--h", "0.5",
     "--s", "3", "--step-sd", "0.5", "--n-iter", "1500", "--seed", "27", *_OUT],
    # SMC: joint-move and backward, with and without --reject-threshold
    ["smc", "--variant", "joint-move", *_NORMAL, "--kernel", "gaussian", *_SMC,
     "--s", "1", "--seed", "31", *_OUT],
    ["smc", "--variant", "joint-move", *_NORMAL, "--kernel", "uniform", *_SMC,
     "--s", "2", "--seed", "32", *_OUT],
    ["smc", "--variant", "joint-move", *_BERN, "--kernel", "epanechnikov", *_SMC,
     "--s", "5", "--mutation", "prior", "--seed", "33", *_OUT],
    ["smc", "--variant", "backward", *_NORMAL, "--kernel", "gaussian", *_SMC,
     "--s", "1", "--seed", "34", *_OUT],
    ["smc", "--variant", "backward", *_NORMAL, "--kernel", "gaussian", *_SMC,
     "--s", "5", "--reject-threshold", "0.5", "--seed", "35", *_OUT],
    ["smc", "--variant", "backward", *_BERN, "--kernel", "epanechnikov", *_SMC,
     "--s", "1", "--reject-threshold", "0.3", "--mutation", "prior", "--seed", "36", *_OUT],
    # the default random-walk mutation on bernoulli-count: some proposals leave
    # [0, 1] at every step, so the rows outside the prior's support are checked
    ["smc", "--variant", "joint-move", *_BERN, "--kernel", "gaussian", *_SMC,
     "--s", "2", "--seed", "37", *_OUT],
    ["smc", "--variant", "backward", *_BERN, "--kernel", "uniform", *_SMC,
     "--s", "3", "--seed", "38", *_OUT],
    # the reduced experiments; the first two exit 1, as runs this small are too
    # short for their statistical verdicts, and their report bytes are what is checked
    ["experiment", "mcwm-bias", "--config", "mcwm-bias.cfg", "--seed", "41",
     "--out", "report.json"],
    ["experiment", "equivalence", "--config", "equivalence.cfg", "--seed", "42",
     "--out", "report.json"],
    ["experiment", "s-invariance", "--config", "s-invariance.cfg", "--seed", "43",
     "--out", "report.json"],
]


def run_case(argv, work_dir):
    """Run one case under ``work_dir``; returns (exit code, {file name: sha256})."""
    config_dir = os.path.join(work_dir, "configs")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(config_dir)
    os.makedirs(out_dir)
    for name, text in CONFIGS.items():
        with open(os.path.join(config_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = [os.path.join(config_dir, a) if a in CONFIGS else a for a in argv]
    saved = os.environ.get("LFS_OUT_DIR")
    os.environ["LFS_OUT_DIR"] = out_dir
    try:
        code = cli.main(argv)
    finally:
        if saved is None:
            del os.environ["LFS_OUT_DIR"]
        else:
            os.environ["LFS_OUT_DIR"] = saved
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return code, files


def changes(old_cases, new_cases):
    """One line per new case whose exit code or files differ from its old record."""
    old = {json.dumps(case["argv"]): case for case in old_cases}
    lines = []
    for case in new_cases:
        before = old.get(json.dumps(case["argv"]))
        if before is None:
            lines.append(f"new case: {' '.join(case['argv'])}")
            continue
        files = sorted(name for name in set(case["files"]) | set(before["files"])
                       if case["files"].get(name) != before["files"].get(name))
        if files or case["exit"] != before["exit"]:
            exit_note = ("" if case["exit"] == before["exit"]
                         else f" exit {before['exit']} -> {case['exit']};")
            lines.append(f"{' '.join(case['argv'])}:{exit_note} files {files}")
    return lines


def main():
    table = {"numpy": np.__version__, "cases": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(CASES):
            code, files = run_case(argv, os.path.join(tmp, f"case{i:02d}"))
            table["cases"].append({"argv": argv, "exit": code, "files": files})
    old_cases = []
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            old = json.load(fh)
        if old["numpy"] != table["numpy"]:
            print(f"numpy {old['numpy']} -> {table['numpy']}", file=sys.stderr)
        old_cases = old["cases"]
    moved = changes(old_cases, table["cases"])
    for line in moved:
        print(line, file=sys.stderr)
    print(f"{len(moved)} of {len(CASES)} cases changed", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(CASES)} cases to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
