"""Correctness gates applied to every op's outputs, in the untraced and the traced run.

Every op must exit 0 (a reduced-scale ``lfs experiment`` may also exit 1, a
FAIL verdict, which is counted but is not an error), write every file it
promises, and write only finite numbers.  On top of that each op's samples
meet the check its workload names:

``chain``     carried MCMC chains, pooled per target, KS against the oracle
              with the bound taken at the pooled effective sample size
              (batch means per chain);
``iid``       rejection draws at ``--workers 1``, pooled per target, KS against
              the oracle at the pooled sample size; the ``--workers 2`` op of
              the same seed must write byte-identical files;
``weighted``  SMC populations: the weighted KS at the final bandwidth from the
              summary JSON, against the bound at the final ESS, and ESS > 0;
``finite``    fresh (biased by design) chains: finiteness only;
``report``    experiment reports: finiteness and a verdict.

Every KS bound is ``KS_C / sqrt(n)`` with ``KS_C`` the asymptotic one-sample
critical value at ``KS_ALPHA``.
"""

import hashlib
import json
import math
import os

import numpy as np
from scipy import stats
from scipy.special import kolmogi

KS_ALPHA = 1e-6
KS_C = float(kolmogi(KS_ALPHA))
BATCHES = 25


def read_samples(path):
    """Header and float rows of a samples CSV ('#' lines are the config echo)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].rstrip("\n").split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data.reshape(len(lines) - 1, len(header))


def all_finite(value):
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def ks_distance(x, cdf):
    """One-sample KS distance of the empirical CDF of x from ``cdf``."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    f = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def effective_size(x):
    """Batch-means effective sample size of one chain, at most its length."""
    x = np.asarray(x, dtype=float)
    size = x.size // BATCHES
    if size < 2:
        return float(x.size)
    means = x[:size * BATCHES].reshape(BATCHES, size).mean(axis=1)
    se2 = np.var(means, ddof=1) / BATCHES
    var = np.var(x, ddof=1)
    return float(min(x.size, var / se2)) if se2 > 0 else float(x.size)


def oracle_cdf(target, lfs):
    """Posterior CDF at ``target = (model, kernel, h, t_y)`` with the default priors."""
    model, kernel, h, t_y = target
    if model == "normal-mean" and kernel == "gaussian":
        # N(0, 1) prior, N(theta, 1 + h^2) smoothed likelihood
        var = 1.0 / (1.0 + 1.0 / (1.0 + h * h))
        return stats.norm(var * t_y / (1.0 + h * h), math.sqrt(var)).cdf
    if model == "bernoulli-count" and kernel == "uniform" and h < 1.0:
        # exact match only: Beta(t_y + 1, trials - t_y + 1) with 20 trials
        return stats.beta(t_y + 1.0, 20.0 - t_y + 1.0).cdf
    built = lfs.models.make_model(model)
    return built.oracle(t_y, lfs.kernels.SmoothingKernel(kernel, h)).cdf


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class PhaseCheck:
    """Checks one phase's op outputs; collects failures, draws and digests."""

    def __init__(self, lfs, phase_dir, draws_per_report):
        self.lfs = lfs
        self.phase_dir = phase_dir
        self.draws_per_report = draws_per_report
        self.failures = {}     # op_id -> [reason]
        self.draws = {}        # op_id -> draws delivered
        self.digests = {}      # op_id -> sha256 of the op's files
        self.verdict_fail = 0
        self.pools = {}        # record of each pooled KS check

    def fail(self, op_id, reason):
        self.failures.setdefault(op_id, []).append(reason)

    def run(self, ops, results):
        chains, iid, pairs = {}, {}, {}
        for op, res in zip(ops, results):
            samples = self._check_op(op, res)
            if samples is None:
                continue
            if op.gate == "chain":
                chains.setdefault(op.target, []).append((op.op_id, samples))
            elif op.gate == "iid" and op.argv[op.argv.index("--workers") + 1] == "1":
                iid.setdefault(op.target, []).append((op.op_id, samples))
            if op.pair:
                pairs.setdefault(op.pair, []).append(op.op_id)
        for target, members in chains.items():
            n_eff = sum(effective_size(x) for _, x in members)
            self._pooled("chain", target, members, n_eff)
        for target, members in iid.items():
            self._pooled("iid", target, members, sum(x.size for _, x in members))
        for key, members in pairs.items():
            if len({self.digests.get(m) for m in members}) != 1:
                for m in members:
                    self.fail(m, f"workers 1 and 2 wrote different files for {key}")
        return self

    def _pooled(self, gate, target, members, n):
        pooled = np.concatenate([x for _, x in members])
        ks = ks_distance(pooled, oracle_cdf(target, self.lfs))
        bound = KS_C / math.sqrt(n)
        self.pools["|".join(map(str, target))] = {
            "gate": gate, "ops": len(members), "n": pooled.size, "n_eff": n,
            "ks": ks, "bound": bound}
        if not ks <= bound:
            for op_id, _ in members:
                self.fail(op_id, f"pooled KS {ks:.4g} > {bound:.4g} for {target}")

    def _check_op(self, op, res):
        """Per-op checks; returns the theta column for pooled gates, else None."""
        if res.error is not None:
            self.fail(op.op_id, f"raised {res.error}")
            return None
        if op.command == "experiment" and res.code == 1:
            self.verdict_fail += 1
        elif res.code != 0:
            self.fail(op.op_id, f"exit code {res.code}")
            return None
        out_dir = op.out_dir(self.phase_dir)
        paths = [os.path.join(out_dir, name) for name in op.files]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            self.fail(op.op_id, f"missing {missing}")
            return None
        self.digests[op.op_id] = digest(paths)
        theta = None
        for path in paths:
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
                if not all_finite(payload):
                    self.fail(op.op_id, f"non-finite value in {path}")
                if op.gate == "weighted":
                    self._weighted(op, payload)
                elif op.gate == "report" and "passed" not in payload:
                    self.fail(op.op_id, "report has no verdict")
            else:
                header, data = read_samples(path)
                if not np.all(np.isfinite(data)):
                    self.fail(op.op_id, f"non-finite value in {path}")
                if path.endswith("samples.csv"):
                    self.draws[op.op_id] = data.shape[0]
                    theta = data[:, header.index("theta_0")]
        if op.command == "experiment":
            self.draws[op.op_id] = self.draws_per_report
        return theta if op.op_id not in self.failures else None

    def _weighted(self, op, summary):
        ess = summary["ess_trace"][-1]
        ks = summary.get("ks_vs_oracle_at_final_h")
        if not ess > 0:
            self.fail(op.op_id, f"final ESS {ess}")
        elif ks is None or not ks <= KS_C / math.sqrt(ess):
            self.fail(op.op_id, f"weighted KS {ks} > {KS_C / math.sqrt(ess):.4g} at ESS {ess:.1f}")
