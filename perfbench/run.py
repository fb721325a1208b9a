"""Benchmark of the `lfs` command line: three closed-loop workloads of lfs commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mcmc-chains,smc-backward,batch-abc} \
        --seed N --seconds S --trace {0,1}

One client issues the workload's ops (argv lists, see workloads.py) to
``lfs.cli.main`` in this process, the next only after the previous returned,
in whole rounds until ``--seconds`` have passed.  Every op's outputs are then
checked (gates.py).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics.  With ``--trace 1`` the untraced ops get half of
``--seconds`` and then run a second time with every ``lfs`` layer wrapped
(spans.py); the last line carries the per-layer metrics.  The traced outputs
must be byte-identical to the untraced ones, and every wrapped attribute must
be the original again afterwards.

The line before the result is the run's record (environment, seed, tail
percentile, gate details); the record is also written, with the traced run's
spans, under ``.perfbench/`` in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

import metrics
from gates import PhaseCheck
from spans import Tracer
from workloads import WORKLOADS, make_ops, mcwm_draws

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3

# Set-up as a command line user pays it: a fresh interpreter imports lfs and
# the op list is generated.
SETUP_CODE = """
import os, sys
root, workload, seed, config_dir = sys.argv[1:5]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import lfs.cli
from workloads import make_ops
if not os.path.realpath(lfs.__file__).startswith(os.path.realpath(sys.path[0]) + os.sep):
    sys.exit("lfs was not imported from the checkout")
make_ops(workload, int(seed), config_dir)
"""


@dataclass
class OpResult:
    code: Optional[int]
    error: Optional[str]
    seconds: float


def import_lfs():
    """The checkout's lfs package; None when the checkout has no importable lfs."""
    sys.path.insert(0, SRC)
    try:
        import lfs
        import lfs.cli
    except ImportError as exc:
        print(f"cannot import lfs from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.realpath(lfs.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"lfs was imported from {lfs.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return lfs


def measure_setup(workload, seed, config_dir):
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, ROOT, workload, str(seed),
                               config_dir], capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return samples


def run_op(lfs, op, phase_dir):
    out_dir = op.out_dir(phase_dir)
    os.makedirs(out_dir)
    os.environ["LFS_OUT_DIR"] = out_dir
    sink = io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = lfs.cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is a failed op; the run goes on
        error = traceback.format_exc(limit=3)
    return OpResult(code, error, time.perf_counter() - t0)


def run_phase(lfs, ops, phase_dir, tracer=None):
    """Run ``ops`` in order; returns (results, wall seconds)."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.op_id
        results.append(run_op(lfs, op, phase_dir))
    return results, time.perf_counter() - t0


def run_timed(lfs, ops, phase_dir, seconds):
    """Whole rounds of ops until ``seconds`` have passed; returns (ops run, results, wall)."""
    done, results = [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    by_round = {}
    for op in ops:
        by_round.setdefault(op.round, []).append(op)
    for round_ops in by_round.values():
        for op in round_ops:
            results.append(run_op(lfs, op, phase_dir))
            done.append(op)
        if time.perf_counter() >= deadline:
            break
    return done, results, time.perf_counter() - t0


def environment(lfs):
    import scipy
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lfs": lfs.__version__,
        "platform": platform.platform(),
    }


def check(lfs, ops, results, phase_dir):
    return PhaseCheck(lfs, phase_dir, mcwm_draws()).run(ops, results)


def by_template(ops, results):
    """Median op seconds per op template."""
    seconds = {}
    for op, res in zip(ops, results):
        seconds.setdefault(op.template, []).append(res.seconds)
    return {k: statistics.median(v) for k, v in sorted(seconds.items())}


def metric_block(values, declared):
    return {name: {"value": values[name], "unit": declared[name][0]} for name in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lfs = import_lfs()
    if lfs is None:
        return 2
    os.chdir(ROOT)
    run_dir = os.path.relpath(os.path.join(WORK, f"run-{os.getpid()}"), ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        record, result = run(lfs, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    save_record(record)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(lfs, args, run_dir):
    """Both phases of one run; returns (record, result line)."""
    setup = [] if args.trace else measure_setup(args.workload, args.seed, f"{run_dir}/config")
    ops, files = make_ops(args.workload, args.seed, f"{run_dir}/config")
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    if args.trace:
        # the traced run repeats the untraced ops, so each gets half the time;
        # one untimed round first keeps first-use costs out of the overhead ratio
        run_phase(lfs, [op for op in ops if op.round == 0], f"{run_dir}/warm-up")
    budget = args.seconds / 2 if args.trace else args.seconds
    done, results, wall = run_timed(lfs, ops, f"{run_dir}/untraced", budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = check(lfs, done, results, f"{run_dir}/untraced")
    failures = {f"untraced/{k}": v for k, v in gate.failures.items()}
    durations = [r.seconds for r in results]
    draws = sum(n for op_id, n in gate.draws.items() if op_id not in gate.failures)
    e2e, tail_pct = metrics.end_to_end(durations, draws, wall, setup or [0.0], peak_rss_mb)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(lfs),
        "ops": len(done), "rounds": len({op.round for op in done}),
        "op_s_tail_percentile": tail_pct, "setup_samples_s": setup,
        "op_s_by_template": by_template(done, results),
        "untraced_wall_s": wall, "draws": draws, "verdict_fail": gate.verdict_fail,
        "ks_pools": {"untraced": gate.pools},
    }
    attempted = len(done)
    not_restored = []
    values, declared = e2e, metrics.END_TO_END

    if args.trace:
        tracer = Tracer(metrics.counters(lfs))
        tracer.install(lfs)
        try:
            traced_results, traced_wall = run_phase(lfs, done, f"{run_dir}/traced", tracer)
        finally:
            tracer.uninstall()
        not_restored = tracer.restored()
        traced_gate = check(lfs, done, traced_results, f"{run_dir}/traced")
        for op in done:
            if traced_gate.digests.get(op.op_id) != gate.digests.get(op.op_id):
                traced_gate.fail(op.op_id, "traced outputs differ from untraced outputs")
        failures.update({f"traced/{k}": v for k, v in traced_gate.failures.items()})
        attempted += len(done)
        spans = tracer.spans()
        values, summary = metrics.per_layer(spans, tracer.names, tracer.counts(), traced_wall,
                                            wall, traced_gate.verdict_fail)
        declared = metrics.PER_LAYER
        record.update({
            "traced_wall_s": traced_wall, "spans": int(spans.shape[0]),
            "patched_attributes": tracer.n_patches, "not_restored": not_restored,
            "evidence": metrics.evidence(summary, traced_wall),
        })
        record["ks_pools"]["traced"] = traced_gate.pools
        save_spans(args.workload, spans, tracer.names)

    record["error_rate"] = len(failures) / attempted
    record["failures"] = dict(list(failures.items())[:20])
    return record, {
        "correct": not failures and not not_restored,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metric_block(values, declared),
    }


def save_record(record):
    os.makedirs(WORK, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def save_spans(workload, spans, names):
    os.makedirs(WORK, exist_ok=True)
    np.savez(os.path.join(WORK, f"{workload}.spans.npz"), spans=spans, names=np.array(names))


if __name__ == "__main__":
    sys.exit(main())
