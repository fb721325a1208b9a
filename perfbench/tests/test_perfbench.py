"""Self-tests of the benchmark's own logic.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def span(sid, start, end, parent, name=0, op=0):
    return [sid, name, start, end, parent, op]


def test_self_time_of_nested_spans():
    spans = np.array([
        span(1, 0.0, 10.0, 0),
        span(2, 1.0, 4.0, 1),
        span(3, 2.0, 3.0, 2),      # grandchild: counts against 2, not against 1
        span(4, 5.0, 6.5, 1),
    ])
    np.testing.assert_allclose(self_times(spans), [10 - 3 - 1.5, 3 - 1, 1, 1.5])


def test_self_time_counts_overlapping_children_from_two_threads_once():
    # parent on the main thread; children [1,3] on main, [2,6] and [5,8] on two
    # pool threads: together they cover [1,8]
    spans = np.array([
        span(10, 0.0, 10.0, 0),
        span(11, 1.0, 3.0, 10),
        span(12, 2.0, 6.0, 10),
        span(13, 5.0, 8.0, 10),
        span(14, 2.5, 3.5, 12),
    ])
    np.testing.assert_allclose(self_times(spans), [3.0, 2.0, 3.0, 3.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = np.array([span(1, 0.0, 2.0, 0), span(2, 1.5, 3.0, 1)])
    np.testing.assert_allclose(self_times(spans), [1.5, 1.5])


def test_tracer_records_pool_thread_spans_as_children_of_the_main_span():
    tracer = Tracer()
    inner = tracer.wrap("mod.inner", lambda: sum(range(1000)))

    def outer():
        threads = [threading.Thread(target=inner) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        return inner()

    tracer.wrap("mod.outer", outer)()
    spans = tracer.spans()
    names = [tracer.names[int(i)] for i in spans[:, 1]]
    outer_id = spans[names.index("mod.outer"), 0]
    parents = [p for n, p in zip(names, spans[:, 4]) if n == "mod.inner"]
    assert parents == [outer_id] * 3
    s = summarize(spans, tracer.names)
    assert s["mod.inner"]["calls"] == 3 and s["mod.outer"]["calls"] == 1
    assert s["mod.outer"]["self_s"] <= s["mod.outer"]["total_s"]


@pytest.mark.parametrize("n, value, pct", [
    (11, 0.0, 100.0 / 11),
    (20, 9.0, 50.0),
    (100, 89.0, 90.0),
    (1000, 989.0, 99.0),
])
def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it(n, value, pct):
    durations = [float(i) for i in range(n)][::-1]
    got, got_pct = metrics.tail(durations)
    assert got == value and got_pct == pytest.approx(pct)
    assert sum(d > got for d in durations) == 10


def test_tail_with_ten_or_fewer_ops_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_lists_are_deterministic_per_seed_and_differ_between_seeds(workload):
    a, files_a = make_ops(workload, 7, "cfg", rounds=3)
    b, files_b = make_ops(workload, 7, "cfg", rounds=3)
    c, _ = make_ops(workload, 8, "cfg", rounds=3)
    assert [op.argv for op in a] == [op.argv for op in b] and files_a == files_b
    assert [op.argv for op in a] != [op.argv for op in c]
    # every round is the same op mix
    per_round = [sorted(op.template for op in a if op.round == r) for r in range(3)]
    assert per_round[0] == per_round[1] == per_round[2]
    assert sorted(op.template for op in c if op.round == 0) == per_round[0]


def test_batch_abc_runs_every_rejection_seed_at_one_and_two_workers():
    ops, _ = make_ops("batch-abc", 3, "cfg", rounds=2)
    pairs = {}
    for op in ops:
        if op.pair:
            pairs.setdefault(op.pair, []).append(op.argv[op.argv.index("--workers") + 1])
    assert pairs and all(sorted(w) == ["1", "2"] for w in pairs.values())


class _Rejection:
    def __init__(self, proposals_used, n_accepted=1):
        self.proposals_used = proposals_used
        self.n_accepted = n_accepted


def test_block_yield_counts_consumed_over_evaluated_blocks():
    import lfs
    hooks = metrics.counters(lfs)
    counts = {}
    # 5 blocks evaluated (2 of them prefetched and unused), other substreams ignored
    for b in range(5):
        hooks["rng.substream"](counts, (1, "reject", "block", b), {}, None, 0.0)
    hooks["rng.substream"](counts, (1, "mcmc", "chain", 0), {}, None, 0.0)
    # 2 blocks of 4096 and one partial block consumed
    hooks["rejection.run_rejection"](counts, (None,) * 6, {"workers": 2},
                                     _Rejection(2 * 4096 + 17), 1.0)
    assert counts["rejection.blocks_evaluated"] == 5
    assert counts["rejection.blocks_consumed"] == 3
    assert metrics.block_yield(3, 5) == 0.6
    assert metrics.block_yield(0, 0) == 0.0


def test_block_yield_of_a_real_two_worker_run(tmp_path):
    import lfs
    tracer = Tracer(metrics.counters(lfs))
    tracer.install(lfs)
    try:
        out = lfs.run_rejection(lfs.NormalMeanModel(), lfs.SmoothingKernel("gaussian", 0.5),
                                0.0, 2, 3000, 5, workers=2, block_size=512)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    consumed = -(-out.proposals_used // 512)
    assert counts["rejection.blocks_consumed"] == consumed
    assert consumed <= counts["rejection.blocks_evaluated"] <= consumed + 4
    names = [tracer.names[int(i)] for i in tracer.spans()[:, 1]]
    assert names.count("rejection.block") == counts["rejection.blocks_evaluated"]


def test_install_patches_callers_and_uninstall_restores_every_original(tmp_path, monkeypatch):
    import lfs
    import lfs.cli
    originals = {
        "smc.mixture_logdensity": lfs.smc.mixture_logdensity,
        "mcmc.joint_logdensity_unnorm": lfs.mcmc.joint_logdensity_unnorm,
        "experiments.joint_logdensity_unnorm": lfs.experiments.joint_logdensity_unnorm,
        "NormalMeanModel.simulate": lfs.models.NormalMeanModel.__dict__["simulate"],
        "cli.COMMANDS[smc]": lfs.cli.COMMANDS["smc"],
    }
    tracer = Tracer(metrics.counters(lfs))
    tracer.install(lfs)
    try:
        assert lfs.smc.mixture_logdensity is not originals["smc.mixture_logdensity"]
        assert lfs.mcmc.joint_logdensity_unnorm is lfs.target.joint_logdensity_unnorm
        assert lfs.cli.COMMANDS["smc"] is not originals["cli.COMMANDS[smc]"]
        monkeypatch.setenv("LFS_OUT_DIR", str(tmp_path))
        code = lfs.cli.main(["smc", "--variant", "backward", "--particles", "200",
                             "--steps", "3", "--seed", "1", "--out", "p.csv"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.restored() == []
    assert lfs.smc.mixture_logdensity is originals["smc.mixture_logdensity"]
    assert lfs.mcmc.joint_logdensity_unnorm is originals["mcmc.joint_logdensity_unnorm"]
    assert (lfs.experiments.joint_logdensity_unnorm
            is originals["experiments.joint_logdensity_unnorm"])
    assert lfs.models.NormalMeanModel.__dict__["simulate"] is originals["NormalMeanModel.simulate"]
    assert lfs.cli.COMMANDS["smc"] is originals["cli.COMMANDS[smc]"]
    s = summarize(tracer.spans(), tracer.names)
    assert s["smc.mixture_logdensity"]["calls"] == 2
    assert s["cli.main"]["calls"] == 1
    assert tracer.counts()["smc.mixture_logdensity.pairs"] == 2 * 200 * 200


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, declared in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == declared
