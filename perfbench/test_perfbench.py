"""The benchmark's own tests: span arithmetic, the speed timeline, the
Recall@K oracle, and a tiny-size run of every workload.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run._import_adret()

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from adret import evaluation, tensor, training  # noqa: E402


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_times_on_synthetic_tree():
    #   0 [0, 100]            self 100 - 30 - 40 = 30
    #   |- 1 [10, 40]         self  30 - 10      = 20
    #   |  `- 2 [15, 25]      self  10
    #   `- 3 [50, 90]         self  40
    #   4 [100, 110]          self  10 (a second root)
    start = [0, 10, 15, 50, 100]
    end = [100, 40, 25, 90, 110]
    parent = [-1, 0, 1, 0, -1]
    assert tracing.self_times(start, end, parent).tolist() == [30, 20, 10, 40, 10]


@pytest.mark.parametrize("start,end,parent", [
    ([0, 10, 30], [100, 40, 50], [-1, 0, 0]),  # siblings overlap
    ([0, 90], [100, 120], [-1, 0]),            # child outlives its parent
])
def test_self_times_rejects_broken_nesting(start, end, parent):
    with pytest.raises(ValueError):
        tracing.self_times(start, end, parent)


def test_tracer_summary_accounts_for_all_time():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("demo.leaf", lambda x: sum(range(x)))
    mid = tracer.wrap("demo.mid", lambda: [leaf(2000) for _ in range(3)])
    with tracer.operation("bench.unit"):
        mid()
    with tracer.operation("bench.unit"):
        leaf(10)
    summary = tracing.summarize(tracer)
    assert summary["demo.leaf.calls"] == 4
    assert summary["demo.mid.calls"] == 1
    assert summary["bench.unit.calls"] == 2
    assert list(tracer.op) == [0, 0, 0, 0, 0, 1, 1]
    total_self = sum(v for k, v in summary.items() if k.startswith("layer."))
    assert total_self == pytest.approx(summary["bench.unit.s"], abs=1e-9)


def test_install_wraps_every_binding_and_uninstall_restores():
    original = tensor.as_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert evaluation.as_matrix is tensor.as_matrix is not original
        tensor.cosine_sim_matrix(np.eye(2), np.eye(2))
    finally:
        tracer.uninstall()
    assert evaluation.as_matrix is tensor.as_matrix is original
    summary = tracing.summarize(tracer)
    assert summary["evaluation.similarity.calls"] == 1
    assert summary["tensor.as_matrix.calls"] >= 2


# ---------------------------------------------------------------------------
# Recall@K oracle
# ---------------------------------------------------------------------------

def test_oracle_ranks_on_hand_built_ties():
    scores = np.array([
        [0.5, 0.9, 0.9, 0.1],  # relevant 2 ties with 1, which is earlier
        [0.3, 0.3, 0.3, 0.3],  # all tied: relevant 3 is behind three
        [0.3, 0.3, 0.3, 0.3],  # all tied: best of {0, 3} is 0
        [0.2, 0.7, 0.7, 0.8],  # best of {1, 2} is 1, behind the 0.8
    ])
    queries = ["a", "b", "c", "d"]
    candidates = ["w", "x", "y", "z"]
    truth = {"a": {"y"}, "b": {"z"}, "c": {"w", "z"}, "d": {"x", "y"}}
    ranks = oracle.best_relevant_ranks(scores, queries, candidates, truth)
    assert ranks.tolist() == [1, 3, 0, 1]
    for k in range(1, 5):
        assert oracle.recall_from_ranks(ranks, k) == evaluation.recall_at_k(
            scores, queries, candidates, truth, k)


def test_oracle_matches_evaluate_scores_with_many_ties():
    rng = np.random.default_rng(0)
    groups, captions = 30, 3
    scores = np.round(rng.uniform(size=(groups * captions, groups)), 1)
    text_ids = [f"t{g}.{c}" for g in range(groups) for c in range(captions)]
    image_ids = [f"i{g}" for g in range(groups)]
    truth = {f"i{g}": {f"t{g}.{c}" for c in range(captions)} for g in range(groups)}
    truth.update({f"t{g}.{c}": {f"i{g}"} for g in range(groups) for c in range(captions)})
    want = evaluation.evaluate_scores(scores, text_ids, image_ids, truth)
    got = oracle.oracle_scores(scores, text_ids, image_ids, truth)
    assert got == {k: getattr(want, k) for k in got}


# ---------------------------------------------------------------------------
# tiny-size runs of every workload
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# speed probe and timeline
# ---------------------------------------------------------------------------

def _timeline(factors, before, after):
    timeline = speed.Timeline(iter(factors).__next__)
    for _ in factors:
        timeline.cut()
    timeline.before[:], timeline.after[:] = before, after
    return timeline


def test_span_leaves_out_probe_time_and_scales_by_the_end_factors():
    # cuts at 0-1, 3-4, 10-11 s; the array kernels' geometric mean
    # factors are 1, 3 and 2, and the ranking kernel's is always 4
    timeline = _timeline([(1.0, 1.0, 4.0), (1.0, 9.0, 4.0), (2.0, 2.0, 4.0)],
                         [0.0, 3.0, 10.0], [1.0, 4.0, 11.0])
    assert timeline.span(0, 1) == pytest.approx((2.0, 2.0 / 2.0))
    assert timeline.span(1, 2) == pytest.approx((6.0, 6.0 / 2.5))
    assert timeline.span(0, 2) == pytest.approx((8.0, 1.0 + 2.4))
    assert timeline.span(0, 2, speed.RANK_KERNELS) == pytest.approx((8.0, 2.0))
    with pytest.raises(ValueError):
        timeline.span(1, 1)
    with pytest.raises(ValueError):
        timeline.span(0, 3)


def test_probe_gives_a_positive_finite_factor_per_kernel():
    factors = speed.SpeedProbe().measure()
    assert len(factors) == len(speed.KERNELS)
    assert all(math.isfinite(f) and f > 0 for f in factors)


def test_train_times_each_epoch_and_validation_then_restores():
    spec = workloads.tiny(workloads.WORKLOADS["desk-adpool"])
    splits = workloads._generate(spec, 1)
    originals = (training.lr_at, training._validation_rsum)
    timeline = speed.Timeline(lambda: (2.0, 2.0, 1.0))
    t0 = time.perf_counter()
    _, log, epochs, validations, unit = workloads._train(
        timeline, splits["train"], workloads._init_model(spec, 1),
        workloads._train_config(spec, 1), splits["val"])
    total = time.perf_counter() - t0
    assert (training.lr_at, training._validation_rsum) == originals
    assert len(timeline.factors) == 2 + 2 * spec.epochs
    walls = [wall for wall, _ in epochs]
    assert len(epochs) == spec.epochs and min(walls) > 0
    assert all(at_reference == pytest.approx(wall / 2.0)
               for wall, at_reference in epochs)
    assert sum(walls) <= unit[0] <= total
    assert len(set(walls)) > 1  # real epoch boundaries, not the even split
    assert len(validations) == len(log.validation) == spec.epochs
    assert sum(w for w, _ in validations) < sum(walls)


def test_fine_eval_pass_cuts_before_every_recall_and_restores():
    spec = workloads.tiny(workloads.WORKLOADS["eval-2000"])
    splits = workloads._generate(spec, 1)
    test = splits["test"]
    timeline = speed.Timeline(lambda: (1.0, 1.0, 2.0))
    original = evaluation.recall_at_k
    _, result, (wall, at_reference) = workloads._eval_timed(
        None, timeline, workloads.Ledger(), workloads._init_model(spec, 1),
        test, workloads.data.ground_truth(test), "bench.unit", fine=True)
    assert evaluation.recall_at_k is original
    # start, 3 between the steps, one per Recall@K in each direction, end
    assert len(timeline.factors) == 1 + 3 + 2 * len(evaluation.RECALL_KS) + 1
    encode_wall = (timeline.before[1] - timeline.after[0]
                   + timeline.before[2] - timeline.after[1])
    assert at_reference == pytest.approx(encode_wall + (wall - encode_wall) / 2)
    assert wall > 0


def _metric_names(kind):
    return list(run.metric_units(kind))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    spec = workloads.tiny(workloads.WORKLOADS[name])
    result = run.run(name, 3, 0, trace, spec=spec, out_dir=tmp_path)
    assert result["correct"], [c for c in json.loads(
        (tmp_path / f"result-{name}-seed3-trace{int(trace)}.json").read_text())["checks"]
        if not c["ok"]]
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _metric_names(kind)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    assert not hasattr(tensor.as_matrix, "__wrapped__")  # wrappers removed


def test_repeated_seed_is_checked_across_runs(tmp_path):
    spec = workloads.tiny(workloads.WORKLOADS["wide-manual"])
    run.run("wide-manual", 5, 0, False, spec=spec, out_dir=tmp_path)
    result = run.run("wide-manual", 5, 0, False, spec=spec, out_dir=tmp_path)
    record = json.loads((tmp_path / "result-wide-manual-seed5-trace0.json").read_text())
    assert result["correct"]
    assert "determinism.across_runs" in [c["name"] for c in record["checks"]]


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-adpool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
