"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds. The heavyweight
training fixtures are shared: the matched adaptive-vs-triplet runs feed the
dynamics, convergence, and ablation criteria. All oracles in this module are
straight-line scalar re-derivations independent of the package internals.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from adret.cli import main
from adret.config import load_config
from adret.data import generate_splits
from adret.encoders import evaluate_split, PreparedSplit
from adret.evaluation import recall_at_k
from adret.gradcheck import run_all
from adret.objectives import (
    LossConfig,
    adaptive_k,
    batch_loss,
    select_negatives,
)
from adret.pooling import PoolingSpec, PoolParams, _balance_forward, pool_forward
from adret.training import build_model, train

DESK_CORPUS_SEED = 1234
MATCHED_SEEDS = (1, 2, 3, 4, 5)
DESK_EPOCHS = 10
EPOCH_OF_INTEREST = 5


def _pass(msg):
    print(f"\nACCEPTANCE PASS: {msg}")


# ---------------------------------------------------------------------------
# shared desk-scale fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The desk INI, whose unwritten keys take their defaults, the splits
    `adret generate` draws from it, and the test split prepared once for
    every `_test_rsum`."""
    out = tmp_path_factory.mktemp("desk")
    ini = out / "desk.ini"
    ini.write_text(f"[corpus]\nseed = {DESK_CORPUS_SEED}\n\n"
                   f"[train]\nepochs = {DESK_EPOCHS}\n\n[output]\ndir = {out}\n")
    cfg = load_config(str(ini))
    splits = generate_splits(cfg.corpus, cfg.corpus.num_groups, cfg.val_groups,
                             cfg.test_groups)
    return {"ini": str(ini), "splits": splits,
            "test": PreparedSplit(splits["test"])}


def _desk_train(desk, seed, mode, method="adpool", weights=None,
                validate=True):
    """What `adret train` computes on the desk INI with these keys set."""
    overrides = {"train.seed": str(seed), "train.loss": mode}
    for side in ("visual", "text"):
        overrides[f"pooling.{side}.method"] = method
        if weights is not None:
            overrides[f"pooling.{side}.weights"] = weights
    cfg = load_config(desk["ini"], overrides)
    return train(desk["splits"]["train"], build_model(cfg), cfg.train,
                 desk["splits"]["val"] if validate else None)


def _test_rsum(desk, model):
    return evaluate_split([model], desk["test"]).rsum


@pytest.fixture(scope="module")
def matched_runs(desk):
    """Adaptive vs hard-triplet, matched init and shuffling per seed."""
    start = time.monotonic()
    runs = {}
    for seed in MATCHED_SEEDS:
        for mode in ("infonce-adaptive", "hard-triplet"):
            runs[(mode, seed)] = _desk_train(desk, seed, mode)
    runs["elapsed"] = time.monotonic() - start
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_pooling_algebra_suite():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    scale = 50.0

    def pooled(f, method, **fixed):
        return pool_forward(f, PoolingSpec(method, **fixed),
                            PoolParams.zeros(f.shape[1]))[0]

    for trial in range(100):
        m = int(rng.integers(1, 13))
        d = int(rng.integers(2, 9))
        f = rng.standard_normal((m, d))

        assert np.array_equal(pooled(f, "kmax", k=1), pooled(f, "max"))
        assert np.array_equal(pooled(f, "kmax", k=m), pooled(f, "mean"))

        # the token branch alone, zero weights
        t_tok = pooled(f, "fixed-balance", weights=(1.0, 0.0))
        assert np.abs(t_tok - pooled(f, "mean")).max() <= 1e-12

        g = f.copy()
        g[g.argmax(axis=0), np.arange(d)] += 0.5  # distinct column maxima
        t_emb = pooled(scale * g, "fixed-balance", weights=(0.0, 1.0))
        assert np.abs(t_emb / scale - pooled(g, "max")).max() <= 1e-6

        t = rng.standard_normal(d)
        combined, _, _ = _balance_forward(t, t, rng.standard_normal((d, 1)))
        assert np.array_equal(combined, t)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(f"pooling algebra suite, 100 instances in {elapsed:.2f}s")


def test_gradient_suite():
    start = time.monotonic()
    checked = set()
    for seed in range(10):
        reports = run_all(seed, tolerance=1e-4)
        for report in reports:
            assert report.passed, f"seed {seed}: {report}"
            checked.add(report.op_name)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(f"gradient suite, {len(checked)} operations x 10 seeds "
          f"in {elapsed:.1f}s")


def test_schedule_suite():
    start = time.monotonic()
    assert adaptive_k(0.0, 0.0, 128) == 127
    assert adaptive_k(1.0, 1.0, 128) == 1
    assert adaptive_k(0.5, 0.5, 128) == 90
    grid = [i * 0.05 for i in range(41)]
    ks = [adaptive_k(g / 2, g / 2, 128) for g in grid]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(f"adaptive-K schedule suite in {elapsed * 1000:.1f}ms")


def test_loss_oracles():
    # worked 2x2 examples, exact
    triplet = LossConfig("hard-triplet", margin=0.2)
    loss, _, _ = batch_loss([[0.9, 0.2], [0.3, 0.8]], triplet)
    assert loss == 0.0
    loss, _, _ = batch_loss([[0.5, 0.6], [0.4, 0.7]], triplet)
    assert loss == 0.5

    s = np.eye(2)
    loss, _, _ = batch_loss(s, LossConfig("infonce-fixed", temperature=1.0,
                                          fixed_k=1))
    assert abs(loss - 2 * math.log(1 + math.exp(-1))) <= 1e-12

    def triplet_oracle(s, margin):
        b = len(s)
        total = 0.0
        for i in range(b):
            best_col = max((s[i][j], -j) for j in range(b) if j != i)[0]
            best_row = max((s[j][i], -j) for j in range(b) if j != i)[0]
            total += max(0.0, margin - s[i][i] + best_col)
            total += max(0.0, margin - s[i][i] + best_row)
        return total

    def infonce_oracle(s, sel, tau):
        b = len(s)
        total = 0.0
        for i in range(b):
            denom = math.exp(s[i][i] / tau) + sum(
                math.exp(s[i][j] / tau) for j in range(b)
                if sel.text_to_image[i][j])
            total -= math.log(math.exp(s[i][i] / tau) / denom) / b
            denom = math.exp(s[i][i] / tau) + sum(
                math.exp(s[j][i] / tau) for j in range(b)
                if sel.image_to_text[i][j])
            total -= math.log(math.exp(s[i][i] / tau) / denom) / b
        return total

    rng = np.random.default_rng(1)
    for _ in range(25):
        s = rng.uniform(-1, 1, size=(8, 8))
        loss, _, _ = batch_loss(s, triplet)
        ref = triplet_oracle(s.tolist(), 0.2)
        assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))
        sel = select_negatives(s, 4)
        loss, _, _ = batch_loss(s, LossConfig("infonce-fixed", temperature=0.05,
                                              fixed_k=4))
        ref = infonce_oracle(s.tolist(), sel, 0.05)
        assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))
    _pass("loss oracles: worked examples exact, straight-line re-derivations "
          "within 1e-12")


def test_adaptive_negative_count_dynamics(matched_runs):
    trend_holds = 0
    medians = []
    for seed in MATCHED_SEEDS:
        _, log = matched_runs[("infonce-adaptive", seed)]
        first = [r.k for r in log.records if r.epoch == 0]
        last = [r.k for r in log.records if r.epoch == DESK_EPOCHS - 1]
        med_first = float(np.median(first))
        med_last = float(np.median(last))
        medians.append((med_first, med_last))
        trend_holds += med_first > med_last
    assert trend_holds >= 4, medians
    assert matched_runs["elapsed"] < 300.0
    _pass(f"negative-count dynamics: first-epoch median K > last-epoch "
          f"median K on {trend_holds}/5 seeds {medians}")


def test_convergence_comparison(matched_runs):
    epoch5_wins = 0
    ratios = []
    for seed in MATCHED_SEEDS:
        _, ad_log = matched_runs[("infonce-adaptive", seed)]
        _, tri_log = matched_runs[("hard-triplet", seed)]
        ad_val = dict(ad_log.validation)
        tri_val = dict(tri_log.validation)
        epoch5_wins += ad_val[EPOCH_OF_INTEREST] >= tri_val[EPOCH_OF_INTEREST]
        ratio = ad_val[DESK_EPOCHS - 1] / tri_val[DESK_EPOCHS - 1]
        ratios.append(round(ratio, 4))
        assert ratio >= 0.95, f"seed {seed}: final ratio {ratio}"
    assert epoch5_wins >= 3
    assert matched_runs["elapsed"] < 600.0
    _pass(f"convergence comparison: adaptive >= triplet at epoch "
          f"{EPOCH_OF_INTEREST} on {epoch5_wins}/5 seeds; final ratios "
          f"{ratios} all >= 0.95")


def test_retrieval_metric_oracle():
    def rank_scan(scores, relevant, k):
        hits = 0
        for q in range(len(scores)):
            order = sorted(range(len(scores[q])),
                           key=lambda j: (-scores[q][j], j))
            rank = {j: r + 1 for r, j in enumerate(order)}
            if min(rank[j] for j in relevant[q]) <= k:
                hits += 1
        return 100.0 * hits / len(scores)

    rng = np.random.default_rng(2)
    qids = [f"q{i}" for i in range(20)]
    cids = [f"c{j}" for j in range(20)]
    for trial in range(50):
        scores = rng.standard_normal((20, 20))
        relevant = [set(map(int, rng.choice(20, size=int(rng.integers(1, 4)),
                                            replace=False)))
                    for _ in range(20)]
        truth = {f"q{i}": {f"c{j}" for j in relevant[i]} for i in range(20)}
        for k in (1, 5, 10):
            ours = recall_at_k(scores, qids, cids, truth, k)
            assert ours == rank_scan(scores.tolist(), relevant, k)
    _pass("recall@K matches the full rank-scan oracle on 50 random 20x20 "
          "matrices, exactly")


def test_balance_ablation(desk, matched_runs):
    grids = ("0.25,0.75", "0.5,0.5", "0.75,0.25")
    wins = 0
    rows = []
    for seed in MATCHED_SEEDS:
        learned_model, _ = matched_runs[("infonce-adaptive", seed)]
        learned = _test_rsum(desk, learned_model)
        fixed_scores = []
        for weights in grids:
            # no criterion reads a fixed run's validation RSUM, and
            # validation is pure, so skipping it leaves the model unchanged
            model, _ = _desk_train(desk, seed, "infonce-adaptive",
                                   "fixed-balance", weights, validate=False)
            fixed_scores.append(_test_rsum(desk, model))
        best_fixed = max(fixed_scores)
        rows.append((seed, round(learned, 1), round(best_fixed, 1)))
        wins += learned >= best_fixed - 2.0
    assert wins >= 3, rows
    _pass(f"balance ablation: learned weights within 2.0 RSUM of the best "
          f"fixed grid on {wins}/5 seeds {rows}")


def test_end_to_end_determinism(tmp_path):
    config_text = """\
[corpus]
seed = 77

[train]
seed = 13
epochs = 3

[output]
dir = {out}
"""
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg_path = tmp_path / f"{run}.ini"
        cfg_path.write_text(config_text.format(out=out))
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0
        blob = {}
        for name in ("train_log.csv", "metrics.json", "params.bin",
                     "results.json", "results.csv"):
            with open(out / name, "rb") as fh:
                blob[name] = fh.read()
        corpus_dir = out / "corpus"
        for name in sorted(os.listdir(corpus_dir)):
            with open(corpus_dir / name, "rb") as fh:
                blob[f"corpus/{name}"] = fh.read()
        artifacts.append(blob)
    assert artifacts[0].keys() == artifacts[1].keys()
    for name in artifacts[0]:
        assert artifacts[0][name] == artifacts[1][name], name
    rsum = json.loads(artifacts[0]["results.json"])["rsum"]
    assert 0.0 <= rsum <= 600.0
    _pass(f"determinism: two generate+train+eval runs byte-identical "
          f"({len(artifacts[0])} files, test RSUM {rsum:.1f})")
