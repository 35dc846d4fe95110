"""The benchmark's workloads: set-up, timed operations and output checks.

Every call into adret goes through its module attribute (``training.train``,
``encoders.encode_all``, ...) so that the tracer's wrappers see it. The
benchmark is a closed loop with one caller: each operation starts only after
the previous one has returned.

Why these workloads (see README.md for the layer map):

- desk-adpool: the paper's headline configuration, as the acceptance gate
  trains it. Per-instance encoder forward and VJP through the learned pooler
  dominate, so tensor, pooling and encoder changes show here.
- wide-manual: a fixed, cheap pooler and batch 250, so the adaptive loss's
  per-anchor argsorts and loops dominate. Objective changes show here; a
  pooling-only change should barely move it.
- eval-2000: the ``adret eval`` path on 2000 test groups: encode once,
  score 10 000 x 2 000, rank. Recall@K dominates; training is only set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from adret import cache, data, encoders, evaluation, objectives, pooling, tensor, training

import oracle
import speed

DIM = 32  # visual, text and embedding dimension of the desk fixture


@dataclass(frozen=True)
class Spec:
    """One workload. For eval workloads the training fields describe the
    brief training of the scoring model done in set-up."""

    name: str
    pooling: str  # "adpool" on both modalities, or "manual"
    batch_size: int
    epochs: int
    train_groups: int
    val_groups: int
    validate: bool
    test_groups: int = 0  # > 0 makes this an eval workload
    lr: float = 5e-4
    setups: int = 2  # timed set-ups per round
    eval_repeats: int = 2  # timed validation eval passes per training round

    @property
    def is_eval(self) -> bool:
        return self.test_groups > 0


WORKLOADS = {
    "desk-adpool": Spec("desk-adpool", "adpool", batch_size=64, epochs=10,
                        train_groups=1000, val_groups=200, validate=True),
    "wide-manual": Spec("wide-manual", "manual", batch_size=250, epochs=10,
                        train_groups=1000, val_groups=200, validate=False,
                        lr=2e-3, eval_repeats=6),
    "eval-2000": Spec("eval-2000", "adpool", batch_size=64, epochs=2,
                      train_groups=1000, val_groups=200, validate=True,
                      test_groups=2000, lr=3e-3),
}


def tiny(spec: Spec) -> Spec:
    """The same workload at a size that runs in about a second."""
    return replace(spec, batch_size=min(spec.batch_size, 8), epochs=2,
                   train_groups=24, val_groups=12,
                   test_groups=16 if spec.is_eval else 0,
                   setups=1, eval_repeats=1)


class Ledger:
    """Counts attempted and failed operations and keeps every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok


SAMPLES = ("setup_s", "epoch_s", "eval_s", "unit_s")


@dataclass
class Outcome:
    """What one pass over a workload measured and produced.

    ``samples`` holds each kind of timed sample in seconds at the probe's
    reference speed, ``wall`` the same samples in wall seconds.
    """

    samples: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in SAMPLES})
    wall: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in SAMPLES})
    rsum: float = math.nan
    digests: dict[str, str] = field(default_factory=dict)
    probe_factors: list[tuple[float, ...]] = field(default_factory=list)

    def add(self, kind: str, span: tuple[float, float]) -> None:
        wall, at_reference = span
        self.wall[kind].append(wall)
        self.samples[kind].append(at_reference)


def sha256(payload) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _operation(tracer, name: str):
    if tracer is None:
        return nullcontext()
    return tracer.operation(name)


def _timed(tracer, timeline, name: str, fn, kernels=speed.ARRAY_KERNELS):
    """Run ``fn`` between two cuts; return its result and its span."""
    with _operation(tracer, name):
        first = timeline.cut()
        result = fn()
        last = timeline.cut()
    return result, timeline.span(first, last, kernels)


@contextmanager
def _cuts_before(timeline, module, attr: str, marks: list[int]):
    """While inside, every call to ``module.attr`` first makes a cut, and
    the cut's index goes to ``marks``. Nothing changes if the attribute is
    missing."""
    original = getattr(module, attr, None)
    if original is None:
        yield
        return

    def cut_then_call(*args, **kwargs):
        marks.append(timeline.cut())
        return original(*args, **kwargs)

    setattr(module, attr, cut_then_call)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _pooling_specs(spec: Spec):
    if spec.pooling == "manual":
        return (pooling.PoolingSpec("manual", manual_mode="visual"),
                pooling.PoolingSpec("manual", manual_mode="text"))
    return pooling.PoolingSpec("adpool"), pooling.PoolingSpec("adpool")


def _init_model(spec: Spec, seed: int):
    """Seeded like ``adret train``: visual encoder first, then text."""
    rng = np.random.default_rng([seed, 0])
    v_spec, t_spec = _pooling_specs(spec)
    return encoders.BiEncoder(
        encoders.init_encoder_params(rng, DIM, DIM, v_spec),
        encoders.init_encoder_params(rng, DIM, DIM, t_spec))


def _train_config(spec: Spec, seed: int):
    return training.TrainConfig(
        loss=objectives.LossConfig(mode="infonce-adaptive"), seed=seed,
        batch_size=spec.batch_size, epochs=spec.epochs, lr=spec.lr)


def _train(timeline, train_c, model0, cfg, val_c):
    """train(), plus the span of each epoch, of each validation pass and of
    the whole call.

    train() calls ``training.lr_at`` at the start of every epoch and, when
    it validates, ``training._validation_rsum`` at the end of every epoch.
    While this call runs, both first make a cut on the timeline. An epoch
    runs from its cut to the next epoch's cut, or to the cut after train()
    returns; a validation pass runs from its cut to the next cut. If a
    future train() stops making the first call, each epoch is an even share
    of the whole call; if it stops making the second, no validation pass is
    timed.
    """
    epoch_cuts, validation_cuts = [], []
    first = timeline.cut()
    with _cuts_before(timeline, training, "lr_at", epoch_cuts), \
            _cuts_before(timeline, training, "_validation_rsum", validation_cuts):
        model, log = training.train(train_c, model0, cfg, val_c)
    last = timeline.cut()
    if len(epoch_cuts) == cfg.epochs:
        bounds = epoch_cuts + [last]
        epochs = [timeline.span(a, b) for a, b in zip(bounds, bounds[1:])]
    else:
        wall, at_reference = timeline.span(first, last)
        epochs = [(wall / cfg.epochs, at_reference / cfg.epochs)] * cfg.epochs
    validations = [timeline.span(cut, cut + 1, speed.SHORT_EVAL_KERNELS)
                   for cut in validation_cuts]
    return model, log, epochs, validations, timeline.span(first, last)


def _generate(spec: Spec, seed: int):
    cfg = data.SyntheticCorpusConfig(num_groups=spec.train_groups, seed=seed)
    return data.generate_splits(cfg, spec.train_groups, spec.val_groups,
                                spec.test_groups)


def _batch_sizes(n: int, batch: int) -> list[int]:
    """Sizes of the batches train() runs per epoch (a lone pair is skipped)."""
    return [size for size in (min(batch, n - s) for s in range(0, n, batch))
            if size >= 2]


def check_train_log(ledger: Ledger, log, spec: Spec, n_train: int,
                    prefix: str) -> None:
    """Record count, finite losses and K range of one training run."""
    sizes = _batch_sizes(n_train, spec.batch_size)
    ledger.ops(len(log.records))
    expected = spec.epochs * len(sizes)
    ledger.check(f"{prefix}.record_count", len(log.records) == expected,
                 f"{len(log.records)} records, expected {expected}")
    bad_loss = [r.iteration for r in log.records if not math.isfinite(r.loss)]
    ledger.check(f"{prefix}.finite_loss", not bad_loss,
                 f"non-finite loss at iterations {bad_loss[:5]}")
    bad_k = []
    for r in log.records:
        size = sizes[(r.iteration - r.epoch * len(sizes)) % len(sizes)]
        if r.k is None or not 1 <= r.k <= size - 1:
            bad_k.append((r.iteration, r.k, size))
    ledger.check(f"{prefix}.k_range", not bad_k,
                 f"K outside [1, B-1] at (iteration, K, B) {bad_k[:5]}")


def _tensor_digest(model, path: str) -> str:
    cache.save_tensors(path, model.tensors())
    with open(path, "rb") as fh:
        return sha256(fh.read())


def check_tensor_round_trip(ledger: Ledger, model, spec: Spec, path: str) -> None:
    """params.bin written by save_tensors must load back bit-exact."""
    loaded = cache.load_tensors(path)
    rebuilt = encoders.BiEncoder.from_tensors(loaded, *_pooling_specs(spec))
    want = model.tensors()
    got = rebuilt.tensors()
    same = want.keys() == got.keys() and all(
        np.array_equal(want[k], got[k]) for k in want)
    ledger.check("cache.tensor_round_trip", same, f"tensors from {path} differ")


def _eval_pass(model, corpus, truth, cut=lambda: None):
    """The ``adret eval`` path: encode both sides, score, rank. ``cut`` is
    called between the steps."""
    text_ids = tuple(t.id for t in corpus.texts)
    image_ids = tuple(i.id for i in corpus.images)
    t_emb = encoders.encode_all(corpus.texts, model.text)
    cut()
    v_emb = encoders.encode_all(corpus.images, model.visual)
    cut()
    scores = tensor.cosine_sim_matrix(t_emb, v_emb)
    cut()
    result = evaluation.evaluate_scores(scores, text_ids, image_ids, truth)
    return scores, result


def check_oracle(ledger: Ledger, name: str, scores, corpus, truth, result) -> None:
    """evaluate_scores must equal the counting oracle exactly, field by field."""
    want = oracle.oracle_scores(scores, tuple(t.id for t in corpus.texts),
                                tuple(i.id for i in corpus.images), truth)
    got = {k: float(getattr(result, k)) for k in want}
    ledger.check(name, got == want, f"evaluate_scores {got} != oracle {want}")


def _eval_timed(tracer, timeline, ledger: Ledger, model, corpus, truth,
                name: str, fine: bool = False):
    """One timed eval pass. ``fine`` also cuts between its steps and before
    every Recall@K, so that a pass lasting seconds follows the machine's
    speed through its length, and scales its scoring and ranking by the
    ranking kernel; short passes are cut only at their ends."""
    if not fine:
        (scores, result), span = _timed(
            tracer, timeline, name, lambda: _eval_pass(model, corpus, truth),
            speed.SHORT_EVAL_KERNELS)
    else:
        steps = []
        with _operation(tracer, name):
            first = timeline.cut()
            with _cuts_before(timeline, evaluation, "recall_at_k", []):
                scores, result = _eval_pass(model, corpus, truth,
                                            lambda: steps.append(timeline.cut()))
            last = timeline.cut()
        encoded = steps[1]  # after both encode_all calls
        encode = timeline.span(first, encoded, speed.ARRAY_KERNELS)
        rank = timeline.span(encoded, last, speed.RANK_KERNELS)
        span = (encode[0] + rank[0], encode[1] + rank[1])
    ledger.ops(len(corpus.texts) + len(corpus.images))
    return scores, result, span


def _rounds(seconds: float):
    """Yield round numbers until ``seconds`` have passed, and at least two;
    ``seconds <= 0`` asks for exactly one round.

    Each round takes every kind of sample, so short samples (set-up,
    validation eval) are spread over the whole run instead of bunched at
    its start: a shared machine's speed can drift over seconds, and samples
    taken together drift together.
    """
    begin = time.perf_counter()
    n = 0
    while n < (1 if seconds <= 0 else 2) or time.perf_counter() - begin < seconds:
        yield n
        n += 1


def _check_repeat(ledger: Ledger, first, digests: dict) -> dict:
    """Check a round's digests against the first round's; return the first."""
    if first is None:
        return digests
    ledger.check("determinism.repeat", digests == first, f"{digests} != {first}")
    return first


def run_training(spec: Spec, seed: int, seconds: float, ledger: Ledger,
                 work_dir: str, timeline, tracer=None) -> Outcome:
    out = Outcome()
    cfg = _train_config(spec, seed)
    params_path = os.path.join(work_dir, "params.bin")

    def setup():
        splits = _generate(spec, seed)
        return splits["train"], splits["val"], _init_model(spec, seed)

    first = None
    for _ in _rounds(seconds):
        for _ in range(spec.setups):
            (train_c, val_c, model0), span = _timed(tracer, timeline,
                                                    "bench.setup", setup)
            out.add("setup_s", span)
        val_arg = val_c if spec.validate else None
        with _operation(tracer, "bench.unit"):
            model, log, epochs, validations, unit = _train(
                timeline, train_c, model0, cfg, val_arg)
        out.add("unit_s", unit)
        for span in epochs:
            out.add("epoch_s", span)
        for span in validations:  # each is a validation-split eval pass
            out.add("eval_s", span)
        val_truth = data.ground_truth(val_c)
        for _ in range(spec.eval_repeats):
            scores, result, span = _eval_timed(tracer, timeline, ledger, model,
                                               val_c, val_truth, "bench.eval")
            out.add("eval_s", span)
        with _operation(tracer, "bench.check"):
            check_train_log(ledger, log, spec, len(train_c.images), "train")
            digests = {"train_log_csv": sha256(log.to_csv()),
                       "tensors": _tensor_digest(model, params_path),
                       "eval_json": sha256(result.to_json())}
            first = _check_repeat(ledger, first, digests)

    with _operation(tracer, "bench.check"):
        out.rsum = result.rsum
        check_oracle(ledger, "oracle.val_recall", scores, val_c, val_truth, result)
        if spec.validate:
            last = log.validation[-1][1] if log.validation else math.nan
            ledger.check("oracle.last_validation_rsum", last == result.rsum,
                         f"last validation RSUM {last} != {result.rsum}")
        _, init_result = _eval_pass(model0, val_c, val_truth)
        ledger.check("train.beats_init", result.rsum > init_result.rsum,
                     f"trained RSUM {result.rsum} <= untrained {init_result.rsum}")
        check_tensor_round_trip(ledger, model, spec, params_path)
    out.digests = first
    return out


def run_eval(spec: Spec, seed: int, seconds: float, ledger: Ledger,
             work_dir: str, timeline, tracer=None) -> Outcome:
    out = Outcome()
    v_spec, t_spec = _pooling_specs(spec)
    cfg = _train_config(spec, seed)
    params_path = os.path.join(work_dir, "params.bin")

    def setup():
        splits = _generate(spec, seed)
        data.save_corpus(work_dir, "test", splits["test"])
        test = data.load_corpus(work_dir, "test")
        model0 = _init_model(spec, seed)
        trained, log, epochs, _, _ = _train(timeline, splits["train"], model0,
                                            cfg, splits["val"])
        for span in epochs:
            out.add("epoch_s", span)
        cache.save_tensors(params_path, trained.tensors())
        model = encoders.BiEncoder.from_tensors(
            cache.load_tensors(params_path), v_spec, t_spec)
        return splits, test, model0, trained, model, log

    first = None
    for _ in _rounds(seconds):
        for _ in range(spec.setups):
            scores = result = None  # free the previous pass's matrices first
            (splits, test, model0, trained, model, log), span = _timed(
                tracer, timeline, "bench.setup", setup)
            out.add("setup_s", span)
        truth = data.ground_truth(test)
        scores, result, span = _eval_timed(tracer, timeline, ledger, model,
                                           test, truth, "bench.unit", fine=True)
        out.add("eval_s", span)
        out.add("unit_s", span)
        with _operation(tracer, "bench.check"):
            _check_corpus_round_trip(ledger, splits["test"], test)
            check_oracle(ledger, "oracle.test_recall", scores, test, truth, result)
            check_train_log(ledger, log, spec, len(splits["train"].images),
                            "score_model")
            digests = {"train_log_csv": sha256(log.to_csv()),
                       "tensors": _tensor_digest(trained, params_path),
                       "eval_json": sha256(result.to_json())}
            first = _check_repeat(ledger, first, digests)

    with _operation(tracer, "bench.check"):
        out.rsum = result.rsum
        check_tensor_round_trip(ledger, trained, spec, params_path)
        val_truth = data.ground_truth(splits["val"])
        _, init_result = _eval_pass(model0, splits["val"], val_truth)
        last = log.validation[-1][1]
        ledger.check("score_model.beats_init", last > init_result.rsum,
                     f"trained validation RSUM {last} <= untrained {init_result.rsum}")
    out.digests = first
    return out


def _check_corpus_round_trip(ledger: Ledger, written, loaded) -> None:
    def key(corpus):
        return [(i.modality, i.id, i.group_id, i.features.tobytes())
                for i in corpus.images + corpus.texts]
    ledger.check("cache.corpus_round_trip", key(written) == key(loaded),
                 "load_corpus did not return the corpus save_corpus wrote")


def run(spec: Spec, seed: int, seconds: float, ledger: Ledger, work_dir: str,
        probe: speed.SpeedProbe, tracer=None) -> Outcome:
    """One pass over a workload. With a tracer, the probes show as
    ``bench.probe`` spans, so no layer is charged for them."""
    os.makedirs(work_dir, exist_ok=True)
    measure = probe.measure if tracer is None else tracer.wrap(
        "bench.probe", probe.measure)
    runner = run_eval if spec.is_eval else run_training
    timeline = speed.Timeline(measure)
    out = runner(spec, seed, seconds, ledger, work_dir, timeline, tracer)
    out.probe_factors = timeline.factors
    return out
