"""Mini-batch training loop: Adam, stepped learning-rate decay, loss dispatch.

Batches pair each image with one caption sampled fresh every epoch, so the
in-batch positives are strictly one-to-one. The loop is single-threaded and
fully deterministic: one seeded generator drives shuffling and caption
choice, and every floating-point operation is ordered. The adaptive-loss
statistics (alignment, uniformity, K) are computed from the batch similarity
values and never carry gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Corpus, ground_truth
from .encoders import BiEncoder, batch_forward, batch_vjp
from .errors import ConfigError, TrainingDivergedError
from .objectives import LossConfig, adopt_loss, hard_triplet_loss, info_nce_loss, select_negatives
from .tensor import Array

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    seed: int
    batch_size: int = 128
    epochs: int = 25
    lr: float = 5e-4
    lr_decay_every: int = 15
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError(f"train.batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"train.epochs must be >= 0, got {self.epochs}")
        if not self.lr > 0:
            raise ConfigError(f"train.lr must be > 0, got {self.lr}")
        if self.lr_decay_every < 1:
            raise ConfigError("train.lr_decay_every must be >= 1")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigError("train.lr_decay_factor must be in (0, 1]")


@dataclass
class AdamState:
    """First/second-moment accumulators mirroring the parameter dict."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0

    @staticmethod
    def for_tensors(tensors: dict[str, Array]) -> "AdamState":
        return AdamState(m={k: np.zeros_like(p) for k, p in tensors.items()},
                         v={k: np.zeros_like(p) for k, p in tensors.items()})


def adam_step(params: dict[str, Array], grads: dict[str, Array],
              state: AdamState, lr: float) -> dict[str, Array]:
    """One bias-corrected Adam update; mutates state, returns new params."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    out = {}
    for name, p in params.items():
        g = grads[name]
        with np.errstate(over="ignore"):
            state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        # a finite v has a finite g and g * g; an inf v would stall every update
        if not np.all(np.isfinite(state.v[name])):
            raise TrainingDivergedError(
                f"non-finite gradient or squared gradient for parameter {name}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Stepped decay: multiply by the decay factor every decay interval."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


@dataclass(frozen=True)
class IterationRecord:
    epoch: int
    iteration: int
    loss: float
    gamma_align: Optional[float]
    gamma_uniform: Optional[float]
    k: Optional[int]
    lr: float


@dataclass
class TrainLog:
    mode: str
    records: list[IterationRecord] = field(default_factory=list)
    validation: list[tuple[int, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        def fmt(x) -> str:
            return "" if x is None else repr(float(x))

        lines = ["epoch,iter,loss,gamma_align,gamma_uniform,k,lr"]
        for r in self.records:
            k = "" if r.k is None else str(r.k)
            lines.append(f"{r.epoch},{r.iteration},{fmt(r.loss)},"
                         f"{fmt(r.gamma_align)},{fmt(r.gamma_uniform)},{k},{fmt(r.lr)}")
        for epoch, rsum in self.validation:
            lines.append(f"{epoch},-1,{fmt(rsum)},,,,")
        return "\n".join(lines) + "\n"


def k_history(log: TrainLog) -> list[tuple[int, int]]:
    """The (iteration, K) series of an adaptive-mode log."""
    if log.mode != "infonce-adaptive":
        raise ConfigError(f"k_history needs an adaptive-mode log, got {log.mode!r}")
    return [(r.iteration, r.k) for r in log.records]


def _batch_loss(s: Array, loss_cfg: LossConfig):
    """Dispatch to the configured loss; returns (loss, grad, maturity-or-None)."""
    if loss_cfg.mode == "hard-triplet":
        loss, grad = hard_triplet_loss(s, loss_cfg.margin)
        return loss, grad, None
    if loss_cfg.mode == "infonce-adaptive":
        loss, maturity, grad = adopt_loss(s, loss_cfg.temperature)
        return loss, grad, maturity
    k = min(loss_cfg.fixed_k, s.shape[0] - 1)
    sel = select_negatives(s, k)
    loss, grad = info_nce_loss(s, sel, loss_cfg.temperature)
    return loss, grad, None


def batch_step(model: BiEncoder, text_features, image_features, loss_of):
    """Encode both sides, score ``s = T @ V.T``, take ``loss_of(s)`` and
    backpropagate it through one batched encoder pass per side.

    ``loss_of(s)`` returns (loss, d_loss/d_s, aux). Returns (loss, aux,
    grads) with grads keyed and shaped like ``model.tensors()``, each summed
    over the batch.
    """
    t_mat, t_cache = batch_forward(text_features, model.text)
    v_mat, v_cache = batch_forward(image_features, model.visual)
    loss, d_s, aux = loss_of(t_mat @ v_mat.T)
    shapes = {k: p.shape for k, p in model.tensors().items()}
    grads = {}
    for side, cache, d_emb in (("text", t_cache, d_s @ v_mat),
                               ("visual", v_cache, d_s.T @ t_mat)):
        for k, g in batch_vjp(cache, d_emb)[0].items():
            grads[f"{side}.{k}"] = g.reshape(shapes[f"{side}.{k}"])
    return loss, aux, grads


def train(corpus: Corpus, model: BiEncoder, cfg: TrainConfig,
          val_corpus: Optional[Corpus] = None) -> tuple[BiEncoder, TrainLog]:
    """Train the bi-encoder on (image, caption) pairs.

    If a validation corpus is given, its RSUM is computed after every epoch
    and appended to the log. Raises TrainingDivergedError (with the
    iteration index) on a non-finite loss.
    """
    if not corpus.images:
        raise ValueError("training corpus is empty")
    if cfg.batch_size > len(corpus.images):
        raise ConfigError(f"train.batch_size {cfg.batch_size} exceeds corpus "
                          f"size {len(corpus.images)}")
    captions_of: dict[str, list] = {img.group_id: [] for img in corpus.images}
    for txt in corpus.texts:
        captions_of[txt.group_id].append(txt)

    visual_spec = model.visual.spec
    text_spec = model.text.spec
    tensors = model.tensors()
    state = AdamState.for_tensors(tensors)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog(mode=cfg.loss.mode)
    iteration = 0

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(len(corpus.images))
        pick = rng.integers(0, [len(captions_of[corpus.images[i].group_id])
                                for i in order])
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            if len(batch) < 2:
                continue  # a lone trailing pair has no in-batch negative
            images = [corpus.images[i] for i in batch]
            texts = [captions_of[img.group_id][pick[start + j]]
                     for j, img in enumerate(images)]
            loss, maturity, grads = batch_step(
                BiEncoder.from_tensors(tensors, visual_spec, text_spec),
                [t.features for t in texts], [i.features for i in images],
                lambda s: _batch_loss(s, cfg.loss))
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at iteration {iteration}")
            tensors = adam_step(tensors, grads, state, lr)
            log.records.append(IterationRecord(
                epoch=epoch, iteration=iteration, loss=float(loss),
                gamma_align=maturity.gamma_align if maturity else None,
                gamma_uniform=maturity.gamma_uniform if maturity else None,
                k=maturity.k_selected if maturity else None,
                lr=lr))
            iteration += 1

        if val_corpus is not None:
            log.validation.append((epoch, _validation_rsum(
                BiEncoder.from_tensors(tensors, visual_spec, text_spec),
                val_corpus)))

    return BiEncoder.from_tensors(tensors, visual_spec, text_spec), log


def _validation_rsum(model: BiEncoder, val_corpus: Corpus) -> float:
    from .evaluation import EmbeddingSet, evaluate
    from .encoders import encode_all

    texts = EmbeddingSet(encode_all(val_corpus.texts, model.text),
                         tuple(t.id for t in val_corpus.texts))
    images = EmbeddingSet(encode_all(val_corpus.images, model.visual),
                          tuple(i.id for i in val_corpus.images))
    return evaluate(texts, images, ground_truth(val_corpus)).rsum
