"""Mini-batch training loop: Adam, stepped learning-rate decay, the batch step.

Batches pair each image with one caption sampled fresh every epoch, so the
in-batch positives are strictly one-to-one. The loop is single-threaded and
fully deterministic: one seeded generator drives shuffling and caption
choice, and every floating-point operation is ordered. The adaptive-loss
statistics (alignment, uniformity, K) are computed from the batch similarity
values and never carry gradients. A run keeps its parameters, Adam moments
and gradient as flat vectors in ``BiEncoder.tensors()`` order; the model is
views that Adam moves in place. The caption table is built once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .data import Corpus, captions_by_image
from .encoders import (BiEncoder, PreparedSplit, batch_forward, batch_vjp,
                       evaluate_split, init_encoder_params)
from .errors import ConfigError, TrainingDivergedError
from .objectives import LossConfig, batch_loss
from .tensor import Array

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    seed: Optional[int]  # None only where nothing is trained
    batch_size: int = 64
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
    """Adam's moments, flat over ``names`` in ``tensors()`` order; ``bounds``: ends."""

    m: Array
    v: Array
    names: tuple[str, ...]
    bounds: Array
    step: int = 0

    @staticmethod
    def for_tensors(tensors: dict[str, Array]) -> "AdamState":
        ends = np.cumsum([p.size for p in tensors.values()])
        return AdamState(np.zeros(ends[-1]), np.zeros(ends[-1]), tuple(tensors), ends)

    def owner(self, values: Array) -> str:
        """The tensor holding the first non-finite entry of ``values``."""
        first = np.argmin(np.isfinite(values))
        return self.names[np.searchsorted(self.bounds, first, side="right")]


def adam_step(params: Array, grads: Array, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of flat ``params`` in place; mutates
    state. All g * g are checked before any update; an error names the tensor
    of the first non-finite entry and leaves ``params`` as they were."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    with np.errstate(over="ignore"):
        state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
        # a finite v has a finite g and g * g; an inf v would stall every update
        if not np.isfinite(state.v).all():
            raise TrainingDivergedError("non-finite gradient or squared gradient "
                                        f"for parameter {state.owner(state.v)}")
        state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
        out = params - lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    if not np.isfinite(out).all():
        raise TrainingDivergedError(f"non-finite update for parameter "
                                    f"{state.owner(out)} at learning rate {lr:g}")
    params[...] = out


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


def batch_step(model: BiEncoder, text_features, image_features, loss_of):
    """Encode both sides, score ``s = T @ V.T``, take ``loss_of(s)`` and
    backpropagate it through one batched encoder pass per side.

    ``loss_of(s)`` returns (loss, d_loss/d_s, aux). Returns (loss, aux,
    grads): each side's ``batch_vjp`` gradient, summed over the batch and
    flattened by ``BiEncoder.tensors``, so keyed and shaped like
    ``model.tensors()``.
    """
    t_mat, t_cache = batch_forward(text_features, model.text)
    v_mat, v_cache = batch_forward(image_features, model.visual)
    loss, d_s, aux = loss_of(t_mat @ v_mat.T)
    grads = BiEncoder(text=batch_vjp(t_cache, d_s @ v_mat),
                      visual=batch_vjp(v_cache, d_s.T @ t_mat))
    return loss, aux, grads.tensors()


def _seed(cfg: TrainConfig) -> int:
    """``cfg.seed``; a ConfigError, not OS entropy, when it is unset."""
    if cfg.seed is None:
        raise ConfigError("missing required field train.seed")
    return cfg.seed


def build_model(cfg: ExperimentConfig) -> BiEncoder:
    """A run's initial model: stream ``[train.seed, 0]``, visual then text."""
    rng = np.random.default_rng([_seed(cfg.train), 0])
    visual = init_encoder_params(rng, cfg.corpus.visual_dim,
                                 cfg.corpus.embed_dim, cfg.visual_pooling)
    text = init_encoder_params(rng, cfg.corpus.text_dim,
                               cfg.corpus.embed_dim, cfg.text_pooling)
    return BiEncoder(visual, text)


def train(corpus: Corpus, model: BiEncoder, cfg: TrainConfig,
          val_corpus: Optional[Corpus] = None) -> tuple[BiEncoder, TrainLog]:
    """Train a copy of ``model``, never written, on (image, caption) pairs.

    A validation corpus is prepared once, before the first epoch, and its
    RSUM is computed after every epoch and appended to the log. Raises
    ConfigError when ``cfg.seed`` is unset, DataError as ``captions_by_image``
    and TrainingDivergedError (with the iteration index) on a non-finite loss.
    """
    rng = np.random.default_rng(_seed(cfg))
    if not corpus.images:
        raise ValueError("training corpus is empty")
    if cfg.batch_size > len(corpus.images):
        raise ConfigError(f"train.batch_size {cfg.batch_size} exceeds corpus "
                          f"size {len(corpus.images)}")
    captions = [[t.features for t in own] for own in captions_by_image(corpus)]
    counts = np.array([len(own) for own in captions])
    images = [img.features for img in corpus.images]
    val_split = None if val_corpus is None else PreparedSplit(val_corpus)

    tensors = model.tensors()
    state = AdamState.for_tensors(tensors)
    params = np.concatenate(list(tensors.values()), axis=None)
    views = np.split(params, state.bounds[:-1])
    model = BiEncoder.from_tensors(
        {name: v.reshape(p.shape) for (name, p), v in zip(tensors.items(), views)},
        model.visual.spec, model.text.spec)
    log = TrainLog(mode=cfg.loss.mode)
    iteration = 0

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(len(images))
        pairs = list(zip(order.tolist(), rng.integers(0, counts[order]).tolist()))
        for start in range(0, len(pairs), cfg.batch_size):
            batch = pairs[start:start + cfg.batch_size]
            if len(batch) < 2:
                continue  # a lone trailing pair has no in-batch negative
            loss, maturity, grads = batch_step(
                model, [captions[i][j] for i, j in batch],
                [images[i] for i, _ in batch], lambda s: batch_loss(s, cfg.loss))
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at iteration {iteration}")
            adam_step(params, np.concatenate(list(grads.values()), axis=None),
                      state, lr)
            log.records.append(IterationRecord(
                epoch=epoch, iteration=iteration, loss=float(loss),
                gamma_align=maturity.gamma_align if maturity else None,
                gamma_uniform=maturity.gamma_uniform if maturity else None,
                k=maturity.k_selected if maturity else None,
                lr=lr))
            iteration += 1

        if val_split is not None:
            log.validation.append((epoch, _validation_rsum(model, val_split)))

    return model, log


def _validation_rsum(model: BiEncoder, val_split: PreparedSplit) -> float:
    return evaluate_split([model], val_split).rsum
