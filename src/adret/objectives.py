"""Training objectives over a batch similarity matrix.

The similarity matrix S is square with text anchors on rows, images on
columns, and positives on the diagonal. Every loss contrasts each anchor,
in both retrieval directions, with its K hardest in-batch negatives.
``batch_loss``, the one loss path, checks S, takes K from
``negative_count``, marks the negatives with ``select_negatives`` (two
B x B masks, ``tensor.top_k_mask`` at each row's K-th largest value) and
applies the mode's term, which ``contrastive_loss`` applies to a pinned
selection. One kernel runs the term on each direction's similarities and
mask as dense array ops, so every sum runs in column order: the hinge
with margin over each anchor's K marked negatives, summed, or a masked
InfoNCE logsumexp, averaged, with the positive in the denominator
(saturating) or not. Each returns its gradient with respect to S too.

The adaptive mode re-derives K every batch from two batch statistics:
alignment (mean positive similarity) and uniformity (log-mean-exp of all
pairwise similarities). Both are clamped to [0, 1] and treated as plain
numbers; no gradient flows through the schedule. A cosine ramp maps their
sum onto K, so an untrained batch (sum near 0) uses nearly all in-batch
negatives and a mature one (sum near 2) only the hardest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Array, finite_matrix, top_k_mask

LOSS_MODES = ("hard-triplet", "infonce-adaptive", "infonce-fixed")


@dataclass(frozen=True)
class LossConfig:
    mode: str
    margin: float = 0.2
    temperature: float = 0.05
    fixed_k: Optional[int] = None

    def __post_init__(self):
        if self.mode not in LOSS_MODES:
            raise ConfigError(f"loss mode {self.mode!r} not one of {LOSS_MODES}")
        if not self.margin >= 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.mode == "infonce-fixed" and (self.fixed_k is None or self.fixed_k < 1):
            raise ConfigError("infonce-fixed requires fixed_k >= 1")


@dataclass(frozen=True)
class BatchMaturity:
    """Per-batch schedule record: clamped statistics and the chosen K."""

    gamma_align: float
    gamma_uniform: float
    k_selected: int


@dataclass(frozen=True)
class NegativeSelection:
    """Per-anchor negatives as two ``(B, B)`` boolean masks.

    Row i of ``text_to_image`` marks the columns (images) selected for text
    anchor i; row j of ``image_to_text``, a mask over S transposed, marks
    the rows (texts) selected for image anchor j. A row marks K cells and
    never the anchor's own index.
    """

    text_to_image: np.ndarray
    image_to_text: np.ndarray


def _square(s: Array, name: str) -> Array:
    s = finite_matrix(s, name)
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"{name} must be square, got {s.shape}")
    return s


def alignment(s: Array) -> float:
    """Mean similarity of the positive pairs (the diagonal)."""
    return float(np.mean(np.diag(s)))


def uniformity(s: Array) -> float:
    """log of the mean of e^{s_ij} over all pairs: the log-mean-exp of the
    batch's cosine similarities, in [-1, 1].

    0 when similarities hover around zero (well spread), approaching 1 as
    the batch collapses toward all-similar embeddings.
    """
    return float(np.log(np.mean(np.exp(s))))


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def adaptive_k(gamma_align: float, gamma_uniform: float, batch_size: int) -> int:
    """Map batch maturity onto a negative count via a cosine ramp.

    The statistics come clamped to [0, 1]; their sum in [0, 2] is scaled to
    [0, pi/2], cosined down to [1, 0], multiplied by the batch size and
    floored. The result is clamped to [1, batch_size - 1].
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    total = gamma_align + gamma_uniform
    k_raw = math.floor(batch_size * math.cos(total * math.pi / 4.0))
    return max(1, min(k_raw, batch_size - 1))


def negative_count(s: Array, cfg: LossConfig) -> tuple[int, Optional[BatchMaturity]]:
    """(K, maturity or None), K the negatives per anchor of cfg's mode on
    the batch ``s``: 1, min(fixed_k, B - 1), or for infonce-adaptive
    ``adaptive_k`` of the clamped statistics, recorded in the maturity."""
    if cfg.mode == "hard-triplet":
        return 1, None
    if cfg.mode == "infonce-fixed":
        return min(cfg.fixed_k, len(s) - 1), None
    gamma_a = clamp01(alignment(s))
    gamma_u = clamp01(uniformity(s))
    k = adaptive_k(gamma_a, gamma_u, len(s))
    return k, BatchMaturity(gamma_a, gamma_u, k)


def select_negatives(s: Array, k: int) -> NegativeSelection:
    """Hardest-K in-batch negatives per anchor, both directions, of an
    ``s`` already checked finite and square, as ``batch_loss`` passes it.

    Each mask row is ``tensor.top_k_mask`` of the row, the anchor's own
    positive masked to -inf, at the k-th largest value ``np.partition``
    finds: its k largest similarities, ties broken by the smaller index.
    """
    b = s.shape[0]
    if not 1 <= k <= b - 1:
        raise ValueError(f"select_negatives: k={k} outside [1, {b - 1}]")
    masked = s.copy()
    np.fill_diagonal(masked, -np.inf)
    return NegativeSelection(*(
        top_k_mask(m, np.partition(m, b - k, axis=1)[:, -k, None], k, axis=1)
        for m in (masked, masked.T)))


def _contrastive(s: Array, sel: NegativeSelection, term) -> tuple[float, Array]:
    """Sum ``term(side, pos, mask) -> (summed loss, d_pos, d_side)`` over text
    anchors (rows of ``s`` under ``text_to_image``) and image anchors (rows
    of ``s.T`` under ``image_to_text``); ``pos`` is the diagonal, ``d_side``
    the dense gradient with respect to ``side`` and ``d_pos`` more of it on
    the diagonal."""
    pos = np.diag(s)
    loss, d_pos, grad = term(s, pos, sel.text_to_image)
    value, d_pos_t, d_side = term(s.T, pos, sel.image_to_text)
    grad += d_side.T
    grad.flat[::len(s) + 1] += d_pos + d_pos_t
    return loss + value, grad


def _hinge(margin: float):
    """The hinge term: per anchor the sum over its marked negatives of
    margin - pos + the negative, where positive. An exactly-zero hinge
    contributes no gradient."""
    def term(side, pos, mask):
        h = (margin - pos)[:, None] + side
        act = mask & (h > 0)
        return float(h[act].sum()), -1.0 * act.sum(axis=1), 1.0 * act

    return term


def _logsumexp(temperature: float, positive_in_denominator: bool):
    """The InfoNCE term: per anchor logsumexp(z) - pos/tau over z = the row
    / tau under its mask, which the saturating form extends to the diagonal
    (the positive). The shift is the largest such z, the hardest negative's
    (always selected) or the positive's; every cell is exponentiated, then
    masked."""
    def term(side, pos, mask):
        scale = len(pos) * temperature
        z = side / temperature  # then shifted, exponentiated and masked in place
        if positive_in_denominator:
            mask = mask | np.eye(len(pos), dtype=bool)
        else:
            np.fill_diagonal(z, -np.inf)
        zmax = z.max(axis=1)
        z -= zmax[:, None]
        e = np.exp(z, out=z)
        e *= mask
        total = e.sum(axis=1)
        loss = float(np.sum(zmax + np.log(total) - pos / temperature))
        e /= (total * scale)[:, None]
        return loss, -1.0 / scale, e

    return term


def _loss(s: Array, sel: NegativeSelection, cfg: LossConfig) -> tuple[float, Array]:
    """cfg's term over both directions of the checked ``s`` under ``sel``:
    the hinge, summed; infonce-fixed's saturating logsumexp, averaged; or
    infonce-adaptive's negatives-only one, which never saturates: however
    far a positive clears its negatives, it keeps a constant -1/tau pull."""
    if cfg.mode == "hard-triplet":
        return _contrastive(s, sel, _hinge(cfg.margin))
    loss, grad = _contrastive(
        s, sel, _logsumexp(cfg.temperature, cfg.mode == "infonce-fixed"))
    return loss / len(grad), grad


def contrastive_loss(s: Array, sel: NegativeSelection,
                     cfg: LossConfig) -> tuple[float, Array]:
    """(loss, d_loss/d_s) of cfg's term against the pinned selection ``sel``;
    every term takes any selection, whatever K its mode's rule gives."""
    s = _square(s, "similarity matrix")
    masks = (sel.text_to_image, sel.image_to_text)
    if any(m.shape != s.shape for m in masks):
        raise DimensionError(f"selection masks are {masks[0].shape} "
                             f"and {masks[1].shape}, batch is {s.shape}")
    return _loss(s, sel, cfg)


def batch_loss(s: Array, cfg: LossConfig) -> tuple[float, Array, Optional[BatchMaturity]]:
    """(loss, d_loss/d_s, maturity or None) of cfg's loss: ``s`` checked,
    K from ``negative_count``, ``select_negatives``, then cfg's term."""
    s = _square(s, "similarity matrix")
    k, maturity = negative_count(s, cfg)
    return (*_loss(s, select_negatives(s, k), cfg), maturity)
