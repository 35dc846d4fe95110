"""Training objectives over a batch similarity matrix.

The similarity matrix S is square with text anchors on rows, images on
columns, and positives on the diagonal. Two loss families are provided:

  - hard triplet: hinge with margin against the single hardest in-batch
    negative, in both retrieval directions, summed over the batch.
  - InfoNCE over a selected negative set, averaged over the batch, in both
    directions. The denominator includes the positive term alongside the
    selected negatives, which keeps the loss nonnegative and saturating.

The adaptive variant re-derives the negative-set size K every batch from two
batch statistics: alignment (mean positive similarity) and uniformity
(log-mean-exp of all pairwise similarities). Both are clamped to [0, 1] and
treated as plain numbers; no gradient flows through the schedule. A cosine
ramp maps their sum onto K, so an untrained batch (sum near 0) uses nearly
all in-batch negatives and a mature one (sum near 2) only the hardest one.

Each loss returns its gradient with respect to S alongside the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Array, as_matrix, finite_matrix

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
    """Per-anchor negative indices as two ``(B, K)`` integer arrays.

    Row i of ``text_to_image`` holds column (image) indices for text anchor
    i; row j of ``image_to_text`` holds row (text) indices for image anchor
    j. A row never contains the anchor's own index or a repeat.
    """

    text_to_image: np.ndarray
    image_to_text: np.ndarray


def _square(s: Array, name: str) -> Array:
    s = finite_matrix(s, name)
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"{name} must be square, got {s.shape}")
    return s


def hard_triplet_loss(s: Array, margin: float) -> tuple[float, Array]:
    """Hinge against the hardest in-batch negative, both directions, summed.

    Subgradient convention: an exactly-zero hinge contributes no gradient.
    """
    s = _square(s, "similarity matrix")
    b = s.shape[0]
    if b < 2:
        raise ValueError("hard_triplet_loss needs a batch of at least 2")
    idx = np.arange(b)
    masked = np.where(np.eye(b, dtype=bool), -np.inf, s)
    jhat = masked.argmax(axis=1)  # hardest negative image per text anchor
    ihat = masked.argmax(axis=0)  # hardest negative text per image anchor
    diag = s[idx, idx]
    h_row = margin - diag + s[idx, jhat]
    h_col = margin - diag + s[ihat, idx]
    act_row = h_row > 0
    act_col = h_col > 0
    loss = float(h_row[act_row].sum() + h_col[act_col].sum())
    grad = np.zeros_like(s)
    np.add.at(grad, (idx[act_row], jhat[act_row]), 1.0)
    np.add.at(grad, (idx[act_row], idx[act_row]), -1.0)
    np.add.at(grad, (ihat[act_col], idx[act_col]), 1.0)
    np.add.at(grad, (idx[act_col], idx[act_col]), -1.0)
    return loss, grad


def alignment(s: Array) -> float:
    """Mean similarity of the positive pairs (the diagonal)."""
    return _alignment(_square(s, "similarity matrix"))


def _alignment(s: Array) -> float:
    return float(np.mean(np.diag(s)))


def uniformity(s: Array) -> float:
    """log of the mean of e^{s_ij} over all pairs.

    0 when similarities hover around zero (well spread), approaching 1 as
    the batch collapses toward all-similar embeddings.
    """
    return _uniformity(_square(s, "similarity matrix"))


def _uniformity(s: Array) -> float:
    return float(np.log(np.mean(np.exp(s))))


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def adaptive_k(gamma_align: float, gamma_uniform: float, batch_size: int) -> int:
    """Map batch maturity onto a negative count via a cosine ramp.

    Both statistics are clamped to [0, 1]; their sum in [0, 2] is scaled to
    [0, pi/2], cosined down to [1, 0], multiplied by the batch size and
    floored. The result is clamped to [1, batch_size - 1].
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    total = clamp01(gamma_align) + clamp01(gamma_uniform)
    k_raw = math.floor(batch_size * math.cos(total * math.pi / 4.0))
    return max(1, min(k_raw, batch_size - 1))


def select_negatives(s: Array, k: int) -> NegativeSelection:
    """Hardest-K in-batch negatives per anchor, both directions.

    Candidates are ranked by similarity descending with ties broken by the
    smaller index; the anchor's own positive, masked to -inf, sorts last.
    """
    s = _square(s, "similarity matrix")
    b = s.shape[0]
    if not 1 <= k <= b - 1:
        raise ValueError(f"select_negatives: k={k} outside [1, {b - 1}]")
    flipped = -np.where(np.eye(b, dtype=bool), -np.inf, s)
    return NegativeSelection(np.argsort(flipped, axis=1, kind="stable")[:, :k],
                             np.argsort(flipped.T, axis=1, kind="stable")[:, :k])


def _contrastive(s: Array, sel: NegativeSelection, temperature: float,
                 positive_in_denominator: bool) -> tuple[float, Array]:
    """Per anchor logsumexp(z) - pos/tau, z = selected negatives / tau with
    pos/tau in front for the saturating form. Image anchors use ``s.T`` and
    ``grad.T``; a row of indices has no repeats, so put_along_axis is exact."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    s = _square(s, "similarity matrix")
    b = s.shape[0]
    if len(sel.text_to_image) != b or len(sel.image_to_text) != b:
        raise DimensionError(
            f"selection covers {len(sel.text_to_image)} anchors, batch is {b}")
    idx = np.arange(b)
    scale = b * temperature
    pos = s[idx, idx] / temperature
    grad = np.zeros_like(s)
    loss = 0.0
    for sims, g, negs in ((s, grad, sel.text_to_image),
                          (s.T, grad.T, sel.image_to_text)):
        z = np.take_along_axis(sims, negs, axis=1) / temperature
        if positive_in_denominator:
            z = np.concatenate((pos[:, None], z), axis=1)
        zmax = z.max(axis=1, keepdims=True)
        e = np.exp(z - zmax)
        total = e.sum(axis=1, keepdims=True)
        loss += float(np.sum(zmax[:, 0] + np.log(total[:, 0]) - pos))
        p = e / total
        if positive_in_denominator:
            grad[idx, idx] += (p[:, 0] - 1.0) / scale
            p = p[:, 1:]
        else:
            grad[idx, idx] -= 1.0 / scale
        np.put_along_axis(g, negs, np.take_along_axis(g, negs, axis=1) + p / scale,
                          axis=1)
    return loss / b, grad


def info_nce_loss(s: Array, sel: NegativeSelection,
                  temperature: float) -> tuple[float, Array]:
    """Temperature-scaled contrastive loss over the selected negatives.

    Per anchor: -log(e^{pos/tau} / (e^{pos/tau} + sum_k e^{neg_k/tau})),
    computed via logsumexp. Each direction is averaged over the batch and the
    two directions are summed.
    """
    return _contrastive(s, sel, temperature, positive_in_denominator=True)


def negatives_only_info_nce(s: Array, sel: NegativeSelection,
                            temperature: float) -> tuple[float, Array]:
    """Contrastive ratio with only the selected negatives in the denominator.

    Per anchor: -pos/tau + logsumexp(negs/tau). Unlike info_nce_loss this
    never saturates and can go negative: the positive keeps receiving a
    constant -1/tau pull however far it already clears the negatives. That
    sustained pull is what makes the adaptive objective keep tightening
    positive pairs after the hinge-style losses have gone quiet.
    """
    return _contrastive(s, sel, temperature, positive_in_denominator=False)


def adopt_loss(s: Array, temperature: float) -> tuple[float, BatchMaturity, Array]:
    """Adaptive contrastive objective: derive K from the batch, then contrast
    each positive against its K hardest negatives.

    The maturity statistics are computed once per batch from the similarity
    values themselves and carry no gradient. The contrastive term is the
    negatives-only ratio: in matched-seed comparisons the saturating form
    loses its early-convergence advantage over the hard triplet loss, while
    this form keeps it.

    Shape and finiteness of ``s`` are checked by the two public steps it
    runs, select_negatives and the loss; the statistics computed before
    them only pick K, so a bad ``s`` still raises before any loss returns.
    """
    s = as_matrix(s, "similarity matrix")
    if s.shape[0] < 2:
        raise ValueError("adopt_loss needs a batch of at least 2")
    gamma_a = clamp01(_alignment(s))
    gamma_u = clamp01(_uniformity(s))
    k = adaptive_k(gamma_a, gamma_u, s.shape[0])
    sel = select_negatives(s, k)
    loss, grad = negatives_only_info_nce(s, sel, temperature)
    return loss, BatchMaturity(gamma_a, gamma_u, k), grad
