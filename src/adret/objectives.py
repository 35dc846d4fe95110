"""Training objectives over a batch similarity matrix.

The similarity matrix S is square with text anchors on rows, images on
columns, and positives on the diagonal. Every loss contrasts each anchor,
in both retrieval directions, with its K hardest in-batch negatives.
``select_negatives`` marks them in two B x B masks without a ranking: the
values above each row's K-th largest, then, as ties go to the smaller
index, the first ones equal to it. One kernel runs the loss's per-anchor
term on each direction's similarities and mask as dense array ops, so every
sum runs in column order. The hard triplet is the K = 1 hinge with margin,
summed over the batch; InfoNCE is a masked logsumexp averaged over the
batch, and its saturating form puts the positive in the denominator next to
the negatives, which keeps it nonnegative.

The adaptive variant re-derives the negative-set size K every batch from two
batch statistics: alignment (mean positive similarity) and uniformity
(log-mean-exp of all pairwise similarities). Both are clamped to [0, 1] and
treated as plain numbers; no gradient flows through the schedule. A cosine
ramp maps their sum onto K, so an untrained batch (sum near 0) uses nearly
all in-batch negatives and a mature one (sum near 2) only the hardest one.
``batch_loss`` maps each loss mode onto its K. Each loss returns its
gradient with respect to S alongside the value.
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
    """log of the mean of e^{s_ij} over all pairs.

    0 when similarities hover around zero (well spread), approaching 1 as
    the batch collapses toward all-similar embeddings.
    """
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

    Each mask row marks what a stable descending sort of the row, with the
    anchor's own positive masked to -inf, puts first: its k largest
    similarities, ties broken by the smaller index.
    """
    s = _square(s, "similarity matrix")
    b = s.shape[0]
    if not 1 <= k <= b - 1:
        raise ValueError(f"select_negatives: k={k} outside [1, {b - 1}]")
    masked = s.copy()
    np.fill_diagonal(masked, -np.inf)
    return NegativeSelection(_hardest(masked, k), _hardest(masked.T, k))


def _hardest(masked: Array, k: int) -> Array:
    """Mask of each row's k largest values, found without a sort: those at
    or above the k-th largest value ``kth``. Only in rows where more than k
    reach it do the ties at ``kth`` go, in index order, to the places left
    by the values above it."""
    kth = np.partition(masked, masked.shape[1] - k, axis=1)[:, -k, None]
    top = masked >= kth
    surplus = top.sum(axis=1, dtype=np.int32) > k
    if surplus.any():
        rows, kth = masked[surplus], kth[surplus]
        above, tie = rows > kth, rows == kth
        need = k - above.sum(axis=1, keepdims=True, dtype=np.int32)
        top[surplus] = above | (tie & (np.cumsum(tie, axis=1, dtype=np.int32)
                                       <= need))
    return top


def _contrastive(s: Array, sel: NegativeSelection, term) -> tuple[float, Array]:
    """Sum ``term(side, pos, mask) -> (summed loss, d_pos, d_side)`` over text
    anchors (rows of ``s`` under ``text_to_image``) and image anchors (rows
    of ``s.T`` under ``image_to_text``); ``pos`` is the diagonal, ``d_side``
    the dense gradient with respect to ``side`` and ``d_pos`` more of it on
    the diagonal."""
    s = _square(s, "similarity matrix")
    if sel.text_to_image.shape != s.shape or sel.image_to_text.shape != s.shape:
        raise DimensionError(f"selection masks are {sel.text_to_image.shape} "
                             f"and {sel.image_to_text.shape}, batch is {s.shape}")
    pos = np.diag(s)
    loss, d_pos, grad = term(s, pos, sel.text_to_image)
    value, d_pos_t, d_side = term(s.T, pos, sel.image_to_text)
    grad += d_side.T
    grad.flat[::len(s) + 1] += d_pos + d_pos_t
    return loss + value, grad


def hard_triplet_loss(s: Array, margin: float) -> tuple[float, Array]:
    """Hinge against the hardest in-batch negative, both directions, summed.

    Subgradient convention: an exactly-zero hinge contributes no gradient.
    """
    s = as_matrix(s, "similarity matrix")
    if s.shape[0] < 2:
        raise ValueError("hard_triplet_loss needs a batch of at least 2")

    def hinge(side, pos, mask):
        h = margin - pos + side[mask]
        act = h > 0
        return float(h[act].sum()), -1.0 * act, 1.0 * (mask & act[:, None])

    return _contrastive(s, select_negatives(s, 1), hinge)


def _logsumexp(temperature: float, positive_in_denominator: bool):
    """The InfoNCE term: per anchor logsumexp(z) - pos/tau over z = the row
    / tau under its mask, which the saturating form extends to the diagonal
    (the positive). The shift is the largest such z, the hardest negative's
    (always selected) or the positive's; every cell is exponentiated, then
    masked."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")

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


def info_nce_loss(s: Array, sel: NegativeSelection,
                  temperature: float) -> tuple[float, Array]:
    """Temperature-scaled contrastive loss over the selected negatives.

    Per anchor: -log(e^{pos/tau} / (e^{pos/tau} + sum_k e^{neg_k/tau})),
    computed via logsumexp. Each direction is averaged over the batch and the
    two directions are summed.
    """
    loss, grad = _contrastive(s, sel, _logsumexp(temperature, True))
    return loss / len(grad), grad


def negatives_only_info_nce(s: Array, sel: NegativeSelection,
                            temperature: float) -> tuple[float, Array]:
    """Contrastive ratio with only the selected negatives in the denominator.

    Per anchor: -pos/tau + logsumexp(negs/tau). Unlike info_nce_loss this
    never saturates and can go negative: the positive keeps receiving a
    constant -1/tau pull however far it already clears the negatives. That
    sustained pull is what makes the adaptive objective keep tightening
    positive pairs after the hinge-style losses have gone quiet.
    """
    loss, grad = _contrastive(s, sel, _logsumexp(temperature, False))
    return loss / len(grad), grad


def adopt_loss(s: Array, temperature: float) -> tuple[float, BatchMaturity, Array]:
    """Adaptive contrastive objective: derive K from the batch, then contrast
    each positive against its K hardest negatives.

    The maturity statistics are computed once per batch from the similarity
    values themselves and carry no gradient. The contrastive term is the
    negatives-only ratio: in matched-seed comparisons the saturating form
    loses its early-convergence advantage over the hard triplet loss, while
    this form keeps it.
    """
    s = as_matrix(s, "similarity matrix")
    gamma_a = clamp01(alignment(s))
    gamma_u = clamp01(uniformity(s))
    k = adaptive_k(gamma_a, gamma_u, s.shape[0])
    sel = select_negatives(s, k)
    loss, grad = negatives_only_info_nce(s, sel, temperature)
    return loss, BatchMaturity(gamma_a, gamma_u, k), grad


def batch_loss(s: Array, cfg: LossConfig) -> tuple[float, Array, Optional[BatchMaturity]]:
    """(loss, d_loss/d_s, maturity or None) of the configured loss, whose K
    is 1 (hard-triplet), min(fixed_k, B - 1) or adaptive_k's pick."""
    if cfg.mode == "infonce-adaptive":
        loss, maturity, grad = adopt_loss(s, cfg.temperature)
        return loss, grad, maturity
    if cfg.mode == "hard-triplet":
        return (*hard_triplet_loss(s, cfg.margin), None)
    sel = select_negatives(s, min(cfg.fixed_k, len(s) - 1))
    return (*info_nce_loss(s, sel, cfg.temperature), None)
