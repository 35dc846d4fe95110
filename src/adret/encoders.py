"""Bi-encoder: linear projection into the joint space, pooling, normalization.

Each modality owns a projection (w_proj, b_proj) and pooling parameters; the
encoder is project -> pool -> ``l2_normalize_rows``, leaf to unit vector.
``batch_forward``/``batch_vjp`` run the chain for a whole batch: one
``project`` call over every row, one ``pool_forward``/``pool_vjp`` call on
the projected rows and their lengths (``pooling`` pads a ragged batch), and
one ``project_vjp`` back to the projection's parameters. The features are
fixed data: no gradient is taken with respect to them. A batch row is
bit-equal to encoding that instance alone, its B=1 batch; ``encode_all``
runs the kernel on blocks of instances of one length. ``evaluate_split``
is the one way trained models are scored on a split, a ``PreparedSplit``
built once, for eval, validation and the acceptance gate alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evaluation
from .data import Corpus, ground_truth
from .errors import DataError, DimensionError
from .pooling import PoolingSpec, PoolParams, pool_forward, pool_vjp
from .tensor import (
    Array,
    as_matrix,
    cosine_sim_matrix,
    l2_normalize_rows,
    l2_normalize_rows_vjp,
    matmul,
)


@dataclass(frozen=True)
class EncoderParams:
    w_proj: Array  # d_in x d
    b_proj: Array  # (d,)
    pool: PoolParams
    spec: PoolingSpec

    def __post_init__(self):
        w = as_matrix(self.w_proj, "w_proj")
        b = np.asarray(self.b_proj, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "w_proj", w)
        object.__setattr__(self, "b_proj", b)
        d = w.shape[1]
        if b.shape[0] != d:
            raise DimensionError(f"b_proj length {b.shape[0]} != d {d}")
        if self.pool.w_tok.shape[0] != d:
            raise DimensionError(
                f"pooling weights are for d={self.pool.w_tok.shape[0]}, "
                f"projection outputs d={d}")

    @property
    def embed_dim(self) -> int:
        return self.w_proj.shape[1]


@dataclass(frozen=True)
class BiEncoder:
    """Trainable parameters for both modalities, or their gradient.
    ``tensors``/``from_tensors`` are the one flat layout of both."""

    visual: EncoderParams
    text: EncoderParams

    def tensors(self) -> dict[str, Array]:
        """Flatten to named 2-D tensors (vectors as one-row matrices). Their
        order is the layout of the flat parameter vector that training keeps."""
        out = {}
        for name, enc in (("visual", self.visual), ("text", self.text)):
            out[f"{name}.w_proj"] = enc.w_proj
            out[f"{name}.b_proj"] = enc.b_proj[None, :]
            out[f"{name}.w_tok"] = enc.pool.w_tok
            out[f"{name}.w_bal"] = enc.pool.w_bal
        return out

    @staticmethod
    def from_tensors(tensors: dict[str, Array], visual_spec: PoolingSpec,
                     text_spec: PoolingSpec) -> "BiEncoder":
        """Rebuild from ``tensors()``'s layout; names a missing or misfit tensor."""
        def build(name: str, spec: PoolingSpec) -> EncoderParams:
            try:
                return EncoderParams(
                    w_proj=tensors[f"{name}.w_proj"],
                    b_proj=tensors[f"{name}.b_proj"].ravel(),
                    pool=PoolParams(tensors[f"{name}.w_tok"],
                                    tensors[f"{name}.w_bal"]),
                    spec=spec)
            except KeyError as exc:
                raise DataError(f"missing tensor {exc} in parameter file")
        visual, text = build("visual", visual_spec), build("text", text_spec)
        if visual.embed_dim != text.embed_dim:
            raise DimensionError(f"visual.w_proj outputs {visual.embed_dim} "
                                 f"columns, text.w_proj {text.embed_dim}")
        return BiEncoder(visual, text)


def init_encoder_params(rng: np.random.Generator, input_dim: int,
                        embed_dim: int, spec: PoolingSpec) -> EncoderParams:
    """Uniform +-1/sqrt(d_in) projection, zero bias and pooling weights.

    Zero pooling weights start the learned pooler at the mean/soft-max
    midpoint (uniform theta, equal omega), a neutral point the optimizer can
    move in any direction.
    """
    bound = 1.0 / np.sqrt(input_dim)
    w_proj = rng.uniform(-bound, bound, size=(input_dim, embed_dim))
    return EncoderParams(w_proj=w_proj, b_proj=np.zeros(embed_dim),
                         pool=PoolParams.zeros(embed_dim), spec=spec)


def project(raw: Array, w_proj: Array, b_proj: Array) -> Array:
    """Linear map into the joint space, one row per token."""
    out = matmul(raw, w_proj)
    return np.add(out, b_proj, out=out)


def project_vjp(raw: Array, grad: Array) -> tuple[Array, Array]:
    """Gradients of ``project``'s weight and bias; ``raw`` is fixed data."""
    return raw.T @ grad, grad.sum(axis=0)


ENCODE_BLOCK = 64  # instances per kernel call in encode_all


def batch_forward(features, params: EncoderParams):
    """Encode feature matrices (each M_b x d_in, M_b >= 1); returns
    (embedding matrix with a unit row per instance, cache for batch_vjp)."""
    return _forward(np.concatenate(features), [len(f) for f in features], params)


def _forward(flat: Array, lengths, params: EncoderParams):
    """``batch_forward`` of features already stacked, ``lengths`` rows each."""
    pooled, pool_cache = pool_forward(project(flat, params.w_proj, params.b_proj),
                                      params.spec, params.pool, lengths)
    embeddings = l2_normalize_rows(pooled)
    return embeddings, (flat, params, pool_cache, pooled, embeddings)


def batch_vjp(cache, d_embeddings: Array):
    """Backward through normalize -> pool -> project for a whole batch.

    Returns the parameters' gradient as an EncoderParams with their own
    shapes and spec, each tensor summed over the batch.
    """
    flat, params, pool_cache, pooled, embeddings = cache
    d_pooled = l2_normalize_rows_vjp(pooled, embeddings, d_embeddings)
    d_projected, d_w_tok, d_w_bal = pool_vjp(pool_cache, d_pooled)
    d_w_proj, d_b_proj = project_vjp(flat, d_projected)
    return EncoderParams(d_w_proj, d_b_proj, PoolParams(d_w_tok, d_w_bal),
                         params.spec)


def _blocks(instances):
    """The block plan: up to ENCODE_BLOCK instances of one length at a time, in
    order, as (indices, features stacked, lengths); the pooler pads nothing."""
    features = [inst.features for inst in instances]
    lengths = np.array([len(f) for f in features])
    for length in sorted(set(lengths.tolist())):  # np.unique loads numpy.ma
        run = np.flatnonzero(lengths == length)
        for i in range(0, len(run), ENCODE_BLOCK):
            rows = run[i:i + ENCODE_BLOCK]
            yield (rows, np.concatenate([features[j] for j in rows.tolist()]),
                   [length] * len(rows))


def _encode_blocks(blocks, n_rows: int, params: EncoderParams) -> Array:
    """Encode a block plan, each row at its instance's position."""
    out = np.empty((n_rows, params.embed_dim))
    for rows, flat, lengths in blocks:
        out[rows] = _forward(flat, lengths, params)[0]
    return out


def encode_all(instances, params: EncoderParams) -> Array:
    """Stack encodings of an instance sequence into a matrix, row per
    instance. Each of its ``_blocks`` is stacked only when its turn comes."""
    return _encode_blocks(_blocks(instances), len(instances), params)


class PreparedSplit:
    """What scoring a split needs of the split alone, built once: each side's
    stacked ``_blocks``, ids and ``evaluation.relevant_pairs``, and the truth."""

    def __init__(self, corpus: Corpus):
        if not corpus.images:
            raise ValueError("cannot score a split with no images")
        self.text_blocks = tuple(_blocks(corpus.texts))
        self.image_blocks = tuple(_blocks(corpus.images))
        texts = self.text_ids = tuple(t.id for t in corpus.texts)
        images = self.image_ids = tuple(i.id for i in corpus.images)
        truth = self.truth = ground_truth(corpus)
        self.text_pairs = evaluation.relevant_pairs(texts, images, truth)
        self.image_pairs = evaluation.relevant_pairs(images, texts, truth)


def split_scores(model: BiEncoder, split: PreparedSplit) -> Array:
    """Text-by-image cosine scores of a prepared split."""
    return cosine_sim_matrix(
        _encode_blocks(split.text_blocks, len(split.text_ids), model.text),
        _encode_blocks(split.image_blocks, len(split.image_ids), model.visual))


def evaluate_split(models: list[BiEncoder], split: PreparedSplit,
                   folds: int = 1) -> evaluation.RetrievalResult:
    """Recall@K and RSUM of ``models`` over ``folds`` image folds. Members'
    ``split_scores`` add into the first one's matrix in model order, then
    divide once: bit-equal to ``np.mean`` of the stack, without it."""
    if not models:
        raise ValueError("evaluate_split needs at least one model")
    scores = split_scores(models[0], split)
    for model in models[1:]:
        scores += split_scores(model, split)
    if len(models) > 1:
        scores /= len(models)
    if folds == 1:
        return evaluation.rank_pairs(scores, split.text_pairs, split.image_pairs)
    return evaluation.evaluate_scores(scores, split.text_ids, split.image_ids,
                                      split.truth, folds)
