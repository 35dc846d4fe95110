"""Bi-encoder: linear projection into the joint space, pooling, normalization.

Each modality owns a projection (w_proj, b_proj) and pooling parameters; the
encoder is project -> pool -> L2-normalize, leaf to unit vector.
``batch_forward``/``batch_vjp`` run the chain for a whole batch: one
``project`` call over every row, one ``pool_forward``/``pool_vjp`` call on
the padded (B, M_max, d) stack (see ``pooling`` for the mask), and each
instance's own feature gradient back. A batch row is bit-equal to encoding
that instance alone; ``encode_forward``/``encode_vjp``/``encode`` are the
B=1 case, and ``encode_all`` runs the kernel on blocks of instances of
near-equal length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RawInstance
from .errors import DegenerateVectorError, DimensionError
from .pooling import PoolingSpec, PoolParams, pool_forward, pool_vjp
from .tensor import (
    ZERO_NORM_EPS,
    Array,
    add_row_bias,
    add_row_bias_vjp,
    as_matrix,
    as_vector,
    matmul,
    matmul_vjp,
)


@dataclass(frozen=True)
class EncoderParams:
    w_proj: Array  # d_in x d
    b_proj: Array  # (d,)
    pool: PoolParams
    spec: PoolingSpec

    def __post_init__(self):
        w = as_matrix(self.w_proj, "w_proj")
        b = as_vector(self.b_proj)
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
    def input_dim(self) -> int:
        return self.w_proj.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w_proj.shape[1]


@dataclass(frozen=True)
class BiEncoder:
    """Trainable parameters for both modalities."""

    visual: EncoderParams
    text: EncoderParams

    def tensors(self) -> dict[str, Array]:
        """Flatten to named 2-D tensors (vectors as one-row matrices)."""
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
        def build(name: str, spec: PoolingSpec) -> EncoderParams:
            try:
                return EncoderParams(
                    w_proj=tensors[f"{name}.w_proj"],
                    b_proj=tensors[f"{name}.b_proj"].ravel(),
                    pool=PoolParams(tensors[f"{name}.w_tok"],
                                    tensors[f"{name}.w_bal"]),
                    spec=spec)
            except KeyError as exc:
                raise DimensionError(f"missing tensor {exc} in parameter file")
        return BiEncoder(build("visual", visual_spec), build("text", text_spec))


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
    return add_row_bias(matmul(raw, w_proj), b_proj)


ENCODE_BLOCK = 64  # instances per kernel call in encode_all


def batch_forward(features, params: EncoderParams):
    """Encode feature matrices (each M_b x d_in, M_b >= 1); returns
    (embedding matrix with a unit row per instance, cache for batch_vjp)."""
    rows = [as_matrix(f, "feature set") for f in features]
    lengths = np.array([len(f) for f in rows])
    valid = np.arange(lengths.max())[None, :] < lengths[:, None]
    flat = np.concatenate(rows)
    projected = np.zeros(valid.shape + (params.embed_dim,))
    projected[valid] = project(flat, params.w_proj, params.b_proj)
    pooled, _, pool_cache = pool_forward(projected, params.spec, params.pool,
                                         lengths)
    norms = np.sqrt((pooled * pooled).sum(axis=1))
    bad = ~((ZERO_NORM_EPS <= norms) & (norms < np.inf))  # NaN fails too
    if bad.any():
        b = int(bad.argmax())
        raise DegenerateVectorError(
            f"pooled vector {b} has norm {norms[b]:.3e} outside "
            f"[{ZERO_NORM_EPS}, inf); cannot normalize (encoder collapse or "
            "non-finite input?)")
    embeddings = pooled / norms[:, None]
    return embeddings, (flat, lengths, valid, params, pool_cache,
                        embeddings, norms)


def batch_vjp(cache, d_embeddings: Array):
    """Backward through normalize -> pool -> project for a whole batch.

    Returns (grads, d_features): grads has keys w_proj, b_proj, w_tok, w_bal
    matching the parameter shapes, summed over the batch; d_features holds
    one gradient per instance, shaped like its features.
    """
    flat, lengths, valid, params, pool_cache, embeddings, norms = cache
    inner = (d_embeddings * embeddings).sum(axis=1, keepdims=True)
    d_pooled = (d_embeddings - embeddings * inner) / norms[:, None]
    d_projected, d_w_tok, d_w_bal = pool_vjp(pool_cache, d_pooled)
    d_product, d_b_proj = add_row_bias_vjp(d_projected[valid])
    d_flat, d_w_proj = matmul_vjp(flat, params.w_proj, d_product)
    d_features = [d_flat[e - m:e] for e, m in zip(np.cumsum(lengths), lengths)]
    grads = {"w_proj": d_w_proj, "b_proj": d_b_proj, "w_tok": d_w_tok,
             "w_bal": d_w_bal}
    return grads, d_features


def encode_forward(features: Array, params: EncoderParams):
    """Encode one feature matrix: the B=1 batch. Returns (unit vector, cache)."""
    embeddings, cache = batch_forward([features], params)
    return embeddings[0], cache


def encode_vjp(cache, d_embedding: Array):
    """The B=1 batch_vjp: returns (grads, d_features) for one instance."""
    grads, d_features = batch_vjp(cache, np.asarray(d_embedding)[None, :])
    return grads, d_features[0]


def encode(raw, params: EncoderParams) -> Array:
    """Encode a RawInstance or a bare feature matrix to a unit vector."""
    features = raw.features if isinstance(raw, RawInstance) else raw
    return encode_forward(features, params)[0]


def encode_all(instances, params: EncoderParams) -> Array:
    """Stack encodings of an instance sequence into a matrix, row per
    instance. Instances go to the kernel ENCODE_BLOCK at a time in stable
    length order, so a block pads little, and each row lands at its
    instance's position; rows do not depend on their block."""
    features = [inst.features for inst in instances]
    order = np.argsort([len(f) for f in features], kind="stable")
    out = np.empty((len(features), params.embed_dim))
    for i in range(0, len(order), ENCODE_BLOCK):
        block = order[i:i + ENCODE_BLOCK]
        out[block] = batch_forward([features[j] for j in block], params)[0]
    return out
