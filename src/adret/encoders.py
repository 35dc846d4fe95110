"""Bi-encoder: linear projection into the joint space, pooling, normalization.

Each modality owns a projection (w_proj, b_proj) and pooling parameters; the
encoder is project -> pool -> L2-normalize, leaf to unit vector. The
``encode_forward`` / ``encode_vjp`` pair exposes the chain's gradient with
respect to every parameter and the raw features, which is everything the
training loop needs.
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
    as_matrix,
    as_vector,
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
        b = as_vector(self.b_proj, "b_proj")
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

    def for_modality(self, modality: str) -> EncoderParams:
        if modality == "visual":
            return self.visual
        if modality == "text":
            return self.text
        raise ValueError(f"unknown modality {modality!r}")


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


def encode_forward(features: Array, params: EncoderParams):
    """Full encoder with gradient bookkeeping; returns (unit vector, cache)."""
    projected = project(features, params.w_proj, params.b_proj)
    pooled, diag, pool_cache = pool_forward(projected, params.spec, params.pool)
    norm = float(np.sqrt(pooled @ pooled))
    if norm < ZERO_NORM_EPS:
        raise DegenerateVectorError(
            f"pooled vector has norm {norm:.3e} < {ZERO_NORM_EPS}; "
            "cannot normalize (encoder collapse?)")
    embedding = pooled / norm
    cache = (features, params, pool_cache, embedding, norm, diag)
    return embedding, cache


def encode_vjp(cache, d_embedding: Array):
    """Backward through normalize -> pool -> project.

    Returns (grads, d_features) where grads has keys w_proj, b_proj, w_tok,
    w_bal matching the parameter shapes.
    """
    features, params, pool_cache, embedding, norm, _ = cache
    d_pooled = (d_embedding - embedding * float(d_embedding @ embedding)) / norm
    d_projected, d_w_tok, d_w_bal = pool_vjp(pool_cache, d_pooled)
    if d_w_tok.size == 0:
        d_w_tok = np.zeros_like(params.pool.w_tok)
    if d_w_bal.size == 0:
        d_w_bal = np.zeros_like(params.pool.w_bal)
    grads = {
        "w_proj": features.T @ d_projected,
        "b_proj": d_projected.sum(axis=0),
        "w_tok": d_w_tok,
        "w_bal": d_w_bal,
    }
    return grads, d_projected @ params.w_proj.T


def batch_forward(features, params: EncoderParams):
    """Encode a batch of feature matrices for a backward pass.

    Returns (embedding matrix with a row per instance, per-instance caches
    for encode_vjp).
    """
    pairs = [encode_forward(f, params) for f in features]
    return np.stack([e for e, _ in pairs]), [c for _, c in pairs]


def encode(raw, params: EncoderParams) -> Array:
    """Encode a RawInstance or a bare feature matrix to a unit vector."""
    features = raw.features if isinstance(raw, RawInstance) else raw
    return encode_forward(features, params)[0]


def encode_all(instances, params: EncoderParams) -> Array:
    """Stack encodings of an instance sequence into a matrix, row per instance."""
    return np.stack([encode(inst, params) for inst in instances])
