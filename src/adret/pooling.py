"""The pooling family: simple aggregators plus the learned adaptive pooler.

All poolers collapse an M x d feature matrix into a single d-vector. Three
fixed aggregators (mean, max, k-max) follow the sort-then-weight view of
pooling: sort each column descending, then take a fixed weighting of the
ranked rows. The adaptive pooler makes the weighting learnable twice over:

  - token level: sort columns descending, score each ranked row with a
    learned d x 1 weight vector, softmax the scores, and weight-sum the rows.
    Zero weights recover mean pooling; concentrating all mass on rank 1
    recovers max pooling.
  - embedding level: parameter-free soft maximum; each column is weighted by
    its own softmax, so large entries dominate their dimension.
  - balance: a learned convex combination of the two pooled vectors, with the
    two mixing weights produced by a softmax over learned projections.

Outputs are deliberately not normalized here; the encoder applies a single
L2 normalization at the end so the balance weights see raw magnitudes.

Every learnable path has a matching ``*_vjp`` so encoders can chain gradients
through pooling by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import (
    Array,
    as_matrix,
    as_vector,
    softmax_columns,
    softmax_columns_vjp,
    softmax_vector,
    softmax_vector_vjp,
    sort_desc_per_column,
    sort_desc_per_column_vjp,
)

POOL_METHODS = ("mean", "max", "kmax", "adpool", "manual", "fixed-balance")
MANUAL_VISUAL_K = 5  # top-K size of the hand-tuned visual baseline


@dataclass(frozen=True)
class PoolParams:
    """Trainable pooling parameters for one modality (both d x 1)."""

    w_tok: Array
    w_bal: Array

    def __post_init__(self):
        for name in ("w_tok", "w_bal"):
            w = as_matrix(getattr(self, name), name)
            if w.shape[1] != 1:
                raise DimensionError(f"{name} must be d x 1, got {w.shape}")
            object.__setattr__(self, name, w)
        if self.w_tok.shape[0] != self.w_bal.shape[0]:
            raise DimensionError(
                f"w_tok and w_bal disagree on d: {self.w_tok.shape} vs "
                f"{self.w_bal.shape}")

    @staticmethod
    def zeros(d: int) -> "PoolParams":
        return PoolParams(np.zeros((d, 1)), np.zeros((d, 1)))


@dataclass(frozen=True)
class PoolingSpec:
    """Which pooler to run and its fixed hyperparameters.

    method is one of mean | max | kmax | adpool | manual | fixed-balance.
    ``k`` applies to kmax, ``manual_mode`` ('visual' or 'text') to manual,
    ``weights`` (two nonnegative values summing to 1) to fixed-balance.
    """

    method: str
    k: Optional[int] = None
    manual_mode: Optional[str] = None
    weights: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.method not in POOL_METHODS:
            raise ConfigError(f"pooling method {self.method!r} not one of "
                              f"{POOL_METHODS}")
        if self.method == "kmax":
            if self.k is None or self.k < 1:
                raise ConfigError("kmax pooling requires a positive k")
        if self.method == "manual":
            if self.manual_mode not in ("visual", "text"):
                raise ConfigError("manual pooling requires manual_mode "
                                  "'visual' or 'text'")
        if self.method == "fixed-balance":
            if self.weights is None:
                raise ConfigError("fixed-balance pooling requires weights")
            w1, w2 = self.weights
            if not (w1 >= 0 and w2 >= 0 and abs(w1 + w2 - 1.0) <= 1e-12):
                raise ConfigError("fixed-balance weights must be nonnegative "
                                  f"and sum to 1, got ({w1}, {w2})")


@dataclass(frozen=True)
class PoolDiagnostics:
    """Learned weights exposed for inspection: theta over ranked rows,
    delta per column, omega over the two branches. Entries are None for
    poolers that do not produce them."""

    theta: Optional[Array] = None
    delta: Optional[Array] = None
    omega: Optional[Array] = None


# ---------------------------------------------------------------------------
# simple aggregators
# ---------------------------------------------------------------------------

def _check_features(f: Array) -> Array:
    f = as_matrix(f, "feature set")
    if f.shape[0] < 1:
        raise ValueError("feature set must contain at least one row")
    return f


def mean_pool(f: Array) -> Array:
    return pool_forward(f, PoolingSpec("mean"))[0]


def max_pool(f: Array) -> Array:
    return pool_forward(f, PoolingSpec("max"))[0]


def kmax_pool(f: Array, k: int) -> Array:
    """Per-column mean of the k largest values; ValueError for k outside [1, M]."""
    return _kmax_forward(f, k)[0]


# ---------------------------------------------------------------------------
# adaptive pooling: token level, embedding level, balance
# ---------------------------------------------------------------------------

def _token_forward(f: Array, w_tok: Array):
    f = _check_features(f)
    w = as_matrix(w_tok, "w_tok")
    if w.shape != (f.shape[1], 1):
        raise DimensionError(f"w_tok must be {f.shape[1]} x 1, got {w.shape}")
    ranked, perm = sort_desc_per_column(f)
    logits = (ranked @ w).ravel()
    theta = softmax_vector(logits)
    t_tok = theta @ ranked
    return t_tok, theta, (ranked, perm, theta, w)


def _token_vjp(cache, d_t: Array):
    ranked, perm, theta, w = cache
    d_ranked = theta[:, None] * d_t[None, :]
    d_theta = ranked @ d_t
    d_logits = softmax_vector_vjp(theta, d_theta)
    d_ranked += d_logits[:, None] * w.ravel()[None, :]
    d_w = (ranked.T @ d_logits)[:, None]
    d_f = sort_desc_per_column_vjp(perm, d_ranked)
    return d_f, d_w


def token_level_adpool(f: Array, w_tok: Array) -> tuple[Array, Array]:
    """Rank rows per column, learn softmax weights over the ranks, weight-sum.

    Returns the pooled vector and the weights theta (length M, sums to 1).
    """
    t_tok, theta, _ = _token_forward(f, w_tok)
    return t_tok, theta


def _embedding_forward(f: Array):
    f = _check_features(f)
    delta = softmax_columns(f)
    t_emb = (delta * f).sum(axis=0)
    return t_emb, delta, (delta, f)


def _embedding_vjp(cache, d_t: Array) -> Array:
    delta, f = cache
    d_f = delta * d_t[None, :]
    d_delta = f * d_t[None, :]
    return d_f + softmax_columns_vjp(delta, d_delta)


def embedding_level_adpool(f: Array) -> tuple[Array, Array]:
    """Parameter-free soft maximum: per-column softmax weighting.

    Returns the pooled vector and the weight matrix delta (each column sums
    to 1).
    """
    t_emb, delta, _ = _embedding_forward(f)
    return t_emb, delta


def _balance_forward(t_tok: Array, t_emb: Array, w_bal: Array):
    t_tok = as_vector(t_tok)
    t_emb = as_vector(t_emb)
    w = as_matrix(w_bal, "w_bal")
    d = t_tok.shape[0]
    if t_emb.shape[0] != d or w.shape != (d, 1):
        raise DimensionError(
            f"balance_combine: incompatible shapes t_tok {t_tok.shape}, "
            f"t_emb {t_emb.shape}, w_bal {w.shape}")
    wb = w.ravel()
    omega = softmax_vector(np.array([t_tok @ wb, t_emb @ wb]))
    t = omega[0] * t_tok + omega[1] * t_emb
    return t, omega, (t_tok, t_emb, wb, omega)


def _balance_vjp(cache, d_t: Array):
    t_tok, t_emb, wb, omega = cache
    d_omega = np.array([t_tok @ d_t, t_emb @ d_t])
    d_logits = softmax_vector_vjp(omega, d_omega)
    d_tok = omega[0] * d_t + d_logits[0] * wb
    d_emb = omega[1] * d_t + d_logits[1] * wb
    d_w = (d_logits[0] * t_tok + d_logits[1] * t_emb)[:, None]
    return d_tok, d_emb, d_w


def balance_combine(t_tok: Array, t_emb: Array, w_bal: Array) -> tuple[Array, Array]:
    """Learned convex combination of the two pooled vectors.

    Returns the combined vector and the weights omega (length 2, sums to 1).
    """
    t, omega, _ = _balance_forward(t_tok, t_emb, w_bal)
    return t, omega


def adpool(f: Array, params: PoolParams) -> tuple[Array, PoolDiagnostics]:
    """Full adaptive pooler: token level + embedding level + balance."""
    t, diag, _ = _adpool_forward(f, params)
    return t, diag


def _adpool_forward(f: Array, params: PoolParams, omega: Optional[Array] = None):
    """Adaptive pooler; a given ``omega`` replaces the learned balance
    (fixed-balance), so w_bal is unused and gets no gradient."""
    t_tok, theta, tok_cache = _token_forward(f, params.w_tok)
    t_emb, delta, emb_cache = _embedding_forward(f)
    if omega is None:
        t, omega, bal_cache = _balance_forward(t_tok, t_emb, params.w_bal)
    else:
        t, bal_cache = omega[0] * t_tok + omega[1] * t_emb, None
    diag = PoolDiagnostics(theta=theta, delta=delta, omega=omega)
    return t, diag, ("adpool", tok_cache, emb_cache, omega, bal_cache)


def _adpool_vjp(cache, d_t: Array):
    _, tok_cache, emb_cache, omega, bal_cache = cache
    if bal_cache is None:
        d_tok, d_emb, d_w_bal = omega[0] * d_t, omega[1] * d_t, np.zeros((0, 1))
    else:
        d_tok, d_emb, d_w_bal = _balance_vjp(bal_cache, d_t)
    d_f_tok, d_w_tok = _token_vjp(tok_cache, d_tok)
    d_f_emb = _embedding_vjp(emb_cache, d_emb)
    return d_f_tok + d_f_emb, d_w_tok, d_w_bal


# ---------------------------------------------------------------------------
# dispatch, with gradient support for every method
# ---------------------------------------------------------------------------

def pool(f: Array, spec: PoolingSpec, params: Optional[PoolParams] = None) -> Array:
    """Apply the pooler named by ``spec``; see pool_forward for gradients."""
    return pool_forward(f, spec, params)[0]


def pool_forward(f: Array, spec: PoolingSpec,
                 params: Optional[PoolParams] = None):
    """Run a pooler and keep what its VJP needs.

    Returns (pooled vector, PoolDiagnostics, cache); pass the cache and an
    upstream gradient to pool_vjp to get (d_features, d_w_tok, d_w_bal).
    """
    method = spec.method
    if method in ("adpool", "fixed-balance") and params is None:
        raise ConfigError(f"{method} pooling requires PoolParams")
    if method == "manual" and spec.manual_mode == "text":
        method = "mean"

    if method == "mean":
        f = _check_features(f)
        return f.mean(axis=0), PoolDiagnostics(), ("mean", f.shape)
    if method == "max":
        f = _check_features(f)
        idx = f.argmax(axis=0)
        return f[idx, np.arange(f.shape[1])], PoolDiagnostics(), ("max", f.shape, idx)
    if method == "kmax":
        return _kmax_forward(f, spec.k)
    if method == "manual":
        # hand-tuned visual baseline; clamp to the sequence length so short
        # instances stay poolable
        return _kmax_forward(f, min(MANUAL_VISUAL_K, len(f)))
    if method == "adpool":
        return _adpool_forward(f, params)
    if method == "fixed-balance":
        return _adpool_forward(f, params, np.array(spec.weights))
    raise ConfigError(f"pooling method {method!r} not one of {POOL_METHODS}")


def _kmax_forward(f: Array, k: int):
    f = _check_features(f)
    m, d = f.shape
    if not 1 <= k <= m:
        raise ValueError(f"kmax_pool: k={k} outside [1, {m}]")
    if k == m:
        # the mean branch's summation order, so kmax_pool(f, M) == mean_pool(f)
        # holds bit for bit
        return f.mean(axis=0), PoolDiagnostics(), ("mean", f.shape)
    ranked, perm = sort_desc_per_column(f)
    t = ranked[:k].sum(axis=0) / k
    t[np.isnan(ranked[-1])] = np.nan  # a NaN sorts last; keep it, as max does
    return t, PoolDiagnostics(), ("kmax", f.shape, perm[:k], k)


def pool_vjp(cache, d_t: Array):
    """Gradient of a pooled vector w.r.t. (features, w_tok, w_bal).

    Parameter gradients are zero-shaped placeholders (shape (0, 1)) for
    poolers without that parameter.
    """
    kind = cache[0]
    no_param = np.zeros((0, 1))
    if kind == "mean":
        shape = cache[1]
        d_f = np.tile(d_t / shape[0], (shape[0], 1))
        return d_f, no_param, no_param
    if kind == "max":
        shape, idx = cache[1], cache[2]
        d_f = np.zeros(shape)
        d_f[idx, np.arange(shape[1])] = d_t
        return d_f, no_param, no_param
    if kind == "kmax":
        shape, top_rows, k = cache[1], cache[2], cache[3]
        d_f = np.zeros(shape)
        np.put_along_axis(d_f, top_rows,
                          np.tile(d_t / k, (top_rows.shape[0], 1)), axis=0)
        return d_f, no_param, no_param
    if kind == "adpool":
        return _adpool_vjp(cache, d_t)
    raise ConfigError(f"unknown pooling cache kind {kind!r}")
