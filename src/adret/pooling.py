"""The pooling family: simple aggregators plus the learned adaptive pooler.

All poolers collapse an M x d feature matrix into a single d-vector. Three
fixed aggregators (mean, max, k-max) follow the sort-then-weight view of
pooling: sort each column descending, then take a fixed weighting of the
ranked rows. Their gradient needs no second sort: ``tensor.top_k_mask``
picks the rows a stable sort puts in each column's top k. The adaptive
pooler makes the weighting learnable twice over:

  - token level: sort columns descending, score each ranked row with a
    learned d x 1 weight vector, softmax the scores, and weight-sum the rows.
    Zero weights recover mean pooling; concentrating all mass on rank 1
    recovers max pooling.
  - embedding level: parameter-free soft maximum; each column is weighted by
    its own softmax, so large entries dominate their dimension.
  - balance: the token level's shape over two rows. Stack the two pooled
    vectors, score each with a learned d x 1 weight vector, softmax the two
    scores (omega) and weight-sum the pair: a learned convex combination.

Outputs are deliberately not normalized here; the encoder applies a single
L2 normalization at the end so the balance weights see raw magnitudes.

Every kernel pools a batch of B instances. Instances of one length (each
``encoders.encode_all`` block) are the rows reshaped to (B, M, d): no
padding, no mask. Of a ragged batch (nearly every training batch) only the
sorting poolers build a padded stack. The mean family (each instance whose
top k is all its rows) is rows in, rows out (``_sum_ragged``). The top-k
poolers pad once, with NaN, the sort key; no top-k-family VJP builds a
padded gradient. Adpool pads with -0.0, the additive identity of the rank
sums: it ranks below every real row, is masked to -inf in the softmax over
ranks (theta) and the per-column softmax (delta), and gets a zero gradient.
The token branch ranks a ragged batch with one argsort (``_argrank``, the
padding keyed -inf), and its VJP scatters through that permutation, the
stable one if no real values of a column tie. Else, and for one length,
``_rank`` sorts values only (the padding keyed NaN) and the token VJP ranks
again with a stable argsort. Rank sums add in rank order
(``tensor.sum_rows``) and the sums over d of an M-row instance (theta's
logits) run elementwise along the last axis, so each row of a batch result
is bit-equal to pooling that instance alone. A NaN or infinite row makes
its instance's pooled vector non-finite, which ``l2_normalize_rows``
rejects, so the VJPs take finite rows only. One einsum or 3-D ``@`` over
the padded M x d rows would not promise this: its kernel may change with
M, which padding raises. (A stacked product of one row at a time, as in
``tensor.matmul``, would keep it.)

``pool_forward``/``pool_vjp`` are the pooling API; rows without lengths
are one instance, with unbatched results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import (
    Array,
    as_matrix,
    softmax_columns,
    softmax_columns_vjp,
    sort_desc_per_column,
    sort_desc_per_column_vjp,
    sum_rows,
    top_k_mask,
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


def _lengths(rows: Array, lengths=None):
    """(``rows`` as a matrix, ``lengths[b]`` of them per instance, checked)."""
    rows = as_matrix(rows, "feature set")
    lengths = np.asarray([len(rows)] if lengths is None else lengths)
    if lengths.size == 0 or lengths.min() < 1:
        raise ValueError("pooling needs an instance and at least one row in each")
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or lengths.sum() != len(rows):
        raise DimensionError(f"lengths {lengths} are not 1-D integers summing "
                             f"to the {len(rows)} rows")
    return rows, lengths


def _pad(rows: Array, lengths: Array, fill: float):
    """((B, M, d) stack of ``rows`` padded with ``fill``, (B, M, 1) mask of
    real rows); for one length ``rows`` reshaped, no padding, mask None."""
    if (lengths == lengths[0]).all():
        return rows.reshape(len(lengths), lengths[0], rows.shape[1]), None
    real = np.arange(lengths.max()) < lengths[:, None]
    f = np.full(real.shape + rows.shape[1:], fill)
    f[real] = rows
    return f, real[:, :, None]


def _sum_ragged(rows: Array, lengths: Array) -> Array:
    """(B, d) sums of each instance's rows in row order. Longest first, rank
    r's rows add into a prefix: bit-equal to ``sum_rows`` of the -0.0-padded
    stack, as x + -0.0 == x, zero signs too. Past one column numpy's sum
    starts from +0.0, so this does: a column of -0.0 sums to +0.0."""
    order = np.argsort(-lengths, kind="stable")
    first = (np.cumsum(lengths) - lengths)[order]
    longer = np.count_nonzero(lengths[:, None] > np.arange(1, lengths.max()), axis=0)
    out = rows[first] + (0.0 if rows.shape[1] > 1 else -0.0)
    for r, n in enumerate(longer.tolist(), 1):  # n instances are longer than r
        out[:n] += rows[first[:n] + r]
    return out[np.argsort(order)]


def _rank(f: Array, valid: Optional[Array]):
    """(columns sorted descending, padding -0.0; the sort key, padding NaN)."""
    if valid is None:
        return sort_desc_per_column(f), f
    keyed = np.where(valid, f, np.nan)
    ranked = sort_desc_per_column(keyed)
    np.copyto(ranked, -0.0, where=~valid)
    return ranked, keyed


def _argrank(f: Array, valid: Optional[Array]):
    """(columns sorted descending, padding -0.0; the flat index in ``f`` of
    each ranked entry, or None; the sort key for ``sort_desc_per_column_vjp``,
    or None; ``f`` padded with -inf, or None for one length). A padded ``f``
    takes one argsort of that, negated. Its permutation is the stable one,
    which the VJP needs, if no two real ranks tie; else, and for one length,
    ``_rank`` sorts the values."""
    masked = None
    if valid is not None:
        masked = np.where(valid, f, -np.inf)
        at = np.argsort(np.negative(masked, out=masked), axis=-2)
        np.negative(masked, out=masked)  # back again: negation is exact
        _, m, d = f.shape
        at *= d  # row index -> flat index
        at += np.arange(0, f.size, m * d)[:, None, None] + np.arange(d)
        ranked = f.reshape(-1)[at]
        tied = (ranked[:, 1:] == ranked[:, :-1]) & valid[:, 1:]
        if not tied.any():
            return ranked, at, None, masked
    ranked, keyed = _rank(f, valid)
    return ranked, None, keyed, masked


def _topk_forward(rows: Array, lengths: Array, k):
    """Per-column mean of instance b's ``k[b]`` largest values. Where k[b] is
    the length this is the mean in row order, so kmax with k = M equals
    mean bit for bit; elsewhere the top rows add in rank order."""
    k = np.broadcast_to(k, lengths.shape)
    if (k > lengths).any():
        b = int((k > lengths).argmax())
        raise ValueError(f"kmax pooling: k={k[b]} outside [1, {lengths[b]}]")
    whole = k == lengths
    if whole.all():  # rows in, rows out: no stack for a ragged batch
        t = (sum_rows(rows.reshape(len(lengths), lengths[0], rows.shape[1]))[:, 0]
             if (lengths == lengths[0]).all() else _sum_ragged(rows, lengths))
        return t / lengths[:, None], PoolDiagnostics(), ("topk", lengths, k, None)
    keyed, valid = _pad(rows, lengths, np.nan)  # the padding sorts last
    ranked = sort_desc_per_column(keyed)
    b = np.arange(len(lengths))
    kth = ranked[b, k - 1][:, None, :]
    # a NaN or -inf sorts last; keep the column non-finite, as mean does
    broken = ~np.isfinite(ranked[b, lengths - 1])
    below = np.arange(ranked.shape[1])[:, None] >= k[:, None, None]
    np.copyto(ranked, -0.0, where=below)
    t = sum_rows(ranked)[:, 0] / k[:, None]
    t[broken] = np.nan
    if whole.any():
        own = np.repeat(whole, lengths.astype(np.intp, copy=False))  # their rows
        t[whole] = _sum_ragged(rows[own], lengths[whole]) / lengths[whole, None]
    return t, PoolDiagnostics(), ("topk", lengths, k, (keyed, kth, valid))


def _topk_vjp(cache, d_t: Array) -> Array:
    """d_t / k[b] on the rows a stable descending sort puts in instance b's
    top k[b] (all its rows where k[b] is the length): ``top_k_mask`` of the
    sort key at the k-th largest value ``kth``, read at the real rows."""
    _, lengths, k, sort_key = cache
    each = lengths.astype(np.intp, copy=False)  # np.repeat takes no uint64
    if sort_key is None:
        return np.repeat(d_t / lengths[:, None], each, axis=0)
    keyed, kth, valid = sort_key
    top = top_k_mask(keyed, kth, k[:, None, None], axis=1)
    top = top.reshape(-1, top.shape[2]) if valid is None else top[valid[:, :, 0]]
    return np.where(top, np.repeat(d_t / k[:, None], each, axis=0), 0.0)


def _token_forward(f: Array, valid: Optional[Array], w_tok: Array):
    """(pooled, theta, cache, a spare buffer shaped like ``f``, ``f`` padded
    with -inf or None)."""
    w = w_tok.ravel()
    ranked, at, keyed, masked = _argrank(f, valid)
    product = ranked * w  # reused below for the theta-weighted rows
    logits = product.sum(axis=2, keepdims=True)
    logits = logits if valid is None else np.where(valid, logits, -np.inf)
    theta = softmax_columns(logits)  # (B, M, 1): a softmax down the ranks
    t_tok = sum_rows(np.multiply(theta, ranked, out=product))[:, 0]
    return t_tok, theta[:, :, 0], (ranked, at, keyed, theta, w), product, masked


def _token_vjp(cache, d_t: Array):
    ranked, at, keyed, theta, w = cache
    d_t = d_t[:, None, :]
    d_ranked = ranked * d_t  # reused below for each full-size product
    d_logits = softmax_columns_vjp(theta, d_ranked.sum(axis=2, keepdims=True))
    d_w = np.multiply(ranked, d_logits, out=d_ranked).sum(axis=(0, 1))[:, None]
    d_f = d_logits * w  # then the rows' gradient, scattered from the ranks
    d_ranked = np.multiply(theta, d_t, out=d_ranked)
    d_ranked += d_f
    if at is None:
        return sort_desc_per_column_vjp(keyed, d_ranked), d_w
    d_f.reshape(-1)[at] = d_ranked
    return d_f, d_w


def _embedding_forward(f: Array, masked: Optional[Array], top: Array,
                       spare: Array):
    """``masked``, a buffer taken over, is ``f`` padded with -inf (None for one
    length); ``top`` is each column's largest real value, the token branch's
    first ranked row, and ``spare`` its dead buffer, shaped like ``f``.
    Shifting by ``top`` instead of by the column max gives
    ``softmax_columns`` of ``f``, its padding -inf, bit for bit: the two
    differ at most in a zero's sign, and exp(+-0) = 1. A NaN makes the
    column's sum, so the whole column, NaN either way (of either sign)."""
    delta = f - top if masked is None else np.subtract(masked, top, out=masked)
    np.exp(delta, out=delta)
    np.divide(delta, sum_rows(delta), out=delta)
    return sum_rows(np.multiply(delta, f, out=spare))[:, 0], delta, (delta, f)


def _embedding_vjp(cache, d_t: Array) -> Array:
    delta, f = cache
    d_t = d_t[:, None, :]
    spare = f * d_t
    d_f = softmax_columns_vjp(delta, spare)
    d_f += np.multiply(delta, d_t, out=spare)
    return d_f


def _balance_forward(t_tok: Array, t_emb: Array, w_bal: Array):
    """Balance one pair of pooled vectors, or each row of two (B, d) stacks,
    by a softmax (omega) down the pair's two rows, stacked on axis -2."""
    rows = np.stack([t_tok, t_emb], axis=-2)
    wb = w_bal.ravel()
    omega = softmax_columns((rows * wb).sum(axis=-1, keepdims=True))
    t = sum_rows(omega * rows)[..., 0, :]
    return t, omega[..., 0], (rows, wb, omega)


def _balance_vjp(cache, d_t: Array):
    rows, wb, omega = cache
    d_t = d_t[..., None, :]
    d_logits = softmax_columns_vjp(omega, (rows * d_t).sum(axis=-1, keepdims=True))
    d_rows = omega * d_t + d_logits * wb
    d_w = sum_rows(d_logits * rows).reshape(-1, wb.size).sum(axis=0)[:, None]
    return d_rows[..., 0, :], d_rows[..., 1, :], d_w


def _adpool_forward(f: Array, valid: Optional[Array], params: PoolParams,
                    omega: Optional[Array] = None):
    """Adaptive pooler; a given ``omega`` replaces the learned balance
    (fixed-balance), so w_bal is unused and gets no gradient."""
    t_tok, theta, tok_cache, spare, masked = _token_forward(f, valid, params.w_tok)
    ranked = tok_cache[0]
    t_emb, delta, emb_cache = _embedding_forward(f, masked, ranked[:, :1], spare)
    if omega is None:
        t, omega, bal_cache = _balance_forward(t_tok, t_emb, params.w_bal)
    else:
        omega = np.broadcast_to(omega, (len(f), 2))
        t, bal_cache = omega[:, :1] * t_tok + omega[:, 1:] * t_emb, None
    diag = PoolDiagnostics(theta=theta, delta=delta, omega=omega)
    return t, diag, ("adpool", valid, tok_cache, emb_cache, omega, bal_cache)


def _adpool_vjp(cache, d_t: Array):
    _, valid, tok_cache, emb_cache, omega, bal_cache = cache
    if bal_cache is None:
        d_tok, d_emb = omega[:, :1] * d_t, omega[:, 1:] * d_t
        d_w_bal = np.zeros((d_t.shape[1], 1))
    else:
        d_tok, d_emb, d_w_bal = _balance_vjp(bal_cache, d_t)
    d_f, d_w_tok = _token_vjp(tok_cache, d_tok)
    d_f += _embedding_vjp(emb_cache, d_emb)
    d_f = d_f.reshape(-1, d_f.shape[2]) if valid is None else d_f[valid[:, :, 0]]
    return d_f, d_w_tok, d_w_bal


def pool_forward(rows: Array, spec: PoolingSpec,
                 params: Optional[PoolParams] = None, lengths=None):
    """Run a pooler on ``rows``, each instance's M_b x d rows back to back
    (one instance without ``lengths``). Returns (pooled, PoolDiagnostics,
    cache): a row per instance, diagnostics padded with 0, unbatched without
    ``lengths``; pool_vjp takes the cache and a gradient shaped like pooled.
    """
    single = lengths is None
    rows, lengths = _lengths(rows, lengths)
    method = spec.method
    if method in ("adpool", "fixed-balance"):
        if params is None:
            raise ConfigError(f"{method} pooling requires PoolParams")
        if len(params.w_tok) != rows.shape[1]:
            raise DimensionError(f"pooling weights are for d={len(params.w_tok)}, "
                                 f"rows are {rows.shape[1]}-dimensional")
        omega = None if method == "adpool" else np.array(spec.weights)
        t, diag, cache = _adpool_forward(*_pad(rows, lengths, -0.0), params, omega)
    else:
        # mean (and manual text) averages every row, max the top one; manual
        # visual clamps its top k to the length so short instances pool
        k = {"kmax": spec.k, "max": 1}.get(method, lengths)
        if method == "manual" and spec.manual_mode == "visual":
            k = np.minimum(MANUAL_VISUAL_K, lengths)
        t, diag, cache = _topk_forward(rows, lengths, k)
    if single:
        t, diag = t[0], PoolDiagnostics(*(None if x is None else x[0] for x in
                                          (diag.theta, diag.delta, diag.omega)))
    return t, diag, cache


def pool_vjp(cache, d_t: Array):
    """Gradient w.r.t. (rows, w_tok, w_bal) for ``d_t`` shaped like pooled:
    the row gradient in pool_forward's row order, d x 1 parameter gradients
    (zeros for poolers without that parameter). Only adpool's row gradient
    is gathered from a padded stack."""
    d_t = np.atleast_2d(d_t)
    if cache[0] == "adpool":
        return _adpool_vjp(cache, d_t)
    return (_topk_vjp(cache, d_t), *np.zeros((2, d_t.shape[1], 1)))
