"""Finite-difference verification of every differentiable operation training runs.

Assembles a named check for each primitive op, the projection, each
learned-pooling stage, the encoder chain under every pooling method, and
per loss mode in ``LOSS_MODES`` its term and one composed encode ->
similarity -> loss pipeline, then runs them all against the
central-difference oracle. The row normalise has no check of its own:
every encoder and pipeline check ends in it. The pooling stages run
``pool_forward``/``pool_vjp``, rows included, and the encoder checks the
batched encoder, on ragged batches (a one-row instance next to longer
ones). The projection, encoder and pipeline checks hold the feature rows
fixed, as training does: their inputs are the parameter tensors alone.
The pipelines run the trainer's own ``training.batch_step``, so the gradient
checked is the one Adam applies; their batch holds a one-row instance and
one with a repeated row, whose projected columns all tie. The CLI's
gradcheck verb and the test suite both call ``run_all``.

A check is a (name, op, inputs) triple; ``op(*inputs)`` returns (value,
pullback), and the pullback reads only what that call computed (a package
pair's cache, or the gradient a loss or ``batch_step`` returns), so no check
runs its forward again to get a gradient.

Which negatives a loss takes is not differentiable, so every loss check
pins it: the mode's term runs through ``contrastive_loss`` on the selection
its K rule (``negative_count``) makes at the evaluation point, and a new
mode is checked with no new code. The hinge has kinks of its own, so
hard-triplet checks redraw their random inputs until the hinge argument of
every marked cell clears the perturbation size by a wide margin.
"""

from __future__ import annotations

import numpy as np

from . import pooling
from .encoders import (
    BiEncoder,
    EncoderParams,
    batch_forward,
    batch_vjp,
    project,
    project_vjp,
)
from .objectives import (LOSS_MODES, LossConfig, contrastive_loss,
                         negative_count, select_negatives)
from .pooling import PoolParams, PoolingSpec, pool_forward, pool_vjp
from .tensor import (GradCheckReport, finite_diff_check, softmax_columns,
                     softmax_columns_vjp, sort_desc_per_column,
                     sort_desc_per_column_vjp)
from .training import batch_step

_KINK_CLEARANCE = 1e-3  # required distance of a marked cell from its hinge zero

# one encoder check per pooling method, and per mode where the method has two
_ENCODE_SPECS = (
    PoolingSpec("mean"),
    PoolingSpec("max"),
    PoolingSpec("kmax", k=3),
    PoolingSpec("manual", manual_mode="visual"),
    PoolingSpec("manual", manual_mode="text"),
    PoolingSpec("fixed-balance", weights=(0.75, 0.25)),
    PoolingSpec("adpool"),
)
_ENCODE_LENGTHS = (1, 5, 6, 3)  # raised to k where kmax needs more rows
_STAGE_LENGTHS = (5, 1, 3)  # rows per instance in the pooling stage checks


def _softmax_columns(m):
    out = softmax_columns(m)
    return out, lambda grad: (softmax_columns_vjp(out, grad),)


def _sort_desc(m):
    return (sort_desc_per_column(m),
            lambda grad: (sort_desc_per_column_vjp(m, grad),))


def _cached(forward, backward):
    """The op of a package pair: ``forward(*inputs)`` returns (value, ...,
    cache) and ``backward(cache, grad)`` the input gradients."""
    def op(*inputs):
        out = forward(*inputs)
        return out[0], lambda grad: backward(out[-1], grad)

    return op


def _pool_op(spec: PoolingSpec):
    """``pool_forward``/``pool_vjp`` on rows of _STAGE_LENGTHS, then w_tok and
    w_bal; a weight the pooler does not read must get a zero gradient."""
    return _cached(lambda rows, w_tok, w_bal: pool_forward(
        rows, spec, PoolParams(w_tok, w_bal), _STAGE_LENGTHS), pool_vjp)


def _encode_op(spec: PoolingSpec, features):
    """The batched encoder on the fixed ``features`` as a function of the
    encoder parameters (w_proj, b_proj, w_tok, w_bal)."""
    def encode(w_proj, b_proj, w_tok, w_bal):
        return batch_forward(features, EncoderParams(
            w_proj=w_proj, b_proj=b_proj, pool=PoolParams(w_tok, w_bal),
            spec=spec))

    def grads(cache, d_embeddings):
        g = batch_vjp(cache, d_embeddings)
        return g.w_proj, g.b_proj, g.pool.w_tok, g.pool.w_bal

    return _cached(encode, grads)


def _pinned(s: np.ndarray, cfg: LossConfig):
    """The negatives cfg's mode selects at ``s``, to hold fixed around it."""
    return select_negatives(s, negative_count(s, cfg)[0])


def _loss_op(sel, cfg: LossConfig):
    """cfg's term under the pinned selection ``sel`` as an op on s."""
    def op(s):
        value, d_s = contrastive_loss(s, sel, cfg)
        return np.float64(value), lambda grad: (d_s * float(grad),)

    return op


def _hinge_clear(s: np.ndarray, sel, margin: float) -> bool:
    """True when every marked cell's hinge argument clears the kink zone."""
    shift = (margin - np.diag(s))[:, None]
    return all(np.abs(shift + side)[mask].min() > _KINK_CLEARANCE for side, mask
               in ((s, sel.text_to_image), (s.T, sel.image_to_text)))


def _kink_free(draw, similarity, cfg: LossConfig):
    """(x, sel): the first of up to 100 ``draw()``s where cfg's loss is smooth
    under the selection ``sel`` pinned at ``similarity(x)``. Under InfoNCE
    that is any draw, under the hinge one whose marked cells clear its kinks."""
    for _ in range(100):
        x = draw()
        s = similarity(x)
        sel = _pinned(s, cfg)
        if cfg.mode != "hard-triplet" or _hinge_clear(s, sel, cfg.margin):
            return x, sel
    raise RuntimeError("could not draw a kink-free hinge test point")


def _pipeline_check(cfg: LossConfig, texts, images, model: BiEncoder, sel):
    """encode both sides -> similarity -> cfg's term through the trainer's
    own ``batch_step``, as a function of every parameter tensor, with the
    selection pinned at ``sel``, where the model's similarity puts it.

    Returns (name, op, inputs): the inputs are ``model.tensors()``' values
    in order; the feature matrices are fixed data. cfg's loss must be
    smooth at the evaluation point.
    """
    tensors = model.tensors()
    keys = list(tensors)

    def op(*inputs):
        loss, _, grads = batch_step(BiEncoder.from_tensors(
            dict(zip(keys, inputs)), model.visual.spec, model.text.spec),
            texts, images, lambda s: (*contrastive_loss(s, sel, cfg), None))
        return np.float64(loss), lambda grad: [grads[k] * float(grad)
                                               for k in keys]

    return (f"pipeline[encode->{cfg.mode}]", op,
            [tensors[k].copy() for k in keys])


def _similarity(model: BiEncoder, texts, images) -> np.ndarray:
    """The similarity matrix ``batch_step`` scores at these parameters."""
    return batch_step(model, texts, images,
                      lambda s: (0.0, np.zeros_like(s), s))[1]


def build_checks(rng: np.random.Generator) -> list[tuple]:
    """One (name, op, inputs) check per differentiable surface, freshly
    randomized."""
    normal = rng.standard_normal
    checks = [
        ("softmax_columns", _softmax_columns, [normal((4, 3))]),
        ("sort_desc_per_column", _sort_desc, [normal((5, 3))]),
    ]

    raw = normal((4, 3))
    checks.append(("project", lambda w, b: (
        project(raw, w, b), lambda grad: project_vjp(raw, grad)),
        [normal((3, 5)), normal(5)]))
    stage_shape = (len(_STAGE_LENGTHS), max(_STAGE_LENGTHS), 4)
    real = np.arange(stage_shape[1]) < np.array(_STAGE_LENGTHS)[:, None]
    zeros = np.zeros((4, 1))
    checks.append(("token_level_adpool",
                   _pool_op(PoolingSpec("fixed-balance", weights=(1.0, 0.0))),
                   [normal(stage_shape)[real], normal((4, 1)), zeros]))
    checks.append(("embedding_level_adpool",
                   _pool_op(PoolingSpec("fixed-balance", weights=(0.0, 1.0))),
                   [normal(stage_shape)[real], zeros, zeros]))
    checks.append(("balance_combine",
                   _cached(pooling._balance_forward, pooling._balance_vjp),
                   [normal((3, 4)), normal((3, 4)), normal((4, 1))]))
    checks.append(("adpool", _pool_op(PoolingSpec("adpool")),
                   [normal(stage_shape)[real], normal((4, 1)), normal((4, 1))]))

    for spec in _ENCODE_SPECS:
        features = [normal((max(m, spec.k or 1), 3)) for m in _ENCODE_LENGTHS]
        label = "-".join(filter(None, (spec.method, spec.manual_mode)))
        checks.append((f"encode[{label}]", _encode_op(spec, features),
                       [normal((3, 5)), normal(5), normal((5, 1)),
                        normal((5, 1))]))

    # composed pipelines over a small batch of variable-length instances
    b, d_in, d = 6, 3, 4

    def ragged_side():
        side = [normal((int(rng.integers(2, 5)), d_in)) for _ in range(b)]
        side[0] = side[0][:1]
        side[1] = np.vstack([side[1], side[1][:1]])  # ties in every column
        return side

    texts, images = ragged_side(), ragged_side()
    spec = PoolingSpec("adpool")

    def draw_model():  # text, then visual; arguments are drawn left to right
        text, visual = [EncoderParams(normal((d_in, d)), normal(d), PoolParams(
            0.5 * normal((d, 1)), 0.5 * normal((d, 1))), spec) for _ in range(2)]
        return BiEncoder(visual, text)

    # per loss mode, its term on a random batch, then the pipeline
    for mode in LOSS_MODES:
        cfg = LossConfig(mode, margin=0.2, temperature=0.5, fixed_k=3)
        s, sel = _kink_free(lambda: rng.uniform(-1.0, 1.0, size=(b, b)),
                            lambda s: s, cfg)
        checks.append((f"loss[{mode}]", _loss_op(sel, cfg), [s]))
        model, sel = _kink_free(draw_model,
                                lambda m: _similarity(m, texts, images), cfg)
        checks.append(_pipeline_check(cfg, texts, images, model, sel))
    return checks


def run_all(seed: int = 0, tolerance: float = 1e-4) -> list[GradCheckReport]:
    rng = np.random.default_rng([seed, 0x6AD])
    reports = []
    for name, op, inputs in build_checks(rng):
        reports.append(finite_diff_check(name, op, inputs, tolerance=tolerance,
                                         rng=np.random.default_rng([seed, 1])))
    return reports
