"""Finite-difference verification of every differentiable operation.

Assembles a named check for each primitive op, each learned-pooling stage,
the encoder chain under every pooling method, each batch loss, and one
composed encode -> similarity -> loss pipeline per training loss mode, then
runs them all against the central-difference oracle. The pipelines run the
trainer's own ``training.batch_step``, so the gradient checked is the one
Adam applies. The CLI's gradcheck verb and the test suite both call
``run_all``.

Discrete choices inside the losses (which negatives, which argmax) are not
differentiable, so the checks pin them: InfoNCE variants hold the negative
selection fixed, and triplet checks redraw their random inputs until every
hinge argument and every argmax gap clears the perturbation size by a wide
margin.
"""

from __future__ import annotations

import numpy as np

from . import pooling
from .encoders import BiEncoder, EncoderParams, encode_forward, encode_vjp, project
from .objectives import (
    adaptive_k,
    alignment,
    hard_triplet_loss,
    info_nce_loss,
    negatives_only_info_nce,
    select_negatives,
    uniformity,
)
from .pooling import PoolParams, PoolingSpec
from .tensor import (
    CORE_OPS,
    DiffOp,
    GradCheckReport,
    add_row_bias_vjp,
    finite_diff_check,
    matmul_vjp,
)
from .training import batch_step

_KINK_CLEARANCE = 1e-3  # required distance from hinge zeros and argmax ties

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


def _project_op() -> DiffOp:
    def vjp(inputs, out, grad):
        raw, w, _ = inputs
        d_m, d_b = add_row_bias_vjp(grad)
        d_raw, d_w = matmul_vjp(raw, w, d_m)
        return d_raw, d_w, d_b

    return DiffOp("project", project, vjp)


def _stage_op(name: str, forward, backward) -> DiffOp:
    """A pooling stage whose ``forward(*inputs)`` returns (value, ..., cache)
    and whose ``backward(cache, grad)`` returns the input gradients."""
    def vjp(inputs, out, grad):
        return backward(forward(*inputs)[-1], grad)

    return DiffOp(name, lambda *inputs: forward(*inputs)[0], vjp)


def _encode_op(spec: PoolingSpec) -> DiffOp:
    def params_of(w_proj, b_proj, w_tok, w_bal):
        return EncoderParams(w_proj=w_proj, b_proj=b_proj,
                             pool=PoolParams(w_tok, w_bal), spec=spec)

    def forward(f, w_proj, b_proj, w_tok, w_bal):
        return encode_forward(f, params_of(w_proj, b_proj, w_tok, w_bal))[0]

    def vjp(inputs, out, grad):
        _, cache = encode_forward(inputs[0], params_of(*inputs[1:]))
        grads, d_f = encode_vjp(cache, grad)
        return (d_f, grads["w_proj"], grads["b_proj"], grads["w_tok"],
                grads["w_bal"])

    label = spec.method
    if spec.manual_mode:
        label += f"-{spec.manual_mode}"
    return DiffOp(f"encode[{label}]", forward, vjp)


def _loss_op(name: str, loss_of) -> DiffOp:
    """A batch loss ``loss_of(s) -> (value, d_value/d_s)`` as a DiffOp on s."""
    def forward(s):
        return np.float64(loss_of(s)[0])

    def vjp(inputs, out, grad):
        return (loss_of(inputs[0])[1] * float(grad),)

    return DiffOp(name, forward, vjp)


def _triplet_safe(s: np.ndarray, margin: float) -> bool:
    """True when every hinge argument and argmax gap clears the kink zone."""
    b = s.shape[0]
    masked = np.where(np.eye(b, dtype=bool), -np.inf, s)
    row_sorted = -np.sort(-masked, axis=1)
    col_sorted = -np.sort(-masked.T, axis=1)
    gap = min(float((row_sorted[:, 0] - row_sorted[:, 1]).min()),
              float((col_sorted[:, 0] - col_sorted[:, 1]).min()))
    diag = np.diag(s)
    hinge = np.concatenate([margin - diag + row_sorted[:, 0],
                            margin - diag + col_sorted[:, 0]])
    return gap > _KINK_CLEARANCE and float(np.abs(hinge).min()) > _KINK_CLEARANCE


def _safe_triplet_matrix(rng: np.random.Generator, b: int, margin: float) -> np.ndarray:
    for _ in range(100):
        s = rng.uniform(-1.0, 1.0, size=(b, b))
        if _triplet_safe(s, margin):
            return s
    raise RuntimeError("could not draw a kink-free triplet test matrix")


def _pipeline_check(name: str, loss_of, texts, images, spec: PoolingSpec,
                    tensors: dict[str, np.ndarray]):
    """encode both sides -> similarity -> loss through the trainer's own
    ``batch_step``, as a function of every parameter tensor.

    Returns (op, inputs): the inputs are ``tensors``' values in order; the
    feature matrices are fixed data. ``loss_of(s)`` has the trainer's loss
    signature, (value, d_loss/d_s, aux), and must be smooth at the
    evaluation point.
    """
    keys = list(tensors)

    def step(inputs):
        model = BiEncoder.from_tensors(dict(zip(keys, inputs)), spec, spec)
        return batch_step(model, texts, images, loss_of)

    def forward(*inputs):
        return np.float64(step(inputs)[0])

    def vjp(inputs, out, grad):
        grads = step(inputs)[2]
        return [grads[k] * float(grad) for k in keys]

    return DiffOp(name, forward, vjp), [tensors[k].copy() for k in keys]


def _similarity(tensors, texts, images, spec: PoolingSpec) -> np.ndarray:
    """The similarity matrix ``batch_step`` scores at these parameters."""
    model = BiEncoder.from_tensors(tensors, spec, spec)
    return batch_step(model, texts, images,
                      lambda s: (0.0, np.zeros_like(s), s))[1]


def build_checks(rng: np.random.Generator) -> list[tuple[DiffOp, list[np.ndarray]]]:
    """One (op, inputs) pair per differentiable surface, freshly randomized."""
    checks: list[tuple[DiffOp, list[np.ndarray]]] = []
    normal = rng.standard_normal

    def away_from_zero(shape):
        # keep row norms comfortably above the degeneracy threshold
        return normal(shape) + 2.0 * np.sign(normal(shape))

    core_inputs = {
        "matmul": [normal((3, 4)), normal((4, 2))],
        "add_row_bias": [normal((3, 4)), normal(4)],
        "softmax_columns": [normal((4, 3))],
        "softmax_vector": [normal(5)],
        "sort_desc_per_column": [normal((5, 3))],
        "l2_normalize_rows": [away_from_zero((4, 3))],
        "cosine_sim_matrix": [away_from_zero((4, 3)), away_from_zero((5, 3))],
    }
    for op in CORE_OPS:
        checks.append((op, core_inputs[op.name]))

    checks.append((_project_op(), [normal((4, 3)), normal((3, 5)), normal(5)]))
    checks.append((_stage_op("token_level_adpool", pooling._token_forward,
                             pooling._token_vjp),
                   [normal((5, 4)), normal((4, 1))]))
    checks.append((_stage_op("embedding_level_adpool", pooling._embedding_forward,
                             lambda cache, g: (pooling._embedding_vjp(cache, g),)),
                   [normal((5, 4))]))
    checks.append((_stage_op("balance_combine", pooling._balance_forward,
                             pooling._balance_vjp),
                   [normal(4), normal(4), normal((4, 1))]))
    checks.append((_stage_op(
        "adpool",
        lambda f, w_tok, w_bal: pooling._adpool_forward(f, PoolParams(w_tok, w_bal)),
        pooling._adpool_vjp), [normal((5, 4)), normal((4, 1)), normal((4, 1))]))

    for spec in _ENCODE_SPECS:
        checks.append((_encode_op(spec),
                       [normal((6, 3)), normal((3, 5)), normal(5),
                        normal((5, 1)), normal((5, 1))]))

    margin = 0.2
    checks.append((_loss_op("hard_triplet_loss",
                            lambda sm: hard_triplet_loss(sm, margin)),
                   [_safe_triplet_matrix(rng, 5, margin)]))

    s = rng.uniform(-1.0, 1.0, size=(6, 6))
    sel = select_negatives(s, 3)
    checks.append((_loss_op("info_nce_loss",
                            lambda sm: info_nce_loss(sm, sel, 0.5)), [s]))
    s2 = rng.uniform(-1.0, 1.0, size=(6, 6))
    sel2 = select_negatives(s2, 3)
    checks.append((_loss_op("negatives_only_info_nce",
                            lambda sm: negatives_only_info_nce(sm, sel2, 0.5)),
                   [s2]))

    # composed pipelines over a small batch of variable-length instances
    b, d_in, d = 6, 3, 4
    texts = [normal((int(rng.integers(2, 5)), d_in)) for _ in range(b)]
    images = [normal((int(rng.integers(2, 5)), d_in)) for _ in range(b)]
    spec = PoolingSpec("adpool")

    def draw_tensors():
        out = {}
        for side in ("text", "visual"):
            out[f"{side}.w_proj"] = normal((d_in, d))
            out[f"{side}.b_proj"] = normal((1, d))
            out[f"{side}.w_tok"] = 0.5 * normal((d, 1))
            out[f"{side}.w_bal"] = 0.5 * normal((d, 1))
        return out

    tensors = draw_tensors()
    frozen_sel = select_negatives(_similarity(tensors, texts, images, spec), 2)
    checks.append(_pipeline_check(
        "pipeline[encode->infonce]",
        lambda sm: (*info_nce_loss(sm, frozen_sel, 0.5), None),
        texts, images, spec, tensors))

    # the adaptive objective at the K its schedule picks for this batch
    tensors = draw_tensors()
    s0 = _similarity(tensors, texts, images, spec)
    adaptive_sel = select_negatives(
        s0, adaptive_k(alignment(s0), uniformity(s0), b))
    checks.append(_pipeline_check(
        "pipeline[encode->adopt]",
        lambda sm: (*negatives_only_info_nce(sm, adaptive_sel, 0.5), None),
        texts, images, spec, tensors))

    for _ in range(100):
        tensors = draw_tensors()
        if _triplet_safe(_similarity(tensors, texts, images, spec), margin):
            break
    else:
        raise RuntimeError("could not draw kink-free pipeline parameters")
    checks.append(_pipeline_check(
        "pipeline[encode->hard_triplet]",
        lambda sm: (*hard_triplet_loss(sm, margin), None),
        texts, images, spec, tensors))
    return checks


def run_all(seed: int = 0, tolerance: float = 1e-4) -> list[GradCheckReport]:
    rng = np.random.default_rng([seed, 0x6AD])
    reports = []
    for op, inputs in build_checks(rng):
        reports.append(finite_diff_check(op, inputs, tolerance=tolerance,
                                         rng=np.random.default_rng([seed, 1])))
    return reports
