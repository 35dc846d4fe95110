"""Dense float64 matrix operations with hand-written vector-Jacobian products.

Every operation used by the trainable pipeline comes in two parts: a pure
forward function and a matching ``*_vjp`` that maps an upstream gradient back
onto the inputs. There is no graph or tape; downstream modules chain the VJPs
by hand in reverse order. ``finite_diff_check`` is the independent oracle used
to verify every analytic gradient against central finite differences.

Conventions:
  - matrices are 2-D C-order float64 ndarrays, rows x cols
  - sorting and the column softmax act on the row axis (-2), of one matrix
    or of each matrix in a (B, M, d) stack; ``softmax_vector`` acts on the
    last axis, of one vector or of each row of a matrix
  - sorting is descending, ties broken by original row index (stable)
  - softmax is stabilized by max subtraction
  - ``matmul`` computes each output row from its own input row alone, so a
    row's bits do not depend on how many rows are stacked with it

Finiteness is checked where values enter or leave the package, not per op:
file reads and writes (``cache``), config values, loss and score matrices
(``finite_matrix``), the encoder's pooled norm, and the trainer's loss and
gradient guards. On NaN input the primitives and pooling kernels do what
numpy does: NaN propagates, and a sort ranks it below every number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateVectorError, DimensionError, EvaluationError

Array = np.ndarray

ZERO_NORM_EPS = 1e-12


def as_matrix(x, name: str = "matrix") -> Array:
    """Coerce to a C-order 2-D float64 array; DimensionError for other ndims."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return np.ascontiguousarray(m)


def finite_matrix(x, name: str = "matrix") -> Array:
    """``as_matrix`` that also raises EvaluationError on a NaN or inf entry."""
    m = as_matrix(x, name)
    # a finite sum has finite terms; finite terms give a non-finite sum only
    # by overflow, so the full-size elementwise scan runs only then
    with np.errstate(over="ignore", invalid="ignore"):
        total = m.sum()
    if not np.isfinite(total) and not np.isfinite(m).all():
        raise EvaluationError(f"{name} contains non-finite values")
    return m


def as_vector(x) -> Array:
    return np.asarray(x, dtype=np.float64).reshape(-1)


# ---------------------------------------------------------------------------
# forward / vjp pairs
# ---------------------------------------------------------------------------

def matmul(a: Array, b: Array) -> Array:
    a = as_matrix(a, "matmul lhs")
    b = as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    # not ``a @ b``: BLAS picks its kernels by shape (gemv for one row, edge
    # tiles for the rest), so a row's bits would depend on its neighbours
    return np.einsum("nk,kj->nj", a, b)


def matmul_vjp(a: Array, b: Array, grad: Array) -> tuple[Array, Array]:
    return grad @ b.T, a.T @ grad


def add_row_bias(m: Array, bias: Array) -> Array:
    """Add a row vector to every row of ``m``."""
    m = as_matrix(m, "add_row_bias input")
    bias = as_vector(bias)
    if bias.shape[0] != m.shape[1]:
        raise DimensionError(
            f"add_row_bias: bias length {bias.shape[0]} != cols {m.shape[1]}")
    return m + bias[None, :]


def add_row_bias_vjp(grad: Array) -> tuple[Array, Array]:
    return grad, grad.sum(axis=0)


def sum_rows(m: Array) -> Array:
    """Sum over the row axis (-2), kept as a length-1 axis, adding the rows
    in order whatever the other axes' sizes, so -0.0 rows appended below
    leave every sum bit-equal. numpy's ``sum`` keeps that order only while
    the last axis has two or more entries (one column it sums pairwise)."""
    if m.shape[-1] > 1:
        return m.sum(axis=-2, keepdims=True)
    return np.add.accumulate(m, axis=-2)[..., -1:, :]


def softmax_columns(m: Array) -> Array:
    """Softmax down each column (axis -2), stabilized by the column's max;
    a -inf entry gets weight exactly 0, so it can mask a padding row."""
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise ValueError("softmax_columns: empty matrix")
    e = np.exp(m - m.max(axis=-2, keepdims=True))
    return e / sum_rows(e)


def softmax_columns_vjp(out: Array, grad: Array) -> Array:
    # d/dm of sum(g * softmax(m)) = s * (g - sum_i g_i s_i), per column
    return out * (grad - sum_rows(grad * out))


def softmax_vector(v: Array) -> Array:
    """Softmax of a vector, or of each row of a matrix."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if v.size == 0:
        raise ValueError("softmax_vector: empty vector")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vector_vjp(out: Array, grad: Array) -> Array:
    return out * (grad - (grad * out).sum(axis=-1, keepdims=True))


def sort_desc_per_column(m: Array) -> tuple[Array, Array]:
    """Sort each column descending along the row axis (axis -2).

    Returns (sorted matrix, permutation); ``perm[..., i, j]`` is the original
    row index of the value now sitting at row i of column j. Ties keep their
    original order, so the permutation is deterministic; NaN sorts last.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise ValueError("sort_desc_per_column: empty matrix")
    perm = np.argsort(-m, axis=-2, kind="stable")
    return np.take_along_axis(m, perm, axis=-2), perm


def sort_desc_per_column_vjp(perm: Array, grad: Array) -> Array:
    """Scatter the upstream gradient back through the recorded permutation."""
    out = np.zeros_like(grad)
    np.put_along_axis(out, perm, grad, axis=-2)
    return out


def l2_normalize_rows(m: Array) -> Array:
    m = as_matrix(m, "l2_normalize input")
    if m.size == 0:
        raise ValueError("l2_normalize_rows: empty matrix")
    norms = np.sqrt((m * m).sum(axis=1))
    if norms.min() < ZERO_NORM_EPS:
        row = int(norms.argmin())
        raise DegenerateVectorError(
            f"row {row} has norm {norms[row]:.3e} < {ZERO_NORM_EPS}; "
            "cannot normalize (encoder collapse?)")
    return m / norms[:, None]


def l2_normalize_rows_vjp(m: Array, out: Array, grad: Array) -> Array:
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    inner = (grad * out).sum(axis=1, keepdims=True)
    return (grad - out * inner) / norms


def cosine_sim_matrix(t: Array, v: Array) -> Array:
    """Pairwise cosine similarities; rows of the result index rows of ``t``."""
    t = as_matrix(t, "similarity lhs")
    v = as_matrix(v, "similarity rhs")
    if t.shape[1] != v.shape[1]:
        raise DimensionError(
            f"cosine_sim_matrix: column counts differ, {t.shape} vs {v.shape}")
    return l2_normalize_rows(t) @ l2_normalize_rows(v).T


def cosine_sim_matrix_vjp(t: Array, v: Array, grad: Array) -> tuple[Array, Array]:
    tn = l2_normalize_rows(t)
    vn = l2_normalize_rows(v)
    dtn = grad @ vn
    dvn = grad.T @ tn
    return (l2_normalize_rows_vjp(t, tn, dtn),
            l2_normalize_rows_vjp(v, vn, dvn))


# ---------------------------------------------------------------------------
# differentiable-operation contract and the finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffOp:
    """A forward function paired with its vector-Jacobian product.

    ``forward(*inputs)`` returns an ndarray (any shape, scalars included).
    ``vjp(inputs, output, grad)`` returns one gradient per input, each with
    the shape of the corresponding input, and must be linear in ``grad``.
    """

    name: str
    forward: Callable[..., Array]
    vjp: Callable[[Sequence[Array], Array, Array], Sequence[Array]]


@dataclass(frozen=True)
class GradCheckReport:
    op_name: str
    max_rel_err: float
    tolerance: float
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{status}  {self.op_name}: max rel err {self.max_rel_err:.3e} "
                f"(tol {self.tolerance:.1e})")


def finite_diff_check(op: DiffOp, inputs: Sequence[Array],
                      tolerance: float = 1e-4, h: float = 1e-5,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare ``op.vjp`` against central finite differences.

    Perturbs every entry of every input by +-h and differentiates the scalar
    <g, forward(x)> for a random upstream gradient g. The reported error is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1)``, maximized over
    all entries (the unit floor keeps near-zero gradients from inflating a
    ratio finite differences cannot resolve anyway).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    work = [np.array(x, dtype=np.float64) for x in inputs]
    out = np.asarray(op.forward(*work), dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"{op.name}: forward produced non-finite values")
    g = rng.standard_normal(out.shape)

    analytic = op.vjp(work, out, g)
    if len(analytic) != len(work):
        raise EvaluationError(f"{op.name}: vjp returned {len(analytic)} grads "
                              f"for {len(work)} inputs")

    max_err = 0.0
    for k, x in enumerate(work):
        a = np.asarray(analytic[k], dtype=np.float64)
        if a.shape != x.shape:
            raise EvaluationError(
                f"{op.name}: vjp grad {k} has shape {a.shape}, input {x.shape}")
        numeric = np.empty_like(x)
        flat = x.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(np.sum(g * op.forward(*work)))
            flat[i] = orig - h
            fm = float(np.sum(g * op.forward(*work)))
            flat[i] = orig
            numeric.reshape(-1)[i] = (fp - fm) / (2.0 * h)
        if x.size:
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
            max_err = max(max_err, float((np.abs(a - numeric) / denom).max()))
    return GradCheckReport(op.name, max_err, tolerance, max_err <= tolerance)


# DiffOp wrappers for the primitive operations, mainly consumed by the
# gradient-check suite. Downstream code calls the plain functions directly.
MATMUL_OP = DiffOp("matmul", matmul, lambda xs, out, g: matmul_vjp(*xs, g))
ADD_ROW_BIAS_OP = DiffOp("add_row_bias", add_row_bias,
                         lambda xs, out, g: add_row_bias_vjp(g))
SOFTMAX_COLUMNS_OP = DiffOp("softmax_columns", softmax_columns,
                            lambda xs, out, g: (softmax_columns_vjp(out, g),))
SOFTMAX_VECTOR_OP = DiffOp("softmax_vector", softmax_vector,
                           lambda xs, out, g: (softmax_vector_vjp(out, g),))
SORT_DESC_OP = DiffOp(
    "sort_desc_per_column", lambda m: sort_desc_per_column(m)[0],
    lambda xs, out, g: (sort_desc_per_column_vjp(sort_desc_per_column(xs[0])[1], g),))
L2_NORMALIZE_OP = DiffOp("l2_normalize_rows", l2_normalize_rows,
                         lambda xs, out, g: (l2_normalize_rows_vjp(xs[0], out, g),))
COSINE_SIM_OP = DiffOp("cosine_sim_matrix", cosine_sim_matrix,
                       lambda xs, out, g: cosine_sim_matrix_vjp(*xs, g))

CORE_OPS = (MATMUL_OP, ADD_ROW_BIAS_OP, SOFTMAX_COLUMNS_OP, SOFTMAX_VECTOR_OP,
            SORT_DESC_OP, L2_NORMALIZE_OP, COSINE_SIM_OP)
