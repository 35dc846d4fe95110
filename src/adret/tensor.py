"""Dense float64 matrix operations with hand-written vector-Jacobian products.

Every differentiable operation here comes in two parts: a pure forward
function and a matching ``*_vjp`` that maps an upstream gradient back onto
the inputs. ``matmul`` is forward only: it is the kernel of
``encoders.project``, whose pair ``encoders.project_vjp`` returns the
parameter gradients training applies. There is no graph or tape; downstream
modules chain the VJPs by hand in reverse order. ``finite_diff_check`` is the
independent oracle used to verify every analytic gradient against central
finite differences. It takes an op of one shape: ``op(*inputs)`` returns
``(value, pullback)``, and ``pullback(grad)`` returns one gradient per input,
from what that call already computed; ``gradcheck`` builds one such op per
checked surface from these pairs.

Conventions:
  - matrices are 2-D C-order float64 ndarrays, rows x cols
  - sorting and the softmax act on the row axis (-2), of one matrix or of
    each matrix in a (B, M, d) stack; ``pooling`` runs both of its learned
    weightings on ``softmax_columns``: theta down the ranks, omega down the
    balance's two rows
  - sorting is descending; the forward returns values only, and its VJP
    ranks again, breaking ties by original row index (stable). ``pooling``
    calls the VJP only where it cannot scatter through its own forward's
    permutation: a ragged batch with no ties and no NaN or inf ranks once
  - softmax is stabilized by max subtraction
  - ``matmul`` runs one BLAS gemv per row, so row ``i`` of ``matmul(a, b)``
    is bit-equal to ``a[i] @ b``: a row's bits do not depend on how many
    rows are stacked with it

Finiteness is checked where values enter or leave the package, not per op:
file reads and writes (``cache``), config values, loss matrices
(``finite_matrix``), score matrices (``finite_matrix`` on each block of rows
as ``evaluation`` ranks it, not in a pass of their own), the row norms in
``l2_normalize_rows`` (the encoder's last step), and the trainer's loss,
gradient and update guards. On NaN input the primitives and pooling kernels
do what numpy does: NaN propagates, and a sort ranks it below every number.
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


# ---------------------------------------------------------------------------
# forward / vjp pairs
# ---------------------------------------------------------------------------

def matmul(a: Array, b: Array) -> Array:
    a = as_matrix(a, "matmul lhs")
    b = as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    # one BLAS gemv per row, so row i is bit-equal to ``a[i] @ b``; not
    # ``a @ b``, whose gemm picks kernels by shape (edge tiles for the last
    # rows), so a row's bits would depend on its neighbours
    return np.matmul(a[:, None, :], b)[:, 0]


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
    d = grad - sum_rows(grad * out)
    d *= out
    return d


def sort_desc_per_column(m: Array) -> Array:
    """Sort each column descending along the row axis (axis -2), NaN last;
    values only (equal values are interchangeable, up to a zero's sign)."""
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise ValueError("sort_desc_per_column: empty matrix")
    out = np.negative(m)  # -np.sort(-m) in one new array
    out.sort(axis=-2)
    return np.negative(out, out=out)


def sort_desc_per_column_vjp(m: Array, grad: Array) -> Array:
    """Scatter the upstream gradient back to the rows of ``m`` it was sorted
    from; a stable argsort keeps tied rows in their original order."""
    out = np.empty_like(grad)  # the permutation writes every slot
    perm = np.argsort(-np.asarray(m, dtype=np.float64), axis=-2, kind="stable")
    np.put_along_axis(out, perm, grad, axis=-2)
    return out


def l2_normalize_rows(m: Array) -> Array:
    """Scale each row to unit length; DegenerateVectorError names the first
    row whose norm is below ZERO_NORM_EPS, infinite or NaN."""
    m = as_matrix(m, "l2_normalize input")
    if m.size == 0:
        raise ValueError("l2_normalize_rows: empty matrix")
    with np.errstate(over="ignore"):  # an overflow is an infinite norm
        norms = np.sqrt((m * m).sum(axis=1))
    bad = ~((ZERO_NORM_EPS <= norms) & (norms < np.inf))  # NaN fails too
    if bad.any():
        row = int(bad.argmax())
        raise DegenerateVectorError(
            f"row {row} has norm {norms[row]:.3e} outside [{ZERO_NORM_EPS}, "
            "inf); cannot normalize (encoder collapse or non-finite input?)")
    return m / norms[:, None]


def l2_normalize_rows_vjp(m: Array, out: Array, grad: Array) -> Array:
    """Gradient through ``out = l2_normalize_rows(m)``."""
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    inner = (grad * out).sum(axis=1, keepdims=True)
    return (grad - out * inner) / norms


def cosine_sim_matrix(t: Array, v: Array) -> Array:
    """Pairwise cosine similarities; rows of the result index rows of ``t``."""
    t, v = l2_normalize_rows(t), l2_normalize_rows(v)
    if t.shape[1] != v.shape[1]:
        raise DimensionError(
            f"cosine_sim_matrix: column counts differ, {t.shape} vs {v.shape}")
    return t @ v.T


# ---------------------------------------------------------------------------
# the finite-difference oracle
# ---------------------------------------------------------------------------

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


def finite_diff_check(name: str, op: Callable, inputs: Sequence[Array],
                      tolerance: float = 1e-4, h: float = 1e-5,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare ``op``'s pullback against central finite differences.

    ``op(*inputs)`` returns (value, pullback), a value of any shape and a
    map from a gradient shaped like it to one gradient per input, shaped
    like that input. For a random upstream gradient g the pullback runs
    once, before any input entry is perturbed; then <g, value> is
    differentiated by perturbing each entry by +-h, two more ``op`` calls
    per entry. The reported error is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1)``, maximized over
    all entries (the unit floor keeps near-zero gradients from inflating a
    ratio finite differences cannot resolve anyway).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    work = [np.array(x, dtype=np.float64) for x in inputs]
    value, pullback = op(*work)
    out = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"{name}: forward produced non-finite values")
    g = rng.standard_normal(out.shape)

    analytic = [np.asarray(a, dtype=np.float64) for a in pullback(g)]
    if len(analytic) != len(work):
        raise EvaluationError(f"{name}: pullback returned {len(analytic)} "
                              f"grads for {len(work)} inputs")

    max_err = 0.0
    for k, (a, x) in enumerate(zip(analytic, work)):
        if a.shape != x.shape:
            raise EvaluationError(
                f"{name}: pullback grad {k} has shape {a.shape}, input {x.shape}")
        numeric = np.empty_like(x)
        flat = x.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(np.sum(g * op(*work)[0]))
            flat[i] = orig - h
            fm = float(np.sum(g * op(*work)[0]))
            flat[i] = orig
            numeric.reshape(-1)[i] = (fp - fm) / (2.0 * h)
        if x.size:
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
            max_err = max(max_err, float((np.abs(a - numeric) / denom).max()))
    return GradCheckReport(name, max_err, tolerance, max_err <= tolerance)
