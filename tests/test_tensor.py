"""Core matrix ops: worked examples, invariants, and the gradient oracle."""

import math

import numpy as np
import pytest

from adret.errors import DegenerateVectorError, DimensionError, EvaluationError
from adret.tensor import (
    cosine_sim_matrix,
    finite_diff_check,
    finite_matrix,
    l2_normalize_rows,
    matmul,
    softmax_columns,
    softmax_columns_vjp,
    sort_desc_per_column,
    sort_desc_per_column_vjp,
)


class TestMatmul:
    def test_identity(self):
        out = matmul([[1, 0], [0, 1]], [[3], [4]])
        np.testing.assert_array_equal(out, [[3], [4]])

    def test_hand_arithmetic(self):
        np.testing.assert_array_equal(matmul([[1, 2]], [[3], [4]]), [[11]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("n,k,j", [(1, 32, 32), (640, 32, 32), (9, 7, 5),
                                       (4, 1, 3), (4, 3, 1)])
    def test_row_is_bit_equal_to_its_own_product(self, n, k, j):
        rng = np.random.default_rng(n + k + j)
        b = rng.standard_normal((k, j))
        # one array and a view at an odd 8-byte offset into a larger buffer
        buffer = rng.standard_normal(n * k + 2)
        for a in (rng.standard_normal((n, k)), buffer[1:1 + n * k].reshape(n, k)):
            out = matmul(a, b)
            assert all(np.array_equal(out[i], a[i] @ b) for i in range(n))


class TestSoftmax:
    def test_symmetric_column(self):
        np.testing.assert_allclose(softmax_columns([[0.0], [0.0]]),
                                   [[0.5], [0.5]], atol=1e-15)

    def test_two_zero(self):
        # e^2/(e^2+1) by direct arithmetic
        expected = math.exp(2) / (math.exp(2) + 1)
        out = softmax_columns([[2.0], [0.0]])
        np.testing.assert_allclose(out[:, 0], [expected, 1 - expected], atol=1e-15)

    def test_huge_values_stay_finite(self):
        out = softmax_columns([[1000.0], [0.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[:, 0], [1.0, 0.0], atol=1e-12)

    def test_columns_sum_to_one_up_to_magnitude_1e6(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.uniform(-1e6, 1e6, size=(6, 4))
            out = softmax_columns(m)
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_two_row_examples(self):
        # one pair, then a stack of pairs, as the pooler's balance runs it
        np.testing.assert_allclose(softmax_columns([[0.0], [0.0]]), [[0.5], [0.5]])
        np.testing.assert_allclose(
            softmax_columns([[[0.0], [0.0]], [[math.log(3)], [0.0]]])[..., 0],
            [[0.5, 0.5], [0.75, 0.25]], atol=1e-12)

    def test_nine_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            out = softmax_columns(rng.uniform(-50, 50, size=(9, 1)))
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        for empty in (np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((3, 0, 1))):
            with pytest.raises(ValueError):
                softmax_columns(empty)


def _ranks(m):
    """Each row's rank in its column (0 = largest), read from where the VJP
    sends a gradient that carries each sorted position's index."""
    m = np.asarray(m, dtype=np.float64)
    positions = np.broadcast_to(np.arange(m.shape[0])[:, None], m.shape)
    return sort_desc_per_column_vjp(m, positions.astype(np.float64))


class TestSortDescPerColumn:
    def test_example(self):
        out = sort_desc_per_column([[1.0], [3.0], [2.0]])
        np.testing.assert_array_equal(out[:, 0], [3, 2, 1])
        np.testing.assert_array_equal(_ranks([[1.0], [3.0], [2.0]])[:, 0], [2, 0, 1])

    def test_already_sorted_gives_identity_permutation(self):
        out = sort_desc_per_column([[5.0], [4.0], [1.0]])
        np.testing.assert_array_equal(out[:, 0], [5, 4, 1])
        np.testing.assert_array_equal(_ranks([[5.0], [4.0], [1.0]])[:, 0], [0, 1, 2])

    def test_ties_keep_original_order(self):
        m = np.array([[2.0], [2.0], [3.0]])
        np.testing.assert_array_equal(_ranks(m)[:, 0], [1, 2, 0])
        # a one-hot gradient on sorted position 1 lands on the first tied row
        grad = np.array([[0.0], [1.0], [0.0]])
        np.testing.assert_array_equal(sort_desc_per_column_vjp(m, grad)[:, 0],
                                      [1, 0, 0])

    def test_values_equal_the_stable_gather(self):
        # the values a stable argsort picks, NaN last, on a (B, M, d) stack
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 9, 3))
        m[rng.random(m.shape) < 0.2] = np.nan
        perm = np.argsort(-m, axis=-2, kind="stable")
        assert np.array_equal(sort_desc_per_column(m),
                              np.take_along_axis(m, perm, axis=-2), equal_nan=True)

    @pytest.mark.parametrize("shape", [(9, 4), (3, 7, 5)])
    def test_bytes_equal_the_negated_sort(self, shape):
        # zeros of both signs, ties and NaN; the sort of one negated copy
        # must give the bytes of -np.sort(-m), zero signs and NaN included
        grid = np.array([-1.0, -0.0, 0.0, 0.5, 0.5, np.nan])
        m = np.random.default_rng(6).choice(grid, size=shape)
        assert sort_desc_per_column(m).tobytes() == \
            (-np.sort(-m, axis=-2)).tobytes()

    def test_column_means_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 5))
        out = sort_desc_per_column(m)
        np.testing.assert_allclose(out.mean(axis=0), m.mean(axis=0), atol=1e-15)

    def test_unsort_is_exact_inverse(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 6))
        out = sort_desc_per_column(m)
        assert np.array_equal(sort_desc_per_column_vjp(m, out), m)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]),
                                   [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(l2_normalize_rows(row), row, atol=1e-15)

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(5)
        out = l2_normalize_rows(rng.standard_normal((10, 6)) + 2.0)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_near_zero_row_raises(self):
        with pytest.raises(DegenerateVectorError):
            l2_normalize_rows([[1.0, 1.0], [1e-13, 0.0]])
        # a NaN or infinite norm cannot be normalized either, nor one whose
        # square overflows
        for value in (np.nan, np.inf, 1e200):
            with pytest.raises(DegenerateVectorError, match="row 1 "):
                l2_normalize_rows([[1.0, 1.0], [value, 0.0]])


class TestCosineSimMatrix:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5)) + 1.0
        s = cosine_sim_matrix(x, x)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)

    def test_orthogonal(self):
        s = cosine_sim_matrix([[1.0, 0.0]], [[0.0, 1.0]])
        assert abs(s[0, 0]) <= 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4)) + 0.5
        v = rng.standard_normal((3, 4)) + 0.5
        s = cosine_sim_matrix(t, v)
        for i in range(3):
            for j in range(3):
                dot = sum(t[i, k] * v[j, k] for k in range(4))
                nt = math.sqrt(sum(t[i, k] ** 2 for k in range(4)))
                nv = math.sqrt(sum(v[j, k] ** 2 for k in range(4)))
                assert abs(s[i, j] - dot / (nt * nv)) <= 1e-12

    def test_invariant_under_positive_row_rescaling(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 3)) + 1.0
        v = rng.standard_normal((5, 3)) + 1.0
        s = cosine_sim_matrix(t, v)
        t2 = t.copy()
        t2[2] *= 37.5
        v2 = v.copy()
        v2[0] *= 0.004
        s2 = cosine_sim_matrix(t2, v2)
        np.testing.assert_allclose(s2, s, atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateVectorError):
            cosine_sim_matrix([[0.0, 0.0]], [[1.0, 0.0]])


class TestFiniteDiffCheck:
    def test_softmax_passes(self):
        def op(m):
            out = softmax_columns(m)
            return out, lambda grad: (softmax_columns_vjp(out, grad),)

        rng = np.random.default_rng(9)
        report = finite_diff_check("softmax_columns", op,
                                   [rng.standard_normal((4, 3))],
                                   tolerance=1e-4, rng=rng)
        assert report.passed
        assert report.op_name == "softmax_columns"

    def test_corrupted_vjp_fails(self):
        def bad(m):
            out = softmax_columns(m)
            return out, lambda grad: (softmax_columns_vjp(out, grad) * 1.01,)

        rng = np.random.default_rng(10)
        report = finite_diff_check("softmax-corrupted", bad,
                                   [rng.standard_normal((2, 5))],
                                   tolerance=1e-4, rng=rng)
        assert not report.passed

    def test_non_finite_forward_raises(self):
        def nan_op(x):
            return x * np.nan, lambda grad: (grad,)

        with pytest.raises(EvaluationError):
            finite_diff_check("nan", nan_op, [np.ones((2, 2))])

    def test_pullback_runs_once_on_the_unperturbed_inputs(self):
        # the pullback reads x lazily, so it must run before the oracle
        # perturbs x: once, right after the first op call
        x0 = np.random.default_rng(11).standard_normal((3, 2))
        calls, seen = [], []

        def square(x):
            def pullback(grad):
                seen.append((len(calls), x.copy()))
                return (2.0 * x * grad,)

            calls.append(None)
            return x * x, pullback

        report = finite_diff_check("square", square, [x0], tolerance=1e-6)
        assert report.passed, report
        assert len(seen) == 1
        calls_before, x_seen = seen[0]
        assert calls_before == 1
        assert np.array_equal(x_seen, x0)

    @pytest.mark.parametrize("shapes", [[(4, 3)], [(2,), (3, 1)], [(0, 2), (2,)]])
    def test_op_runs_once_then_twice_per_input_entry(self, shapes):
        calls = []

        def op(*xs):
            calls.append(None)
            value = sum(float(np.sum(np.sin(x))) for x in xs)
            return np.float64(value), lambda grad: tuple(
                np.cos(x) * float(grad) for x in xs)

        rng = np.random.default_rng(13)
        inputs = [rng.standard_normal(shape) for shape in shapes]
        report = finite_diff_check("sum_sin", op, inputs, tolerance=1e-6)
        assert report.passed, report
        assert len(calls) == 1 + 2 * sum(x.size for x in inputs)


class TestFiniteMatrix:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, value):
        m = np.ones((3, 4))
        m[2, 1] = value
        with pytest.raises(EvaluationError, match="scores"):
            finite_matrix(m, "scores")

    def test_finite_entries_whose_sum_overflows_pass(self):
        m = np.full((2, 3), 1e308)
        assert finite_matrix(m) is not None
        m[1, 2] = np.inf
        with pytest.raises(EvaluationError):
            finite_matrix(m)
