"""Pooling family: simple-aggregator algebra, the adaptive pooler, dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adret import pooling
from adret.errors import ConfigError, DimensionError
from adret.pooling import (
    MANUAL_VISUAL_K,
    PoolParams,
    PoolingSpec,
    adpool,
    balance_combine,
    embedding_level_adpool,
    kmax_pool,
    max_pool,
    mean_pool,
    pool,
    pool_forward,
    pool_vjp,
    token_level_adpool,
)
from adret.tensor import softmax_columns, sort_desc_per_column_vjp


def _token_pool_oracle(f, w_tok):
    """Scalar re-derivation: sort columns descending, softmax the scored
    rows, weight-sum."""
    f = np.asarray(f, dtype=float)
    m, d = f.shape
    ranked = np.empty_like(f)
    for j in range(d):
        ranked[:, j] = sorted(f[:, j], reverse=True)
    logits = [sum(ranked[i, j] * w_tok[j] for j in range(d)) for i in range(m)]
    zmax = max(logits)
    exp = [math.exp(z - zmax) for z in logits]
    theta = [e / sum(exp) for e in exp]
    out = [sum(theta[i] * ranked[i, j] for i in range(m)) for j in range(d)]
    return np.array(out), np.array(theta)


class TestSimpleAggregators:
    def test_mean_example(self):
        np.testing.assert_array_equal(mean_pool([[1.0, 3.0], [3.0, 5.0]]), [2, 4])

    def test_mean_single_row(self):
        np.testing.assert_array_equal(mean_pool([[7.0, -1.0]]), [7, -1])

    def test_max_example(self):
        np.testing.assert_array_equal(max_pool([[1.0, 3.0], [3.0, 5.0]]), [3, 5])

    def test_max_constant(self):
        np.testing.assert_array_equal(max_pool([[2.0, 2.0], [2.0, 2.0]]), [2, 2])

    def test_kmax_example(self):
        assert kmax_pool(np.array([[5.0], [3.0], [1.0]]), 2)[0] == 4.0

    def test_kmax_endpoints_are_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            f = rng.standard_normal((int(rng.integers(1, 9)), 4))
            m = f.shape[0]
            assert np.array_equal(kmax_pool(f, 1), max_pool(f))
            assert np.array_equal(kmax_pool(f, m), mean_pool(f))

    def test_kmax_keeps_a_nan_it_does_not_select(self):
        f = np.array([[5.0, 1.0], [np.nan, 2.0], [3.0, 3.0], [1.0, 4.0]])
        for t in (kmax_pool(f, 2),
                  pool(np.vstack([f, f]), PoolingSpec("manual", manual_mode="visual"))):
            assert np.isnan(t[0]) and np.isfinite(t[1])

    def test_kmax_range_errors(self):
        f = np.ones((3, 2))
        with pytest.raises(ValueError):
            kmax_pool(f, 0)
        with pytest.raises(ValueError):
            kmax_pool(f, 4)

    def test_empty_rejected(self):
        for fn in (mean_pool, max_pool):
            with pytest.raises(ValueError):
                fn(np.zeros((0, 3)))


class TestTokenLevel:
    def test_zero_weights_give_mean_pool(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.standard_normal((int(rng.integers(1, 10)), 5))
            t, theta = token_level_adpool(f, np.zeros((5, 1)))
            np.testing.assert_allclose(t, mean_pool(f), atol=1e-12)
            np.testing.assert_allclose(theta, 1.0 / f.shape[0], atol=1e-15)

    def test_single_row_passthrough(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((1, 4))
        t, theta = token_level_adpool(f, rng.standard_normal((4, 1)))
        np.testing.assert_allclose(t, f[0], atol=1e-15)
        np.testing.assert_array_equal(theta, [1.0])

    def test_matches_scalar_oracle(self):
        f = np.array([[0.3, -1.2], [2.0, 0.4], [-0.7, 1.1]])
        w = np.array([[1.0], [0.0]])
        t, theta = token_level_adpool(f, w)
        t_ref, theta_ref = _token_pool_oracle(f, w.ravel())
        np.testing.assert_allclose(t, t_ref, atol=1e-12)
        np.testing.assert_allclose(theta, theta_ref, atol=1e-12)


class TestEmbeddingLevel:
    def test_two_zero_column(self):
        t, _ = embedding_level_adpool([[2.0], [0.0]])
        expected = 2 * math.exp(2) / (math.exp(2) + 1)  # soft max of {2, 0}
        assert abs(t[0] - expected) <= 1e-12

    def test_constant_column_passthrough(self):
        t, delta = embedding_level_adpool([[3.5], [3.5], [3.5]])
        assert abs(t[0] - 3.5) <= 1e-12
        np.testing.assert_allclose(delta[:, 0], 1 / 3, atol=1e-15)

    def test_sharpens_to_max_under_input_scaling(self):
        rng = np.random.default_rng(3)
        scale = 50.0
        for _ in range(10):
            f = rng.standard_normal((6, 4))
            f[f.argmax(axis=0), np.arange(4)] += 0.5  # well-separated maxima
            t_scaled, _ = embedding_level_adpool(scale * f)
            np.testing.assert_allclose(t_scaled / scale, max_pool(f), atol=1e-6)


class TestBalance:
    def test_equal_inputs_are_fixed_point(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = rng.standard_normal(6)
            out, omega = balance_combine(t, t, rng.standard_normal((6, 1)))
            np.testing.assert_array_equal(out, t)
            assert abs(omega.sum() - 1.0) <= 1e-15

    def test_zero_weight_gives_even_split(self):
        rng = np.random.default_rng(5)
        _, omega = balance_combine(rng.standard_normal(4),
                                   rng.standard_normal(4), np.zeros((4, 1)))
        np.testing.assert_array_equal(omega, [0.5, 0.5])

    def test_fixed_weights_override(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((5, 3))
        params = PoolParams(rng.standard_normal((3, 1)), np.zeros((3, 1)))
        t_tok, _ = token_level_adpool(f, params.w_tok)
        t_emb, _ = embedding_level_adpool(f)
        spec = PoolingSpec("fixed-balance", weights=(0.75, 0.25))
        out, diag, _ = pool_forward(f, spec, params)
        np.testing.assert_allclose(out, 0.75 * t_tok + 0.25 * t_emb, atol=1e-15)
        np.testing.assert_array_equal(diag.omega, [0.75, 0.25])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            balance_combine(np.ones(3), np.ones(4), np.ones((3, 1)))


class TestAdpool:
    def test_single_row_passthrough(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((1, 5))
        params = PoolParams(rng.standard_normal((5, 1)),
                            rng.standard_normal((5, 1)))
        t, _ = adpool(f, params)
        np.testing.assert_allclose(t, f[0], atol=1e-15)

    def test_zero_parameters_blend_mean_and_soft_max(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((6, 4))
        t, _ = adpool(f, PoolParams.zeros(4))
        t_emb, _ = embedding_level_adpool(f)
        np.testing.assert_allclose(t, 0.5 * mean_pool(f) + 0.5 * t_emb,
                                   atol=1e-12)

    def test_diagnostics_are_distributions(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((7, 5))
        params = PoolParams(rng.standard_normal((5, 1)),
                            rng.standard_normal((5, 1)))
        _, diag = adpool(f, params)
        assert abs(diag.theta.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(diag.delta.sum(axis=0), 1.0, atol=1e-12)
        assert abs(diag.omega.sum() - 1.0) <= 1e-12


class TestDispatch:
    def test_manual_visual_is_top5(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((8, 4))
        spec = PoolingSpec("manual", manual_mode="visual")
        np.testing.assert_array_equal(pool(f, spec), kmax_pool(f, 5))

    def test_manual_visual_clamps_to_short_sequences(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((3, 4))
        spec = PoolingSpec("manual", manual_mode="visual")
        np.testing.assert_array_equal(pool(f, spec), kmax_pool(f, 3))

    def test_manual_text_is_mean(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((6, 4))
        spec = PoolingSpec("manual", manual_mode="text")
        np.testing.assert_array_equal(pool(f, spec), mean_pool(f))

    def test_mean_spec_matches_mean_pool(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(pool(f, PoolingSpec("mean")), mean_pool(f))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            PoolingSpec("median")
        with pytest.raises(ConfigError):
            PoolingSpec("kmax")  # k missing
        with pytest.raises(ConfigError):
            PoolingSpec("fixed-balance", weights=(0.7, 0.2))
        with pytest.raises(ConfigError):
            pool(np.ones((3, 2)), PoolingSpec("adpool"))  # params missing

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(14)
        f = rng.standard_normal((9, 4))
        params = PoolParams(rng.standard_normal((4, 1)),
                            rng.standard_normal((4, 1)))
        perm = rng.permutation(9)
        specs = [PoolingSpec("mean"), PoolingSpec("max"),
                 PoolingSpec("kmax", k=3), PoolingSpec("adpool"),
                 PoolingSpec("fixed-balance", weights=(0.5, 0.5)),
                 PoolingSpec("manual", manual_mode="visual")]
        for spec in specs:
            np.testing.assert_allclose(pool(f[perm], spec, params),
                                       pool(f, spec, params), atol=1e-12)


class TestPaddedStack:
    SPECS = [PoolingSpec("mean"), PoolingSpec("max"), PoolingSpec("kmax", k=2),
             PoolingSpec("adpool"),
             PoolingSpec("fixed-balance", weights=(0.75, 0.25)),
             PoolingSpec("manual", manual_mode="visual"),
             PoolingSpec("manual", manual_mode="text")]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_padding_is_ignored_and_gets_zero_gradient(self, spec):
        rng = np.random.default_rng(15)
        lengths = np.array([max(m, spec.k or 1) for m in (7, 1, 4, 2, 6)])
        f = 1e6 * rng.standard_normal((5, 7, 3))  # padding full of junk
        for b, m in enumerate(lengths):
            f[b, :m] = rng.standard_normal((m, 3))
        f[2, 3] = f[2, 0]  # a tie in every column
        params = PoolParams(rng.standard_normal((3, 1)),
                            rng.standard_normal((3, 1)))
        t, diag, cache = pool_forward(f, spec, params, lengths)
        for b, m in enumerate(lengths):
            assert np.array_equal(t[b], pool(f[b, :m], spec, params))
        d_f, d_w_tok, d_w_bal = pool_vjp(cache, rng.standard_normal(t.shape))
        assert d_f.shape == f.shape
        assert d_w_tok.shape == d_w_bal.shape == (3, 1)
        for b, m in enumerate(lengths):
            assert np.all(d_f[b, m:] == 0.0)
            d_alone = pool_vjp(pool_forward(f[b, :m], spec, params)[2],
                               np.zeros(3) + 1.0)[0]
            assert d_alone.shape == (m, 3)
        if diag.theta is not None:
            assert np.all(diag.theta[lengths[:, None] <= np.arange(7)] == 0.0)
            assert np.all(diag.delta[1, 1:] == 0.0)


GRID = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)  # few values: ties in most columns


@st.composite
def _ragged_stack(draw):
    """(B, M, d) stack with lengths up to 8 (padding holds grid junk, NaN
    included) and a (B, d) upstream gradient, both from GRID."""
    lengths = np.array(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    b, m, d = len(lengths), int(lengths.max()), draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from(GRID + (math.nan,)),
                     min_size=b * m * d, max_size=b * m * d)
    f = np.array(draw(cells)).reshape(b, m, d)
    d_t = np.array(draw(st.lists(st.sampled_from(GRID), min_size=b * d,
                                 max_size=b * d))).reshape(b, d)
    return f, lengths, d_t


class TestTopkGradientProperty:
    """The top-k VJP picks its rows without a sort; it must give exactly
    what a stable argsort scatter gives, ties to the smaller row included."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_ragged_stack(), st.sampled_from(("max", "kmax", "manual")),
           st.integers(1, 8))
    def test_equals_the_stable_scatter(self, stack, method, k):
        f, lengths, d_t = stack
        k = min(k, int(lengths.min()))
        spec, k = {"max": (PoolingSpec("max"), 1),
                   "kmax": (PoolingSpec("kmax", k=k), k),
                   "manual": (PoolingSpec("manual", manual_mode="visual"),
                              np.minimum(MANUAL_VISUAL_K, lengths))}[method]
        k = np.broadcast_to(k, lengths.shape)
        d_f = pool_vjp(pool_forward(f, spec, lengths=lengths)[2], d_t)[0]
        rows = np.arange(f.shape[1])[None, :, None]
        keyed = np.where(rows < lengths[:, None, None], f, np.nan)
        d_ranked = np.where(rows < k[:, None, None],
                            (d_t / k[:, None])[:, None, :], 0.0)
        oracle = sort_desc_per_column_vjp(keyed, d_ranked)
        assert d_f.tobytes() == oracle.tobytes()  # bit for bit, zero signs too


def _bytes(a):
    """The bytes of ``a`` with every NaN made np.nan: equal for arrays equal
    bit for bit, zero signs included, up to the signs of their NaNs."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestAdpoolBitEquality:
    """The adpool forward shares buffers between its stages; on stacks full
    of ties, zeros of both signs and NaN it must give the bytes of the
    stages run apart, and of each instance pooled alone."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_ragged_stack())
    def test_shifted_embedding_softmax_equals_softmax_columns(self, stack):
        f, lengths, _ = stack
        f, _, valid = pooling._stack(f, lengths)
        top = pooling._rank(f, valid)[0][:, :1]
        delta = pooling._embedding_forward(f, valid, top)[1]
        # a NaN's sign may differ: np.sort may clear a NaN's sign bit, so
        # the ranked rows can hold the NaN negated, where max returns it
        assert _bytes(delta) == _bytes(softmax_columns(np.where(valid, f, -np.inf)))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_ragged_stack(), st.sampled_from(
        (PoolingSpec("adpool"), PoolingSpec("fixed-balance", weights=(0.25, 0.75)))))
    def test_batch_rows_equal_pooling_alone(self, stack, spec):
        f, lengths, d_t = stack
        d = f.shape[2]
        params = PoolParams(np.linspace(-1.0, 1.0, d)[:, None],
                            np.linspace(0.5, -0.5, d)[:, None])
        t, diag, _ = pool_forward(f, spec, params, lengths)
        for b, m in enumerate(lengths):
            t_b, diag_b, _ = pool_forward(f[b, :m], spec, params)
            # np.sort may return a NaN with either sign, by the stack's size
            assert _bytes(t[b]) == _bytes(t_b)
            assert _bytes(diag.theta[b, :m]) == _bytes(diag_b.theta)
            assert _bytes(diag.delta[b, :m]) == _bytes(diag_b.delta)
