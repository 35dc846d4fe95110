"""Pooling family: simple-aggregator algebra, the adaptive pooler, dispatch."""

import math

import numpy as np
import pytest

from adret.errors import ConfigError, DimensionError
from adret.pooling import (
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
    token_level_adpool,
)


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
