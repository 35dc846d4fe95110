"""Pooling family: simple-aggregator algebra, the adaptive pooler, dispatch."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adret import pooling
from adret.errors import ConfigError, DimensionError
from adret.pooling import (
    MANUAL_VISUAL_K,
    PoolParams,
    PoolingSpec,
    pool_forward,
    pool_vjp,
)
from adret.tensor import softmax_columns, sort_desc_per_column_vjp, sum_rows


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


MEAN, MAX, ADPOOL = PoolingSpec("mean"), PoolingSpec("max"), PoolingSpec("adpool")
# the adaptive pooler's token or embedding branch alone
TOKEN = PoolingSpec("fixed-balance", weights=(1.0, 0.0))
EMBEDDING = PoolingSpec("fixed-balance", weights=(0.0, 1.0))
# one spec per pooling method, both manual modes
SPECS = [MEAN, MAX, PoolingSpec("kmax", k=2), ADPOOL,
         PoolingSpec("fixed-balance", weights=(0.75, 0.25)),
         PoolingSpec("manual", manual_mode="visual"),
         PoolingSpec("manual", manual_mode="text")]


def _kmax(f, k):
    return pool_forward(f, PoolingSpec("kmax", k=k))[0]


class TestSimpleAggregators:
    def test_mean_example(self):
        np.testing.assert_array_equal(
            pool_forward([[1.0, 3.0], [3.0, 5.0]], MEAN)[0], [2, 4])

    def test_mean_single_row(self):
        np.testing.assert_array_equal(pool_forward([[7.0, -1.0]], MEAN)[0], [7, -1])

    def test_max_example(self):
        np.testing.assert_array_equal(
            pool_forward([[1.0, 3.0], [3.0, 5.0]], MAX)[0], [3, 5])

    def test_max_constant(self):
        np.testing.assert_array_equal(
            pool_forward([[2.0, 2.0], [2.0, 2.0]], MAX)[0], [2, 2])

    def test_kmax_example(self):
        assert _kmax(np.array([[5.0], [3.0], [1.0]]), 2)[0] == 4.0

    def test_kmax_endpoints_are_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            f = rng.standard_normal((int(rng.integers(1, 9)), 4))
            m = f.shape[0]
            assert np.array_equal(_kmax(f, 1), pool_forward(f, MAX)[0])
            assert np.array_equal(_kmax(f, m), pool_forward(f, MEAN)[0])

    def test_kmax_keeps_a_nan_it_does_not_select(self):
        manual = PoolingSpec("manual", manual_mode="visual")
        for value in (np.nan, -np.inf):  # both sort last
            f = np.array([[5.0, 1.0], [value, 2.0], [3.0, 3.0], [1.0, 4.0]])
            for t in (_kmax(f, 2), pool_forward(np.vstack([f, f]), manual)[0],
                      pool_forward(f, MAX)[0]):
                assert np.isnan(t[0]) and np.isfinite(t[1])

    def test_kmax_range_errors(self):
        with pytest.raises(ValueError, match=r"kmax pooling: k=4 outside \[1, 3\]"):
            _kmax(np.ones((3, 2)), 4)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_empty_rejected(self, spec):
        params = PoolParams.zeros(3)
        for f, lengths in ((np.zeros((0, 3)), None),  # no rows
                           (np.ones((4, 3)), [4, 0]),  # an instance without
                           (np.zeros((0, 3)), [])):  # no instances
            with pytest.raises(ValueError):
                pool_forward(f, spec, params, lengths)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_non_matrix_rejected(self, spec):
        params = PoolParams.zeros(3)
        for f, lengths in ((np.ones(3), None), (np.ones((2, 4, 3)), None),
                           (np.ones((2, 4, 3)), [4, 4]),  # a padded stack
                           (np.ones((4, 3)), [[2, 2]]),  # 2-D lengths
                           (np.ones((4, 3)), [2.0, 2.0]),  # not integers
                           (np.ones((4, 3)), [2, 3]),  # sum above the rows
                           (np.ones((4, 3)), [1, 2])):  # sum below
            with pytest.raises(DimensionError):
                pool_forward(f, spec, params, lengths)


class TestTokenLevel:
    def test_zero_weights_give_mean_pool(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.standard_normal((int(rng.integers(1, 10)), 5))
            t, diag, _ = pool_forward(f, TOKEN, PoolParams.zeros(5))
            np.testing.assert_allclose(t, pool_forward(f, MEAN)[0], atol=1e-12)
            np.testing.assert_allclose(diag.theta, 1.0 / f.shape[0], atol=1e-15)

    def test_single_row_passthrough(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((1, 4))
        params = PoolParams(rng.standard_normal((4, 1)), np.zeros((4, 1)))
        t, diag, _ = pool_forward(f, TOKEN, params)
        np.testing.assert_allclose(t, f[0], atol=1e-15)
        np.testing.assert_array_equal(diag.theta, [1.0])

    def test_matches_scalar_oracle(self):
        f = np.array([[0.3, -1.2], [2.0, 0.4], [-0.7, 1.1]])
        w = np.array([[1.0], [0.0]])
        t, diag, _ = pool_forward(f, TOKEN, PoolParams(w, np.zeros((2, 1))))
        t_ref, theta_ref = _token_pool_oracle(f, w.ravel())
        np.testing.assert_allclose(t, t_ref, atol=1e-12)
        np.testing.assert_allclose(diag.theta, theta_ref, atol=1e-12)


def _embedding(f):
    """(pooled, delta) of the embedding branch alone."""
    t, diag, _ = pool_forward(f, EMBEDDING, PoolParams.zeros(np.shape(f)[1]))
    return t, diag.delta


class TestEmbeddingLevel:
    def test_two_zero_column(self):
        t, _ = _embedding([[2.0], [0.0]])
        expected = 2 * math.exp(2) / (math.exp(2) + 1)  # soft max of {2, 0}
        assert abs(t[0] - expected) <= 1e-12

    def test_constant_column_passthrough(self):
        t, delta = _embedding([[3.5], [3.5], [3.5]])
        assert abs(t[0] - 3.5) <= 1e-12
        np.testing.assert_allclose(delta[:, 0], 1 / 3, atol=1e-15)

    def test_sharpens_to_max_under_input_scaling(self):
        rng = np.random.default_rng(3)
        scale = 50.0
        for _ in range(10):
            f = rng.standard_normal((6, 4))
            f[f.argmax(axis=0), np.arange(4)] += 0.5  # well-separated maxima
            t_scaled, _ = _embedding(scale * f)
            np.testing.assert_allclose(t_scaled / scale, pool_forward(f, MAX)[0],
                                       atol=1e-6)


@st.composite
def _balance_inputs(draw):
    """(t_tok, t_emb, w_bal, upstream gradient): one pair of d-vectors or a
    (B, d) stack of pairs, d from 1, t_emb a copy of t_tok (tied) in about
    half the draws, at scales 1e-3 to 1e2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    shape = (d,) if draw(st.booleans()) else (draw(st.integers(1, 4)), d)
    t_tok = draw(st.sampled_from((1e-3, 1.0, 1e2))) * rng.standard_normal(shape)
    t_emb = t_tok.copy() if draw(st.booleans()) else (
        draw(st.sampled_from((1e-3, 1.0, 1e2))) * rng.standard_normal(shape))
    return t_tok, t_emb, rng.standard_normal((d, 1)), rng.standard_normal(shape)


def _two_way_balance(t_tok, t_emb, w_bal, d_t):
    """The balance and its VJP written out for two entries: logits l_i,
    e_i = exp(l_i - max), omega_i = e_i / (e_0 + e_1). Returns (pooled,
    omega, d_tok, d_emb, d_w_bal)."""
    wb = w_bal.ravel()
    l0, l1 = (t_tok * wb).sum(axis=-1), (t_emb * wb).sum(axis=-1)
    top = np.maximum(l0, l1)
    e0, e1 = np.exp(l0 - top), np.exp(l1 - top)
    o0, o1 = e0 / (e0 + e1), e1 / (e0 + e1)
    g0, g1 = (t_tok * d_t).sum(axis=-1), (t_emb * d_t).sum(axis=-1)
    dl0, dl1 = (g0 - (g0 * o0 + g1 * o1)) * o0, (g1 - (g0 * o0 + g1 * o1)) * o1
    o0, o1, dl0, dl1 = (x[..., None] for x in (o0, o1, dl0, dl1))
    d_w = (dl0 * t_tok + dl1 * t_emb).reshape(-1, wb.size).sum(axis=0)[:, None]
    return (o0 * t_tok + o1 * t_emb, np.concatenate([o0, o1], axis=-1),
            o0 * d_t + dl0 * wb, o1 * d_t + dl1 * wb, d_w)


class TestBalance:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_balance_inputs())
    def test_equals_a_straight_line_two_way_softmax(self, inputs):
        # the balance runs softmax_columns down a two-row stack; it must
        # give the bytes of the two-entry softmax spelled out
        t, omega, cache = pooling._balance_forward(*inputs[:3])
        got = (t, omega, *pooling._balance_vjp(cache, inputs[3]))
        for name, a, b in zip(("t", "omega", "d_tok", "d_emb", "d_w_bal"), got,
                              _two_way_balance(*inputs)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_equal_inputs_are_fixed_point(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = rng.standard_normal(6)
            out, omega, _ = pooling._balance_forward(t, t, rng.standard_normal((6, 1)))
            np.testing.assert_array_equal(out, t)
            assert abs(omega.sum() - 1.0) <= 1e-15

    def test_zero_weight_gives_even_split(self):
        rng = np.random.default_rng(5)
        _, omega, _ = pooling._balance_forward(
            rng.standard_normal(4), rng.standard_normal(4), np.zeros((4, 1)))
        np.testing.assert_array_equal(omega, [0.5, 0.5])

    def test_fixed_weights_override(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((5, 3))
        params = PoolParams(rng.standard_normal((3, 1)), np.zeros((3, 1)))
        t_tok = pool_forward(f, TOKEN, params)[0]
        t_emb, _ = _embedding(f)
        spec = PoolingSpec("fixed-balance", weights=(0.75, 0.25))
        out, diag, _ = pool_forward(f, spec, params)
        np.testing.assert_allclose(out, 0.75 * t_tok + 0.25 * t_emb, atol=1e-15)
        np.testing.assert_array_equal(diag.omega, [0.75, 0.25])

    @pytest.mark.parametrize("spec", [ADPOOL, TOKEN], ids=repr)
    def test_weights_of_another_width_rejected(self, spec):
        with pytest.raises(DimensionError, match="d=4, rows are 5"):
            pool_forward(np.ones((3, 5)), spec, PoolParams.zeros(4))


class TestAdpool:
    def test_single_row_passthrough(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((1, 5))
        params = PoolParams(rng.standard_normal((5, 1)),
                            rng.standard_normal((5, 1)))
        t, _, _ = pool_forward(f, ADPOOL, params)
        np.testing.assert_allclose(t, f[0], atol=1e-15)

    def test_zero_parameters_blend_mean_and_soft_max(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((6, 4))
        t, _, _ = pool_forward(f, ADPOOL, PoolParams.zeros(4))
        t_emb, _ = _embedding(f)
        np.testing.assert_allclose(t, 0.5 * pool_forward(f, MEAN)[0] + 0.5 * t_emb,
                                   atol=1e-12)

    def test_diagnostics_are_distributions(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((7, 5))
        params = PoolParams(rng.standard_normal((5, 1)),
                            rng.standard_normal((5, 1)))
        _, diag, _ = pool_forward(f, ADPOOL, params)
        assert abs(diag.theta.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(diag.delta.sum(axis=0), 1.0, atol=1e-12)
        assert abs(diag.omega.sum() - 1.0) <= 1e-12


class TestDispatch:
    def test_manual_visual_is_top5(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((8, 4))
        spec = PoolingSpec("manual", manual_mode="visual")
        np.testing.assert_array_equal(pool_forward(f, spec)[0], _kmax(f, 5))

    def test_manual_visual_clamps_to_short_sequences(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((3, 4))
        spec = PoolingSpec("manual", manual_mode="visual")
        np.testing.assert_array_equal(pool_forward(f, spec)[0], _kmax(f, 3))

    def test_manual_text_is_mean(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((6, 4))
        spec = PoolingSpec("manual", manual_mode="text")
        np.testing.assert_array_equal(pool_forward(f, spec)[0],
                                      pool_forward(f, MEAN)[0])

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            PoolingSpec("median")
        with pytest.raises(ConfigError):
            PoolingSpec("kmax")  # k missing
        with pytest.raises(ConfigError):
            PoolingSpec("kmax", k=0)
        with pytest.raises(ConfigError):
            PoolingSpec("fixed-balance", weights=(0.7, 0.2))
        with pytest.raises(ConfigError):
            pool_forward(np.ones((3, 2)), ADPOOL)  # params missing

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(14)
        f = rng.standard_normal((9, 4))
        params = PoolParams(rng.standard_normal((4, 1)),
                            rng.standard_normal((4, 1)))
        perm = rng.permutation(9)
        specs = [MEAN, MAX, PoolingSpec("kmax", k=3), ADPOOL,
                 PoolingSpec("fixed-balance", weights=(0.5, 0.5)),
                 PoolingSpec("manual", manual_mode="visual")]
        for spec in specs:
            np.testing.assert_allclose(pool_forward(f[perm], spec, params)[0],
                                       pool_forward(f, spec, params)[0], atol=1e-12)


class TestRaggedRows:
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_each_instance_pools_as_alone(self, spec):
        rng = np.random.default_rng(15)
        lengths = np.array([max(m, spec.k or 1) for m in (7, 1, 4, 2, 6)])
        parts = [rng.standard_normal((m, 3)) for m in lengths]
        parts[2][3] = parts[2][0]  # a tie in every column
        params = PoolParams(rng.standard_normal((3, 1)),
                            rng.standard_normal((3, 1)))
        t, diag, cache = pool_forward(np.concatenate(parts), spec, params,
                                      lengths)
        d_t = rng.standard_normal(t.shape)
        d_f, d_w_tok, d_w_bal = pool_vjp(cache, d_t)
        assert d_f.shape == (lengths.sum(), 3)
        assert d_w_tok.shape == d_w_bal.shape == (3, 1)
        d_parts = np.split(d_f, np.cumsum(lengths)[:-1])
        for f, t_b, d_t_b, d_f_b in zip(parts, t, d_t, d_parts):
            t_alone, _, cache_alone = pool_forward(f, spec, params)
            assert np.array_equal(t_b, t_alone)
            assert np.array_equal(d_f_b, pool_vjp(cache_alone, d_t_b)[0])
        if diag.theta is not None:
            assert np.all(diag.theta[lengths[:, None] <= np.arange(7)] == 0.0)
            assert np.all(diag.delta[1, 1:] == 0.0)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_one_length_batch_pools_as_inside_a_ragged_batch(self, spec):
        """Instances of one length pool unpadded and unmasked; with a longer
        instance appended, adpool pads them and the top-k family pools them
        ragged. Both give the same bits."""
        rng = np.random.default_rng(16)
        m = max(4, spec.k or 1)
        rows = rng.standard_normal((3 * m + m + 2, 3))
        rows[m + 1] = rows[m]  # a tie in every column
        params = PoolParams(rng.standard_normal((3, 1)),
                            rng.standard_normal((3, 1)))
        d_t = rng.standard_normal((4, 3))
        d_t[3] = 0.0  # the appended instance adds nothing to the gradients
        one = pool_forward(rows[:3 * m], spec, params, [m] * 3)
        ragged = pool_forward(rows, spec, params, [m] * 3 + [m + 2])
        if spec.method in ("adpool", "fixed-balance"):  # the mask of real rows
            assert one[2][1] is None and ragged[2][1] is not None
        assert one[0].tobytes() == ragged[0][:3].tobytes()
        for x, y in zip(one[1].__dict__.values(), ragged[1].__dict__.values()):
            assert (x is None) == (y is None)
            if x is not None:
                assert x.tobytes() == y[:3, :x.shape[1]].tobytes()
        grads_one = pool_vjp(one[2], d_t[:3])
        grads_ragged = pool_vjp(ragged[2], d_t)
        assert grads_one[0].tobytes() == grads_ragged[0][:3 * m].tobytes()
        for x, y in zip(grads_one[1:], grads_ragged[1:]):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("spec, fills", [
        (MEAN, []), (PoolingSpec("manual", manual_mode="text"), []),
        (MAX, ["nan"]), (PoolingSpec("manual", manual_mode="visual"), ["nan"]),
        (ADPOOL, ["-0.0"])], ids=repr)
    def test_a_ragged_batch_pads_only_to_sort(self, spec, fills):
        """The mean family pools ragged rows unpadded, the top-k poolers
        pad once, NaN-keyed, adpool once with -0.0."""
        rng = np.random.default_rng(20)
        lengths = [7, 1, 4, 2, 6]
        rows = rng.standard_normal((sum(lengths), 3))
        params = PoolParams(rng.standard_normal((3, 1)),
                            rng.standard_normal((3, 1)))
        pads, real_pad = [], pooling._pad

        def pad(rows, lengths, fill):
            pads.append(repr(fill))
            return real_pad(rows, lengths, fill)

        with mock.patch.object(pooling, "_pad", pad):
            t, _, cache = pool_forward(rows, spec, params, lengths)
            pool_vjp(cache, np.ones_like(t))
        assert pads == fills

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_unsigned_lengths_pool_as_signed(self, spec):
        rng = np.random.default_rng(19)
        lengths = [max(m, spec.k or 1) for m in (7, 1, 4, 2, 6)]
        rows = rng.standard_normal((sum(lengths), 3))
        params = PoolParams(rng.standard_normal((3, 1)),
                            rng.standard_normal((3, 1)))
        d_t = rng.standard_normal((len(lengths), 3))
        signed, unsigned = (pool_forward(rows, spec, params, np.array(lengths, dtype))
                            for dtype in (np.int64, np.uint64))
        assert signed[0].tobytes() == unsigned[0].tobytes()
        for x, y in zip(pool_vjp(signed[2], d_t), pool_vjp(unsigned[2], d_t)):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("lengths", [[5, 5, 5], [5, 3, 7]],
                             ids=["one-length", "ragged"])
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf arithmetic
    def test_a_non_finite_row_makes_only_its_instance_non_finite(
            self, spec, lengths, value):
        """A NaN or infinite entry makes its instance's pooled row
        non-finite, which ``l2_normalize_rows`` rejects before any VJP
        runs; every other instance pools as alone."""
        rng = np.random.default_rng(18)
        rows = rng.standard_normal((sum(lengths), 3))
        params = PoolParams(rng.standard_normal((3, 1)),
                            rng.standard_normal((3, 1)))
        starts = np.cumsum([0] + lengths[:-1])
        alone = [pool_forward(f, spec, params)[0]
                 for f in np.split(rows, starts[1:])]
        for b, (start, m) in enumerate(zip(starts, lengths)):
            for r in range(start, start + m):  # each row of instance b
                bad = rows.copy()
                bad[r, r % 3] = value
                t = pool_forward(bad, spec, params, lengths)[0]
                assert not np.isfinite(t[b]).all(), (b, r)
                for c in set(range(len(lengths))) - {b}:
                    assert t[c].tobytes() == alone[c].tobytes(), (b, r, c)


GRID = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)  # few values: ties in most columns


@st.composite
def _ragged_rows(draw):
    """(rows, lengths up to 8, all equal in about half the draws, (B, d)
    upstream gradient): every instance's rows back to back, and the
    gradient, from GRID."""
    lengths = np.array(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    if draw(st.booleans()):  # one length: pooled without padding
        lengths[:] = lengths[0]
    n, d = int(lengths.sum()), draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from(GRID), min_size=n * d, max_size=n * d)
    rows = np.array(draw(cells)).reshape(n, d)
    d_t = np.array(draw(st.lists(st.sampled_from(GRID), min_size=len(lengths) * d,
                                 max_size=len(lengths) * d))).reshape(-1, d)
    return rows, lengths, d_t


class TestTopkGradientProperty:
    """The top-k VJP picks its rows without a sort; it must give exactly
    what a stable argsort scatter gives, ties to the smaller row included."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_ragged_rows(), st.sampled_from(("max", "kmax", "manual")),
           st.integers(1, 8))
    def test_equals_the_stable_scatter(self, ragged, method, k):
        rows, lengths, d_t = ragged
        k = min(k, int(lengths.min()))
        spec, k = {"max": (PoolingSpec("max"), 1),
                   "kmax": (PoolingSpec("kmax", k=k), k),
                   "manual": (PoolingSpec("manual", manual_mode="visual"),
                              np.minimum(MANUAL_VISUAL_K, lengths))}[method]
        k = np.broadcast_to(k, lengths.shape)
        d_f = pool_vjp(pool_forward(rows, spec, lengths=lengths)[2], d_t)[0]
        ranks = np.arange(lengths.max())
        real = ranks < lengths[:, None]
        keyed = np.full(real.shape + rows.shape[1:], np.nan)
        keyed[real] = rows
        d_ranked = np.where(ranks[None, :, None] < k[:, None, None],
                            (d_t / k[:, None])[:, None, :], 0.0)
        oracle = sort_desc_per_column_vjp(keyed, d_ranked)[real]
        assert d_f.tobytes() == oracle.tobytes()  # bit for bit, zero signs too


@st.composite
def _long_ragged_rows(draw):
    """(rows, 1 to 64 lengths of 1 to 15, (B, d) upstream gradient), the
    values from GRID: ties in most columns, zeros of both signs."""
    lengths = np.array(draw(st.lists(st.integers(1, 15), min_size=1, max_size=64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, grid = draw(st.integers(1, 3)), np.array(GRID)
    return (rng.choice(grid, (int(lengths.sum()), d)), lengths,
            rng.choice(grid, (len(lengths), d)))


class TestRaggedMeanProperty:
    """The mean family sums a ragged batch without padding it, as does
    visual manual for its instances of at most MANUAL_VISUAL_K rows. Those
    pooled rows must be the bytes of ``sum_rows`` over the -0.0-padded stack
    and of each instance's rows added in order (from +0.0 past one column,
    as numpy's sum starts there). Every pooled row and row gradient must be
    the bytes of the instance pooled alone."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_long_ragged_rows(), st.sampled_from(
        (MEAN, PoolingSpec("manual", manual_mode="text"),
         PoolingSpec("manual", manual_mode="visual"))))
    def test_equals_the_row_order_sum_and_pooling_alone(self, ragged, spec):
        rows, lengths, d_t = ragged
        t, _, cache = pool_forward(rows, spec, lengths=lengths)
        d_f = pool_vjp(cache, d_t)[0]
        padded = sum_rows(pooling._pad(rows, lengths, -0.0)[0])[:, 0]
        starts = np.cumsum(lengths) - lengths
        for b, (start, m) in enumerate(zip(starts, lengths)):
            f = rows[start:start + m]
            t_alone, _, cache_alone = pool_forward(f, spec)
            assert t[b].tobytes() == t_alone.tobytes()
            if spec.manual_mode != "visual" or m <= MANUAL_VISUAL_K:
                in_order = np.add.accumulate(f, axis=0)[-1]
                if f.shape[1] > 1:
                    in_order += 0.0
                assert t[b].tobytes() == (padded[b] / m).tobytes()
                assert t[b].tobytes() == (in_order / m).tobytes()
            assert (d_f[start:start + m].tobytes()
                    == pool_vjp(cache_alone, d_t[b])[0].tobytes())


class TestAdpoolBitEquality:
    """The adpool forward shares buffers between its stages; on stacks full
    of ties and zeros of both signs it must give the bytes of the
    stages run apart, and of each instance pooled alone."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_ragged_rows())
    def test_shifted_embedding_softmax_equals_softmax_columns(self, ragged):
        rows, lengths, _ = ragged
        f, valid = pooling._pad(rows, lengths, -0.0)  # no mask for one length
        top = pooling._rank(f, valid)[0][:, :1]
        masked = None if valid is None else np.where(valid, f, -np.inf)
        delta = pooling._embedding_forward(f, masked, top, np.empty_like(f))[1]
        real = (np.arange(lengths.max()) < lengths[:, None])[:, :, None]
        assert delta.tobytes() == softmax_columns(np.where(real, f, -np.inf)).tobytes()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_ragged_rows(), st.sampled_from(
        (PoolingSpec("adpool"), PoolingSpec("fixed-balance", weights=(0.25, 0.75)))))
    def test_batch_rows_equal_pooling_alone(self, ragged, spec):
        rows, lengths, d_t = ragged
        d = rows.shape[1]
        params = PoolParams(np.linspace(-1.0, 1.0, d)[:, None],
                            np.linspace(0.5, -0.5, d)[:, None])
        t, diag, _ = pool_forward(rows, spec, params, lengths)
        parts = np.split(rows, np.cumsum(lengths)[:-1])
        for b, (f, m) in enumerate(zip(parts, lengths)):
            t_b, diag_b, _ = pool_forward(f, spec, params)
            assert t[b].tobytes() == t_b.tobytes()
            assert diag.theta[b, :m].tobytes() == diag_b.theta.tobytes()
            assert diag.delta[b, :m].tobytes() == diag_b.delta.tobytes()


@st.composite
def _tie_free_ragged_rows(draw):
    """(rows, lengths up to 8, never all equal, (B, d) upstream gradient),
    continuous normal draws: no two rows tie in a column (almost surely), so
    the padded batch takes the one-argsort path."""
    lengths = np.array(draw(st.lists(st.integers(1, 8), min_size=2, max_size=5)))
    if (lengths == lengths[0]).all():
        lengths[-1] = lengths[0] % 8 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    rows = draw(st.sampled_from((1e-3, 1.0, 1e3))) * rng.standard_normal(
        (int(lengths.sum()), d))
    return rows, lengths, rng.standard_normal((len(lengths), d))


@contextmanager
def _fallback_calls():
    """Count the calls ``pooling`` makes to the values-only sort and to the
    VJP's stable argsort, which a padded batch makes only on the fallback."""
    calls = {"sort": 0, "stable argsort": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with mock.patch.object(pooling, "sort_desc_per_column", counted(
            "sort", pooling.sort_desc_per_column)), \
            mock.patch.object(pooling, "sort_desc_per_column_vjp", counted(
                "stable argsort", pooling.sort_desc_per_column_vjp)):
        yield calls


def _stable_argrank(f, valid):
    """The token branch's ranking as the fallback does it: the NaN-keyed
    values-only sort, and in the VJP a stable argsort of the key."""
    ranked, keyed = pooling._rank(f, valid)
    return ranked, None, keyed, (None if valid is None else
                                 np.where(valid, f, -np.inf))


class TestTieFreeRaggedPath:
    """A padded batch without ties ranks each column once, and the token
    VJP scatters through the forward's permutation. It must give the bytes
    of each instance pooled alone, and the row gradient of the stable
    argsort scatter."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_tie_free_ragged_rows(), st.sampled_from(
        (ADPOOL, PoolingSpec("fixed-balance", weights=(0.25, 0.75)))))
    def test_equals_pooling_alone_and_the_stable_scatter(self, ragged, spec):
        rows, lengths, d_t = ragged
        d = rows.shape[1]
        params = PoolParams(np.linspace(-1.0, 1.0, d)[:, None],
                            np.linspace(0.5, -0.5, d)[:, None])
        with _fallback_calls() as calls:
            t, diag, cache = pool_forward(rows, spec, params, lengths)
            grads = pool_vjp(cache, d_t)
        assert calls == {"sort": 0, "stable argsort": 0}
        parts = np.split(rows, np.cumsum(lengths)[:-1])
        for b, (f, m) in enumerate(zip(parts, lengths)):
            t_b, diag_b, _ = pool_forward(f, spec, params)
            assert t[b].tobytes() == t_b.tobytes()
            assert diag.theta[b, :m].tobytes() == diag_b.theta.tobytes()
            assert diag.delta[b, :m].tobytes() == diag_b.delta.tobytes()
        with mock.patch.object(pooling, "_argrank", _stable_argrank):
            oracle = pool_vjp(pool_forward(rows, spec, params, lengths)[2], d_t)
        for x, y in zip(grads, oracle):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("spec", [ADPOOL, TOKEN], ids=repr)
    def test_a_tie_falls_back(self, spec):
        """A batch with a tie between real rows takes the stable argsort;
        without one it never does. A change that fell back on every batch
        would pass every other test."""
        rng = np.random.default_rng(17)
        lengths = [5, 3, 7]
        rows = rng.standard_normal((15, 4))
        params = PoolParams(rng.standard_normal((4, 1)),
                            rng.standard_normal((4, 1)))
        d_t = rng.standard_normal((3, 4))
        tied = rows.copy()
        tied[7, 2] = tied[5, 2]  # instance 1, one column
        for f, fallbacks in ((rows, 0), (tied, 1)):
            with _fallback_calls() as calls:
                pool_vjp(pool_forward(f, spec, params, lengths)[2], d_t)
            assert calls == {"sort": fallbacks, "stable argsort": fallbacks}
