"""Encoder chain: projection, pooling dispatch, normalization, persistence."""

import dataclasses

import numpy as np
import pytest

from adret.data import Corpus, RawInstance
from adret.encoders import (
    ENCODE_BLOCK,
    BiEncoder,
    EncoderParams,
    PreparedSplit,
    batch_forward,
    batch_vjp,
    encode_all,
    init_encoder_params,
    project,
    project_vjp,
    split_scores,
)
from adret.errors import DataError, DegenerateVectorError, DimensionError
from adret.pooling import PoolParams, PoolingSpec
from adret.tensor import cosine_sim_matrix, finite_diff_check
from adret.training import batch_step


def _params(rng, d_in=6, d=4, spec=None):
    return EncoderParams(
        w_proj=rng.standard_normal((d_in, d)),
        b_proj=rng.standard_normal(d),
        pool=PoolParams(rng.standard_normal((d, 1)), rng.standard_normal((d, 1))),
        spec=spec or PoolingSpec("adpool"))


def _encode(features, params):
    """One feature matrix's unit embedding: the B=1 batch."""
    return batch_forward([features], params)[0][0]


def _named(grads):
    """An EncoderParams gradient's four tensors by name."""
    return {"w_proj": grads.w_proj, "b_proj": grads.b_proj,
            "w_tok": grads.pool.w_tok, "w_bal": grads.pool.w_bal}


class TestProject:
    def test_identity(self):
        raw = np.arange(6.0).reshape(2, 3)
        out = project(raw, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, raw)

    def test_zero_weights_give_bias_rows(self):
        out = project(np.ones((3, 2)), np.zeros((2, 4)), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out, np.tile([1, 2, 3, 4], (3, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))

    def test_vjp_is_the_weight_and_bias_gradient(self):
        rng = np.random.default_rng(2)
        raw, grad = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
        d_w, d_b = project_vjp(raw, grad)
        assert np.array_equal(d_w, raw.T @ grad)
        assert np.array_equal(d_b, grad.sum(axis=0))
        report = finite_diff_check(
            "project", lambda w, b: (project(raw, w, b),
                                     lambda g: project_vjp(raw, g)),
            [rng.standard_normal((3, 4)), rng.standard_normal(4)],
            tolerance=1e-6, rng=rng)
        assert report.passed, report


class TestEncode:
    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(0)
        params = _params(rng)
        for _ in range(10):
            e = _encode(rng.standard_normal((5, 6)), params)
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        params = _params(rng)
        f = rng.standard_normal((4, 6))
        assert np.array_equal(_encode(f, params), _encode(f.copy(), params))

    def test_scaled_input_still_unit_norm(self):
        rng = np.random.default_rng(3)
        params = _params(rng)
        f = rng.standard_normal((4, 6))
        for c in (1e-3, 1.0, 1e4):
            assert abs(np.linalg.norm(_encode(c * f, params)) - 1.0) <= 1e-12

    def test_collapsed_pooled_vector_raises(self):
        params = EncoderParams(w_proj=np.zeros((3, 4)), b_proj=np.zeros(4),
                               pool=PoolParams.zeros(4),
                               spec=PoolingSpec("mean"))
        with pytest.raises(DegenerateVectorError):
            _encode(np.ones((2, 3)), params)

    @pytest.mark.parametrize("spec", [
        PoolingSpec("mean"), PoolingSpec("max"), PoolingSpec("adpool"),
        PoolingSpec("manual", manual_mode="text"),
        PoolingSpec("fixed-balance", weights=(0.25, 0.75)),
        PoolingSpec("kmax", k=2), PoolingSpec("manual", manual_mode="visual")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, "-inf projection"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf arithmetic
    def test_non_finite_features_raise(self, spec, value):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((7, 6))  # more rows than either top-k keeps
        params = _params(rng, spec=spec)
        if isinstance(value, str):  # finite features, a row projected to -inf
            params = dataclasses.replace(params, w_proj=np.ones((6, 4)))
            f[1] = -1e308  # each column's sum overflows to -inf
        else:
            f[1, 2] = value
        with pytest.raises(DegenerateVectorError, match="non-finite"):
            _encode(f, params)

    def test_encode_all_stacks_rows(self):
        rng = np.random.default_rng(4)
        params = _params(rng)
        instances = [RawInstance("text", rng.standard_normal((3, 6)), f"t{i}", f"g{i}")
                     for i in range(5)]
        mat = encode_all(instances, params)
        assert mat.shape == (5, 4)
        np.testing.assert_array_equal(mat[2], _encode(instances[2].features, params))

    def test_split_scores_rows_are_texts_and_columns_images(self):
        rng = np.random.default_rng(6)
        model = BiEncoder(visual=_params(rng, d_in=5), text=_params(rng))
        images = tuple(RawInstance("visual", rng.standard_normal((4, 5)),
                                   f"i{j}", f"g{j}") for j in range(3))
        texts = tuple(RawInstance("text", rng.standard_normal((3, 6)),
                                  f"t{j}.{c}", f"g{j}")
                      for j in range(3) for c in range(2))
        scores = split_scores(model, PreparedSplit(Corpus(images=images,
                                                          texts=texts)))
        assert scores.shape == (6, 3)
        np.testing.assert_array_equal(
            scores, cosine_sim_matrix(encode_all(texts, model.text),
                                      encode_all(images, model.visual)))

    def test_every_pooling_spec_encodes(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((6, 6))
        for spec in (PoolingSpec("mean"), PoolingSpec("max"),
                     PoolingSpec("kmax", k=2), PoolingSpec("adpool"),
                     PoolingSpec("manual", manual_mode="visual"),
                     PoolingSpec("fixed-balance", weights=(0.25, 0.75))):
            e = _encode(f, _params(rng, spec=spec))
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-12

    def test_forward_vjp_shapes(self):
        rng = np.random.default_rng(6)
        params = _params(rng)
        f = rng.standard_normal((4, 6))
        e, cache = batch_forward([f], params)
        grads = batch_vjp(cache, rng.standard_normal((1, 4)))
        assert isinstance(grads, EncoderParams)
        assert grads.w_proj.shape == (6, 4)
        assert grads.b_proj.shape == (4,)
        assert grads.pool.w_tok.shape == (4, 1)
        assert grads.pool.w_bal.shape == (4, 1)
        assert grads.spec == params.spec


ALL_SPECS = [
    PoolingSpec("mean"), PoolingSpec("max"), PoolingSpec("kmax", k=3),
    PoolingSpec("adpool"), PoolingSpec("fixed-balance", weights=(0.25, 0.75)),
    PoolingSpec("manual", manual_mode="visual"),
    PoolingSpec("manual", manual_mode="text")]


class TestBatch:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
    @pytest.mark.parametrize("d_in,d", [(6, 4), (5, 1), (32, 32)])
    def test_rows_are_bit_equal_to_encoding_alone(self, spec, d_in, d):
        rng = np.random.default_rng(9)
        params = _params(rng, d_in=d_in, d=d, spec=spec)
        # lengths 1..12 (from k for kmax) over more than one encode_all
        # block; manual-visual takes its mean branch wherever M <= 5
        lengths = np.arange(ENCODE_BLOCK + 44) % 12 + 1
        lengths = rng.permutation(np.maximum(lengths, spec.k or 1))
        features = [rng.standard_normal((m, d_in)) for m in lengths]
        alone = np.stack([_encode(f, params) for f in features])
        assert np.array_equal(batch_forward(features, params)[0], alone)
        assert np.array_equal(batch_forward(features[:9], params)[0], alone[:9])
        instances = [RawInstance("text", f, f"t{i}", f"g{i}")
                     for i, f in enumerate(features)]
        assert np.array_equal(encode_all(instances, params), alone)
        # encode_all regroups by length and puts each row back in place
        perm = rng.permutation(len(instances))
        assert np.array_equal(
            encode_all([instances[i] for i in perm], params), alone[perm])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
    def test_vjp_sums_the_instances_parameter_gradients(self, spec):
        rng = np.random.default_rng(10)
        params = _params(rng, spec=spec)
        lengths = [max(m, spec.k or 1) for m in (4, 1, 7, 3)]
        features = [rng.standard_normal((m, 6)) for m in lengths]
        emb, cache = batch_forward(features, params)
        d_emb = rng.standard_normal(emb.shape)
        grads = batch_vjp(cache, d_emb)
        assert grads.b_proj.shape == (4,)
        assert grads.pool.w_tok.shape == grads.pool.w_bal.shape == (4, 1)

        def alone(f, d_e):  # the B=1 batch
            return batch_vjp(batch_forward([f], params)[1], d_e[None, :])

        named = _named(grads)
        total = {k: sum(_named(alone(f, d_e))[k]
                        for f, d_e in zip(features, d_emb)) for k in named}
        for k in named:
            np.testing.assert_allclose(named[k], total[k], rtol=0, atol=1e-13)


class TestBatchStep:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
    def test_gradients_have_the_model_layout(self, spec):
        rng = np.random.default_rng(12)
        model = BiEncoder(init_encoder_params(rng, 6, 4, spec),
                          init_encoder_params(rng, 5, 4, spec))
        lengths = [max(m, spec.k or 1) for m in (3, 1, 7)]
        texts = [rng.standard_normal((m, 5)) for m in lengths]
        images = [rng.standard_normal((m, 6)) for m in lengths[::-1]]
        d_s = rng.standard_normal((3, 3))
        _, _, grads = batch_step(model, texts, images,
                                 lambda s: (0.0, d_s, None))
        assert ({k: g.shape for k, g in grads.items()}
                == {k: p.shape for k, p in model.tensors().items()})


class TestBiEncoderPersistence:
    def test_tensor_round_trip(self, tmp_path):
        from adret.cache import load_tensors, save_tensors

        rng = np.random.default_rng(7)
        spec_v = PoolingSpec("adpool")
        spec_t = PoolingSpec("mean")
        model = BiEncoder(visual=init_encoder_params(rng, 8, 5, spec_v),
                          text=init_encoder_params(rng, 6, 5, spec_t))
        path = str(tmp_path / "params.bin")
        save_tensors(path, model.tensors())
        rebuilt = BiEncoder.from_tensors(load_tensors(path), spec_v, spec_t)
        assert np.array_equal(rebuilt.visual.w_proj, model.visual.w_proj)
        assert np.array_equal(rebuilt.text.b_proj, model.text.b_proj)
        assert np.array_equal(rebuilt.text.pool.w_tok, model.text.pool.w_tok)

    def test_missing_tensor_raises(self):
        with pytest.raises(DataError, match="missing tensor 'visual.w_proj'"):
            BiEncoder.from_tensors({}, PoolingSpec("mean"), PoolingSpec("mean"))

    def test_init_shapes_and_zero_pooling_weights(self):
        rng = np.random.default_rng(8)
        enc = init_encoder_params(rng, 10, 7, PoolingSpec("adpool"))
        assert enc.w_proj.shape == (10, 7)
        assert np.array_equal(enc.b_proj, np.zeros(7))
        assert np.array_equal(enc.pool.w_tok, np.zeros((7, 1)))
        assert np.abs(enc.w_proj).max() <= 1.0 / np.sqrt(10)
