"""Optimizer, schedule, and the training loop's determinism and logging."""

import numpy as np
import pytest

from adret import encoders, training
from adret.data import SyntheticCorpusConfig, generate_splits
from adret.encoders import BiEncoder, init_encoder_params
from adret.errors import ConfigError, TrainingDivergedError
from adret.objectives import LossConfig, batch_loss
from adret.pooling import PoolingSpec
from adret.training import (
    AdamState,
    TrainConfig,
    adam_step,
    lr_at,
    train,
)


def _small_setup(mode="infonce-adaptive", groups=48, seed=5, **train_kw):
    corpus_cfg = SyntheticCorpusConfig(num_groups=groups, latent_dim=6,
                                       visual_dim=8, text_dim=8, embed_dim=8,
                                       visual_len=(3, 6), text_len=(3, 7),
                                       captions_per_image=3, seed=17)
    splits = generate_splits(corpus_cfg, groups, 12, 12)
    rng = np.random.default_rng([seed, 0])
    spec = PoolingSpec("adpool")
    model = BiEncoder(init_encoder_params(rng, 8, 8, spec),
                      init_encoder_params(rng, 8, 8, spec))
    kw = dict(batch_size=16, epochs=2, seed=seed)
    kw.update(train_kw)
    cfg = TrainConfig(loss=LossConfig(mode=mode), **kw)
    return splits, model, cfg


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # with g=1 the bias-corrected moments are both 1, so the step is
        # lr / (1 + eps)
        params = {"w": np.array([[2.0]])}
        grads = {"w": np.array([[1.0]])}
        state = AdamState.for_tensors(params)
        out = adam_step(params, grads, state, 5e-4)
        assert abs((params["w"][0, 0] - out["w"][0, 0]) - 5e-4) <= 1e-11

    def test_zero_gradients_are_a_fixed_point(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.standard_normal((3, 2))}
        state = AdamState.for_tensors(params)
        out = dict(params)
        for _ in range(5):
            out = adam_step(out, {"w": np.zeros((3, 2))}, state, 1e-3)
        assert np.array_equal(out["w"], params["w"])

    def test_non_finite_gradient_names_parameter(self):
        params = {"visual.w_proj": np.ones((2, 2))}
        state = AdamState.for_tensors(params)
        with pytest.raises(TrainingDivergedError, match="visual.w_proj"):
            adam_step(params, {"visual.w_proj": np.full((2, 2), np.nan)},
                      state, 1e-3)

    def test_overflowing_squared_gradient_names_parameter(self):
        # g is finite but g * g is inf: v would be inf and every update 0
        params = {"text.w_tok": np.ones((2, 1))}
        state = AdamState.for_tensors(params)
        with pytest.raises(TrainingDivergedError, match="text.w_tok"):
            adam_step(params, {"text.w_tok": np.full((2, 1), 1e200)},
                      state, 1e-3)


class TestLearningRateSchedule:
    def test_schedule_values(self):
        cfg = TrainConfig(loss=LossConfig(mode="hard-triplet"), seed=0)
        assert lr_at(0, cfg) == 5e-4
        assert lr_at(14, cfg) == 5e-4
        assert abs(lr_at(15, cfg) - 5e-5) <= 1e-19
        assert abs(lr_at(30, cfg) - 5e-6) <= 1e-20


class TestTrainLoop:
    def test_zero_epochs_is_identity(self):
        splits, model, cfg = _small_setup(epochs=0)
        trained, log = train(splits["train"], model, cfg, splits["val"])
        assert log.records == [] and log.validation == []
        assert np.array_equal(trained.visual.w_proj, model.visual.w_proj)
        assert np.array_equal(trained.text.pool.w_bal, model.text.pool.w_bal)

    def test_bitwise_deterministic(self):
        runs = []
        for _ in range(2):
            splits, model, cfg = _small_setup(epochs=3)
            trained, log = train(splits["train"], model, cfg, splits["val"])
            runs.append((trained, log))
        a, b = runs
        for name in ("visual", "text"):
            enc_a = getattr(a[0], name)
            enc_b = getattr(b[0], name)
            assert np.array_equal(enc_a.w_proj, enc_b.w_proj)
            assert np.array_equal(enc_a.pool.w_tok, enc_b.pool.w_tok)
        assert a[1].to_csv() == b[1].to_csv()

    def test_first_epoch_loss_slope_is_negative(self):
        splits, model, cfg = _small_setup(epochs=1, batch_size=8)
        _, log = train(splits["train"], model, cfg)
        losses = np.array([r.loss for r in log.records])
        x = np.arange(len(losses))
        slope = np.polyfit(x, losses, 1)[0]
        assert slope < 0.0

    def test_adaptive_log_k_within_bounds(self):
        splits, model, cfg = _small_setup(epochs=2)
        _, log = train(splits["train"], model, cfg)
        assert all(r.k is not None and 1 <= r.k <= cfg.batch_size - 1
                   for r in log.records)
        assert all(r.gamma_align is not None for r in log.records)

    def test_triplet_log_has_no_k(self):
        splits, model, cfg = _small_setup(mode="hard-triplet", epochs=1)
        _, log = train(splits["train"], model, cfg)
        assert all(r.k is None and r.gamma_align is None for r in log.records)

    def test_fixed_k_mode_trains(self):
        splits, model, _ = _small_setup()
        cfg = TrainConfig(loss=LossConfig(mode="infonce-fixed", fixed_k=4),
                          seed=5, batch_size=16, epochs=1)
        _, log = train(splits["train"], model, cfg)
        assert len(log.records) > 0 and all(r.k is None for r in log.records)

    def test_validation_recorded_per_epoch(self):
        splits, model, cfg = _small_setup(epochs=3)
        _, log = train(splits["train"], model, cfg, splits["val"])
        assert [epoch for epoch, _ in log.validation] == [0, 1, 2]
        assert all(0.0 <= rsum <= 600.0 for _, rsum in log.validation)

    def test_batch_size_larger_than_corpus_rejected(self):
        splits, model, cfg = _small_setup()
        big = TrainConfig(loss=LossConfig(mode="hard-triplet"), seed=1,
                          batch_size=4096, epochs=1)
        with pytest.raises(ConfigError):
            train(splits["train"], model, big)

    def test_separated_similarities_give_zero_triplet_gradient(self):
        # perfectly separated batch at zero margin: loss and gradient vanish,
        # so Adam holds every parameter fixed
        s = np.eye(4) * 0.9
        loss, grad, _ = batch_loss(s, LossConfig("hard-triplet", margin=0.0))
        assert loss == 0.0 and np.array_equal(grad, np.zeros((4, 4)))


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counted


class TestBenchmarkHooks:
    def test_train_calls_lr_at_and_validation_once_per_epoch(self,
                                                            monkeypatch):
        # perfbench cuts each epoch at the module-global training.lr_at and
        # times validation through training._validation_rsum; without these
        # calls it would split epoch time evenly and stop timing validation
        # The validation split's ground truth is built once, before the
        # first epoch, not by every validation pass.
        calls = []
        for name in ("lr_at", "_validation_rsum"):
            monkeypatch.setattr(training, name,
                                _counting(calls, name, getattr(training, name)))
        monkeypatch.setattr(encoders, "ground_truth", _counting(
            calls, "ground_truth", encoders.ground_truth))
        splits, model, cfg = _small_setup(epochs=3)
        train(splits["train"], model, cfg, splits["val"])
        assert calls == ["ground_truth"] + ["lr_at", "_validation_rsum"] * 3
        calls.clear()
        train(splits["train"], model, cfg)
        assert calls == ["lr_at"] * 3


class TestTrainLogSerialization:
    def test_csv_schema(self):
        splits, model, cfg = _small_setup(epochs=1)
        _, log = train(splits["train"], model, cfg, splits["val"])
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == "epoch,iter,loss,gamma_align,gamma_uniform,k,lr"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert lines[-1].startswith("0,-1,")  # validation row
        assert lines[-1].endswith(",,,,")

    def test_triplet_csv_leaves_schedule_columns_empty(self):
        splits, model, cfg = _small_setup(mode="hard-triplet", epochs=1)
        _, log = train(splits["train"], model, cfg)
        row = log.to_csv().strip().split("\n")[1].split(",")
        assert row[3] == "" and row[4] == "" and row[5] == ""
