"""Optimizer, schedule, and the training loop's determinism and logging."""

import numpy as np
import pytest

from adret import encoders, training
from adret.data import Corpus, SyntheticCorpusConfig, generate_splits
from adret.encoders import BiEncoder, init_encoder_params
from adret.errors import ConfigError, DataError, TrainingDivergedError
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


def _flat_layout():
    """A flat parameter vector and its AdamState, in ``tensors()`` order:
    visual.w_proj 3x2, then 2-entry b_proj, w_tok, w_bal; text.w_proj 4x2,
    then the same three. Bounds 6, 8, 10, 12, 20, 22, 24, 26."""
    rng = np.random.default_rng(0)
    spec = PoolingSpec("adpool")
    tensors = BiEncoder(init_encoder_params(rng, 3, 2, spec),
                        init_encoder_params(rng, 4, 2, spec)).tensors()
    return (np.concatenate(list(tensors.values()), axis=None),
            AdamState.for_tensors(tensors))


# (flat index, tensor holding it): first entry of the first tensor, the
# entries on both sides of two bounds, last entry of the last tensor
_POSITIONS = [(0, "visual.w_proj"), (5, "visual.w_proj"), (6, "visual.b_proj"),
              (19, "text.w_proj"), (20, "text.b_proj"), (25, "text.w_bal")]


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # with g=1 the bias-corrected moments are both 1, so the step is
        # lr / (1 + eps)
        params = np.array([2.0])
        state = AdamState.for_tensors({"w": np.array([[2.0]])})
        adam_step(params, np.array([1.0]), state, 5e-4)
        assert abs((2.0 - params[0]) - 5e-4) <= 1e-11

    def test_zero_gradients_are_a_fixed_point(self):
        params, state = _flat_layout()
        start = params.copy()
        for _ in range(5):
            adam_step(params, np.zeros_like(params), state, 1e-3)
        assert np.array_equal(params, start)

    def test_layout_follows_tensors_order(self):
        _, state = _flat_layout()
        assert state.names == ("visual.w_proj", "visual.b_proj", "visual.w_tok",
                               "visual.w_bal", "text.w_proj", "text.b_proj",
                               "text.w_tok", "text.w_bal")
        assert state.bounds.tolist() == [6, 8, 10, 12, 20, 22, 24, 26]
        assert state.m.shape == state.v.shape == (26,)

    # g is NaN, or finite with g * g = inf: v would be inf and every update 0
    @pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "overflow"])
    @pytest.mark.parametrize("index, name", _POSITIONS)
    def test_non_finite_squared_gradient_names_its_tensor(self, index, name, bad):
        params, state = _flat_layout()
        start = params.copy()
        grads = np.zeros_like(params)
        grads[index] = bad
        with pytest.raises(TrainingDivergedError, match=(
                f"non-finite gradient or squared gradient for parameter {name}$")):
            adam_step(params, grads, state, 1e-3)
        assert np.array_equal(params, start)

    @pytest.mark.parametrize("index, name", _POSITIONS)
    def test_non_finite_update_names_its_tensor(self, index, name):
        # the step is lr / (1 + eps) = about 1e308 up from the largest float
        params, state = _flat_layout()
        params[index] = np.finfo(np.float64).max
        start = params.copy()
        grads = np.zeros_like(params)
        grads[index] = -1.0
        message = f"non-finite update for parameter {name} at learning rate"
        with pytest.raises(TrainingDivergedError, match=f"{message} 1e\\+308$"):
            adam_step(params, grads, state, 1e308)
        assert np.array_equal(params, start)

    def test_first_non_finite_entry_is_named(self):
        params, state = _flat_layout()
        grads = np.zeros_like(params)
        grads[[21, 9]] = np.nan  # text.b_proj and, first, visual.w_tok
        with pytest.raises(TrainingDivergedError, match="visual.w_tok$"):
            adam_step(params, grads, state, 1e-3)

    def test_every_squared_gradient_is_checked_before_any_update(self):
        # visual.w_proj's update overflows and text.w_tok's g * g does: the
        # squared gradient is named, though its tensor comes later
        params, state = _flat_layout()
        params[0] = np.finfo(np.float64).max
        grads = np.zeros_like(params)
        grads[0], grads[22] = -1.0, 1e200
        with pytest.raises(TrainingDivergedError,
                           match="squared gradient for parameter text.w_tok$"):
            adam_step(params, grads, state, 1e308)


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

    def test_caller_model_is_untouched_and_every_tensor_moves(self):
        splits, model, cfg = _small_setup(epochs=2)
        before = {name: t.copy() for name, t in model.tensors().items()}
        runs = [train(splits["train"], model, cfg, splits["val"])
                for _ in range(2)]
        for name, t in model.tensors().items():
            assert np.array_equal(t, before[name]), name
        (a, log_a), (b, log_b) = runs
        assert log_a.to_csv() == log_b.to_csv()
        for name, t in a.tensors().items():
            assert np.array_equal(t, b.tensors()[name]), name
            # a model that copied the parameter vector would never move
            assert not np.array_equal(t, before[name]), name

    def test_orphan_caption_is_data_error(self):
        splits, model, cfg = _small_setup()
        corpus = splits["train"]
        orphan = corpus.texts[0]._replace(id="t999999.0", group_id="g999999")
        with pytest.raises(DataError, match=(
                "caption 't999999.0' names group 'g999999', which has no image")):
            train(Corpus(corpus.images, corpus.texts + (orphan,)), model, cfg)

    def test_orphan_validation_caption_is_data_error(self):
        splits, model, cfg = _small_setup()
        val = splits["val"]
        orphan = val.texts[0]._replace(id="t999999.0", group_id="gX")
        with pytest.raises(DataError, match=(
                "caption 't999999.0' names group 'gX', which has no image")):
            train(splits["train"], model, cfg,
                  Corpus(val.images, val.texts + (orphan,)))

    def test_uncaptioned_image_is_data_error(self):
        splits, model, cfg = _small_setup()
        corpus = splits["train"]
        image = corpus.images[1]
        texts = tuple(t for t in corpus.texts if t.group_id != image.group_id)
        with pytest.raises(DataError, match=(
                f"image '{image.id}' has no caption in group '{image.group_id}'")):
            train(Corpus(corpus.images, texts), model, cfg)

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


    def test_lr_at_opens_each_epoch_and_adam_step_runs_once_per_step(
            self, monkeypatch):
        # perfbench's tracer counts training steps at training.adam_step
        calls = []
        for name in ("lr_at", "_validation_rsum", "adam_step"):
            monkeypatch.setattr(training, name,
                                _counting(calls, name, getattr(training, name)))
        splits, model, cfg = _small_setup(epochs=2)  # 48 pairs, 3 batches
        _, log = train(splits["train"], model, cfg, splits["val"])
        epoch = ["lr_at"] + ["adam_step"] * 3 + ["_validation_rsum"]
        assert calls == epoch * 2
        assert calls.count("adam_step") == len(log.records)


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
