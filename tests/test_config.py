"""Config parsing: sections, defaults, overrides, and pooling specs."""

import dataclasses

import pytest

from adret.config import KEYS, REQUIRED, load_config
from adret.data import SyntheticCorpusConfig
from adret.errors import ConfigError
from adret.objectives import LossConfig
from adret.pooling import PoolingSpec
from adret.training import TrainConfig, build_model, train


BASE = """\
[corpus]
seed = 3

[train]
seed = 9

[output]
dir = /tmp/x
"""


def _load(tmp_path, text, overrides=None):
    path = tmp_path / "c.ini"
    path.write_text(text)
    return load_config(str(path), overrides)


def test_desk_defaults(tmp_path):
    cfg = _load(tmp_path, BASE)
    assert cfg.corpus.num_groups == 1000 and cfg.val_groups == 200
    assert cfg.corpus.latent_dim == 16 and cfg.corpus.noise_scale == 0.1
    assert cfg.corpus.visual_len == (4, 12) and cfg.corpus.text_len == (5, 15)
    assert cfg.train.batch_size == 64 and cfg.train.epochs == 25
    assert cfg.train.lr == 5e-4 and cfg.train.lr_decay_every == 15
    assert cfg.train.loss.mode == "infonce-adaptive"
    assert cfg.train.loss.margin == 0.2 and cfg.train.loss.temperature == 0.05
    assert cfg.visual_pooling.method == "adpool"
    assert cfg.eval_folds == 1


def test_overrides(tmp_path):
    cfg = _load(tmp_path, BASE, {"train.seed": "42", "train.loss": "hard-triplet",
                                 "output.dir": "/tmp/y", "train.epochs": "3"})
    assert cfg.train.seed == 42
    assert cfg.train.loss.mode == "hard-triplet"
    assert cfg.output_dir == "/tmp/y"
    assert cfg.train.epochs == 3


def test_train_seed_is_required_by_training_alone(tmp_path):
    # the corpus and eval do not read train.seed; building or training a
    # model refuses to seed from OS entropy without it
    cfg = _load(tmp_path, BASE.replace("[train]\nseed = 9\n", ""))
    assert cfg.train.seed is None
    with pytest.raises(ConfigError, match="missing required field train.seed"):
        build_model(cfg)
    with pytest.raises(ConfigError, match="missing required field train.seed"):
        train(None, None, cfg.train)


def test_overrides_are_parsed_and_checked_like_file_values(tmp_path):
    bad = BASE.replace("seed = 9", "seed = 9\nbatch_size = soon")
    cfg = _load(tmp_path, bad, {"train.batch_size": "16"})
    assert cfg.train.batch_size == 16
    with pytest.raises(ConfigError, match="train.seed must be an integer, got 'x'"):
        _load(tmp_path, BASE, {"train.seed": "x"})
    with pytest.raises(ConfigError, match="train.lr must be finite"):
        _load(tmp_path, BASE, {"train.lr": "nan"})
    with pytest.raises(ConfigError, match="unknown config field train.sed"):
        _load(tmp_path, BASE, {"train.sed": "1"})
    with pytest.raises(ConfigError, match=r"unknown config section \[extras\]"):
        _load(tmp_path, BASE, {"extras.x": "1"})


def test_key_defaults_equal_the_dataclass_defaults():
    # a default in KEYS and the default of the field it fills must agree
    checked = []
    for section, cls in (("corpus", SyntheticCorpusConfig),
                         ("train", TrainConfig), ("train", LossConfig)):
        keys = KEYS[section]
        for field in dataclasses.fields(cls):
            if field.default is dataclasses.MISSING:
                continue
            if f"{field.name}_min" in keys:  # a (min, max) pair of keys
                default = (keys[f"{field.name}_min"][1],
                           keys[f"{field.name}_max"][1])
            elif field.name in keys and keys[field.name][1] is not REQUIRED:
                default = keys[field.name][1]
            else:
                continue
            assert default == field.default, f"{section}.{field.name}"
            checked.append(field.name)
    assert "batch_size" in checked and "visual_len" in checked
    assert len(checked) == 16


def test_pooling_sections(tmp_path):
    text = BASE + ("\n[pooling.visual]\nmethod = manual\n"
                   "\n[pooling.text]\nmethod = fixed-balance\n"
                   "weights = 0.75, 0.25\n")
    cfg = _load(tmp_path, text)
    assert cfg.visual_pooling.method == "manual"
    assert cfg.visual_pooling.manual_mode == "visual"
    assert cfg.text_pooling.weights == (0.75, 0.25)


def test_keys_a_method_does_not_read_are_parsed(tmp_path):
    for method in ("max", "adpool"):
        section = f"\n[pooling.visual]\nmethod = {method}\n"
        with pytest.raises(ConfigError, match=r"pooling\.visual\.weights"):
            _load(tmp_path, BASE + section + "weights = banana\n")
        with pytest.raises(ConfigError, match=r"pooling\.visual\.k must"):
            _load(tmp_path, BASE + section, {"pooling.visual.k": "three"})
        cfg = _load(tmp_path, BASE + section + "k = 3\nweights = 1, 0\n")
        assert cfg.visual_pooling == PoolingSpec(method)


def test_kmax_requires_k(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, BASE + "\n[pooling.visual]\nmethod = kmax\n")
    cfg = _load(tmp_path, BASE + "\n[pooling.visual]\nmethod = kmax\nk = 3\n")
    assert cfg.visual_pooling.k == 3


def test_kmax_k_above_the_shortest_instance_is_rejected(tmp_path):
    text = BASE.replace("seed = 3", "seed = 3\nvisual_len_min = 3")
    with pytest.raises(ConfigError, match=r"pooling\.visual\.k.*corpus\.visual_len_min"):
        _load(tmp_path, text + "\n[pooling.visual]\nmethod = kmax\nk = 5\n")
    with pytest.raises(ConfigError, match=r"pooling\.text\.k.*corpus\.text_len_min"):
        _load(tmp_path, BASE + "\n[pooling.text]\nmethod = kmax\nk = 6\n")
    cfg = _load(tmp_path, text + "\n[pooling.visual]\nmethod = kmax\nk = 3\n")
    assert cfg.visual_pooling.k == 3


def test_bad_values_name_the_field(tmp_path):
    bad = BASE.replace("seed = 9", "seed = 9\nbatch_size = soon")
    with pytest.raises(ConfigError, match="train.batch_size"):
        _load(tmp_path, bad)
    with pytest.raises(ConfigError, match="unknown config section"):
        _load(tmp_path, BASE + "\n[extras]\nx = 1\n")


def test_fixed_loss_requires_k(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, BASE, {"train.loss": "infonce-fixed"})
    cfg = _load(tmp_path, BASE, {"train.loss": "infonce-fixed",
                                 "train.fixed_k": "8"})
    assert cfg.train.loss.fixed_k == 8


@pytest.mark.parametrize("section,key", [
    ("train", "lr"), ("train", "temperature"), ("train", "margin"),
    ("train", "lr_decay_factor"), ("corpus", "noise_scale")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_floats_name_the_field(tmp_path, section, key, value):
    text = BASE.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
        _load(tmp_path, text)


@pytest.mark.parametrize("weights", ["nan, 0.5", "0.5, nan", "nan, nan",
                                     "inf, -inf"])
def test_non_finite_balance_weights_rejected(tmp_path, weights):
    text = BASE + f"\n[pooling.text]\nmethod = fixed-balance\nweights = {weights}\n"
    with pytest.raises(ConfigError, match="fixed-balance weights"):
        _load(tmp_path, text)


def test_nan_rejected_by_config_objects():
    nan = float("nan")
    with pytest.raises(ConfigError, match="margin"):
        LossConfig(mode="hard-triplet", margin=nan)
    with pytest.raises(ConfigError, match="temperature"):
        LossConfig(mode="infonce-adaptive", temperature=nan)
    with pytest.raises(ConfigError, match="train.lr"):
        TrainConfig(loss=LossConfig(mode="hard-triplet"), seed=0, lr=nan)
    with pytest.raises(ConfigError, match="noise_scale"):
        SyntheticCorpusConfig(num_groups=1, noise_scale=nan, seed=0)
