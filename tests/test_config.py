"""Config parsing: sections, defaults, overrides, and pooling specs."""

import pytest

from adret.config import load_config
from adret.data import SyntheticCorpusConfig
from adret.errors import ConfigError
from adret.objectives import LossConfig
from adret.training import TrainConfig


BASE = """\
[corpus]
seed = 3

[train]
seed = 9

[output]
dir = /tmp/x
"""


def _load(tmp_path, text, **kw):
    path = tmp_path / "c.ini"
    path.write_text(text)
    return load_config(str(path), **kw)


def test_desk_defaults(tmp_path):
    cfg = _load(tmp_path, BASE)
    assert cfg.train_groups == 1000 and cfg.val_groups == 200
    assert cfg.corpus.latent_dim == 16 and cfg.corpus.noise_scale == 0.1
    assert cfg.corpus.visual_len == (4, 12) and cfg.corpus.text_len == (5, 15)
    assert cfg.train.batch_size == 64 and cfg.train.epochs == 25
    assert cfg.train.lr == 5e-4 and cfg.train.lr_decay_every == 15
    assert cfg.train.loss.mode == "infonce-adaptive"
    assert cfg.train.loss.margin == 0.2 and cfg.train.loss.temperature == 0.05
    assert cfg.visual_pooling.method == "adpool"
    assert cfg.eval_folds == 1


def test_overrides(tmp_path):
    cfg = _load(tmp_path, BASE, seed_override=42, loss_override="hard-triplet",
                out_override="/tmp/y", epochs_override=3)
    assert cfg.train.seed == 42
    assert cfg.train.loss.mode == "hard-triplet"
    assert cfg.output_dir == "/tmp/y"
    assert cfg.train.epochs == 3


def test_pooling_sections(tmp_path):
    text = BASE + ("\n[pooling.visual]\nmethod = manual\n"
                   "\n[pooling.text]\nmethod = fixed-balance\n"
                   "weights = 0.75, 0.25\n")
    cfg = _load(tmp_path, text)
    assert cfg.visual_pooling.method == "manual"
    assert cfg.visual_pooling.manual_mode == "visual"
    assert cfg.text_pooling.weights == (0.75, 0.25)


def test_kmax_requires_k(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, BASE + "\n[pooling.visual]\nmethod = kmax\n")
    cfg = _load(tmp_path, BASE + "\n[pooling.visual]\nmethod = kmax\nk = 3\n")
    assert cfg.visual_pooling.k == 3


def test_bad_values_name_the_field(tmp_path):
    bad = BASE.replace("seed = 9", "seed = 9\nbatch_size = soon")
    with pytest.raises(ConfigError, match="train.batch_size"):
        _load(tmp_path, bad)
    with pytest.raises(ConfigError, match="unknown config section"):
        _load(tmp_path, BASE + "\n[extras]\nx = 1\n")


def test_fixed_loss_requires_k(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, BASE, loss_override="infonce-fixed")
    cfg = _load(tmp_path, BASE, loss_override="infonce-fixed", k_override=8)
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
