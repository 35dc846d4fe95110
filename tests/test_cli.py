"""End-to-end CLI behavior: verbs, exit codes, file outputs, determinism."""

import json
import os
import shlex
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adret.cache import cache_write, load_tensors, save_tensors
from adret.cli import main
from adret.config import load_config
from adret.data import load_corpus, save_corpus
from adret.training import build_model, train


SMALL_CONFIG = """\
[corpus]
seed = 42
train_groups = 40
val_groups = 10
test_groups = 10
captions_per_image = 3
latent_dim = 6
visual_dim = 10
text_dim = 10
embed_dim = 8
visual_len_min = 3
visual_len_max = 6
text_len_min = 3
text_len_max = 7

[train]
seed = 7
batch_size = 10
epochs = 2

[output]
dir = {out}
"""


def _write_config(tmp_path, name="cfg.ini", **extra):
    out = tmp_path / "run"
    text = SMALL_CONFIG.format(out=out)
    for section, lines in extra.items():
        text += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return str(path), str(out)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _regroup(path, moves):
    """Move instances of a corpus sidecar to other group ids."""
    meta = json.loads(_read_bytes(path))
    meta["groups"].update(moves)
    with open(path, "w") as fh:
        json.dump(meta, fh)


def _poke(path, offset, value):
    """Overwrite the float64 at byte ``offset`` of a cache file."""
    data = bytearray(_read_bytes(path))
    data[offset:offset + 8] = struct.pack("<d", value)
    with open(path, "wb") as fh:
        fh.write(bytes(data))


class TestGenerate:
    def test_writes_splits_and_prints_counts(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        captured = capsys.readouterr().out
        assert "train: 40 images, 120 texts" in captured
        for split in ("train", "val", "test"):
            for suffix in ("visual.bin", "text.bin", "meta.json"):
                assert os.path.exists(os.path.join(out, "corpus",
                                                   f"{split}_{suffix}"))

    def test_overflowing_noise_scale_is_config_error(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("seed = 42\n", "seed = 42\nnoise_scale = 1e308\n"))
        assert main(["generate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "corpus.noise_scale" in err and "train split" in err
        assert "Warning" not in err

    def test_same_seed_identical_files(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            base = tmp_path / sub
            base.mkdir()
            cfg, out = _write_config(base)
            assert main(["generate", "--config", cfg]) == 0
            corpus = os.path.join(out, "corpus")
            digests.append({name: _read_bytes(os.path.join(corpus, name))
                            for name in sorted(os.listdir(corpus))})
        assert digests[0] == digests[1]

    def test_output_dir_under_a_file_is_data_error(self, tmp_path, capsys):
        cfg, _ = _write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = str(blocker / "run")
        assert main(["generate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {os.path.join(out, 'corpus')}: Not a directory" in err

    def test_missing_required_field_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nseed = 1\n\n[output]\ndir = x\n")
        assert main(["generate", "--config", str(path)]) == 1
        assert "corpus.seed" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[corpus]\nseed = 1\nnoise = 0.5\n\n[output]\ndir = x\n")
        assert main(["generate", "--config", str(path)]) == 1
        assert "corpus.noise" in capsys.readouterr().err

    def test_directory_as_config_is_config_error(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path)]) == 1
        assert (f"error: cannot read config file {tmp_path}: "
                in capsys.readouterr().err)

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[corpus]\nseed = \xff\n")
        assert main(["generate", "--config", str(path)]) == 1
        assert (f"error: config file {path} is not UTF-8: "
                in capsys.readouterr().err)


class TestTrain:
    def test_full_run_writes_artifacts(self, tmp_path):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out, "train_log.csv"))
        assert os.path.exists(os.path.join(out, "params.bin"))
        metrics = json.loads(_read_bytes(os.path.join(out, "metrics.json")))
        assert metrics["loss_mode"] == "infonce-adaptive"
        assert metrics["iterations"] == 8  # 4 batches/epoch x 2 epochs
        assert len(metrics["val_rsum"]) == 2

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_writes_what_the_in_memory_run_returns(self, tmp_path, epochs):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--epochs", str(epochs)]) == 0
        config = load_config(cfg, {"train.epochs": str(epochs)})
        model, log = train(load_corpus(config.corpus_dir, "train", config.corpus),
                           build_model(config), config.train,
                           load_corpus(config.corpus_dir, "val", config.corpus))
        expected = str(tmp_path / "expected.bin")
        save_tensors(expected, model.tensors())
        assert (_read_bytes(os.path.join(out, "params.bin"))
                == _read_bytes(expected))
        assert (_read_bytes(os.path.join(out, "train_log.csv")).decode()
                == log.to_csv())
        assert len(log.records) == 4 * epochs  # 4 batches per epoch

    def test_loss_override_changes_log_schema(self, tmp_path):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--loss", "hard-triplet"]) == 0
        rows = _read_bytes(os.path.join(out, "train_log.csv")).decode().splitlines()
        assert rows[1].split(",")[5] == ""  # no K column for the triplet loss
        assert main(["train", "--config", cfg, "--loss", "infonce-adaptive"]) == 0
        rows = _read_bytes(os.path.join(out, "train_log.csv")).decode().splitlines()
        assert rows[1].split(",")[5].isdigit()

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        cfg, _ = _write_config(tmp_path)
        assert main(["train", "--config", cfg]) == 2
        assert "generate" in capsys.readouterr().err

    def test_non_finite_corpus_value_is_format_error(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        path = os.path.join(out, "corpus", "train_visual.bin")
        _poke(path, 15 + 8 * 3, float("nan"))  # payload starts at byte 15
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and "at byte 39" in err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    @pytest.mark.parametrize("content", ["", '{"x": 1}', '{"groups": 5}',
                                         "[1, 2]"])
    def test_malformed_sidecar_is_data_error(self, tmp_path, capsys, content):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        path = os.path.join(out, "corpus", "train_meta.json")
        with open(path, "w") as fh:
            fh.write(content)
        assert main(["train", "--config", cfg]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("moves, message", [
        ({"t000000.1": "gZZZ"},
         "caption 't000000.1' names group 'gZZZ', which has no image"),
        ({f"t000000.{c}": "g000001" for c in range(3)},
         "image 'i000000' has no caption in group 'g000000'"),
        ({"i000001": "g000000"},
         "group 'g000000' has two images, 'i000000' and 'i000001'"),
    ], ids=["orphan-caption", "uncaptioned-image", "two-images"])
    def test_group_without_one_image_and_a_caption_is_data_error(
            self, tmp_path, capsys, moves, message):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        path = os.path.join(out, "corpus", "train_meta.json")
        _regroup(path, moves)
        assert main(["train", "--config", cfg]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["lr = nan", "temperature = inf",
                                      "margin = -inf", "lr_decay_factor = nan"])
    def test_non_finite_hyperparameter_is_config_error(self, tmp_path, capsys,
                                                       line):
        cfg, out = _write_config(tmp_path)
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("seed = 7\n", f"seed = 7\n{line}\n"))
        assert main(["train", "--config", cfg]) == 1
        assert "train." + line.split(" ")[0] in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_corpus_of_other_widths_is_data_error(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0  # 10-dim visual rows
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("visual_dim = 10", "visual_dim = 12"))
        for command, split in (("train", "train"), ("eval", "test")):
            assert main([command, "--config", cfg]) == 2
            path = os.path.join(out, "corpus", f"{split}_visual.bin")
            assert (f"{path}: rows are 10-dimensional, corpus.visual_dim "
                    f"is 12") in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_train_seed_is_required_by_train_alone(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("[train]\nseed = 7\n", "[train]\n"))
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 1
        assert "missing required field train.seed" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))
        assert main(["train", "--config", cfg, "--seed", "7"]) == 0
        assert main(["eval", "--config", cfg]) == 0

    def test_flags_are_parsed_as_config_values(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--epochs", "soon"]) == 1
        assert ("train.epochs must be an integer, got 'soon'"
                in capsys.readouterr().err)
        assert main(["train", "--config", cfg, "--loss", "infonce-fixed",
                     "--k", "0"]) == 1
        assert "fixed_k >= 1" in capsys.readouterr().err

    def test_overflowing_gradient_is_numerical_error(self, tmp_path, capsys):
        # the loss stays finite, but Adam's squared gradient overflows
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("seed = 7\n", "seed = 7\ntemperature = 1e-300\n"))
        assert main(["train", "--config", cfg]) == 3
        assert "squared gradient for parameter" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_huge_noise_scale_is_numerical_error(self, tmp_path, capsys):
        # generates finite features whose squared norms overflow
        cfg, out = _write_config(tmp_path)
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("seed = 42\n", "seed = 42\nnoise_scale = 1e200\n"))
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "norm inf" in err and "Warning" not in err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_overflowing_update_names_parameter(self, tmp_path, capsys):
        # finite gradients, but lr * m_hat / sqrt(v_hat) overflows
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        text = _read_bytes(cfg).decode()
        with open(cfg, "w") as fh:
            fh.write(text.replace("seed = 7\n", "seed = 7\nlr = 1e308\n"))
        assert main(["train", "--config", cfg]) == 3
        assert "update for parameter" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))


    def test_params_path_that_is_a_directory_is_data_error(
            self, tmp_path, capsys, monkeypatch):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        path = os.path.join(out, "params.bin")
        os.mkdir(path)

        def never(*args, **kwargs):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr("adret.cli.train", never)
        assert main(["train", "--config", cfg]) == 2
        assert f"cannot write {path}: Is a directory" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "train_log.csv"))


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        return cfg, out

    def test_writes_results(self, trained, capsys):
        cfg, out = trained
        assert main(["eval", "--config", cfg]) == 0
        result = json.loads(_read_bytes(os.path.join(out, "results.json")))
        assert set(result) == {"ir_r1", "ir_r5", "ir_r10",
                               "cr_r1", "cr_r5", "cr_r10", "rsum"}
        assert os.path.exists(os.path.join(out, "results.csv"))

    def test_self_ensemble_matches_single(self, trained):
        cfg, out = trained
        assert main(["eval", "--config", cfg]) == 0
        single = _read_bytes(os.path.join(out, "results.json"))
        params = os.path.join(out, "params.bin")
        assert main(["eval", "--config", cfg, "--ensemble", params, params]) == 0
        assert _read_bytes(os.path.join(out, "results.json")) == single

    def test_params_for_other_dimensions_are_data_error(self, trained,
                                                        tmp_path, capsys):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        bad = str(tmp_path / "bad.bin")
        tensors = load_tensors(params)
        tensors["visual.w_proj"] = np.zeros((5, 8))  # corpus has 10-dim visuals
        save_tensors(bad, tensors)
        assert main(["eval", "--config", cfg, "--ensemble", params, bad]) == 2
        assert (f"{bad}: visual.w_proj takes 5-dimensional rows, "
                f"corpus.visual_dim is 10") in capsys.readouterr().err
        matrix = str(tmp_path / "m.bin")
        cache_write(matrix, np.ones((5, 4)), [])  # the model pools 8-dim rows
        assert main(["inspect-pool", matrix, "--params", params]) == 2
        assert (f"{params}: text.w_tok takes 8-dimensional rows, the row "
                f"width of {matrix} is 4") in capsys.readouterr().err
        tensors = load_tensors(params)
        tensors["text.w_proj"] = np.zeros((10, 6))  # b_proj is 8 long
        save_tensors(bad, tensors)
        assert main(["eval", "--config", cfg, "--ensemble", bad]) == 2
        assert f"{bad}: b_proj length 8 != d 6" in capsys.readouterr().err

    def test_sides_of_other_widths_are_data_error(self, trained, tmp_path,
                                                  capsys):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        bad = str(tmp_path / "bad.bin")
        tensors = load_tensors(params)  # both sides 8 wide
        tensors.update({"visual.w_proj": np.ones((10, 16)),
                        "visual.b_proj": np.zeros((1, 16)),
                        "visual.w_tok": np.zeros((16, 1)),
                        "visual.w_bal": np.zeros((16, 1))})
        save_tensors(bad, tensors)
        assert main(["eval", "--config", cfg, "--ensemble", params, bad]) == 2
        assert (f"{bad}: visual.w_proj outputs 16 columns, text.w_proj 8"
                in capsys.readouterr().err)
        save_tensors(params, tensors)
        assert main(["eval", "--config", cfg]) == 2
        assert (f"{params}: visual.w_proj outputs 16 columns, text.w_proj 8"
                in capsys.readouterr().err)
        assert not os.path.exists(os.path.join(out, "results.json"))

    def test_params_lacking_a_tensor_is_data_error(self, trained, tmp_path,
                                                   capsys):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        matrix = str(tmp_path / "m.bin")
        cache_write(matrix, np.random.default_rng(0).standard_normal((4, 8)), [])
        assert main(["inspect-pool", matrix]) == 0
        assert main(["inspect-pool", matrix, "--params", params]) == 0
        zero, learned = capsys.readouterr().out.splitlines()
        assert zero != learned  # the trained text pooling weights were read
        bad = str(tmp_path / "bad.bin")
        tensors = load_tensors(params)
        del tensors["text.w_tok"]
        save_tensors(bad, tensors)
        for argv in (["eval", "--config", cfg, "--ensemble", params, bad],
                     ["inspect-pool", matrix, "--params", bad]):
            assert main(argv) == 2
            assert f"{bad}: missing tensor 'text.w_tok'" in capsys.readouterr().err

    def test_repeated_tensor_name_is_format_error(self, trained, tmp_path,
                                                  capsys):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        matrix = str(tmp_path / "m.bin")
        cache_write(matrix, np.ones((4, 8)), [])
        data = _read_bytes(params)
        bad = str(tmp_path / "bad.bin")
        save_tensors(bad, {"text.w_tok": load_tensors(params)["text.w_tok"]})
        blob = _read_bytes(bad)
        with open(bad, "wb") as fh:
            fh.write(data + blob)  # the last blob repeats 'text.w_tok'
        for argv in (["eval", "--config", cfg, "--ensemble", params, bad],
                     ["inspect-pool", matrix, "--params", bad]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert (f"{bad}: duplicate tensor name 'text.w_tok' in the blob "
                    f"at byte {len(data)}") in err

    def test_collapsed_params_hit_numerical_exit(self, trained):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        tensors = {name: np.zeros_like(t) for name, t in load_tensors(params).items()}
        save_tensors(params, tensors)
        assert main(["eval", "--config", cfg]) == 3

    def test_more_folds_than_test_images_is_config_error(self, trained,
                                                         tmp_path, capsys):
        cfg, out = _write_config(tmp_path, name="folds.ini",
                                 eval=["folds = 11"])  # 10 test images
        assert main(["eval", "--config", cfg]) == 1
        assert "got 11" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "results.json"))

    def test_non_finite_params_is_format_error(self, trained, capsys):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        _poke(params, 15, float("inf"))  # first entry of the first tensor
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert params in err and "at byte 15" in err

    def test_orphan_caption_in_test_split_is_data_error(self, trained, capsys):
        cfg, out = trained
        path = os.path.join(out, "corpus", "test_meta.json")
        _regroup(path, {"t000050.0": "gZZZ"})
        assert main(["eval", "--config", cfg]) == 2
        assert f"{path}: caption 't000050.0' names group 'gZZZ'" in capsys.readouterr().err

    def test_id_of_an_image_and_a_caption_is_data_error(self, trained, capsys):
        # ground truth keys both by id: the image's relevant set would be
        # overwritten by the caption's, so Recall@K would rank the wrong set
        cfg, out = trained
        corpus_dir = os.path.join(out, "corpus")
        test = load_corpus(corpus_dir, "test")
        texts = tuple(replace(t, id="i000050") if t.id == "t000050.0" else t
                      for t in test.texts)
        save_corpus(corpus_dir, "test", replace(test, texts=texts))
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "instance 'i000050' is both an image in" in err
        for name in ("test_visual.bin", "test_text.bin"):
            assert os.path.join(corpus_dir, name) in err

    @pytest.mark.parametrize("name", ["results.json", "results.csv"])
    def test_results_path_that_is_a_directory_is_data_error(
            self, trained, capsys, monkeypatch, name):
        cfg, out = trained
        path = os.path.join(out, name)
        os.mkdir(path)

        def never(*args, **kwargs):
            raise AssertionError("evaluated before checking the output paths")

        monkeypatch.setattr("adret.cli.evaluate_split", never)
        assert main(["eval", "--config", cfg]) == 2
        assert f"cannot write {path}: Is a directory" in capsys.readouterr().err
        assert not [name for name in os.listdir(out) if name.startswith(".tmp-")]
        assert not os.path.isfile(os.path.join(out, "results.json"))

    def test_missing_params_is_data_error(self, tmp_path):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["eval", "--config", cfg]) == 2


class TestGradcheckCommand:
    def test_passes_and_lists_operations(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 10

    def test_seeded_reports_identical(self, capsys):
        assert main(["gradcheck", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first


class TestInspectPool:
    def test_constant_matrix_uniform_weights(self, tmp_path, capsys):
        path = str(tmp_path / "m.bin")
        cache_write(path, np.full((4, 3), 2.0), [])
        assert main(["inspect-pool", path, "--method", "adpool"]) == 0
        dump = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(dump["theta"], 0.25, atol=1e-12)
        np.testing.assert_allclose(np.array(dump["delta"]), 0.25, atol=1e-12)
        assert abs(sum(dump["omega"]) - 1.0) <= 1e-12

    def test_single_row_theta(self, tmp_path, capsys):
        path = str(tmp_path / "row.bin")
        cache_write(path, np.array([[1.0, -2.0]]), [])
        assert main(["inspect-pool", path, "--method", "adpool"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["theta"] == [1.0]

    def test_weight_sums(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = str(tmp_path / "r.bin")
        cache_write(path, rng.standard_normal((5, 4)), [])
        assert main(["inspect-pool", path, "--method", "adpool"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert abs(sum(dump["theta"]) - 1.0) <= 1e-12
        delta = np.array(dump["delta"])
        np.testing.assert_allclose(delta.sum(axis=0), 1.0, atol=1e-12)

    def test_corrupt_matrix_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        assert main(["inspect-pool", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_directory_as_matrix_is_data_error(self, tmp_path, capsys):
        assert main(["inspect-pool", str(tmp_path)]) == 2
        assert f"error: cannot read {tmp_path}: " in capsys.readouterr().err

    def test_non_finite_matrix_is_format_error(self, tmp_path, capsys):
        path = str(tmp_path / "nan.bin")
        cache_write(path, np.ones((2, 3)), [])
        _poke(path, 15 + 8 * 4, float("nan"))
        assert main(["inspect-pool", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "at byte 47" in err

    @pytest.mark.parametrize("weights", ["nan,0.5", "0.5,nan", "inf,-inf"])
    def test_non_finite_weights_are_config_error(self, tmp_path, capsys,
                                                 weights):
        path = str(tmp_path / "m.bin")
        cache_write(path, np.ones((2, 3)), [])
        assert main(["inspect-pool", path, "--method", "fixed-balance",
                     "--weights", weights]) == 1
        assert "weights" in capsys.readouterr().err

    def test_kmax_k_beyond_the_rows_is_config_error(self, tmp_path, capsys):
        path = str(tmp_path / "m.bin")
        cache_write(path, np.ones((4, 3)), [])
        assert main(["inspect-pool", path, "--method", "kmax", "--k", "10"]) == 1
        err = capsys.readouterr().err
        assert "kmax pooling: k=10 outside [1, 4]" in err

    @pytest.mark.parametrize("method,flag,owner", [
        ("mean", ["--k", "2"], "kmax"),
        ("adpool", ["--k", "2"], "kmax"),
        ("max", ["--weights", "0.5,0.5"], "fixed-balance"),
        ("kmax", ["--k", "2", "--weights", "0.5,0.5"], "fixed-balance")])
    def test_flag_its_method_does_not_read_is_config_error(
            self, tmp_path, capsys, method, flag, owner):
        path = str(tmp_path / "m.bin")
        cache_write(path, np.ones((4, 3)), [])
        assert main(["inspect-pool", path, "--method", method, *flag]) == 1
        assert (f"{flag[-2]} is for --method {owner} only"
                in capsys.readouterr().err)

    def test_missing_files_are_data_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.bin")
        assert main(["inspect-pool", missing]) == 2
        assert missing in capsys.readouterr().err
        path = str(tmp_path / "m.bin")
        cache_write(path, np.ones((2, 3)), [])
        assert main(["inspect-pool", path, "--method", "adpool",
                     "--params", missing]) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    @pytest.mark.parametrize("method", [
        ["mean"], ["max"], ["kmax", "--k", "1"], ["adpool"],
        ["manual", "--modality", "visual"], ["manual", "--modality", "text"],
        ["fixed-balance", "--weights", "1,0"]])
    def test_zero_row_matrix_is_data_error(self, tmp_path, capsys, shape,
                                           method):
        path = str(tmp_path / "empty.bin")
        cache_write(path, np.zeros(shape), [])
        assert main(["inspect-pool", path, "--method", *method]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [
        ["mean"], ["kmax", "--k", "2"], ["manual", "--modality", "visual"]])
    def test_finite_matrix_pooled_to_inf_is_numerical_error(self, tmp_path,
                                                            capsys, method):
        path = str(tmp_path / "huge.bin")
        cache_write(path, np.array([[1e308, 1.0], [1e308, 2.0]]), [])
        assert main(["inspect-pool", path, "--method", *method]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: the {method[0]} pooled vector is "
                       "not finite\n")

    @pytest.mark.filterwarnings("error")  # the max needs no sum to overflow
    @pytest.mark.parametrize("method", [["max"], ["kmax", "--k", "1"]])
    def test_max_of_a_huge_matrix_sums_nothing(self, tmp_path, capsys, method):
        path = str(tmp_path / "huge.bin")
        cache_write(path, np.array([[1e308, 1.0], [1e308, 2.0]]), [])
        assert main(["inspect-pool", path, "--method", *method]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["pooled"] == [1e308, 2.0] and err == ""

    def test_invalid_utf8_id_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "badid.bin"
        cache_write(str(path), np.ones((2, 3)), ["ab"])
        path.write_bytes(path.read_bytes()[:-1] + b"\xff")
        assert main(["inspect-pool", str(path)]) == 2
        err = capsys.readouterr().err
        assert "byte" in err
        assert str(path) in err


class TestUsageErrors:
    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["train", "--bogus"]) == 1

    def test_cache_embeddings_flag_is_gone(self, capsys):
        assert main(["eval", "--config", "cfg.ini", "--cache-embeddings"]) == 1
        assert "--cache-embeddings" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["generate", "eval"])
    def test_seed_flag_is_for_train_alone(self, verb, capsys):
        assert main([verb, "--config", "cfg.ini", "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["train", "--config", "/nonexistent.ini"]) == 1

    def test_unknown_log_level_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv("ADRET_LOG", "verbose")
        assert main(["gradcheck"]) == 1
        err = capsys.readouterr().err
        assert "ADRET_LOG" in err and "error|info|debug" in err


def test_readme_typical_experiment_runs_as_written(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A typical experiment:\n\n```\n", 1)[1]
    commands = [shlex.split(line) for line in block.split("```", 1)[0].splitlines()]
    assert commands and all(words[0] == "adret" for words in commands)
    (tmp_path / "exp.ini").write_text(SMALL_CONFIG.format(out="unused"))
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert main(words[1:]) == 0, " ".join(words)
    corpora = [tmp_path / "runs" / run / "corpus" for run in ("ad", "tri")]
    assert sorted(os.listdir(corpora[0])) == sorted(os.listdir(corpora[1]))
    for name in os.listdir(corpora[0]):
        assert (_read_bytes(corpora[0] / name) == _read_bytes(corpora[1] / name))
    for run in ("ad", "tri"):
        assert (tmp_path / "runs" / run / "results.json").exists()
