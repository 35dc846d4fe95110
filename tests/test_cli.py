"""End-to-end CLI behavior: verbs, exit codes, file outputs, determinism."""

import json
import os
import struct

import numpy as np
import pytest

from adret.cache import cache_read, cache_write, load_tensors, save_tensors
from adret.cli import main


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
            for suffix in ("visual.bin", "text.bin", "meta.json", "truth.json"):
                assert os.path.exists(os.path.join(out, "corpus",
                                                   f"{split}_{suffix}"))

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

    def test_zero_epochs_keeps_initialization(self, tmp_path):
        cfg, out = _write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--epochs", "0"]) == 0
        from adret.cli import build_model
        from adret.config import load_config
        init = build_model(load_config(cfg)).tensors()
        saved = load_tensors(os.path.join(out, "params.bin"))
        assert init.keys() == saved.keys()
        for name in init:
            assert np.array_equal(init[name], saved[name])
        log = _read_bytes(os.path.join(out, "train_log.csv")).decode()
        assert log.strip() == "epoch,iter,loss,gamma_align,gamma_uniform,k,lr"

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

    def test_cached_embeddings_round_trip(self, trained):
        cfg, out = trained
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0
        first = _read_bytes(os.path.join(out, "results.json"))
        assert os.path.exists(os.path.join(out, "cache_test_text_0.bin"))
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0
        assert _read_bytes(os.path.join(out, "results.json")) == first

    def test_cached_embeddings_follow_a_regenerated_split(self, trained, tmp_path):
        cfg, out = trained
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0
        first = _read_bytes(os.path.join(out, "results.json"))
        with open(cfg) as fh:
            text = fh.read()
        reseeded = tmp_path / "reseeded.ini"
        reseeded.write_text(text.replace("seed = 42", "seed = 43"))
        assert main(["generate", "--config", str(reseeded)]) == 0
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0
        cached = _read_bytes(os.path.join(out, "results.json"))
        assert main(["eval", "--config", cfg]) == 0
        assert cached == _read_bytes(os.path.join(out, "results.json"))
        assert cached != first
        # a regenerated split of another size is re-encoded too
        resized = tmp_path / "resized.ini"
        resized.write_text(text.replace("test_groups = 10", "test_groups = 12"))
        assert main(["generate", "--config", str(resized)]) == 0
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0

    def test_cached_ids_must_match_the_split(self, trained, capsys):
        cfg, out = trained
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0
        cached = os.path.join(out, "cache_test_text_0.bin")
        matrix, ids = cache_read(cached)
        cache_write(cached, matrix, ids[::-1])
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 2
        err = capsys.readouterr().err
        assert cached in err and "ids" in err

    def test_dimension_mismatch_is_config_error(self, trained, capsys):
        cfg, out = trained
        params = os.path.join(out, "params.bin")
        tensors = load_tensors(params)
        tensors["visual.w_proj"] = np.zeros((5, 8))  # corpus has 10-dim visuals
        save_tensors(params, tensors)
        assert main(["eval", "--config", cfg]) == 1

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

    def test_non_finite_cached_embedding_is_format_error(self, trained, capsys):
        cfg, out = trained
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 0
        cached = os.path.join(out, "cache_test_text_0.bin")
        _poke(cached, 15 + 8 * 5, float("nan"))
        assert main(["eval", "--config", cfg, "--cache-embeddings"]) == 2
        err = capsys.readouterr().err
        assert cached in err and "at byte 55" in err

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

    def test_missing_files_are_data_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.bin")
        assert main(["inspect-pool", missing]) == 2
        assert missing in capsys.readouterr().err
        path = str(tmp_path / "m.bin")
        cache_write(path, np.ones((2, 3)), [])
        assert main(["inspect-pool", path, "--method", "adpool",
                     "--params", missing]) == 2
        assert missing in capsys.readouterr().err

    def test_zero_row_matrix_is_data_error(self, tmp_path, capsys):
        path = str(tmp_path / "empty.bin")
        cache_write(path, np.zeros((0, 3)), [])
        assert main(["inspect-pool", path]) == 2
        assert path in capsys.readouterr().err

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

    def test_missing_config_file(self, capsys):
        assert main(["train", "--config", "/nonexistent.ini"]) == 1

    def test_unknown_log_level_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv("ADRET_LOG", "verbose")
        assert main(["gradcheck"]) == 1
        err = capsys.readouterr().err
        assert "ADRET_LOG" in err and "error|info|debug" in err
