"""Synthetic corpus generation and the binary cache format."""

import os
import re

import numpy as np
import pytest

from adret.cache import (
    atomic_write_bytes,
    cache_read,
    cache_write,
    encode_blob,
    load_tensors,
    save_tensors,
)
from adret.data import (
    SyntheticCorpusConfig,
    generate_corpus,
    generate_splits,
    ground_truth,
    load_corpus,
    save_corpus,
)
from adret.errors import ConfigError, EvaluationError, FormatError


class TestCorpusGeneration:
    def test_instance_counts(self):
        cfg = SyntheticCorpusConfig(num_groups=100, captions_per_image=5, seed=1)
        corpus, truth = generate_corpus(cfg)
        assert len(corpus.images) == 100
        assert len(corpus.texts) == 500
        assert len(truth) == 600

    def test_same_seed_bit_identical(self):
        cfg = SyntheticCorpusConfig(num_groups=20, seed=99)
        a, _ = generate_corpus(cfg)
        b, _ = generate_corpus(cfg)
        for x, y in zip(a.images + a.texts, b.images + b.texts):
            assert x.id == y.id and x.group_id == y.group_id
            assert np.array_equal(x.features, y.features)

    def test_lengths_within_ranges(self):
        cfg = SyntheticCorpusConfig(num_groups=40, seed=2,
                                    visual_len=(4, 12), text_len=(5, 15))
        corpus, _ = generate_corpus(cfg)
        assert all(4 <= i.features.shape[0] <= 12 for i in corpus.images)
        assert all(5 <= t.features.shape[0] <= 15 for t in corpus.texts)

    def test_zero_noise_collapses_group_rows(self):
        cfg = SyntheticCorpusConfig(num_groups=5, captions_per_image=1,
                                    noise_scale=0.0, seed=3)
        corpus, _ = generate_corpus(cfg)
        for inst in corpus.images + corpus.texts:
            np.testing.assert_array_equal(inst.features,
                                          np.tile(inst.features[0],
                                                  (inst.features.shape[0], 1)))

    def test_ground_truth_links_groups(self):
        cfg = SyntheticCorpusConfig(num_groups=3, captions_per_image=2, seed=4)
        corpus, truth = generate_corpus(cfg)
        img = corpus.images[0]
        captions = {t.id for t in corpus.texts if t.group_id == img.group_id}
        assert truth[img.id] == frozenset(captions)
        for tid in captions:
            assert truth[tid] == frozenset({img.id})

    def test_splits_share_world_and_are_prefix_stable(self):
        cfg = SyntheticCorpusConfig(num_groups=10, seed=5)
        a = generate_splits(cfg, 10, 4, 4)
        b = generate_splits(cfg, 10, 4, 2)  # shorter test split
        for x, y in zip(a["train"].images, b["train"].images):
            assert np.array_equal(x.features, y.features)
        ids = {i.id for split in a.values() for i in split.images}
        assert len(ids) == 18  # group ids disjoint across splits

    def test_config_validation_names_field(self):
        with pytest.raises(ConfigError, match="noise_scale"):
            SyntheticCorpusConfig(num_groups=1, noise_scale=-0.1, seed=0)
        with pytest.raises(ConfigError, match="num_groups"):
            SyntheticCorpusConfig(num_groups=0, seed=0)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCacheFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((10, 8))
        ids = [f"row{i}" for i in range(10)]
        path = str(tmp_path / "m.bin")
        cache_write(path, m, ids)
        m2, ids2 = cache_read(path)
        assert np.array_equal(m, m2) and m2.dtype == np.float64
        assert ids2 == ids

    def test_empty_matrix_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        cache_write(path, np.zeros((0, 4)), [])
        m, ids = cache_read(path)
        assert m.shape == (0, 4) and ids == []

    def test_single_row_round_trips(self, tmp_path):
        path = str(tmp_path / "one.bin")
        cache_write(path, np.array([[1.5, -2.5]]), ["only"])
        m, ids = cache_read(path)
        assert np.array_equal(m, [[1.5, -2.5]]) and ids == ["only"]

    def test_unicode_ids(self, tmp_path):
        path = str(tmp_path / "u.bin")
        cache_write(path, np.ones((2, 1)), ["café", "überrow"])
        assert cache_read(path)[1] == ["café", "überrow"]

    def test_invalid_utf8_id_reports_byte_offset(self, tmp_path):
        data = encode_blob(np.ones((1, 1)), ["ok", "ab"])
        path = str(tmp_path / "badid.bin")
        with open(path, "wb") as fh:
            fh.write(data[:-1] + b"\xff")
        id_start = len(data) - 2
        with pytest.raises(FormatError, match=f"id at byte {id_start} .*"
                                              f"at byte {id_start + 1}"):
            cache_read(path)

    def test_corrupted_magic(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        data = bytearray(encode_blob(np.ones((2, 2)), ["a", "b"]))
        data[0] ^= 0xFF
        path2 = str(tmp_path / "bad2.bin")
        with open(path2, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            cache_read(path2)

    def test_truncation_reports_byte_offset(self, tmp_path):
        data = encode_blob(np.ones((3, 4)), ["a", "b", "c"])
        path = str(tmp_path / "trunc.bin")
        with open(path, "wb") as fh:
            fh.write(data[:20])
        with pytest.raises(FormatError, match="byte"):
            cache_read(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "extra.bin")
        with open(path, "wb") as fh:
            fh.write(encode_blob(np.ones((1, 1)), ["x"]) + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            cache_read(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_reports_byte_offset(self, tmp_path, value):
        m = np.ones((3, 4))
        data = bytearray(encode_blob(m, []))
        m[2, 1] = value
        data[15:15 + m.nbytes] = m.astype("<f8").tobytes()
        path = str(tmp_path / "nan.bin")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(FormatError, match=f"{re.escape(path)}: .* at byte {15 + 8 * 9}$"):
            cache_read(path)

    def test_non_finite_tensor_names_file_and_offset(self, tmp_path):
        path = str(tmp_path / "params.bin")
        save_tensors(path, {"a": np.ones((1, 2)), "b": np.ones((2, 1))})
        data = bytearray(_read(path))
        second = len(encode_blob(np.ones((1, 2)), ["a"]))
        data[second + 15 + 8:second + 15 + 16] = np.array([np.nan]).tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(FormatError, match=f"{re.escape(path)}: .* at byte {second + 23}$"):
            load_tensors(path)

    def test_writer_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(EvaluationError, match="non-finite"):
            cache_write(str(tmp_path / "nan.bin"), np.array([[1.0, np.nan]]), [])
        assert not os.listdir(tmp_path)

    def test_tensor_bundle_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"text.w_proj": rng.standard_normal((4, 3)),
                   "visual.w_tok": rng.standard_normal((3, 1))}
        path = str(tmp_path / "params.bin")
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert loaded.keys() == tensors.keys()
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])


class TestAtomicWrites:
    def test_no_temp_files_remain(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "out.bin"), b"payload")
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]

    def test_failed_replace_leaves_no_target(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(str(tmp_path / "out.bin"), b"payload")
        assert os.listdir(tmp_path) == []


class TestCorpusPersistence:
    def test_round_trip(self, tmp_path):
        cfg = SyntheticCorpusConfig(num_groups=6, captions_per_image=3, seed=8)
        corpus, _ = generate_corpus(cfg)
        save_corpus(str(tmp_path), "train", corpus)
        loaded = load_corpus(str(tmp_path), "train")
        assert len(loaded.images) == 6 and len(loaded.texts) == 18
        for orig, back in zip(corpus.images + corpus.texts,
                              loaded.images + loaded.texts):
            assert orig.id == back.id and orig.group_id == back.group_id
            assert np.array_equal(orig.features, back.features)
        assert ground_truth(loaded) == ground_truth(corpus)

    def test_same_corpus_same_bytes(self, tmp_path):
        cfg = SyntheticCorpusConfig(num_groups=4, seed=9)
        for sub in ("a", "b"):
            corpus, _ = generate_corpus(cfg)
            os.makedirs(tmp_path / sub)
            save_corpus(str(tmp_path / sub), "t", corpus)
        for name in os.listdir(tmp_path / "a"):
            with open(tmp_path / "a" / name, "rb") as fa, \
                 open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name
