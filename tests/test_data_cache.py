"""Synthetic corpus generation and the binary cache format."""

import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from adret import cache
from adret.cache import (
    Parts,
    atomic_write_bytes,
    cache_read,
    cache_write,
    decode_runs,
    encode_blob,
    load_tensors,
    save_tensors,
)
from adret.data import (
    RawInstance,
    SyntheticCorpusConfig,
    generate_splits,
    ground_truth,
    load_corpus,
    save_corpus,
)
from adret.errors import ConfigError, DataError, EvaluationError, FormatError


def _corpus(cfg):
    """A corpus of cfg.num_groups groups: the train split alone."""
    return generate_splits(cfg, cfg.num_groups, 0, 0)["train"]


class TestCorpusGeneration:
    def test_instance_counts(self):
        cfg = SyntheticCorpusConfig(num_groups=100, captions_per_image=5, seed=1)
        corpus = _corpus(cfg)
        truth = ground_truth(corpus)
        assert len(corpus.images) == 100
        assert len(corpus.texts) == 500
        assert len(truth) == 600

    def test_same_seed_bit_identical(self):
        cfg = SyntheticCorpusConfig(num_groups=20, seed=99)
        a = _corpus(cfg)
        b = _corpus(cfg)
        for x, y in zip(a.images + a.texts, b.images + b.texts):
            assert x.id == y.id and x.group_id == y.group_id
            assert np.array_equal(x.features, y.features)

    def test_lengths_within_ranges(self):
        cfg = SyntheticCorpusConfig(num_groups=40, seed=2,
                                    visual_len=(4, 12), text_len=(5, 15))
        corpus = _corpus(cfg)
        assert all(4 <= i.features.shape[0] <= 12 for i in corpus.images)
        assert all(5 <= t.features.shape[0] <= 15 for t in corpus.texts)

    def test_zero_noise_collapses_group_rows(self):
        cfg = SyntheticCorpusConfig(num_groups=5, captions_per_image=1,
                                    noise_scale=0.0, seed=3)
        corpus = _corpus(cfg)
        for inst in corpus.images + corpus.texts:
            np.testing.assert_array_equal(inst.features,
                                          np.tile(inst.features[0],
                                                  (inst.features.shape[0], 1)))

    def test_ground_truth_links_groups(self):
        cfg = SyntheticCorpusConfig(num_groups=3, captions_per_image=2, seed=4)
        corpus = _corpus(cfg)
        truth = ground_truth(corpus)
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

    def test_train_groups_must_equal_num_groups(self):
        cfg = SyntheticCorpusConfig(num_groups=12, seed=3)
        with pytest.raises(ConfigError, match=r"train_groups = 1 disagrees "
                                              r"with corpus.num_groups = 12"):
            generate_splits(cfg, 1, 1, 12)


def _reference_splits(cfg, *counts):
    """The per-caption generator the group-wise one replaced, kept as the
    draw's oracle: (images, texts) of ``counts`` groups drawn in turn, each
    caption its own array, the latent added to the scaled noise."""
    rng = np.random.default_rng(cfg.seed)
    mix_v = rng.standard_normal((cfg.latent_dim, cfg.visual_dim))
    mix_t = rng.standard_normal((cfg.latent_dim, cfg.text_dim))
    images, texts = [], []
    with np.errstate(over="ignore"):
        for g in range(sum(counts)):
            gid = f"g{g:06d}"
            z = rng.standard_normal(cfg.latent_dim)
            n = int(rng.integers(cfg.visual_len[0], cfg.visual_len[1] + 1))
            feats = z @ mix_v + cfg.noise_scale * rng.standard_normal(
                (n, cfg.visual_dim))
            images.append(RawInstance("visual", feats, f"i{g:06d}", gid))
            zt = z @ mix_t
            for c in range(cfg.captions_per_image):
                m = int(rng.integers(cfg.text_len[0], cfg.text_len[1] + 1))
                feats = zt + cfg.noise_scale * rng.standard_normal(
                    (m, cfg.text_dim))
                texts.append(RawInstance("text", feats, f"t{g:06d}.{c}", gid))
    return images, texts


class TestGenerationOracle:
    """The group-wise draw against the per-caption reference, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kwargs", [
        {}, {"noise_scale": 0.0}, {"noise_scale": 1e308},
        {"visual_len": (1, 1), "text_len": (1, 1)},
        {"text_len": (15, 15), "captions_per_image": 1}], ids=repr)
    def test_equals_the_per_caption_draw(self, kwargs, seed):
        cfg = SyntheticCorpusConfig(num_groups=30, seed=seed, **kwargs)
        splits = generate_splits(cfg, 30, 7, 9)
        images, texts = _reference_splits(cfg, 30, 7, 9)

        def key(instances):
            return [(i.modality, i.id, i.group_id, i.features.tobytes())
                    for i in instances]
        assert key(sum((c.images for c in splits.values()), ())) == key(images)
        assert key(sum((c.texts for c in splits.values()), ())) == key(texts)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _joined(parts):
    """The bytes ``encode_blob``'s parts write; each part is copied as it
    is drawn, since a payload chunk is only valid until the next."""
    return b"".join(bytes(part) for part in parts.buffers)


def _blob(matrix, ids):
    """The package writer with one id record per listed id."""
    return _joined(encode_blob([matrix], ids, [1] * len(ids)))


def _reference_blob(matrix, ids):
    """The per-row writer the run-based one replaced, kept as the format's
    oracle: every id record is packed and joined one by one."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = matrix.shape
    parts = [b"ADRET1\n", struct.pack("<I", rows), struct.pack("<I", cols),
             np.ascontiguousarray(matrix, dtype="<f8").tobytes()]
    parts.append(struct.pack("<I", len(ids)))
    for name in ids:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(bytes(data))


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
        data = _blob(np.ones((1, 1)), ["ok", "ab"])
        path = str(tmp_path / "badid.bin")
        with open(path, "wb") as fh:
            fh.write(data[:-1] + b"\xff")
        id_start = len(data) - 2
        with pytest.raises(FormatError, match=f"id at byte {id_start} .*"
                                              f"at byte {id_start + 1}"):
            cache_read(path)

    def test_corrupted_magic(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        data = bytearray(_blob(np.ones((2, 2)), ["a", "b"]))
        data[0] ^= 0xFF
        path2 = str(tmp_path / "bad2.bin")
        with open(path2, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            cache_read(path2)

    def test_truncation_reports_byte_offset(self, tmp_path):
        data = _blob(np.ones((3, 4)), ["a", "b", "c"])
        path = str(tmp_path / "trunc.bin")
        with open(path, "wb") as fh:
            fh.write(data[:20])
        with pytest.raises(FormatError, match="byte"):
            cache_read(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "extra.bin")
        with open(path, "wb") as fh:
            fh.write(_blob(np.ones((1, 1)), ["x"]) + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            cache_read(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_reports_byte_offset(self, tmp_path, value):
        m = np.ones((3, 4))
        data = bytearray(_blob(m, []))
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
        second = len(_blob(np.ones((1, 2)), ["a"]))
        data[second + 15 + 8:second + 15 + 16] = np.array([np.nan]).tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(FormatError, match=f"{re.escape(path)}: .* at byte {second + 23}$"):
            load_tensors(path)

    def test_repeated_tensor_name_names_file_and_offset(self, tmp_path):
        path = str(tmp_path / "params.bin")
        first = _blob(np.ones((1, 2)), ["a"])
        _write(path, first + _blob(np.ones((3, 3)), ["a"]))
        with pytest.raises(FormatError, match=f"{re.escape(path)}: duplicate tensor "
                                              f"name 'a' in the blob at byte {len(first)}$"):
            load_tensors(path)

    @pytest.mark.parametrize("read", [load_tensors, cache_read])
    def test_unreadable_path_is_data_error_naming_it(self, tmp_path, read):
        with pytest.raises(DataError,
                           match=f"cannot read {re.escape(str(tmp_path))}: "):
            read(str(tmp_path))

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


class TestWriterOracle:
    """The run-based writer against the per-row reference, byte for byte."""

    # a chunk per block, per 3 blocks of up to 15 rows, one chunk in all
    @pytest.mark.parametrize("chunk", [1, 8 * 32 * 15 * 3, 1 << 20])
    def test_save_corpus_matches_per_row_writer(self, tmp_path, monkeypatch,
                                                chunk):
        monkeypatch.setattr(cache, "_CHUNK", chunk)
        cfg = SyntheticCorpusConfig(num_groups=7, captions_per_image=3, seed=10)
        corpus = _corpus(cfg)
        save_corpus(str(tmp_path), "s", corpus)
        for name, instances in (("visual", corpus.images),
                                ("text", corpus.texts)):
            rows = np.concatenate([inst.features for inst in instances])
            ids = [inst.id for inst in instances for _ in inst.features]
            assert _read(tmp_path / f"s_{name}.bin") == _reference_blob(rows, ids)

    @pytest.mark.parametrize("ids", [
        ["a"] * 7 + ["b"] * 5 + ["c"],        # long runs
        ["a", "a", "b", "a", "b", "b"],       # non-adjacent repeats
        ["café", "café", "überrow", "日本"],  # non-ASCII
        ["", "", "x", ""],                    # empty ids
    ])
    def test_ids_as_rows_and_as_runs(self, ids):
        m = np.arange(3.0 * len(ids)).reshape(len(ids), 3) - 4.5
        expected = _reference_blob(m, ids)
        assert _blob(m, ids) == expected
        # the same table given as runs of equal ids over row blocks
        starts = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
        stops = starts[1:] + [len(ids)]
        blocks = [m[a:b] for a, b in zip(starts, stops)]
        assert _joined(encode_blob(blocks, [ids[a] for a in starts],
                                   [b - a for a, b in zip(starts, stops)])) == expected
        matrix, runs, end = decode_runs(expected)
        assert end == len(expected) and np.array_equal(matrix, m)
        assert runs == [(ids[a], b - a) for a, b in zip(starts, stops)]

    def test_zero_row_matrix(self):
        m = np.zeros((0, 4))
        assert _blob(m, []) == _reference_blob(m, [])

    def test_nan_in_the_last_chunk_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_CHUNK", 8 * 3 * 2)  # two rows a chunk
        blocks = [np.ones((2, 3)) for _ in range(5)]
        blocks[-1][1, 2] = np.nan
        blob = encode_blob(blocks, list("abcde"), [2] * 5)
        with pytest.raises(EvaluationError,
                           match="^cache matrix contains non-finite values$"):
            atomic_write_bytes(str(tmp_path / "nan.bin"), blob)
        assert os.listdir(tmp_path) == []

    def test_save_corpus_holds_no_whole_file(self, tmp_path):
        cfg = SyntheticCorpusConfig(num_groups=1000, seed=11)
        corpus = _corpus(cfg)
        text_bytes = sum(t.features.nbytes for t in corpus.texts)
        tracemalloc.start()
        try:
            save_corpus(str(tmp_path), "test", corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text_bytes > 12e6 and peak < 4e6, (text_bytes, peak)

    def test_tensor_blobs(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {"visual.w_tok": rng.standard_normal((3, 1)),
                   "text.w_proj": rng.standard_normal((4, 3))}
        path = str(tmp_path / "params.bin")
        save_tensors(path, tensors)
        assert _read(path) == b"".join(_reference_blob(tensors[name], [name])
                                       for name in sorted(tensors))


class TestRunReader:
    """Errors met while walking the id table by runs name their byte."""

    IDS = ["abc"] * 5 + ["xy"] * 3
    TABLE = 15 + 8 * 8 * 2  # the id table of an 8 x 2 payload starts here

    def _file(self, tmp_path, data):
        path = str(tmp_path / "ids.bin")
        _write(path, data)
        return path

    def test_truncation_inside_a_run(self, tmp_path):
        data = _blob(np.ones((8, 2)), self.IDS)
        third = self.TABLE + 4 + 2 * 7  # the third "abc" record
        path = self._file(tmp_path, data[:third + 5])
        with pytest.raises(FormatError, match=f"id bytes needs 3 bytes at "
                                              f"byte {third + 4},"):
            cache_read(path)
        path = self._file(tmp_path, data[:third + 2])
        with pytest.raises(FormatError, match=f"id length needs 4 bytes at "
                                              f"byte {third},"):
            cache_read(path)

    def test_invalid_utf8_in_the_first_record_of_a_later_run(self, tmp_path):
        data = bytearray(_blob(np.ones((8, 2)), self.IDS))
        first_xy = self.TABLE + 4 + 5 * 7 + 4  # the first "xy" id's bytes
        for k in range(3):  # the whole run reads b"\xffy"
            data[first_xy + 6 * k] = 0xFF
        with pytest.raises(FormatError, match=f"id at byte {first_xy} is not "
                                              f"valid UTF-8: .* at byte {first_xy}$"):
            cache_read(self._file(tmp_path, data))

    def test_id_count_differs_from_records(self, tmp_path):
        data = bytearray(_blob(np.ones((8, 2)), self.IDS))
        data[self.TABLE:self.TABLE + 4] = struct.pack("<I", 9)
        with pytest.raises(FormatError, match=f"id length needs 4 bytes at "
                                              f"byte {len(data)},"):
            cache_read(self._file(tmp_path, data))
        # a count of 3 ends the blob inside the first run of five records
        data[self.TABLE:self.TABLE + 4] = struct.pack("<I", 3)
        with pytest.raises(FormatError, match="blob ends at byte "
                                              f"{self.TABLE + 4 + 3 * 7}$"):
            cache_read(self._file(tmp_path, data))


class TestAtomicWrites:
    def test_no_temp_files_remain(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "out.bin"), Parts(7, [b"payload"]))
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]

    def test_failed_replace_leaves_no_target(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError(5, "simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        path = str(tmp_path / "out.bin")
        with pytest.raises(DataError, match=f"cannot write {re.escape(path)}: "
                                            "simulated crash"):
            atomic_write_bytes(path, Parts(7, [b"payload"]))
        assert os.listdir(tmp_path) == []

    def test_unwritable_directory_is_data_error(self, tmp_path):
        (tmp_path / "file").write_text("")
        path = str(tmp_path / "file" / "out.bin")
        with pytest.raises(DataError, match="Not a directory"):
            atomic_write_bytes(path, Parts(7, [b"payload"]))


class TestCorpusPersistence:
    def test_round_trip(self, tmp_path):
        cfg = SyntheticCorpusConfig(num_groups=6, captions_per_image=3, seed=8)
        corpus = _corpus(cfg)
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
            corpus = _corpus(cfg)
            os.makedirs(tmp_path / sub)
            save_corpus(str(tmp_path / sub), "t", corpus)
        for name in os.listdir(tmp_path / "a"):
            with open(tmp_path / "a" / name, "rb") as fa, \
                 open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    @pytest.mark.parametrize("ids,rows", [(["a", "a"], 3), (["a"] * 3, 1)])
    def test_id_table_must_cover_the_payload_rows(self, tmp_path, ids, rows):
        with open(tmp_path / "s_meta.json", "w") as fh:
            json.dump({"groups": {"a": "g0"}}, fh)
        path = str(tmp_path / "s_visual.bin")
        cache_write(path, np.ones((rows, 2)), ids)
        cache_write(str(tmp_path / "s_text.bin"), np.ones((1, 2)), ["a"])
        with pytest.raises(DataError, match=(
                f"{re.escape(path)}: id table covers {len(ids)} rows, "
                f"payload has {rows}")):
            load_corpus(str(tmp_path), "s")

    def test_unreadable_sidecar_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "s_meta.json"
        path.mkdir()
        with pytest.raises(DataError, match=(
                f"cannot read corpus sidecar {re.escape(str(path))}: ")):
            load_corpus(str(tmp_path), "s")

    def test_id_in_two_separate_runs_is_data_error(self, tmp_path):
        with open(tmp_path / "s_meta.json", "w") as fh:
            json.dump({"groups": {"a": "g0", "b": "g1"}}, fh)
        path = str(tmp_path / "s_visual.bin")
        cache_write(path, np.ones((4, 2)), ["a", "a", "b", "a"])
        cache_write(str(tmp_path / "s_text.bin"), np.ones((1, 2)), ["b"])
        with pytest.raises(DataError, match=f"'a' .*{re.escape(path)}"):
            load_corpus(str(tmp_path), "s")
