import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esckit import cachefile as cf
from esckit import dataset as ds
from esckit.augment import AugmentConfig
from esckit.features import SAMPLE_RATE, LogGTSegment


def riff_wav(payload, audio_format=1, channels=1, bits=16, rate=SAMPLE_RATE, data_size=None):
    """RIFF/WAVE bytes around a raw payload; data_size overrides the data
    length the header declares."""
    block = channels * bits // 8
    data_size = len(payload) if data_size is None else data_size
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    fmt_chunk = b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                                      rate * block, block, bits)
    data_chunk = b"data" + struct.pack("<I", data_size)
    return header + fmt_chunk + data_chunk + payload


def write_wav(path, samples, rate=SAMPLE_RATE):
    """Minimal RIFF writer for fixtures: int16 arrays as PCM16, one column
    per channel."""
    samples = np.asarray(samples)
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    path.write_bytes(riff_wav(samples.astype("<i2").tobytes(), 1, channels, 16, rate))


def float32_wav(samples):
    """A float32 (format 3) RIFF/WAVE file, a codec read_wav refuses."""
    return riff_wav(np.asarray(samples, "<f4").tobytes(), audio_format=3, bits=32)


def meta_csv(path, rows, header="filename,fold,target,category"):
    path.write_text("\n".join([header] + rows) + "\n")


class TestLoadMetadata:
    def test_single_record_fields(self, tmp_path):
        path = tmp_path / "meta.csv"
        meta_csv(path, ["1-100032-A-0.wav,1,0,dog"])
        (record,) = ds.load_metadata(path, variant="custom")
        assert record.filename == "1-100032-A-0.wav"
        assert record.fold == 1 and record.target == 0 and record.category == "dog"

    def test_esc50_shape(self, tmp_path):
        rows = []
        for target in range(50):
            for i in range(40):
                fold = i % 5 + 1
                rows.append(f"{fold}-{target:05d}-{i}.wav,{fold},{target},class{target}")
        path = tmp_path / "esc50.csv"
        meta_csv(path, rows)
        records = ds.load_metadata(path, variant="esc50")
        assert len(records) == 2000
        assert len({r.target for r in records}) == 50
        for fold in range(1, 6):
            assert sum(r.fold == fold for r in records) == 400

    def test_esc10_filter_and_remap(self, tmp_path):
        rows = []
        esc10_targets = [0, 10, 11, 20, 38, 40, 41, 12, 17, 21]  # arbitrary flagged subset
        for target in range(50):
            flag = "True" if target in esc10_targets else "False"
            rows.append(f"c{target}.wav,{target % 5 + 1},{target},cat{target},{flag}")
        path = tmp_path / "meta.csv"
        meta_csv(path, rows, header="filename,fold,target,category,esc10")
        records = ds.load_metadata(path, variant="esc10")
        assert len(records) == 10
        # ascending original-target order: 0,10,11,12,17,20,21,38,40,41 -> 0..9
        by_name = {r.filename: r.target for r in records}
        assert by_name["c0.wav"] == 0
        assert by_name["c10.wav"] == 1
        assert by_name["c41.wav"] == 9
        assert sorted(r.target for r in records) == list(range(10))

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "meta.csv"
        meta_csv(path, ["a.wav,1,0"], header="filename,fold,target")
        with pytest.raises(ds.MetadataError, match="category"):
            ds.load_metadata(path, variant="custom")

    def test_duplicate_filename_names_line(self, tmp_path):
        path = tmp_path / "meta.csv"
        meta_csv(path, ["a.wav,1,0,dog", "a.wav,2,1,rain"])
        with pytest.raises(ds.MetadataError, match=":3"):
            ds.load_metadata(path, variant="custom")

    @pytest.mark.parametrize("row, variant, message", [
        ("a.wav,6,0,dog", "custom", "fold 6"),
        ("a.wav,1,-2,dog", "custom", "negative target"),
        ("a.wav,1,50,dog", "esc50", "target 50"),
        ("a.wav,1", "custom", r"row ends before columns \['category', 'target'\]"),
        ("a.wav,1,2", "custom", r"row ends before columns \['category'\]"),
    ], ids=["fold", "negative-target", "target-past-classes", "no-target", "no-category"])
    def test_malformed_row_rejected(self, tmp_path, row, variant, message):
        path = tmp_path / "meta.csv"
        meta_csv(path, [row])
        with pytest.raises(ds.MetadataError, match=message) as info:
            ds.load_metadata(path, variant=variant)
        assert str(path) in str(info.value)


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.array([16384, -16384, 0], dtype=np.int16))
        clip = ds.read_wav(path)
        assert np.allclose(clip.samples, [0.5, -0.5, 0.0])

    def test_stereo_averages_to_mono(self, tmp_path):
        path = tmp_path / "st.wav"
        frames = (np.array([[0.2, 0.4], [0.5, 0.1]]) * 32768).astype(np.int16)
        write_wav(path, frames)
        clip = ds.read_wav(path)
        assert np.allclose(clip.samples, [0.3, 0.3], atol=1e-4)

    def test_malformed_header_reports_offset(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(ds.AudioDecodeError, match="byte 0"):
            ds.read_wav(path)
        path.write_bytes(b"RIFF" + b"\x00" * 4 + b"NOPE" + b"\x00" * 8)
        with pytest.raises(ds.AudioDecodeError, match="byte 8"):
            ds.read_wav(path)

    @pytest.mark.parametrize("blob, codec", [
        (riff_wav(b"\x00" * 8, audio_format=7, bits=8), r"\(format 7, 8-bit\)"),
        (float32_wav([0.1, np.nan, np.inf]), r"\(format 3, 32-bit\)"),
    ], ids=["mulaw-8bit", "float32"])
    def test_unsupported_codec_rejected(self, tmp_path, blob, codec):
        path = tmp_path / "u.wav"
        path.write_bytes(blob)
        with pytest.raises(ds.AudioDecodeError, match=f"{codec} in fmt chunk at byte 20") as info:
            ds.read_wav(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("rate", [0, 8, 22050, 48000])
    def test_rate_other_than_44100_rejected(self, tmp_path, rate):
        path = tmp_path / "z.wav"
        path.write_bytes(riff_wav(b"\x00" * 8, rate=rate))
        with pytest.raises(ds.AudioDecodeError, match=f" {rate} Hz .*fmt chunk at byte 20") as info:
            ds.read_wav(path)
        assert str(path) in str(info.value)

    # the data chunk is checked before the rate, so an empty one names itself
    # at any rate
    @pytest.mark.parametrize("rate", [22050, SAMPLE_RATE])
    def test_empty_data_chunk_rejected(self, tmp_path, rate):
        path = tmp_path / "empty.wav"
        path.write_bytes(riff_wav(b"", rate=rate))
        with pytest.raises(ds.AudioDecodeError,
                           match="data chunk at byte 44 holds no sample frame") as info:
            ds.read_wav(path)
        assert str(path) in str(info.value)


    # Each damaged file must raise AudioDecodeError naming the path and the
    # byte counts, not a bare numpy error or a silently short clip.
    @pytest.mark.parametrize("present, channels, declared, message", [
        (8999, 1, 10000, "declares 10000 bytes, but the file holds 8999"),
        (8999, 1, None, "holds 8999 bytes, not a whole number of 2-byte sample frames"),
        (10, 2, None, "holds 10 bytes, not a whole number of 4-byte sample frames"),
        (10000, 1, 20000, "declares 20000 bytes, but the file holds 10000"),
    ], ids=["truncated-mid-sample", "odd-pcm16-length", "stereo-odd-sample-count",
            "data-longer-than-file"])
    def test_damaged_file_names_path_and_bytes(self, tmp_path, present, channels, declared,
                                               message):
        path = tmp_path / "damaged.wav"
        payload = np.arange(5000, dtype="<i2").tobytes()[:present]
        path.write_bytes(riff_wav(payload, channels=channels, data_size=declared))
        with pytest.raises(ds.AudioDecodeError, match=message) as info:
            ds.read_wav(path)
        assert str(path) in str(info.value)


# The child decodes seeded mutants of a mono and a stereo PCM16 WAV, mostly
# in the 44 header bytes, under a 2 GiB address-space cap, and prints how many
# decoded and how many raised AudioDecodeError. A decode must hold finite
# samples, no more of them than the file has bytes, and come from a file that
# declares 44100 Hz. Any other outcome exits nonzero, naming the case.
_MUTATION_CHILD = """
import json, random, resource, struct, sys
from pathlib import Path
import numpy as np
from esckit import cachefile as cf, dataset as ds

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
kind, seed, count, work = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
spec = json.loads(Path(work, "spec.json").read_text())
bases = [Path(work, name).read_bytes() for name in spec["bases"]]
fields = {int(at): fmt for at, fmt in spec["fields"]}
values = spec["values"]
read, error = {
    "wav": (ds.read_wav, ds.AudioDecodeError),
    "lgt": (lambda p: [s.values for s in cf.read_cache(p)], cf.CacheFormatError),
    "acrn": (lambda p: list(cf.read_checkpoint(p).values()), cf.CheckpointFormatError),
}[kind]
rng = random.Random(seed)
decoded = rejected = 0
failures = []
for case in range(count):
    blob = bytearray(bases[case % len(bases)])
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            at = rng.randrange(spec["head"]) if rng.random() < 0.8 else rng.randrange(len(blob))
            blob[at] = rng.randrange(256)
        else:
            at, fmt = rng.choice(list(fields.items()))
            value = rng.choice(values) % (1 << 8 * struct.calcsize(fmt))
            struct.pack_into(fmt, blob, at, value)
    end = rng.random()
    if end < 0.1:
        del blob[rng.randrange(len(blob)):]
    elif end < 0.15:
        blob += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
    path = Path(work, "case")
    path.write_bytes(blob)
    try:
        out = read(path)
    except error:
        rejected += 1
        continue
    except Exception as exc:
        failures.append(f"case {case}: {type(exc).__name__}: {exc}")
        continue
    decoded += 1
    if kind != "wav":
        if not all(np.isfinite(a).all() for a in out):
            failures.append(f"case {case}: decoded a non-finite value")
        continue
    fmt_at = ds._find_chunks(bytes(blob), path)[b"fmt "][0]
    (rate,) = struct.unpack_from("<I", blob, fmt_at + 4)
    if rate != 44100:
        failures.append(f"case {case}: decoded at a declared {rate} Hz")
    if out.samples.size > len(blob) // 2 or not np.isfinite(out.samples).all():
        failures.append(f"case {case}: {out.samples.size} samples from {len(blob)} bytes, "
                        f"finite: {np.isfinite(out.samples).all()}")
if failures:
    sys.exit("\\n".join(failures))
print(decoded, rejected)
"""


def run_mutations(kind, work, bases, head, fields, values, count, seed=0):
    """Decode ``count`` seeded mutants of the ``bases`` files in ``work`` in one
    child process whose address space is capped at 2 GiB; returns (decoded,
    rejected).

    A mutant sets 1 to 3 random bytes, mostly in the first ``head`` bytes, or
    writes one of ``values`` into a field of ``fields`` ({offset: struct
    format}); one in ten is then truncated and one in twenty padded. The
    child fails on any exception but the format's own error, and on a
    decoded value that is not finite (for WAV, also on a rate other than
    44.1 kHz or more samples than the file's size allows)."""
    Path(work, "spec.json").write_text(json.dumps(
        {"bases": bases, "head": head, "fields": list(fields.items()), "values": values}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # one BLAS thread keeps numpy's own reservations far below the cap
    env = dict(os.environ, PYTHONPATH=env_path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", _MUTATION_CHILD, kind, str(seed), str(count),
                             str(work)], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-4000:]
    decoded, rejected = map(int, result.stdout.split())
    assert decoded + rejected == count
    return decoded, rejected


def test_mutated_wav_decodes_finite_at_44100_or_is_rejected(tmp_path):
    rng = np.random.default_rng(6)
    write_wav(tmp_path / "mono.wav", rng.integers(-32768, 32768, 400))
    write_wav(tmp_path / "stereo.wav", rng.integers(-32768, 32768, (200, 2)))
    fields = {4: "<I", 16: "<I", 20: "<H", 22: "<H", 24: "<I", 28: "<I", 32: "<H", 34: "<H",
              40: "<I"}
    values = [0, 1, 2, 8, 16, 32, 22050, 44100, 48000, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF]
    decoded, rejected = run_mutations("wav", tmp_path, ["mono.wav", "stereo.wav"], 44, fields,
                                      values, 400)
    assert decoded > 0 and rejected > 0, (decoded, rejected)


def random_segments(n, rng, augmented=False):
    return [LogGTSegment(values=rng.standard_normal((128, 128, 2)).astype(np.float32),
                         clip_id=f"clip{i}.wav", segment_index=i % 3, label=i % 4,
                         fold=i % 5 + 1, augmented=augmented and i % 2 == 0)
            for i in range(n)]


class TestCacheFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        segments = random_segments(7, rng, augmented=True)
        path = tmp_path / "c.lgt"
        cf.write_cache(path, segments)
        loaded = cf.read_cache(path)
        assert len(loaded) == 7
        for a, b in zip(segments, loaded):
            assert a.values.tobytes() == b.values.tobytes()
            assert (a.clip_id, a.segment_index, a.label, a.fold, a.augmented) == \
                   (b.clip_id, b.segment_index, b.label, b.fold, b.augmented)

    def test_version1_reads_without_flags(self, tmp_path):
        # the writer emits version 2 only; version 1 bytes are built by hand
        rng = np.random.default_rng(1)
        segments = random_segments(3, rng)
        blob = cf.CACHE_MAGIC + struct.pack("<II", 1, len(segments))
        for s in segments:
            name = s.clip_id.encode("utf-8")
            blob += struct.pack("<H", len(name)) + name
            blob += struct.pack("<III", s.segment_index, s.label, s.fold)
            blob += s.values.astype("<f4").tobytes()
        path = tmp_path / "v1.lgt"
        path.write_bytes(blob)
        loaded = cf.read_cache(path)
        assert [(s.clip_id, s.segment_index, s.label, s.fold) for s in loaded] == \
               [(s.clip_id, s.segment_index, s.label, s.fold) for s in segments]
        assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(segments, loaded))
        assert all(not s.augmented for s in loaded)

    def test_unknown_magic_and_version_rejected(self, tmp_path):
        path = tmp_path / "bad.lgt"
        path.write_bytes(b"XGT1" + struct.pack("<II", 2, 0))
        with pytest.raises(cf.CacheFormatError, match="magic"):
            cf.read_cache(path)
        path.write_bytes(cf.CACHE_MAGIC + struct.pack("<II", 3, 0))
        with pytest.raises(cf.CacheFormatError, match="version"):
            cf.read_cache(path)

    def test_truncated_and_padded_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "c.lgt"
        cf.write_cache(path, random_segments(2, rng))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(cf.CacheFormatError, match="truncated"):
            cf.read_cache(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(cf.CacheFormatError, match="trailing"):
            cf.read_cache(path)

    def test_wrong_shape_rejected(self, tmp_path):
        seg = LogGTSegment(values=np.zeros((64, 128, 2), np.float32), clip_id="a",
                           segment_index=0, label=0, fold=1)
        with pytest.raises(cf.CacheFormatError, match="shape"):
            cf.write_cache(tmp_path / "c.lgt", [seg])

    def test_dataset_reader_infers_classes(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "c.lgt"
        cf.write_cache(path, random_segments(8, rng))
        dataset = cf.read_cache_dataset(path)
        assert dataset.num_classes == 4
        assert len(dataset) == 8


class TestBuildCache:
    def _write_dataset(self, tmp_path, n_clips=2, seconds=2.5):
        rng = np.random.default_rng(4)
        rows = []
        for i in range(n_clips):
            name = f"clip{i}.wav"
            tone = 0.5 * np.sin(2 * np.pi * (220 + 110 * i)
                                * np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE)
            noise = 0.1 * rng.standard_normal(tone.size)
            write_wav(tmp_path / name, ((tone + noise) * 20000).astype(np.int16))
            rows.append(f"{name},{i % 5 + 1},{i % 2},class{i % 2}")
        meta_csv(tmp_path / "meta.csv", rows)
        return ds.load_metadata(tmp_path / "meta.csv", variant="custom")

    def test_five_second_clip_yields_five_segments(self, tmp_path):
        records = self._write_dataset(tmp_path, n_clips=1, seconds=5.0)
        out = tmp_path / "cache.lgt"
        count = ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=0), out)
        assert count == 5
        assert all(not s.augmented for s in cf.read_cache(out))

    def test_augmented_copies_extend_cache(self, tmp_path):
        records = self._write_dataset(tmp_path, n_clips=2, seconds=2.5)
        out = tmp_path / "cache.lgt"
        raw_count = ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=0), out)
        aug_count = ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=2), out,
                                   seed=7)
        segments = cf.read_cache(out)
        assert aug_count == len(segments) > raw_count
        assert any(s.augmented for s in segments)
        raw_in_cache = [s for s in segments if not s.augmented]
        assert len(raw_in_cache) == raw_count

    def test_rebuild_same_seed_bitwise_identical(self, tmp_path):
        records = self._write_dataset(tmp_path, n_clips=2, seconds=2.5)
        a, b = tmp_path / "a.lgt", tmp_path / "b.lgt"
        ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=1), a, seed=5)
        ds.build_cache(list(reversed(records)), tmp_path, AugmentConfig(copies_per_clip=1),
                       b, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_damaged_third_clip_keeps_the_previous_cache(self, tmp_path, monkeypatch):
        records = self._write_dataset(tmp_path, n_clips=5, seconds=1.5)
        out = tmp_path / "cache.lgt"
        assert ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=1), out) > 0
        before = out.read_bytes()
        damaged = tmp_path / "clip2.wav"
        damaged.write_bytes(damaged.read_bytes()[:-1001])
        written = []
        read_wav = ds.read_wav

        def watched_read_wav(path):
            written.append(os.path.getsize(f"{out}.tmp"))
            return read_wav(path)

        monkeypatch.setattr(ds, "read_wav", watched_read_wav)
        with pytest.raises(ds.AudioDecodeError, match="clip2.wav"):
            ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=1), out)
        assert len(written) == 3 and written[2] > written[1] > 0  # two clips already out
        assert out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_audio_file_names_it(self, tmp_path):
        records = [ds.ClipRecord(filename="ghost.wav", fold=1, target=0, category="x")]
        with pytest.raises(ds.AudioDecodeError, match="ghost.wav"):
            ds.build_cache(records, tmp_path, AugmentConfig(copies_per_clip=0),
                           tmp_path / "c.lgt")
