"""The shared container framing, the atomic write path, and the rule that
only ``esckit.cachefile`` opens files for writing."""

import ast
import os
import struct
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from esckit import cachefile as cf
from esckit import cli
from esckit import evaluate as ev
from esckit.config import RunConfig
from esckit.features import LogGTSegment
from esckit.train import HistoryRow, TrainConfig, TrainHistory
from test_dataset import run_mutations

SRC = Path(cf.__file__).parent


class TestByteLayout:
    def test_checkpoint_bytes_follow_the_documented_layout(self, tmp_path):
        state = OrderedDict([("conv.kernel", np.arange(6, dtype=np.float64).reshape(1, 2, 3)),
                             ("gru.b", np.array([[2.5], [0.25]], np.float32)),
                             ("bn.running_mean", np.array([-1.0, 0.5], np.float32)),
                             ("opt.scale", np.float32(2.5))])  # rank 0: no dims
        expected = cf.CHECKPOINT_MAGIC + struct.pack("<II", 1, 4)
        for name, arr in state.items():
            arr = np.asarray(arr, dtype="<f4")
            expected += struct.pack("<H", len(name)) + name.encode("utf-8")
            expected += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
            expected += arr.tobytes()
        path = tmp_path / "ckpt"
        cf.save_checkpoint(path, state)
        assert path.read_bytes() == expected
        loaded = cf.read_checkpoint(path)
        assert list(loaded) == list(state)
        for name, arr in state.items():
            assert loaded[name].dtype == np.float32 and loaded[name].shape == np.shape(arr)
            assert loaded[name].tobytes() == np.asarray(arr, dtype="<f4").tobytes()

    def test_cache_bytes_follow_the_documented_layout(self, tmp_path):
        rng = np.random.default_rng(5)
        segments = [LogGTSegment(values=rng.standard_normal((128, 128, 2)).astype(np.float32),
                                 clip_id=clip_id, segment_index=i, label=3 - i, fold=i + 1,
                                 augmented=bool(i))
                    for i, clip_id in enumerate(("a.wav", "bé.wav"))]
        expected = cf.CACHE_MAGIC + struct.pack("<II", 2, 2)
        for s in segments:
            name = s.clip_id.encode("utf-8")
            expected += struct.pack("<H", len(name)) + name
            expected += struct.pack("<IIIB", s.segment_index, s.label, s.fold, s.augmented)
            expected += s.values.astype("<f4").tobytes()
        path = tmp_path / "c.lgt"
        cf.write_cache(path, segments)
        assert path.read_bytes() == expected

    def test_short_header_is_truncated(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(cf.CHECKPOINT_MAGIC + b"\x01\x00")
        with pytest.raises(cf.CheckpointFormatError, match="truncated"):
            cf.read_checkpoint(path)

    def test_empty_record_with_oversized_dims_is_a_format_error(self, tmp_path):
        # 28 bytes: one rank-3 record that holds no values, but whose nonzero
        # dims are past what numpy can size
        path = tmp_path / "ckpt"
        blob = (cf.CHECKPOINT_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w"
                + struct.pack("<B3I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1))
        assert len(blob) == 28
        path.write_bytes(blob)
        with pytest.raises(cf.CheckpointFormatError,
                           match=r"record 0 declares shape \(0, 4294967295, 4294967295\) "
                                 "at byte 15"):
            cf.read_checkpoint(path)
        # an empty record whose dims fit in the file still reads back
        cf.save_checkpoint(path, {"w": np.zeros((0, 5), np.float32)})
        assert cf.read_checkpoint(path)["w"].shape == (0, 5)

    @pytest.mark.parametrize("write, read, error", [
        (lambda p: cf.save_checkpoint(p, {"w": np.ones(3)}), cf.read_checkpoint,
         cf.CheckpointFormatError),
        (lambda p: cf.write_cache(p, [LogGTSegment(values=np.zeros((128, 128, 2), np.float32),
                                                   clip_id="a.wav", segment_index=0, label=0,
                                                   fold=1)]),
         cf.read_cache, cf.CacheFormatError),
    ], ids=["checkpoint", "cache"])
    def test_name_that_is_not_utf8_is_a_format_error(self, tmp_path, write, read, error):
        path = tmp_path / "f"
        write(path)
        blob = bytearray(path.read_bytes())
        blob[14] = 0xFF  # magic, version, count, name length, then the first name byte
        path.write_bytes(bytes(blob))
        with pytest.raises(error, match="record 0 name at byte 14 is not UTF-8"):
            read(path)


def _torn_open(real_open, fail_at=1):
    """An ``open`` that, for writing, passes the first ``fail_at - 1`` writes
    through, stores half the bytes of the next one and then fails."""
    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "r" in mode:
            return fh
        calls = []

        class Torn:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def __getattr__(self, name):
                return getattr(fh, name)

            def write(self, data):
                calls.append(len(data))
                if len(calls) < fail_at:
                    return fh.write(data)
                fh.write(data[:len(data) // 2])
                fh.flush()
                raise OSError(28, "No space left on device")
        return Torn()
    return fake_open


def _report(v):
    return ev.EvalReport(fold_accuracies={1: v}, confusion=np.array([[1, v > 0], [0, 2]]),
                         class_names={0: "dog", 1: "rain"})


WRITERS = {
    "checkpoint": lambda path, v: cf.save_checkpoint(path, {"w": np.full((2, 3), v, np.float32)}),
    "cache": lambda path, v: cf.write_cache(path, [LogGTSegment(
        values=np.full((128, 128, 2), v, np.float32), clip_id="a.wav", segment_index=0,
        label=0, fold=1)]),
    "report": lambda path, v: _report(v).to_csv(path),
    "confusion": lambda path, v: _report(v).confusion_to_csv(path),
    "ablation": lambda path, v: ev.ablation_to_csv([("base", _report(v))], path),
    "history": lambda path, v: TrainHistory(rows=[HistoryRow(
        epoch=1, lr=0.01, train_loss=v, train_acc=0.5, val_acc=0.5, seconds=1.0)]).to_csv(path),
    "manifest": lambda path, v: cli._write_manifest(
        path, RunConfig(train=TrainConfig(seed=int(v * 10))), "cv"),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file(kind, tmp_path, monkeypatch):
    path = tmp_path / "out"
    WRITERS[kind](path, 0.0)
    before = path.read_bytes()
    monkeypatch.setattr(cf, "open", _torn_open(open), raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[kind](path, 1.0)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    # the same writer, unpatched, does replace the file
    WRITERS[kind](path, 1.0)
    assert path.read_bytes() != before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _segments(n, start=0, shape=(128, 128, 2)):
    for i in range(start, start + n):
        yield LogGTSegment(values=np.full(shape, i, np.float32), clip_id=f"c{i}.wav",
                           segment_index=i, label=i % 2, fold=i % 5 + 1, augmented=bool(i % 3))


def _assert_only(tmp_path, path, before):
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


# a 3-segment cache takes 8 writes: the file header, a record header and the
# values per record, then the count patched in last
@pytest.mark.parametrize("fail_at", [2, 5, 7, 8])
def test_disk_full_mid_stream_keeps_the_previous_cache(fail_at, tmp_path, monkeypatch):
    path = tmp_path / "c.lgt"
    cf.write_cache(path, _segments(2))
    before = path.read_bytes()
    monkeypatch.setattr(cf, "open", _torn_open(open, fail_at), raising=False)
    with pytest.raises(OSError, match="No space left"):
        cf.write_cache(path, _segments(3, start=10))
    _assert_only(tmp_path, path, before)


def test_wrong_shape_after_valid_segments_keeps_the_previous_cache(tmp_path):
    path = tmp_path / "c.lgt"
    cf.write_cache(path, _segments(2))
    before = path.read_bytes()

    def stream():
        yield from _segments(3, start=10)
        yield from _segments(1, shape=(64, 128, 2))

    with pytest.raises(cf.CacheFormatError, match="shape"):
        cf.write_cache(path, stream())
    _assert_only(tmp_path, path, before)


def test_write_cache_takes_a_generator_and_counts_it(tmp_path):
    path = tmp_path / "c.lgt"
    assert cf.write_cache(path, _segments(3)) == 3
    assert struct.unpack_from("<I", path.read_bytes(), 8) == (3,)
    assert [s.clip_id for s in cf.read_cache(path)] == ["c0.wav", "c1.wav", "c2.wav"]


def _v1_bytes(segments):
    blob = cf.CACHE_MAGIC + struct.pack("<II", 1, len(segments))
    for s in segments:
        name = s.clip_id.encode("utf-8")
        blob += struct.pack("<H", len(name)) + name
        blob += struct.pack("<III", s.segment_index, s.label, s.fold) + s.values.tobytes()
    return blob


class TestStreamedReader:
    def test_count_beyond_the_records_is_truncated(self, tmp_path):
        path = tmp_path / "c.lgt"
        cf.write_cache(path, _segments(3))
        blob = bytearray(path.read_bytes())
        for count in (4, 2 ** 32 - 1):
            blob[8:12] = struct.pack("<I", count)
            path.write_bytes(bytes(blob))
            with pytest.raises(cf.CacheFormatError, match=r"truncated .* at byte \d+"):
                cf.read_cache(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_values_are_rows_of_one_array(self, version, tmp_path):
        segments = list(_segments(5))
        path = tmp_path / "c.lgt"
        if version == 1:
            path.write_bytes(_v1_bytes(segments))
        else:
            cf.write_cache(path, segments)
        loaded = cf.read_cache(path)
        store = loaded[0].values.base
        assert store.shape == (5, *cf.CACHE_SEGMENT_SHAPE) and store.dtype == np.float32
        assert store.flags.c_contiguous and store.flags.aligned
        assert np.shares_memory(loaded[0].values, store)
        assert np.shares_memory(loaded[-1].values, store)
        for a, b in zip(segments, loaded):
            assert b.values.base is store and b.values.tobytes() == a.values.tobytes()
            assert b.augmented == (version == 2 and a.augmented)

    def test_checkpoint_records_keep_rank_and_own_arrays(self, tmp_path):
        state = OrderedDict([("scale", np.float32(-0.5)),
                             ("kernel", np.arange(120, dtype=np.float32).reshape(2, 3, 4, 5))])
        path = tmp_path / "ckpt"
        cf.save_checkpoint(path, state)
        loaded = cf.read_checkpoint(path)
        assert [a.shape for a in loaded.values()] == [(), (2, 3, 4, 5)]
        assert all(loaded[k].tobytes() == np.asarray(v).tobytes() for k, v in state.items())
        assert not np.shares_memory(loaded["scale"], loaded["kernel"])


def _patch_value(path, at, value):
    """Overwrite the float32 at byte ``at`` of a valid file, past the writers'
    own finiteness check."""
    blob = bytearray(path.read_bytes())
    blob[at:at + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_cache_record_with_a_non_finite_value_is_a_format_error(self, value, tmp_path):
        path = tmp_path / "c.lgt"
        cf.write_cache(path, _segments(3))
        # record 1's values start after the header, record 0 and its own
        # 2 + 6 name bytes and 13 header bytes; (5, 0, 1) is value 5 * 256 + 1
        at = 12 + (2 + 6 + 13 + 128 * 128 * 2 * 4) + 2 + 6 + 13 + 4 * (5 * 256 + 1)
        _patch_value(path, at, value)
        with pytest.raises(cf.CacheFormatError, match=rf"record 1 holds {value} at byte {at};"):
            cf.read_cache(path)

    def test_checkpoint_of_a_diverged_run_does_not_load(self, tmp_path):
        state = OrderedDict([("w", np.ones((2, 3), np.float32)),
                             ("b", np.array([0.0, 1.0], np.float32))])
        path = tmp_path / "ckpt"
        cf.save_checkpoint(path, state)
        # "b"'s values start at byte 12 + (2 + 1 + 1 + 8 + 24) + (2 + 1 + 1 + 4)
        _patch_value(path, 60, np.nan)
        with pytest.raises(cf.CheckpointFormatError, match="record 1 holds nan at byte 60;"):
            cf.read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_cache_writer_refuses_a_non_finite_value_and_keeps_the_previous_cache(
            self, value, tmp_path):
        path = tmp_path / "c.lgt"
        cf.write_cache(path, _segments(2))
        before = path.read_bytes()
        segments = list(_segments(3, start=10))
        segments[1].values[5, 0, 1] = value
        with pytest.raises(cf.CacheFormatError,
                           match=r"record 1 \('c11.wav'\) holds a non-finite value"):
            cf.write_cache(path, segments)
        _assert_only(tmp_path, path, before)

    def test_checkpoint_writer_refuses_a_diverged_state_and_leaves_no_file(self, tmp_path):
        state = OrderedDict([("w", np.ones((2, 3), np.float32)),
                             ("b", np.array([0.0, np.nan], np.float32))])
        with pytest.raises(cf.CheckpointFormatError,
                           match=r"record 1 \('b'\) holds a non-finite value"):
            cf.save_checkpoint(tmp_path / "ckpt", state)
        assert list(tmp_path.iterdir()) == []


def container_fields(blob, records):
    """{offset: struct format} of a container's version, count, each record's
    name length and header fields, and the first and last of its values, with
    the last value as a u32. ``records`` holds (name, header formats, value
    count) per record."""
    at, fields = 12, {4: "<I", 8: "<I"}
    for name, header, size in records:
        fields[at] = "<H"
        at += 2 + len(name.encode("utf-8"))
        for fmt in header:
            fields[at] = fmt
            at += struct.calcsize(fmt)
        fields[at] = fields[at + 4 * size - 4] = "<I"
        at += 4 * size
    assert at == len(blob)
    return fields


# u32 patterns of +inf, -inf, a NaN and 1.0 among framing values
CONTAINER_VALUES = [0, 1, 2, 3, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF, 0x7F800000, 0xFF800000,
                    0x7FC00000, 0x3F800000]


def test_mutated_cache_decodes_finite_or_is_rejected(tmp_path):
    rng = np.random.default_rng(7)
    segments = [LogGTSegment(values=rng.standard_normal((128, 128, 2)).astype(np.float32),
                             clip_id=clip_id, segment_index=i, label=i, fold=i + 1)
                for i, clip_id in enumerate(("a.wav", "bb.wav"))]
    cf.write_cache(tmp_path / "c.lgt", segments)
    fields = container_fields((tmp_path / "c.lgt").read_bytes(),
                              [(s.clip_id, ["<I", "<I", "<I", "<B"], s.values.size)
                               for s in segments])
    decoded, rejected = run_mutations("lgt", tmp_path, ["c.lgt"], 40, fields, CONTAINER_VALUES,
                                      300)
    assert decoded > 0 and rejected > 0, (decoded, rejected)


def test_mutated_checkpoint_decodes_finite_or_is_rejected(tmp_path):
    state = OrderedDict([("w", np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3)),
                         ("bias", np.full(3, 0.5, np.float32)),
                         ("s", np.float32(2.0)),
                         ("k", np.arange(4, dtype=np.float32).reshape(1, 2, 2))])
    cf.save_checkpoint(tmp_path / "ckpt", state)
    blob = (tmp_path / "ckpt").read_bytes()
    fields = container_fields(blob, [(name, ["<B"] + ["<I"] * a.ndim, a.size)
                                     for name, a in state.items()])
    decoded, rejected = run_mutations("acrn", tmp_path, ["ckpt"], len(blob), fields,
                                      CONTAINER_VALUES, 300)
    assert decoded > 0 and rejected > 0, (decoded, rejected)


# The child writes or reads the cache alone and prints its peak-RSS growth in
# bytes over a baseline taken after its imports.
_MEMORY_CHILD = """
import resource, sys
import numpy as np
from esckit import cachefile as cf
from esckit.features import LogGTSegment

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

mode, path, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
base = peak()
if mode == "write":
    cf.write_cache(path, (LogGTSegment(values=np.full((128, 128, 2), i, np.float32),
                                       clip_id=f"clip{i:04d}.wav", segment_index=i % 5,
                                       label=i % 50, fold=i % 5 + 1) for i in range(n)))
else:
    segments = cf.read_cache(path)
    assert len(segments) == n and segments[-1].values[0, 0, 0] == n - 1
print(peak() - base)
"""


def _peak_growth(mode, path, n):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _MEMORY_CHILD, mode, str(path), str(n)],
                            capture_output=True, text=True, timeout=300,
                            env=dict(os.environ, PYTHONPATH=env_path))
    assert result.returncode == 0, result.stderr[-4000:]
    return int(result.stdout.split()[-1])


def test_cache_memory_does_not_hold_a_second_copy(tmp_path):
    """Writing 400 segments (about 52 MB) streams: peak RSS grows by under 10%
    of the file. Reading holds the values once: under 1.3x the file."""
    path = tmp_path / "c.lgt"
    write_growth = _peak_growth("write", path, 400)
    size = path.stat().st_size
    assert size > 52_000_000
    assert write_growth < 0.1 * size, f"write grew {write_growth} B for a {size} B cache"
    read_growth = _peak_growth("read", path, 400)
    assert read_growth < 1.3 * size, f"read grew {read_growth} B for a {size} B cache"


def test_write_csv_matches_the_csv_module_and_makes_the_directory(tmp_path):
    rows = [["a", "b,c"], [1, repr(0.1)], ['say "hi"', ""]]
    path = tmp_path / "new" / "t.csv"
    cf.write_csv(path, rows)
    assert path.read_bytes() == b'a,"b,c"\r\n1,0.1\r\n"say ""hi""",\r\n'


_WRITE_METHODS = {"write_text", "write_bytes", "tofile"}


def _open_mode(call):
    """The mode argument of an open call: the keyword, else the second
    positional argument of ``open(file, mode)``/``os.open``/``io.open``, else
    the first of a ``path.open(mode)`` method call; None when absent."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    func = call.func
    if isinstance(func, ast.Name) or (isinstance(func.value, ast.Name)
                                      and func.value.id in ("io", "os")):
        return call.args[1] if len(call.args) > 1 else None
    return call.args[0] if call.args else None


def file_writes(source):
    """Line numbers of the calls in ``source`` that open a file for writing:
    ``open``/``.open`` with a mode that is not a read-only literal, and the
    ``write_text``/``write_bytes``/``tofile`` shortcuts."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _WRITE_METHODS:
            lines.append(node.lineno)
        elif name == "open":
            mode = _open_mode(node)
            read_only = mode is None or (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+"))
            if not read_only:
                lines.append(node.lineno)
    return sorted(lines)


def test_file_write_scanner_sees_every_form():
    source = ("open(p, 'w')\nopen(p, mode='ab')\nPath(p).open('x')\nos.open(p, flags)\n"
              "open(p, 'r+')\nopen(p, m)\np.write_text('x')\na.tofile(p)\n"
              "open(p)\nopen(p, 'rb')\nPath(p).open(mode='r')\nPath(p).open()\n"
              "io.open(p, 'rb')\n")
    assert file_writes(source) == list(range(1, 9))


def test_only_cachefile_opens_files_for_writing():
    writers = {path.name: file_writes(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert writers.pop("cachefile.py"), "the scan no longer sees cachefile's own write"
    assert not {name: lines for name, lines in writers.items() if lines}
