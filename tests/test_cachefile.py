"""The shared container framing, the atomic write path, and the rule that
only ``esckit.cachefile`` opens files for writing."""

import ast
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from esckit import cachefile as cf
from esckit import cli
from esckit import evaluate as ev
from esckit.config import RunConfig
from esckit.features import LogGTSegment
from esckit.train import HistoryRow, TrainHistory

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


def _torn_open(real_open):
    """An ``open`` that, for writing, stores half the bytes and then fails."""
    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "r" in mode:
            return fh

        class Torn:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                fh.write(data[:len(data) // 2])
                fh.flush()
                raise OSError(28, "No space left on device")
        return Torn()
    return fake_open


def _report(v):
    return ev.EvalReport(fold_accuracies={1: v}, mean_accuracy=v,
                         confusion=np.array([[1, v > 0], [0, 2]]), num_classes=2,
                         class_names={0: "dog", 1: "rain"})


WRITERS = {
    "checkpoint": lambda path, v: cf.save_checkpoint(path, {"w": np.full((2, 3), v, np.float32)}),
    "cache": lambda path, v: cf.write_cache(path, [LogGTSegment(
        values=np.full((128, 128, 2), v, np.float32), clip_id="a.wav", segment_index=0,
        label=0, fold=1)]),
    "report": lambda path, v: _report(v).to_csv(path),
    "confusion": lambda path, v: _report(v).confusion_to_csv(path),
    "ablation": lambda path, v: ev.ablation_to_csv(
        [ev.AblationRow(label="base", mean_accuracy=v, fold_accuracies={1: v})], path),
    "history": lambda path, v: TrainHistory(rows=[HistoryRow(
        epoch=1, lr=0.01, train_loss=v, train_acc=0.5, val_acc=0.5, seconds=1.0)]).to_csv(path),
    "manifest": lambda path, v: cli._write_manifest(path, RunConfig(seed=int(v * 10)), "cv"),
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
