"""esckit's binary containers, and the one write path for every file it writes.

Both formats share one little-endian framing: a 4-byte magic, u32 version,
u32 record count, then per record a u16-length UTF-8 name, the format's record
header and float32 values, with nothing after the last record. Headers:

- feature cache ``LGT1`` v2 (one record per segment, named by clip id): u32
  segment index, label and fold, u8 augmented flag; then 128*128*2 values in
  (band, frame, channel) order. v1 lacks the flag, reads as not augmented;
- checkpoint ``ACRN`` v1 (one record per named tensor): u8 rank, u32 dims.

Records stream in both directions, so neither side holds a second copy of
the file. The writer takes any iterable of records, writes each one's values
straight from the array's bytes, and patches the record count into the header
once the last record is out, before the rename. The reader reads the values
of each record into place; a feature cache's segments are rows of one
``(count, 128, 128, 2)`` float32 array.

Every file esckit writes goes through ``write_atomic``: a temp file and a
rename, so a torn file never exists under the target name.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from collections import OrderedDict

import numpy as np

from .data import SegmentDataset
from .features import LogGTSegment

CACHE_MAGIC = b"LGT1"
CACHE_VERSIONS = (1, 2)
CACHE_SEGMENT_SHAPE = (128, 128, 2)
_SEGMENT_HEADERS = {1: struct.Struct("<III"), 2: struct.Struct("<IIIB")}

CHECKPOINT_MAGIC = b"ACRN"
CHECKPOINT_VERSION = 1


class CacheFormatError(ValueError):
    """Cache bytes do not follow the LGT container format."""


class CheckpointFormatError(ValueError):
    """Checkpoint bytes do not follow the ACRN container format."""


def write_atomic(path, data):
    """Write ``data`` to ``path``, creating its directory, through a temp file
    and a rename. ``data`` is bytes, or a callable that writes to the open
    binary temp file. A failed write removes the temp file and leaves ``path``
    as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, rows):
    """Write ``rows`` (sequences of fields) as one atomic CSV file."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))


def _write_container(path, magic, version, records):
    """Frame ``(name, header bytes, values)`` records from any iterable and write
    them atomically, one record at a time; returns the record count."""
    count = 0

    def write(fh):
        nonlocal count
        fh.write(magic + struct.pack("<II", version, 0))
        for name, header, values in records:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)) + encoded + header)
            fh.write(np.ascontiguousarray(values, dtype="<f4").reshape(-1).view(np.uint8))
            count += 1
        fh.seek(len(magic) + 4)
        fh.write(struct.pack("<I", count))

    write_atomic(path, write)
    return count


def _read_container(path, magic, versions, read_header, error, record_shape=None):
    """Parse a container into ``(name, header, values)`` records, reading through
    the file. ``read_header(read, version)`` returns ``(header, values shape)``,
    where ``read(n)`` gives the next ``n`` bytes. With ``record_shape`` every
    record's values are a row of one C-contiguous ``(count, *record_shape)``
    float32 array; otherwise each record has its own array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n):
            data = fh.read(n)
            if len(data) != n:
                raise struct.error(f"{n} bytes needed, {len(data)} remain")
            return data

        head = fh.read(4)
        if head != magic:
            raise error(f"bad magic {head!r}, expected {magic!r}")
        records = []
        try:
            version, count = struct.unpack("<II", read(8))
            if version not in versions:
                raise error(f"unsupported {magic.decode()} version {version}")
            store = None
            if record_shape is not None:
                if 4 * math.prod(record_shape) * count > size - fh.tell():
                    raise struct.error(f"{count} records declared, "
                                       f"{size - fh.tell()} bytes follow the header")
                store = np.empty((count, *record_shape), dtype="<f4")
            for i in range(count):
                (name_len,) = struct.unpack("<H", read(2))
                raw = read(name_len)
                try:
                    name = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"record {i} name at byte {fh.tell() - name_len} is not "
                                f"UTF-8: {exc.reason}") from exc
                header, shape = read_header(read, version)
                nbytes = 4 * math.prod(shape)
                if nbytes > size - fh.tell():
                    raise struct.error(f"record {i} needs {nbytes} value bytes, "
                                       f"{size - fh.tell()} remain")
                values = np.empty(shape, dtype="<f4") if store is None else store[i]
                fh.readinto(values.reshape(-1).view(np.uint8))
                records.append((name, header, values))
        except struct.error as exc:
            raise error(f"truncated {magic.decode()} file at byte {fh.tell()}: {exc}") from exc
        if fh.tell() != size:
            raise error(f"{size - fh.tell()} trailing bytes after {count} records")
    return records


def _segment_header(read, version):
    header = _SEGMENT_HEADERS[version]
    return header.unpack(read(header.size)), CACHE_SEGMENT_SHAPE


def _tensor_header(read, version):
    (rank,) = read(1)
    dims = struct.unpack(f"<{rank}I", read(4 * rank))
    return dims, dims


def write_cache(path, segments):
    """Write segments from any iterable as an LGT cache, checking each one's
    shape as it arrives; returns the number written."""
    header = _SEGMENT_HEADERS[CACHE_VERSIONS[-1]]

    def records():
        for seg in segments:
            if seg.values.shape != CACHE_SEGMENT_SHAPE:
                raise CacheFormatError(f"segment {seg.clip_id!r}#{seg.segment_index} has shape "
                                       f"{seg.values.shape}, cache stores {CACHE_SEGMENT_SHAPE}")
            yield seg.clip_id, header.pack(seg.segment_index, seg.label, seg.fold,
                                           int(seg.augmented)), seg.values

    return _write_container(path, CACHE_MAGIC, CACHE_VERSIONS[-1], records())


def read_cache(path):
    records = _read_container(path, CACHE_MAGIC, CACHE_VERSIONS, _segment_header,
                              CacheFormatError, CACHE_SEGMENT_SHAPE)
    return [LogGTSegment(values=values, clip_id=clip_id, segment_index=header[0],
                         label=header[1], fold=header[2], augmented=any(header[3:]))
            for clip_id, header, values in records]


def read_cache_dataset(path, num_classes=None, class_names=None):
    segments = read_cache(path)
    if num_classes is None:
        if not segments:
            raise CacheFormatError(f"cache {path} is empty and no class count was given")
        num_classes = max(s.label for s in segments) + 1
    return SegmentDataset(segments=segments, num_classes=num_classes,
                          class_names=class_names or {})


def save_checkpoint(path, state):
    """Write a name -> array mapping as an ACRN container (float32, lossless)."""
    records = []
    for name, arr in state.items():
        arr32 = np.asarray(arr, dtype="<f4", order="C")  # keeps rank 0, unlike ascontiguousarray
        records.append((name, struct.pack(f"<B{arr32.ndim}I", arr32.ndim, *arr32.shape), arr32))
    _write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, records)


def read_checkpoint(path):
    """Parse an ACRN container into an ordered name -> float32 array dict."""
    records = _read_container(path, CHECKPOINT_MAGIC, (CHECKPOINT_VERSION,), _tensor_header,
                              CheckpointFormatError)
    return OrderedDict((name, values) for name, _, values in records)
