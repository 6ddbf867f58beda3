"""esckit's binary containers, and the one write path for every file it writes.

Both formats share one little-endian framing: a 4-byte magic, u32 version,
u32 record count, then per record a u16-length UTF-8 name, the format's record
header and float32 values, with nothing after the last record. Headers:

- feature cache ``LGT1`` v2 (one record per segment, named by clip id): u32
  segment index, label and fold, u8 augmented flag; then 128*128*2 values in
  (band, frame, channel) order. v1 lacks the flag, reads as not augmented;
- checkpoint ``ACRN`` v1 (one record per named tensor): u8 rank, u32 dims.

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
    """Write ``data`` (bytes) to ``path``, creating its directory, through a
    temp file and a rename; a failed write removes the temp file and leaves
    ``path`` as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
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
    """Frame ``(name, header bytes, values)`` records and write them atomically."""
    chunks = [magic, struct.pack("<II", version, len(records))]
    for name, header, values in records:
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<H", len(encoded)), encoded, header,
                   np.ascontiguousarray(values, dtype="<f4").tobytes()]
    write_atomic(path, b"".join(chunks))


def _read_container(path, magic, versions, read_header, error):
    """Parse a container into ``(name, header, values)`` records; ``read_header(blob,
    offset, version)`` returns ``(header, values shape, offset past the header)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise error(f"bad magic {blob[:4]!r}, expected {magic!r}")
    offset = 4
    records = []
    try:
        version, count = struct.unpack_from("<II", blob, offset)
        if version not in versions:
            raise error(f"unsupported {magic.decode()} version {version}")
        offset += 8
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            header, shape, offset = read_header(blob, offset + name_len, version)
            size = math.prod(shape)
            if offset + 4 * size > len(blob):
                raise struct.error("truncated record values")
            values = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            records.append((name, header, values.reshape(shape).copy()))
    except struct.error as exc:
        raise error(f"truncated {magic.decode()} file at byte {offset}: {exc}") from exc
    if offset != len(blob):
        raise error(f"{len(blob) - offset} trailing bytes after {count} records")
    return records


def _segment_header(blob, offset, version):
    header = _SEGMENT_HEADERS[version]
    return header.unpack_from(blob, offset), CACHE_SEGMENT_SHAPE, offset + header.size


def _tensor_header(blob, offset, version):
    (rank,) = struct.unpack_from("<B", blob, offset)
    dims = struct.unpack_from(f"<{rank}I", blob, offset + 1)
    return dims, dims, offset + 1 + 4 * rank


def write_cache(path, segments):
    header = _SEGMENT_HEADERS[CACHE_VERSIONS[-1]]
    records = []
    for seg in segments:
        if seg.values.shape != CACHE_SEGMENT_SHAPE:
            raise CacheFormatError(f"segment {seg.clip_id!r}#{seg.segment_index} has shape "
                                   f"{seg.values.shape}, cache stores {CACHE_SEGMENT_SHAPE}")
        records.append((seg.clip_id, header.pack(seg.segment_index, seg.label, seg.fold,
                                                 int(seg.augmented)), seg.values))
    _write_container(path, CACHE_MAGIC, CACHE_VERSIONS[-1], records)


def read_cache(path):
    records = _read_container(path, CACHE_MAGIC, CACHE_VERSIONS, _segment_header,
                              CacheFormatError)
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
