"""Dataset ingestion: metadata CSV, WAV decoding, and feature-cache building."""

from __future__ import annotations

import csv
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .augment import augment_clip
from .cachefile import write_cache
from .features import SAMPLE_RATE, WaveClip, build_gammatone_filterbank, extract_segments

VARIANTS = ("esc10", "esc50", "custom")


class MetadataError(ValueError):
    """Metadata CSV is malformed or inconsistent."""


class AudioDecodeError(ValueError):
    """WAV bytes cannot be decoded."""


@dataclass
class ClipRecord:
    filename: str
    fold: int
    target: int
    category: str


def _parse_flag(value):
    return str(value).strip().lower() in ("true", "1", "yes")


def load_metadata(path, variant="esc50"):
    """ClipRecords from an ESC-style metadata CSV.

    Requires filename, fold, target and category columns. The esc10 variant
    filters on the esc10 flag column and remaps the surviving targets to 0-9
    in ascending original-target order. Malformed rows are reported with
    their line number.
    """
    if variant not in VARIANTS:
        raise MetadataError(f"unknown dataset variant {variant!r}; choose from {VARIANTS}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"filename", "fold", "target", "category"}
        if variant == "esc10":
            required.add("esc10")
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise MetadataError(f"{path}: missing columns {sorted(missing)}")
        records, seen = [], {}
        for line_no, row in enumerate(reader, start=2):
            absent = sorted(c for c in required if row[c] is None)
            if absent:
                raise MetadataError(f"{path}:{line_no}: row ends before columns {absent}")
            name = row["filename"].strip()
            if not name:
                raise MetadataError(f"{path}:{line_no}: empty filename")
            if name in seen:
                raise MetadataError(f"{path}:{line_no}: duplicate filename {name!r} "
                                    f"(first at line {seen[name]})")
            seen[name] = line_no
            try:
                fold = int(row["fold"])
                target = int(row["target"])
            except ValueError as exc:
                raise MetadataError(f"{path}:{line_no}: {exc}") from exc
            if not 1 <= fold <= 5:
                raise MetadataError(f"{path}:{line_no}: fold {fold} outside 1..5")
            if target < 0:
                raise MetadataError(f"{path}:{line_no}: negative target {target}")
            if variant == "esc10" and not _parse_flag(row["esc10"]):
                continue
            records.append(ClipRecord(filename=name, fold=fold, target=target,
                                      category=row["category"].strip()))
    if not records:
        raise MetadataError(f"{path}: no records for variant {variant!r}")

    if variant == "esc10":
        remap = {old: new for new, old in enumerate(sorted({r.target for r in records}))}
        if len(remap) > 10:
            raise MetadataError(f"{path}: esc10 flag selects {len(remap)} classes, expected <= 10")
        records = [replace(r, target=remap[r.target]) for r in records]
        k = 10
    elif variant == "esc50":
        k = 50
    else:
        k = max(r.target for r in records) + 1
    for r in records:
        if r.target >= k:
            raise MetadataError(f"{path}: target {r.target} of {r.filename!r} outside [0, {k})")
    return records


def _find_chunks(blob, path):
    if len(blob) < 12 or blob[:4] != b"RIFF":
        raise AudioDecodeError(f"{path}: missing RIFF header at byte 0")
    if blob[8:12] != b"WAVE":
        raise AudioDecodeError(f"{path}: missing WAVE tag at byte 8")
    chunks = {}
    offset = 12
    while offset + 8 <= len(blob):
        cid = blob[offset:offset + 4]
        (size,) = struct.unpack_from("<I", blob, offset + 4)
        if offset + 8 + size > len(blob):
            raise AudioDecodeError(f"{path}: {cid.decode('latin-1')!r} chunk at byte {offset} "
                                   f"declares {size} bytes, but the file holds "
                                   f"{len(blob) - offset - 8} after its header")
        chunks.setdefault(cid, (offset + 8, size))
        offset += 8 + size + (size & 1)
    return chunks


def read_wav(path):
    """Decode a 16-bit PCM, 44.1 kHz RIFF/WAVE file into a mono WaveClip.

    That is ESC-50's format and the only one accepted: samples scale by
    1/32768 and stereo is averaged to mono. Label and fold default to 0
    until metadata is attached. Any other codec or sample rate, a chunk that
    runs past the end of the file, or data that is empty or not a whole
    number of sample frames raises AudioDecodeError with the path and the
    byte offset or counts.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    chunks = _find_chunks(blob, path)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise AudioDecodeError(f"{path}: missing fmt/data chunk")
    fmt_off, fmt_size = chunks[b"fmt "]
    if fmt_size < 16:
        raise AudioDecodeError(f"{path}: fmt chunk too short at byte {fmt_off}")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", blob, fmt_off)
    if (audio_format, bits) != (1, 16):
        raise AudioDecodeError(f"{path}: unsupported codec (format {audio_format}, "
                               f"{bits}-bit) in fmt chunk at byte {fmt_off}; "
                               "only 16-bit PCM is read")
    if channels not in (1, 2):
        raise AudioDecodeError(f"{path}: {channels} channels unsupported")
    data_off, data_size = chunks[b"data"]
    if data_size % (2 * channels):
        raise AudioDecodeError(f"{path}: data chunk at byte {data_off} holds {data_size} bytes, "
                               f"not a whole number of {2 * channels}-byte sample frames")
    if data_size == 0:
        raise AudioDecodeError(f"{path}: data chunk at byte {data_off} holds no sample frame")
    if rate != SAMPLE_RATE:
        raise AudioDecodeError(f"{path}: {rate} Hz sample rate in fmt chunk at byte {fmt_off}; "
                               f"only {SAMPLE_RATE} Hz is read")
    samples = np.frombuffer(blob, dtype="<i2", count=data_size // 2,
                            offset=data_off).astype(np.float64) / 32768.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return WaveClip(samples=samples, label=0, fold=0, clip_id=os.path.basename(path))


def _clip_rng(seed, clip_id):
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(clip_id.encode())]))


def build_cache(records, data_dir, augment_config, out_path, seed=0):
    """Extract raw (and optionally augmented) segments and write an LGT cache.

    Clips are processed in ascending filename order; each clip's augmentation
    randomness derives from the base seed and the filename alone, so rebuilds
    with the same seed are bitwise identical regardless of record order. One
    clip's segments are in memory at a time: they stream into the cache as
    they are extracted. Returns the number of segments written.
    """
    fb = build_gammatone_filterbank()

    def segments():
        for record in sorted(records, key=lambda r: r.filename):
            path = os.path.join(data_dir, record.filename)
            try:
                clip = read_wav(path)
            except OSError as exc:
                raise AudioDecodeError(f"cannot read {record.filename!r}: {exc}") from exc
            clip = replace(clip, label=record.target, fold=record.fold, clip_id=record.filename)
            yield from extract_segments(clip, fb)
            if augment_config is not None and augment_config.copies_per_clip > 0:
                rng = _clip_rng(seed, record.filename)
                for copy in augment_clip(clip, augment_config, rng):
                    yield from extract_segments(copy, fb, augmented=True)

    return write_cache(out_path, segments())
