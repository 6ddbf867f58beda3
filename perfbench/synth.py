"""Seeded synthetic inputs: the ESC-50 audio is not in the repository.

The same seed gives the same bytes. Only these generated inputs reach esckit.
"""

from __future__ import annotations

import csv
import os
import wave

import numpy as np

SAMPLE_RATE = 44100
CLIP_SECONDS = 5.0
WAV_CLASSES = 5


def _clip_signal(label, rng):
    """A 5 s mono signal whose spectrum depends on the class: a harmonic tone
    at a class-specific pitch, amplitude-modulated, over a little noise."""
    t = np.arange(int(CLIP_SECONDS * SAMPLE_RATE)) / SAMPLE_RATE
    f0 = 220.0 * 2.0 ** (label / 2.0) * rng.uniform(0.97, 1.03)
    tone = sum(np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi)) / k
               for k in range(1, 4))
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t)
    return 0.25 * tone * envelope + 0.05 * rng.standard_normal(t.size)


def write_audio_tree(root, n_clips, seed):
    """WAV files (PCM16, 44.1 kHz) plus an ESC-style metadata CSV under ``root``.

    Clip i has class i % 5 and fold (i // 5) % 5 + 1. Returns the CSV path.
    """
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_clips):
        label = i % WAV_CLASSES
        name = f"clip{i:03d}.wav"
        pcm = np.clip(_clip_signal(label, rng) * 32767.0, -32768, 32767).astype("<i2")
        with wave.open(os.path.join(root, name), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(SAMPLE_RATE)
            fh.writeframes(pcm.tobytes())
        rows.append((name, (i // WAV_CLASSES) % 5 + 1, label, f"class{label}"))
    meta = os.path.join(root, "meta.csv")
    with open(meta, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "fold", "target", "category"])
        writer.writerows(rows)
    return meta


def separable_segments(n_clips, seed, class_gap=3.0, shape=(128, 128, 2)):
    """(values, clip_id, label, fold, augmented) rows: one raw and one augmented
    segment per clip, two classes at mean levels ``class_gap`` apart."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_clips):
        label = i % 2
        for augmented in (False, True):
            values = (class_gap * label + rng.standard_normal(shape)).astype(np.float32)
            rows.append((values, f"clip{i:03d}.wav", label, i % 5 + 1, augmented))
    return rows


def random_batch(n, num_classes, seed, shape=(128, 128, 2)):
    """A standard-normal input batch and integer labels."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n,) + shape).astype(np.float32),
            rng.integers(0, num_classes, size=n))
