"""Exercise the three augmentations and show their invariants numerically."""

import numpy as np

from esckit import augment as aug
from esckit import features as ft

SR = ft.SAMPLE_RATE
n = SR  # one second
clip = ft.WaveClip(samples=0.8 * np.sin(2 * np.pi * 440.0 * np.arange(n) / SR),
                   label=0, fold=1, clip_id="tone")


def peak_hz(c):
    spec = ft.stft_power(c)
    return int(np.bincount(spec.argmax(axis=0)).argmax()) * SR / 1024


print(f"source: {clip.samples.size} samples, peak {peak_hz(clip):.0f} Hz")

print("\ntime stretch (rate > 1 plays faster, pitch preserved):")
for rate in (0.8, 1.0, 1.3):
    out = aug.time_stretch(clip, rate)
    print(f"  rate {rate}: {out.samples.size} samples "
          f"(target {clip.samples.size / rate:.0f}), peak {peak_hz(out):.0f} Hz")

print("\npitch shift (duration preserved, frequency scales by 2^(semitones/12)):")
for semis in (-3.5, 0.0, 3.5):
    out = aug.pitch_shift(clip, semis)
    print(f"  {semis:+.1f} st: {out.samples.size} samples, peak {peak_hz(out):.0f} Hz "
          f"(target {440 * 2 ** (semis / 12):.0f} Hz)")

print("\nmixup (mix_batch: each row takes a random partner row and a Beta(alpha, alpha) weight):")
labels = np.array([2, 7, 4, 9])
rng = np.random.default_rng(0)
xb = rng.standard_normal((4, 128, 128, 2)).astype(np.float32)
yb = np.eye(10, dtype=np.float32)[labels]
aug.mix_batch(xb, yb, 0.2, np.random.default_rng(1))
for row, label in enumerate(yb):
    tops = {i: v for i, v in enumerate(np.round(label.astype(float), 2).tolist()) if v > 0}
    print(f"  row {row} (class {labels[row]}): label mass {tops} (sum {label.sum():.4f})")

# With identity labels, row i keeps its weight at column i (a row paired with
# itself, about one in a thousand, reads 1).
weights = []
for seed in range(50):
    yb = np.eye(1000, dtype=np.float32)
    aug.mix_batch(np.zeros((1000, 1), np.float32), yb, 0.2, np.random.default_rng(seed))
    weights.append(np.diagonal(yb))
weights = np.concatenate(weights)
print(f"\nBeta(0.2, 0.2) weights over {weights.size} mixed rows: mean {weights.mean():.3f}, "
      f"{100 * np.mean((weights < 0.1) | (weights > 0.9)):.0f}% near the endpoints "
      "(small alpha keeps most mixes mild)")
