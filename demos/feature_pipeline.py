"""Walk a synthetic clip through the whole feature pipeline.

Shows the shape at every stage: waveform -> power STFT -> gammatone band
energies -> log scale -> delta -> stacked 128x128x2 segments.
"""

import numpy as np

from esckit import features as ft

SR = ft.SAMPLE_RATE

# a 5 second 440 Hz tone, like one dataset clip
n = 5 * SR
clip = ft.WaveClip(samples=0.8 * np.sin(2 * np.pi * 440.0 * np.arange(n) / SR),
                   label=0, fold=1, clip_id="demo-sine")
print(f"clip: {clip.samples.size} samples at {SR} Hz")

spec = ft.stft_power(clip)
print(f"power spectrogram: {spec.shape} (bins x frames); "
      f"peak bin per frame = {int(spec.argmax(axis=0)[0])} "
      f"(440 Hz * 1024 / 44100 = {440 * 1024 / 44100:.2f})")

fb = ft.build_gammatone_filterbank()
print(f"filterbank: {fb.weights.shape}, centers "
      f"{fb.center_frequencies[0]:.1f} Hz ... {fb.center_frequencies[-1]:.1f} Hz")

static = ft.log_gt(spec, fb)
print(f"log band energies: {static.shape}, range [{static.min():.2f}, {static.max():.2f}]")

dlt = ft.delta(static)
print(f"delta: {dlt.shape}; a time-constant band would give exactly 0 "
      f"(max |delta| here: {np.abs(dlt).max():.4f})")

segments = ft.segment(static, dlt, clip)
print(f"segments: {len(segments)} x {segments[0].values.shape} "
      "(128 frames, 50% overlap, channels = static/delta)")

stats = ft.compute_norm_stats(segments)
normed = [ft.apply_norm(s, stats) for s in segments]
stacked = np.stack([s.values for s in normed])
print(f"after normalization: per-channel mean {stacked.mean(axis=(0, 1, 2)).round(4)}, "
      f"std {stacked.std(axis=(0, 1, 2)).round(4)}")
