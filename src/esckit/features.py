"""Waveform -> log gammatone-band feature pipeline.

A clip is turned into the network input in five steps: Hamming-window power
STFT (1024-sample window, 50% overlap), a 128-band gammatone filterbank
applied as a spectral weighting matrix, log10 compression, a regression delta
along time, and slicing into 128-frame segments with 50% overlap. Each
segment is a 128 (band) x 128 (frame) x 2 (static, delta) float32 tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

SAMPLE_RATE = 44100
STFT_WINDOW = 1024
STFT_HOP = 512
N_BANDS = 128
N_BINS = STFT_WINDOW // 2 + 1
SEGMENT_FRAMES = 128
SEGMENT_HOP = 64
LOG_EPS = 1e-10
DELTA_HALF_WINDOW = 2
# Frames windowed and transformed per pass of the STFTs and the vocoder's
# resynthesis: a pass's arrays stay in cache.
_FRAME_BLOCK = 64


class TooShortError(ValueError):
    """Input has fewer samples/frames than the operation needs."""


@dataclass
class WaveClip:
    """A mono waveform at SAMPLE_RATE with its dataset bookkeeping."""

    samples: np.ndarray
    label: int
    fold: int
    clip_id: str


@dataclass
class LogGTSegment:
    """One 128x128x2 network input slice plus provenance."""

    values: np.ndarray  # (bands, frames, 2) float32
    clip_id: str
    segment_index: int
    label: int
    fold: int
    augmented: bool = False


@dataclass
class GammatoneFilterbank:
    weights: np.ndarray             # (bands, bins)
    center_frequencies: np.ndarray  # (bands,) ascending Hz


@dataclass
class NormStats:
    """Per-channel standardization scalars, fitted on training folds only."""

    mean: np.ndarray  # (2,)
    std: np.ndarray   # (2,)


def stft_power(clip):
    """Power spectrogram (513 bins x frames) of a clip.

    Frame f covers samples [f*512, f*512 + 1024) under a Hamming window; the
    value is the squared magnitude of the real-input DFT. The frames are
    windowed and transformed in blocks of 64, so no windowed-frame or spectrum
    array the size of the clip is built, and every value is the one a
    whole-clip transform gives. The result is the transpose of a (frames,
    bins) array.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size < STFT_WINDOW:
        raise TooShortError(f"clip {clip.clip_id!r}: {x.size} samples < one {STFT_WINDOW}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(x, STFT_WINDOW)[::STFT_HOP]
    window = np.hamming(STFT_WINDOW)
    power = np.empty((frames.shape[0], N_BINS))
    for start in range(0, frames.shape[0], _FRAME_BLOCK):
        block = slice(start, start + _FRAME_BLOCK)
        spectrum = np.fft.rfft(frames[block] * window, axis=1)
        np.add(spectrum.real ** 2, spectrum.imag ** 2, out=power[block])
    return power.T


def erb_rate(freq_hz):
    """Perceptual ERB-rate value of a frequency in Hz."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(freq_hz, dtype=np.float64))


def erb_rate_inverse(erbs):
    return (10.0 ** (np.asarray(erbs, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def erb_bandwidth(freq_hz):
    """Equivalent rectangular bandwidth at a center frequency (Hz)."""
    return 24.7 * (4.37 * np.asarray(freq_hz, dtype=np.float64) / 1000.0 + 1.0)


def build_gammatone_filterbank():
    """The 128-band gammatone filterbank as a (bands x bins) spectral
    weighting matrix over the 513 bins of a 1024-point STFT at 44.1 kHz.

    Center frequencies are equally spaced on the ERB-rate scale between 20 Hz
    and the Nyquist frequency. Row b samples the squared magnitude response of
    a 4th-order gammatone filter at the FFT bin frequencies; the response is
    1.0 at the center frequency (peak normalization), so nearby bins carry
    weights below 1.
    """
    f_max = SAMPLE_RATE / 2.0
    centers = erb_rate_inverse(np.linspace(erb_rate(20.0), erb_rate(f_max), N_BANDS))
    centers = np.minimum(centers, f_max)
    bins = np.arange(N_BINS) * (SAMPLE_RATE / STFT_WINDOW)
    bandwidth = 1.019 * erb_bandwidth(centers)
    u = (bins[None, :] - centers[:, None]) / bandwidth[:, None]
    weights = (1.0 + u * u) ** -4.0
    return GammatoneFilterbank(weights=weights, center_frequencies=centers)


def log_gt(spec, fb):
    """log10 of the gammatone band energies of a power spectrogram."""
    if spec.shape[0] != fb.weights.shape[1]:
        raise ValueError(f"bin mismatch: spectrogram {spec.shape[0]} vs filterbank {fb.weights.shape[1]}")
    return np.log10(fb.weights @ spec + LOG_EPS)


def delta(logspec):
    """First temporal derivative via the half-window-2 regression delta.

    d_t = sum_{n=1..2} n * (x_{t+n} - x_{t-n}) / (2 * sum n^2); the two edge
    frames on each side are replicated before differencing, so a constant
    input yields exactly zero and an interior linear ramp yields its slope.
    """
    n_frames = logspec.shape[1]
    if n_frames < 5:
        raise TooShortError(f"delta needs >= 5 frames, got {n_frames}")
    w = DELTA_HALF_WINDOW
    padded = np.pad(logspec, ((0, 0), (w, w)), mode="edge")
    num = sum(n * (padded[:, w + n:w + n + n_frames] - padded[:, w - n:w - n + n_frames])
              for n in range(1, w + 1))
    return num / (2.0 * sum(n * n for n in range(1, w + 1)))


def segment(static, delta_spec, clip, augmented=False):
    """Slice static+delta matrices into (bands x 128 x 2) segments.

    Inputs with at least 128 frames yield floor((n - 128) / 64) + 1 segments
    at 64-frame spacing; shorter inputs are zero-padded on the right into a
    single segment.
    """
    if static.shape != delta_spec.shape:
        raise ValueError(f"static {static.shape} and delta {delta_spec.shape} disagree")
    frames, n_frames = SEGMENT_FRAMES, static.shape[1]
    if n_frames < frames:
        pad = frames - n_frames
        static = np.pad(static, ((0, 0), (0, pad)))
        delta_spec = np.pad(delta_spec, ((0, 0), (0, pad)))
        n_frames = frames
    out = []
    for i, start in enumerate(range(0, n_frames - frames + 1, SEGMENT_HOP)):
        values = np.stack([static[:, start:start + frames],
                           delta_spec[:, start:start + frames]], axis=-1)
        out.append(LogGTSegment(values=values.astype(np.float32), clip_id=clip.clip_id,
                                segment_index=i, label=clip.label, fold=clip.fold,
                                augmented=augmented))
    return out


def extract_segments(clip, fb, augmented=False):
    """Full clip -> segments pipeline (STFT, filterbank, log, delta, slice)."""
    spec = stft_power(clip)
    static = log_gt(spec, fb)
    return segment(static, delta(static), clip, augmented=augmented)


def _lanes(values):
    """A (rows, frames * channels) view of (..., frames, channels) values and
    the frame count: per-channel work on it runs numpy inner loops that are
    frames * channels long instead of channels long."""
    frames = values.shape[-2] if values.ndim > 1 else 1
    return values.reshape(-1, frames * values.shape[-1]), frames


def compute_norm_stats(segments):
    """Per-channel mean/std over a training-fold segment collection.

    Two streaming passes in float64, one segment at a time: the channel sums
    give the mean, then the squared deviations from it give the std. Nothing
    the size of the whole collection is allocated.
    """
    if not segments:
        raise ValueError("cannot compute normalization stats from zero segments")

    def channel_sums(center=None):
        total = 0.0
        for s in segments:
            rows, frames = _lanes(s.values)
            if center is None:
                lane_sums = np.add.reduce(rows, axis=0, dtype=np.float64)
            else:
                dev = rows - np.tile(center, frames)
                lane_sums = np.einsum("ij,ij->j", dev, dev)
            total = total + lane_sums.reshape(frames, -1).sum(axis=0)
        return total

    count = sum(s.values.size for s in segments) // segments[0].values.shape[-1]
    mean = channel_sums() / count
    std = np.sqrt(channel_sums(mean) / count)
    if np.any(std <= 0.0):
        raise ValueError(f"degenerate training set: zero std in channels {np.where(std <= 0.0)[0].tolist()}")
    return NormStats(mean=mean.astype(np.float32), std=std.astype(np.float32))


def normalize(values, stats):
    """Standardize (..., frames, channels) values per channel: (x - mean_c) / std_c
    in float32, for one segment or a batch.

    ``values`` is one array or a sequence of equal-shape segment arrays, which
    are stacked into the new array that is normalized in place and returned;
    the caller's arrays are never written.
    """
    out = np.array(values)
    rows, frames = _lanes(out)
    rows -= np.tile(stats.mean.astype(np.float32), frames)
    rows /= np.tile(stats.std.astype(np.float32), frames)
    return out.astype(np.float32, copy=False)


def apply_norm(seg, stats):
    """Standardize one segment: (x - mean_c) / std_c per channel."""
    return replace(seg, values=normalize(seg.values, stats))
