"""Training-data augmentation: time stretch, pitch shift, and mixup.

Waveform augmentations run through a phase vocoder (1024-point STFT, 256
hop): time stretch resamples the frame sequence while keeping per-bin phase
advance consistent, so pitch is preserved; pitch shift is a time stretch
followed by linear resampling back to the original duration. The phase is
carried as a unit phasor: each output frame's is the previous one times the
rotation between the two analysis frames it reads, which is the classical
vocoder's wrapped phase advance mod 2 pi (see _stretch), so no angle or
complex exponential is evaluated per output bin (Laroche & Dolson 1999).
The analysis STFT and the resynthesis run in blocks of 64 frames whose arrays
stay in cache; they return the same values as whole-clip passes would.
Mixup is mix_batch: each row of a training batch draws one partner row and
one Beta(alpha, alpha) weight, and becomes the convex combination of the two
feature arrays and of the two one-hot labels.

A stretch rate above 1 plays faster, i.e. shortens the clip to ~N/rate
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .features import _FRAME_BLOCK

PV_WINDOW = 1024
PV_HOP = 256
MIXUP_ALPHA = 0.2
STRETCH_RANGE = (0.8, 1.3)
SHIFT_RANGE_SEMITONES = (-3.5, 3.5)


@dataclass
class AugmentConfig:
    copies_per_clip: int = 2
    mixup_enabled: bool = True

    def __post_init__(self):
        if self.copies_per_clip < 0:
            raise ValueError(f"copies_per_clip must be >= 0, got {self.copies_per_clip}")


def _istft(spectra, n_frames):
    """Windowed overlap-add of n_frames (frames, bins) spectra, normalized by
    the summed squared window.

    The spectra come as consecutive blocks of frames, and each block is
    inverted and added before the next is read, so no irfft buffer the size
    of the clip is built. Each 1024-sample frame splits into 4 parts of 256
    samples (the hop); output block b takes part k of frame b - k. Adding each
    block's parts from k = 3 down to 0 gives every sample its terms in
    ascending frame order, as a per-frame overlap-add loop would, and an
    output block is normalized as soon as its last frame is added.
    """
    parts, hop = PV_WINDOW // PV_HOP, PV_HOP
    window = np.hanning(PV_WINDOW).reshape(parts, hop)
    squares = window * window
    out = np.zeros((n_frames + parts - 1, hop))

    def normalize(start, stop):
        norm = np.zeros((stop - start, hop))
        for k in range(parts - 1, -1, -1):
            norm[max(start, k) - start:min(stop, n_frames + k) - start] += squares[k]
        np.divide(out[start:stop], np.maximum(norm, 1e-8, out=norm), out=out[start:stop])

    start = 0
    for spec in spectra:
        stop = start + spec.shape[0]
        frames = np.fft.irfft(spec, n=PV_WINDOW, axis=1).reshape(-1, parts, hop)
        frames *= window
        for k in range(parts - 1, -1, -1):
            out[start + k:stop + k] += frames[:, k]
        normalize(start, stop)
        start = stop
    normalize(n_frames, out.shape[0])
    return out.ravel()


def _analyse(clip):
    """Magnitude, first unit phasor and per-frame rotations of a clip's STFT.

    With u = S / |S| the unit phasor of each (frame, bin), a silent bin's
    phasor is exactly 1 (its phase angle is 0). Returns the magnitude,
    (frames + 1, bins) with a zero frame appended for the interpolation at the
    last step; u[0]; and rot, (frames, bins), where rot[k] = conj(u[k]) * u[k + 1]
    and the last row rotates into the zero frame, whose phasor is 1:
    rot[-1] = conj(u[-1]). The STFT runs in blocks of 64 frames plus the next
    block's first, which row k's rotation needs, so only the magnitude and the
    rotations are the size of the clip.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size < PV_WINDOW:
        raise ValueError(f"clip {clip.clip_id!r} shorter than one {PV_WINDOW}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(x, PV_WINDOW)[::PV_HOP]
    window = np.hanning(PV_WINDOW)
    n_frames = frames.shape[0]
    magnitude = np.zeros((n_frames + 1, PV_WINDOW // 2 + 1))
    rot = np.empty((n_frames, PV_WINDOW // 2 + 1), dtype=np.complex128)
    for start in range(0, n_frames, _FRAME_BLOCK):
        stop = min(start + _FRAME_BLOCK, n_frames)
        u = np.fft.rfft(frames[start:stop + 1] * window, axis=1)
        mag = np.abs(u, out=magnitude[start:start + u.shape[0]])
        voiced = mag > 0.0
        np.divide(u.real, mag, out=u.real, where=voiced)
        np.divide(u.imag, mag, out=u.imag, where=voiced)
        u[~voiced] = 1.0
        if start == 0:
            first = u[0].copy()
        # u ends with the next block's first frame, except in the last block,
        # whose last row keeps conj(u[-1]).
        np.conjugate(u[:stop - start], out=rot[start:stop])
        rot[start:start + u.shape[0] - 1] *= u[1:]
    return magnitude, first, rot


def _stretch(analysis, rate):
    """Phase-vocoder resynthesis of an _analyse result at the given rate.

    Output frame m reads analysis position m * rate: the magnitude is
    interpolated between the two frames i = floor(m * rate) and i + 1 around
    it, and the unit phasor follows the recurrence ph[0] = u[0],
    ph[m + 1] = ph[m] * rot[i]. The classical vocoder instead adds
    expected + wrap(dphi - expected) to a phase angle at each step, with
    dphi = angle(u[i + 1]) - angle(u[i]) and expected the bin's nominal
    advance per hop. The wrap adds whole turns only, so exp(1j * step) equals
    exp(1j * dphi) = rot[i], and the accumulated angle's phasor is the product
    of the rotations: the same phase mod 2 pi, with no angle, wrap or complex
    exponential evaluated, and no angle that grows with the clip's length.

    The output spectra are built and inverted in blocks of 64 frames, the
    phasor carried from one block to the next, so no spectrum or magnitude
    array the size of the clip is built.
    """
    if rate <= 0.0:
        raise ValueError(f"stretch rate must be positive, got {rate}")
    magnitude, first, rot = analysis
    steps = np.arange(0.0, magnitude.shape[0] - 1, rate)
    i = steps.astype(np.intp)
    frac = (steps - i)[:, None]

    def spectra():
        # Row 0 holds the block's first phasor; the recurrence also fills the
        # row past the block, which is the next block's first.
        spec = np.empty((_FRAME_BLOCK + 1, rot.shape[1]), dtype=np.complex128)
        spec[0] = first
        for start in range(0, i.size, _FRAME_BLOCK):
            rows = i[start:start + _FRAME_BLOCK]
            f = frac[start:start + _FRAME_BLOCK]
            mag = magnitude[rows]
            mag *= 1.0 - f
            mag += f * magnitude[rows + 1]
            # One row at a time: each row's product is one vector multiply,
            # and numpy's multiply.accumulate down axis 0 runs slower here.
            for m, k in enumerate(rows.tolist()):
                np.multiply(spec[m], rot[k], out=spec[m + 1])
            block = spec[:rows.size]
            block *= mag
            yield block
            spec[0] = spec[rows.size]

    return _istft(spectra(), i.size)


def _shift(analysis, n, semitones):
    """Pitch shift of an _analyse result, resampled to n samples."""
    lo, hi = SHIFT_RANGE_SEMITONES
    if not lo <= semitones <= hi:
        raise ValueError(f"pitch shift {semitones} outside [{lo}, {hi}] semitones")
    y = _stretch(analysis, 2.0 ** (-semitones / 12.0))
    return np.interp(np.linspace(0.0, y.size - 1.0, num=n), np.arange(y.size), y)


def time_stretch(clip, rate):
    """Phase-vocoder time stretch; duration scales to ~len/rate, pitch kept."""
    return replace(clip, samples=_stretch(_analyse(clip), rate))


def pitch_shift(clip, semitones):
    """Shift pitch by 2^(semitones/12) while keeping the duration.

    Realized as a time stretch by 2^(-semitones/12) followed by linear
    resampling back to the original sample count.
    """
    n = np.asarray(clip.samples).size
    return replace(clip, samples=_shift(_analyse(clip), n, semitones))


def mix_batch(xb, yb, alpha, rng):
    """Mixup each row of a batch in place with a random partner row.

    Draws every partner index first, then one Beta(alpha, alpha) weight per
    row, and mixes lam*row + (1-lam)*partner in float32. Each array's partner
    rows are gathered before it is written, so a row is never mixed with a
    row that was already mixed.
    """
    if alpha <= 0.0:
        raise ValueError(f"mixup alpha must be positive, got {alpha}")
    n = len(xb)
    partners = rng.integers(0, n, size=n)
    lam = rng.beta(alpha, alpha, size=n).astype(np.float32)
    for batch in (xb, yb):
        w = lam.reshape((n,) + (1,) * (batch.ndim - 1))
        partner = batch[partners]
        partner *= 1 - w
        batch *= w
        batch += partner


def mixup_arrays(x_i, y_i, x_j, y_j, lam):
    """Convex combination of two feature/label arrays with weight lam.

    lam = 1 returns (x_i, y_i) and lam = 0 returns (x_j, y_j) bitwise.
    Reference only: no training step calls it. It is the per-pair form that
    mix_batch is tested against, row by row and bit for bit.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixup lambda must be in [0, 1], got {lam}")
    if x_i.shape != x_j.shape:
        raise ValueError(f"mixup feature shapes differ: {x_i.shape} vs {x_j.shape}")
    if y_i.shape != y_j.shape:
        raise ValueError(f"mixup label shapes differ: {y_i.shape} vs {y_j.shape}")
    if lam == 1.0:
        return x_i.copy(), y_i.copy()
    if lam == 0.0:
        return x_j.copy(), y_j.copy()
    lam = np.float32(lam)
    return (lam * x_i + (1 - lam) * x_j).astype(x_i.dtype), lam * y_i + (1 - lam) * y_j


def augment_clip(clip, config, rng):
    """Generate waveform-augmented copies of one clip.

    Even copies are time-stretched, odd copies pitch-shifted, with factors
    drawn uniformly from STRETCH_RANGE and SHIFT_RANGE_SEMITONES. The clip is
    analysed once and every copy is resynthesized from that analysis.
    """
    if config.copies_per_clip <= 0:
        return []
    analysis = _analyse(clip)
    n = np.asarray(clip.samples).size
    out = []
    for c in range(config.copies_per_clip):
        if c % 2 == 0:
            samples = _stretch(analysis, rng.uniform(*STRETCH_RANGE))
        else:
            samples = _shift(analysis, n, rng.uniform(*SHIFT_RANGE_SEMITONES))
        out.append(replace(clip, samples=samples))
    return out
