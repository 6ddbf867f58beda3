import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import applied_mix_weights, ks_uniform
from esckit import augment as aug
from esckit import features as ft


def sine_clip(freq_hz=440.0, seconds=1.0):
    n = int(round(seconds * ft.SAMPLE_RATE))
    x = np.sin(2.0 * np.pi * freq_hz * np.arange(n) / ft.SAMPLE_RATE)
    return ft.WaveClip(samples=x, sample_rate=ft.SAMPLE_RATE, label=0, fold=1, clip_id="sine")


def dominant_bin(clip):
    spec = ft.stft_power(clip)
    return int(np.bincount(spec.argmax(axis=0)).argmax())


def reference_istft(spec, n_fft=aug.PV_WINDOW, hop=aug.PV_HOP):
    """Per-frame overlap-add of a (bins, frames) spectrum."""
    n_frames = spec.shape[1]
    window = np.hanning(n_fft)
    length = (n_frames - 1) * hop + n_fft
    out = np.zeros(length)
    norm = np.zeros(length)
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1)
    for m in range(n_frames):
        sl = slice(m * hop, m * hop + n_fft)
        out[sl] += frames[m] * window
        norm[sl] += window * window
    return out / np.maximum(norm, 1e-8)


def reference_spectrum(samples):
    """Hann-windowed STFT as a (bins, frames) array, one frame per hop."""
    x = np.asarray(samples, dtype=np.float64)
    n_frames = 1 + (x.size - aug.PV_WINDOW) // aug.PV_HOP
    starts = np.arange(n_frames) * aug.PV_HOP
    return np.fft.rfft(x[starts[:, None] + np.arange(aug.PV_WINDOW)]
                       * np.hanning(aug.PV_WINDOW), axis=1).T


def reference_time_stretch(samples, rate):
    """Per-frame phase vocoder over a (bins, frames) spectrum, one Python
    iteration per output frame: the oracle for aug.time_stretch.

    The phase advances by unit-phasor rotation: u = S / |S| (1 in a silent
    bin), rot[:, k] = conj(u[:, k]) * u[:, k + 1], and the rotation into the
    appended zero frame, whose phasor is 1, is conj(u[:, -1]).
    """
    spec = reference_spectrum(samples)
    n_bins, n_frames = spec.shape
    steps = np.arange(0.0, n_frames, rate)
    magnitude = np.zeros((n_bins, n_frames + 1))
    magnitude[:, :-1] = np.abs(spec)
    u = np.ones_like(spec)
    voiced = magnitude[:, :-1] > 0.0
    u.real[voiced] = spec.real[voiced] / magnitude[:, :-1][voiced]
    u.imag[voiced] = spec.imag[voiced] / magnitude[:, :-1][voiced]
    rot = np.empty_like(u)
    rot[:, :-1] = np.conjugate(u[:, :-1]) * u[:, 1:]
    rot[:, -1] = np.conjugate(u[:, -1])

    out = np.empty((n_bins, steps.size), dtype=np.complex128)
    ph = u[:, 0].copy()
    for m, step in enumerate(steps):
        i = int(step)
        frac = step - i
        mag = (1.0 - frac) * magnitude[:, i] + frac * magnitude[:, i + 1]
        out[:, m] = mag * ph
        ph = ph * rot[:, i]
    return reference_istft(out)


def classical_time_stretch(samples, rate):
    """The classical phase vocoder: the phase accumulates each step's expected
    advance plus the measured deviation wrapped to [-pi, pi]."""
    spec = reference_spectrum(samples)
    n_bins, n_frames = spec.shape
    steps = np.arange(0.0, n_frames, rate)
    spec = np.concatenate([spec, np.zeros((n_bins, 1), dtype=spec.dtype)], axis=1)

    expected = 2.0 * np.pi * aug.PV_HOP * np.arange(n_bins) / aug.PV_WINDOW
    phase = np.angle(spec)
    magnitude = np.abs(spec)
    out = np.empty((n_bins, steps.size), dtype=np.complex128)
    phase_acc = phase[:, 0].copy()
    for m, step in enumerate(steps):
        i = int(step)
        frac = step - i
        mag = (1.0 - frac) * magnitude[:, i] + frac * magnitude[:, i + 1]
        out[:, m] = mag * np.exp(1j * phase_acc)
        dphi = phase[:, i + 1] - phase[:, i] - expected
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        phase_acc += expected + dphi
    return reference_istft(out)


def tone_clip(n, seed=0):
    """A tone over noise, n samples."""
    rng = np.random.default_rng(seed)
    x = 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(n) / ft.SAMPLE_RATE)
    x += 0.1 * rng.standard_normal(n)
    return ft.WaveClip(samples=x, sample_rate=ft.SAMPLE_RATE, label=0, fold=1, clip_id="t")


# At every length in LENGTHS the last step of rate 0.45 falls between the last
# analysis frame and the appended zero frame, so it reads the zero frame.
ZERO_FRAME_RATE = 0.45
LENGTHS = (1024, 1024 + 255, 220_500)


class TestVocoderMatchesReferenceLoop:
    """Bitwise equality with the per-frame loops, not a tolerance."""

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("rate", (0.8, 1.0, 1.3, ZERO_FRAME_RATE))
    def test_time_stretch(self, n, rate):
        clip = tone_clip(n)
        assert (aug.time_stretch(clip, rate).samples.tobytes()
                == reference_time_stretch(clip.samples, rate).tobytes())

    @pytest.mark.parametrize("n", LENGTHS)
    def test_zero_frame_rate_reads_the_appended_frame(self, n):
        n_frames = 1 + (n - aug.PV_WINDOW) // aug.PV_HOP
        last = np.arange(0.0, n_frames, ZERO_FRAME_RATE)[-1]
        assert int(last) == n_frames - 1 and last > int(last)

    @pytest.mark.parametrize("semitones", (-3.5, 1.0, 3.5))
    def test_pitch_shift(self, semitones):
        clip = tone_clip(44_100, seed=1)
        y = reference_time_stretch(clip.samples, 2.0 ** (-semitones / 12.0))
        want = np.interp(np.linspace(0.0, y.size - 1.0, num=clip.samples.size),
                         np.arange(y.size), y)
        assert aug.pitch_shift(clip, semitones).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", LENGTHS)
    def test_all_zero_clip_stays_zero(self, n):
        clip = ft.WaveClip(samples=np.zeros(n), sample_rate=ft.SAMPLE_RATE, label=0, fold=1,
                           clip_id="silence")
        for rate in (0.8, 1.3):
            out = aug.time_stretch(clip, rate).samples
            assert np.all(np.isfinite(out)) and np.all(out == 0.0)
            assert not np.any(np.signbit(out))
            assert out.tobytes() == reference_time_stretch(clip.samples, rate).tobytes()

    def test_silent_opening_keeps_the_phase_chain(self):
        # Bins of the silent frames have phasor 1 (angle 0), so the rotations
        # still carry the phase on into the tone that follows.
        clip = tone_clip(44_100, seed=3)
        clip.samples[:5_000] = 0.0
        out = aug.time_stretch(clip, 0.8).samples
        assert out.tobytes() == reference_time_stretch(clip.samples, 0.8).tobytes()
        assert np.max(np.abs(out[-10_000:])) > 0.1

    def test_augment_clip_matches_public_calls(self):
        clip = tone_clip(44_100, seed=2)
        config = aug.AugmentConfig(copies_per_clip=4)
        copies = aug.augment_clip(clip, config, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = []
        for c in range(config.copies_per_clip):
            if c % 2 == 0:
                want.append(aug.time_stretch(clip, rng.uniform(*config.stretch_range)))
            else:
                want.append(aug.pitch_shift(clip, rng.uniform(*config.shift_range_semitones),
                                            valid_range=config.shift_range_semitones))
        assert len(copies) == len(want)
        for got, ref in zip(copies, want):
            assert got.samples.tobytes() == ref.samples.tobytes()


class TestPhasorAccuracy:
    """The phasor recurrence against the classical angle accumulation, and
    against the exact answer at rate 1."""

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("rate", (0.8, 1.0, 1.3, ZERO_FRAME_RATE))
    def test_interior_agrees_with_classical_vocoder(self, n, rate):
        # The first and last window are left out: the overlap-add normalizer
        # falls towards 0 there and magnifies rounding.
        clip = tone_clip(n)
        got = aug.time_stretch(clip, rate).samples
        want = classical_time_stretch(clip.samples, rate)
        assert got.size == want.size
        inner = slice(aug.PV_WINDOW, got.size - aug.PV_WINDOW)
        assert np.max(np.abs(got[inner] - want[inner]), initial=0.0) \
            <= 1e-9 * np.max(np.abs(want))

    def test_unit_rate_reproduces_the_clip(self):
        clip = tone_clip(220_500)
        x = clip.samples
        y = aug.time_stretch(clip, 1.0).samples
        inner = slice(aug.PV_WINDOW, y.size - aug.PV_WINDOW)
        assert np.max(np.abs(y[inner] - x[inner])) <= 1e-12 * np.max(np.abs(x))


def whole_clip_analyse(samples):
    """_analyse with every array the size of the clip: one STFT, one
    normalization and one rotation pass over all frames."""
    x = np.asarray(samples, dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(x, aug.PV_WINDOW)[::aug.PV_HOP]
    u = np.fft.rfft(frames * np.hanning(aug.PV_WINDOW), axis=1)
    magnitude = np.zeros((u.shape[0] + 1, u.shape[1]))
    mag = np.abs(u, out=magnitude[:-1])
    voiced = mag > 0.0
    np.divide(u.real, mag, out=u.real, where=voiced)
    np.divide(u.imag, mag, out=u.imag, where=voiced)
    u[~voiced] = 1.0
    rot = np.conjugate(u)
    rot[:-1] *= u[1:]
    return magnitude, u[0].copy(), rot


def whole_clip_stretch(analysis, rate):
    """_stretch with every array the size of the clip: all output spectra,
    then one irfft and one overlap-add over all frames."""
    magnitude, first, rot = analysis
    steps = np.arange(0.0, magnitude.shape[0] - 1, rate)
    i = steps.astype(np.intp)
    frac = (steps - i)[:, None]
    mag = magnitude[i] * (1.0 - frac)
    mag += frac * magnitude[i + 1]
    spec = np.empty(mag.shape, dtype=np.complex128)
    spec[0] = first
    for m, k in enumerate(i[:-1]):
        spec[m + 1] = spec[m] * rot[k]
    spec *= mag
    n_frames, parts, hop = i.size, aug.PV_WINDOW // aug.PV_HOP, aug.PV_HOP
    window = np.hanning(aug.PV_WINDOW).reshape(parts, hop)
    frames = np.fft.irfft(spec, n=aug.PV_WINDOW, axis=1).reshape(n_frames, parts, hop) * window
    out = np.zeros((n_frames + parts - 1, hop))
    norm = np.zeros_like(out)
    for k in range(parts - 1, -1, -1):
        out[k:k + n_frames] += frames[:, k]
        norm[k:k + n_frames] += window[k] * window[k]
    return (out / np.maximum(norm, 1e-8)).ravel()


# 64 analysis frames make one block of the vocoder's STFT; at rate 1 they
# make one block of its resynthesis too.
BLOCK_SAMPLES = aug.PV_WINDOW + 63 * aug.PV_HOP


class TestFrameBlocks:
    """The blocked analysis and resynthesis against whole-clip arrays: bitwise
    equal, and with no whole-clip temporaries."""

    @pytest.mark.parametrize("n", (1024, 1279, BLOCK_SAMPLES - aug.PV_HOP, BLOCK_SAMPLES,
                                   BLOCK_SAMPLES + aug.PV_HOP, 220_500))
    def test_bitwise_equal_to_whole_clip_arrays(self, n):
        clip = tone_clip(n, seed=4)
        analysis = aug._analyse(clip)
        want = whole_clip_analyse(clip.samples)
        for got, ref in zip(analysis, want):
            assert got.tobytes() == ref.tobytes()
        for rate in (ZERO_FRAME_RATE, 0.8, 1.0, 1.3):
            assert aug._stretch(analysis, rate).tobytes() \
                == whole_clip_stretch(want, rate).tobytes(), rate

    def test_stretch_builds_no_whole_clip_temporaries(self):
        # Whole-clip spectra, magnitudes and irfft frames took about 26 MB;
        # the output and its blocks take about 4.
        analysis = aug._analyse(tone_clip(220_500))
        tracemalloc.start()
        try:
            aug._stretch(analysis, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


def calls_named(source, function, names):
    """Names from ``names`` that ``function`` in ``source`` calls, as
    ``name(...)`` or ``module.name(...)``."""
    tree = ast.parse(source)
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    found = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.add(name)
    return found


TRANSCENDENTALS = {"exp", "cos", "sin", "angle", "arctan2"}


def test_call_scanner_sees_both_forms():
    source = ("def f(x):\n    return np.exp(x) + cos(x) + np.sqrt(x)\n"
              "def g(x):\n    return np.angle(x)\n")
    assert calls_named(source, "f", TRANSCENDENTALS) == {"exp", "cos"}


def test_stretch_evaluates_no_transcendental():
    source = Path(aug.__file__).read_text()
    assert not calls_named(source, "_stretch", TRANSCENDENTALS)


class TestTimeStretch:
    def test_unit_rate_keeps_length(self):
        clip = sine_clip()
        out = aug.time_stretch(clip, 1.0)
        assert abs(out.samples.size - clip.samples.size) / clip.samples.size <= 0.01

    def test_rate_13_on_five_second_clip(self):
        clip = sine_clip(seconds=5.0)
        out = aug.time_stretch(clip, 1.3)
        target = 220_500 / 1.3
        assert abs(out.samples.size - target) / target <= 0.02

    def test_pitch_preserved_when_slowed(self):
        clip = sine_clip(440.0)
        assert dominant_bin(clip) == 10
        assert dominant_bin(aug.time_stretch(clip, 0.8)) == 10

    def test_duration_law_across_range(self):
        clip = sine_clip(seconds=1.0)
        for rate in (0.8, 0.9, 1.0, 1.1, 1.2, 1.3):
            out = aug.time_stretch(clip, rate)
            target = clip.samples.size / rate
            assert abs(out.samples.size - target) / target <= 0.02, rate

    def test_nonpositive_rate_raises(self):
        with pytest.raises(ValueError):
            aug.time_stretch(sine_clip(), 0.0)
        with pytest.raises(ValueError):
            aug.time_stretch(sine_clip(), -1.0)


class TestPitchShift:
    def test_zero_semitones_keeps_peak(self):
        out = aug.pitch_shift(sine_clip(440.0), 0.0)
        assert dominant_bin(out) == 10

    def test_up_three_and_a_half_semitones(self):
        # 440 * 2^(3.5/12) = 538.9 Hz -> bin 538.9*1024/44100 = 12.5
        out = aug.pitch_shift(sine_clip(440.0), 3.5)
        assert dominant_bin(out) in (12, 13)

    def test_length_preserved(self):
        clip = sine_clip()
        for semis in (-3.5, -1.0, 0.0, 2.0, 3.5):
            out = aug.pitch_shift(clip, semis)
            assert abs(out.samples.size - clip.samples.size) / clip.samples.size <= 0.01

    def test_frequency_ratio_law(self):
        clip = sine_clip(880.0)  # bin 20.4; higher base frequency for resolution
        base = dominant_bin(clip)
        for semis in (-3.5, 3.5):
            shifted_bin = dominant_bin(aug.pitch_shift(clip, semis))
            ratio = shifted_bin / base
            assert abs(ratio - 2.0 ** (semis / 12.0)) <= 0.05

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            aug.pitch_shift(sine_clip(), 4.0)


class TestMixup:
    def _pair(self):
        rng = np.random.default_rng(0)
        x_i = rng.standard_normal((128, 128, 2)).astype(np.float32)
        x_j = rng.standard_normal((128, 128, 2)).astype(np.float32)
        onehot = np.eye(10, dtype=np.float32)
        return x_i, onehot[2], x_j, onehot[7]

    def test_lambda_one_returns_first_bitwise(self):
        x_i, y_i, x_j, y_j = self._pair()
        mixed, label = aug.mixup_arrays(x_i, y_i, x_j, y_j, 1.0)
        assert mixed.tobytes() == x_i.tobytes()
        assert label.tobytes() == y_i.tobytes()

    def test_lambda_zero_returns_second_bitwise(self):
        x_i, y_i, x_j, y_j = self._pair()
        mixed, label = aug.mixup_arrays(x_i, y_i, x_j, y_j, 0.0)
        assert mixed.tobytes() == x_j.tobytes()
        assert label.tobytes() == y_j.tobytes()

    def test_half_mix_of_onehots(self):
        x_i, y_i, x_j, y_j = self._pair()
        _, label = aug.mixup_arrays(x_i, y_i, x_j, y_j, 0.5)
        assert label[2] == pytest.approx(0.5) and label[7] == pytest.approx(0.5)
        assert label.sum() == pytest.approx(1.0)

    def test_convexity_bounds_and_simplex(self):
        x_i, y_i, x_j, y_j = self._pair()
        rng = np.random.default_rng(1)
        lo, hi = np.minimum(x_i, x_j), np.maximum(x_i, x_j)
        for _ in range(20):
            mixed, label = aug.mixup_arrays(x_i, y_i, x_j, y_j, float(rng.uniform()))
            assert np.all(mixed >= lo - 1e-6) and np.all(mixed <= hi + 1e-6)
            assert abs(label.sum() - 1.0) <= 1e-6

    def test_shape_mismatch_raises(self):
        x_i, y_i, _, y_j = self._pair()
        with pytest.raises(ValueError):
            aug.mixup_arrays(x_i, y_i, np.zeros((64, 128, 2), np.float32), y_j, 0.5)

    def test_lambda_out_of_range_raises(self):
        x_i, y_i, x_j, y_j = self._pair()
        with pytest.raises(ValueError):
            aug.mixup_arrays(x_i, y_i, x_j, y_j, 1.5)


class TestMixBatchWeights:
    def test_mean_is_half(self):
        for alpha in (0.2, 1.0, 5.0):
            weights = np.concatenate([applied_mix_weights(alpha, seed) for seed in range(100)])
            assert abs(weights.mean() - 0.5) < 0.01

    def test_alpha_one_is_uniform_ks(self):
        weights = np.concatenate([applied_mix_weights(1.0, seed) for seed in range(100, 200)])
        assert ks_uniform(weights) < 0.01

    def test_seeded_reproducibility(self):
        def three_batches(seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(3):
                xb = np.arange(16, dtype=np.float32).reshape(8, 2)
                yb = np.eye(8, dtype=np.float32)
                aug.mix_batch(xb, yb, 0.2, rng)
                out.append(xb.tobytes() + yb.tobytes())
            return out

        a, b = three_batches(4), three_batches(4)
        assert a == b and len(set(a)) == 3

    def test_bad_alpha_raises(self):
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                aug.mix_batch(np.zeros((4, 2), np.float32), np.eye(4, dtype=np.float32),
                              alpha, np.random.default_rng(0))


def test_augment_clip_copies_and_reproducibility():
    clip = sine_clip(seconds=1.0)
    config = aug.AugmentConfig(copies_per_clip=2)
    a = aug.augment_clip(clip, config, np.random.default_rng(6))
    b = aug.augment_clip(clip, config, np.random.default_rng(6))
    assert len(a) == 2
    for ca, cb in zip(a, b):
        assert ca.samples.tobytes() == cb.samples.tobytes()
