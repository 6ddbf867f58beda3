import tracemalloc

import numpy as np
import pytest

from esckit import features as ft


def make_clip(samples, label=0, fold=1, clip_id="clip", sr=ft.SAMPLE_RATE):
    return ft.WaveClip(samples=np.asarray(samples, dtype=np.float64), sample_rate=sr,
                       label=label, fold=fold, clip_id=clip_id)


def sine_clip(freq_hz, seconds=5.0, **kw):
    n = int(round(seconds * ft.SAMPLE_RATE))
    x = np.sin(2.0 * np.pi * freq_hz * np.arange(n) / ft.SAMPLE_RATE)
    return make_clip(x, **kw)


class TestStftPower:
    def test_five_second_clip_frame_count(self):
        spec = ft.stft_power(make_clip(np.zeros(220_500)))
        assert spec.shape == (513, 429)

    def test_zero_clip_zero_spectrogram(self):
        spec = ft.stft_power(make_clip(np.zeros(4096)))
        assert np.all(spec == 0.0)

    def test_sine_peak_bin(self):
        # 440 Hz at 44.1 kHz / 1024-point window -> bin round(440*1024/44100) = 10
        spec = ft.stft_power(sine_clip(440.0, seconds=1.0))
        assert np.all(spec.argmax(axis=0) == 10)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(0)
        clip = make_clip(rng.standard_normal(2048))
        spec = ft.stft_power(clip)
        # direct O(N^2) DFT of the second frame
        frame = clip.samples[512:512 + 1024] * np.hamming(1024)
        n = np.arange(1024)
        for k in (0, 3, 137, 512):
            coeff = np.sum(frame * np.exp(-2j * np.pi * k * n / 1024))
            assert spec[k, 1] == pytest.approx(abs(coeff) ** 2, rel=1e-9, abs=1e-12)

    def test_too_short_clip_raises(self):
        with pytest.raises(ft.TooShortError):
            ft.stft_power(make_clip(np.zeros(1023)))

    # 64 frames make one block of the blocked STFT.
    @pytest.mark.parametrize("n", (1024, 1279, 1024 + 511, ft.STFT_WINDOW + 62 * ft.STFT_HOP,
                                   ft.STFT_WINDOW + 63 * ft.STFT_HOP,
                                   ft.STFT_WINDOW + 64 * ft.STFT_HOP, 220_500))
    def test_matches_gather_framing_bitwise(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        starts = np.arange((n - ft.STFT_WINDOW) // ft.STFT_HOP + 1) * ft.STFT_HOP
        frames = x[starts[:, None] + np.arange(ft.STFT_WINDOW)] * np.hamming(ft.STFT_WINDOW)
        spectrum = np.fft.rfft(frames, axis=1)
        want = (spectrum.real ** 2 + spectrum.imag ** 2).T
        assert ft.stft_power(make_clip(x)).tobytes() == want.tobytes()

    def test_is_the_transpose_of_frame_rows(self):
        # log_gt's matmul reads the same layout as the whole-clip transform's.
        spec = ft.stft_power(make_clip(np.zeros(220_500)))
        assert spec.T.flags.c_contiguous

    def test_sine_power_concentrated_near_peak(self):
        spec = ft.stft_power(sine_clip(440.0, seconds=1.0))
        total = spec.sum()
        near = spec[8:13, :].sum()  # +-2 bins around bin 10
        assert near / total >= 0.90


class TestGammatoneFilterbank:
    def test_shape(self):
        fb = ft.build_gammatone_filterbank()
        assert fb.weights.shape == (128, 513)
        assert fb.center_frequencies.shape == (128,)

    def test_row_peak_tracks_center_frequency(self):
        fb = ft.build_gammatone_filterbank()
        expected = np.round(fb.center_frequencies * 1024 / 44100)
        assert np.all(np.abs(fb.weights.argmax(axis=1) - expected) <= 1)

    def test_centers_strictly_increasing_in_range(self):
        fb = ft.build_gammatone_filterbank()
        cf = fb.center_frequencies
        assert np.all(np.diff(cf) > 0)
        assert cf[0] > 0 and cf[-1] <= 22050.0

    def test_rows_have_positive_sum(self):
        fb = ft.build_gammatone_filterbank()
        assert np.all(fb.weights.sum(axis=1) > 0)
        assert np.all(fb.weights >= 0)


class TestLogGt:
    def test_zero_spectrogram_hits_floor(self):
        fb = ft.build_gammatone_filterbank()
        out = ft.log_gt(np.zeros((513, 7)), fb)
        assert np.allclose(out, -10.0, atol=1e-9)

    def test_scaling_by_ten_adds_one(self):
        fb = ft.build_gammatone_filterbank()
        rng = np.random.default_rng(1)
        spec = rng.uniform(0.5, 2.0, size=(513, 11))  # well above the 1e-10 floor
        assert np.allclose(ft.log_gt(10.0 * spec, fb) - ft.log_gt(spec, fb), 1.0, atol=1e-6)

    def test_output_shape_for_five_second_clip(self):
        fb = ft.build_gammatone_filterbank()
        out = ft.log_gt(ft.stft_power(make_clip(np.zeros(220_500))), fb)
        assert out.shape == (128, 429)

    def test_bin_mismatch_raises(self):
        fb = ft.build_gammatone_filterbank()
        with pytest.raises(ValueError):
            ft.log_gt(np.zeros((512, 5)), fb)


class TestDelta:
    def test_constant_input_zero(self):
        out = ft.delta(np.full((128, 40), 3.7))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_linear_ramp_interior_slope(self):
        slope = 0.25
        x = np.tile(slope * np.arange(30.0), (4, 1))
        out = ft.delta(x)
        assert np.allclose(out[:, 2:-2], slope, atol=1e-9)

    def test_shape_preserved(self):
        assert ft.delta(np.zeros((128, 57))).shape == (128, 57)

    def test_too_few_frames_raises(self):
        with pytest.raises(ft.TooShortError):
            ft.delta(np.zeros((128, 4)))


class TestSegment:
    def _matrices(self, n_frames, rng=None):
        rng = rng or np.random.default_rng(2)
        static = rng.standard_normal((128, n_frames))
        return static, ft.delta(static) if n_frames >= 5 else static

    def test_429_frames_give_five_segments(self):
        static, dlt = self._matrices(429)
        segs = ft.segment(static, dlt, make_clip(np.zeros(2048)))
        assert len(segs) == 5
        assert all(s.values.shape == (128, 128, 2) for s in segs)

    def test_exact_boundary_single_segment(self):
        static, dlt = self._matrices(128)
        segs = ft.segment(static, dlt, make_clip(np.zeros(2048)))
        assert len(segs) == 1
        assert np.allclose(segs[0].values[:, :, 0], static)

    def test_short_input_zero_padded(self):
        static, dlt = self._matrices(100)
        segs = ft.segment(static, dlt, make_clip(np.zeros(2048)))
        assert len(segs) == 1
        assert np.all(segs[0].values[:, 100:, :] == 0.0)
        assert np.allclose(segs[0].values[:, :100, 0], static)

    def test_channel_order_static_then_delta(self):
        # ramp: static keeps the ramp, delta channel is its constant slope
        slope = 0.5
        static = np.tile(slope * np.arange(140.0), (128, 1))
        segs = ft.segment(static, ft.delta(static), make_clip(np.zeros(2048)))
        assert np.allclose(segs[0].values[:, 2:126, 1], slope, atol=1e-6)
        assert np.allclose(segs[0].values[:, :, 0], static[:, :128], atol=1e-6)

    def test_metadata_propagates(self):
        static, dlt = self._matrices(200)
        clip = make_clip(np.zeros(2048), label=7, fold=3, clip_id="abc.wav")
        segs = ft.segment(static, dlt, clip, augmented=True)
        assert [s.segment_index for s in segs] == [0, 1]
        assert all(s.label == 7 and s.fold == 3 and s.clip_id == "abc.wav" and s.augmented
                   for s in segs)


class TestNormStats:
    def _segments(self, rng, n=12):
        fb = ft.build_gammatone_filterbank()
        out = []
        for i in range(n):
            clip = make_clip(rng.standard_normal(70_000), clip_id=f"c{i}", fold=1 + i % 4)
            out.extend(ft.extract_segments(clip, fb))
        return out

    def test_self_normalization_standardizes(self):
        segs = self._segments(np.random.default_rng(3))
        stats = ft.compute_norm_stats(segs)
        normed = np.stack([ft.apply_norm(s, stats).values for s in segs])
        for c in range(2):
            assert abs(normed[..., c].mean()) < 1e-3
            assert abs(normed[..., c].std() - 1.0) < 1e-3

    def test_identity_stats(self):
        seg = self._segments(np.random.default_rng(4), n=1)[0]
        stats = ft.NormStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
        assert np.array_equal(ft.apply_norm(seg, stats).values, seg.values)

    def test_stats_match_float64_reference_under_a_large_offset(self):
        rng = np.random.default_rng(6)
        segs = [ft.LogGTSegment(values=(np.array([1e4, -300.0]) + [0.5, 2.0]
                                        * rng.standard_normal((128, 128, 2))).astype(np.float32),
                                clip_id=f"c{i}", segment_index=0, label=0, fold=1)
                for i in range(7)]
        stacked = np.stack([s.values for s in segs]).astype(np.float64)
        stats = ft.compute_norm_stats(segs)
        assert stats.mean.dtype == stats.std.dtype == np.float32
        assert np.allclose(stats.mean, stacked.mean(axis=(0, 1, 2)), rtol=1e-6, atol=0)
        assert np.allclose(stats.std, stacked.std(axis=(0, 1, 2)), rtol=1e-6, atol=0)

    def test_normalize_a_batch_equals_apply_norm_per_segment(self):
        segs = self._segments(np.random.default_rng(7), n=2)
        stats = ft.NormStats(mean=np.array([-3.0, 0.1], np.float32),
                             std=np.array([2.0, 0.7], np.float32))
        batch = ft.normalize(np.stack([s.values for s in segs]), stats)
        assert batch.dtype == np.float32
        for row, seg in zip(batch, segs):
            assert row.tobytes() == ft.apply_norm(seg, stats).values.tobytes()
            assert row.tobytes() == ((seg.values - stats.mean) / stats.std).tobytes()

    def test_normalize_stacks_a_list_and_never_writes_its_inputs(self):
        segs = self._segments(np.random.default_rng(8), n=2)
        stats = ft.NormStats(mean=np.array([-3.0, 0.1], np.float32),
                             std=np.array([2.0, 0.7], np.float32))
        values = [s.values for s in segs]
        before = [v.copy() for v in values]
        stacked = np.stack(values)
        batch = ft.normalize(values, stats)
        single = ft.normalize(values[0], stats)
        assert batch.shape == stacked.shape and batch.dtype == np.float32
        assert batch.tobytes() == ft.normalize(stacked, stats).tobytes()
        assert single.tobytes() == batch[0].tobytes()
        assert stacked.tobytes() == np.stack(before).tobytes()
        for v, b in zip(values, before):
            assert v.tobytes() == b.tobytes()
            assert not np.shares_memory(v, batch) and not np.shares_memory(v, single)

    def test_zero_std_raises(self):
        clip = make_clip(np.zeros(70_000))
        segs = ft.segment(np.zeros((128, 128)), np.zeros((128, 128)), clip)
        with pytest.raises(ValueError):
            ft.compute_norm_stats(segs)


def test_extraction_is_deterministic():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(120_000)
    fb = ft.build_gammatone_filterbank()
    a = ft.extract_segments(make_clip(samples.copy()), fb)
    b = ft.extract_segments(make_clip(samples.copy()), fb)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.values.tobytes() == sb.values.tobytes()


def test_extraction_builds_no_whole_clip_temporaries():
    # Whole-clip windowed frames and spectra took about 7 MB on a 5 s clip; the
    # power spectrogram, the features and one block of the STFT take about 3.7.
    clip = make_clip(np.random.default_rng(6).standard_normal(220_500))
    fb = ft.build_gammatone_filterbank()
    tracemalloc.start()
    try:
        ft.extract_segments(clip, fb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6
