import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from spoofcm.audio_io import Waveform
from spoofcm.dsp import (
    BiquadCascade,
    ComplexSpectrogram,
    MelFilterbank,
    StftConfig,
    design_butterworth_bandstop,
    filtfilt,
    istft,
    mel_apply,
    mel_pseudo_inverse,
    resample,
    stft,
)
from spoofcm.errors import ConfigError, DataError, NumericalError

from reference import (
    frame_energy_fullfft,
    frame_energy_timedomain,
    istft_loops,
    mel_apply_loops,
    overlap_add_loops,
)

SR = 16000


def wave(x, sr=SR):
    return Waveform(np.asarray(x, dtype=np.float64), sr)


def rms(x):
    return np.sqrt(np.mean(np.square(x)))


class TestStft:
    def test_dc_maps_to_bin_zero(self):
        cfg = StftConfig()
        s = stft(wave(np.full(SR, 0.5)), cfg)
        mags = np.abs(s.frames)
        assert np.all(np.argmax(mags, axis=1) == 0)
        # Hann leakage is confined to the adjacent bin
        assert np.max(mags[:, 2:]) < 1e-9 * np.max(mags)

    def test_bin_centered_tone_peaks_at_bin_k(self):
        cfg = StftConfig()
        k = 40
        t = np.arange(SR) / SR
        s = stft(wave(np.sin(2 * np.pi * (k * SR / cfg.fft_size) * t)), cfg)
        assert np.all(np.argmax(np.abs(s.frames), axis=1) == k)

    def test_frame_count(self):
        cfg = StftConfig()
        n = 5000
        s = stft(wave(np.random.default_rng(0).standard_normal(n)), cfg)
        assert s.n_frames == (n - cfg.win_length) // cfg.hop + 1

    def test_parseval_energy_against_direct_summation(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(SR)
        s = stft(wave(x), cfg)
        win = cfg.window_array()
        for m in (0, 13, s.n_frames - 1):
            frame = x[m * cfg.hop : m * cfg.hop + cfg.win_length] * win
            e_time = frame_energy_timedomain(frame)
            e_freq = frame_energy_fullfft(frame, cfg.fft_size)
            assert abs(e_time - e_freq) <= 1e-6 * e_time

    def test_too_short_input_raises(self):
        with pytest.raises(DataError):
            stft(wave(np.zeros(100)), StftConfig())


class TestIstft:
    def test_roundtrip_interior(self):
        cfg = StftConfig()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8000)
        y = istft(stft(wave(x), cfg)).samples
        n = len(y)
        interior = slice(cfg.win_length, n - cfg.win_length)
        assert np.max(np.abs(y[interior] - x[: len(y)][interior])) < 1e-6

    def test_zero_spectrogram_gives_zero_waveform(self):
        cfg = StftConfig()
        s = ComplexSpectrogram(np.zeros((7, cfg.fft_size // 2 + 1)), cfg, SR)
        assert np.all(istft(s).samples == 0.0)

    def test_single_frame_matches_closed_form(self):
        cfg = StftConfig()
        rng = np.random.default_rng(3)
        v = rng.standard_normal(cfg.win_length)
        s = ComplexSpectrogram(np.fft.rfft(v, n=cfg.fft_size)[None, :], cfg, SR)
        win = cfg.window_array()
        expected = (win * v) / np.maximum(win * win, 1e-12)
        assert np.allclose(istft(s).samples, expected, atol=1e-9)

    def test_non_cola_hop_rejected(self):
        cfg = StftConfig(fft_size=512, hop=512, win_length=512)  # hann at hop == win gaps out
        s = stft(wave(np.random.default_rng(4).standard_normal(4096)), cfg)
        for _ in range(3):  # the verdict cache must not remember a failure as a pass
            with pytest.raises(ConfigError):
                istft(s)

    @settings(max_examples=60, deadline=None)
    @given(
        hop=st.integers(min_value=2, max_value=48),
        whole_hops=st.integers(min_value=1, max_value=7),
        data=st.data(),
        window=st.sampled_from(["hann", "hamming", "blackman", "triang", "cosine", "boxcar"]),
        n_frames=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical_to_per_frame_loop(self, hop, whole_hops, data, window, n_frames, seed):
        # win_length is never a multiple of hop, so the last piece of a frame is partial
        win_length = whole_hops * hop + data.draw(st.integers(min_value=1, max_value=hop - 1))
        fft_size = 1 << (win_length - 1).bit_length()
        cfg = StftConfig(fft_size=fft_size, hop=hop, win_length=win_length, window=window)
        rng = np.random.default_rng(seed)
        bins = fft_size // 2 + 1
        frames = rng.standard_normal((n_frames, bins)) + 1j * rng.standard_normal((n_frames, bins))
        try:
            got = istft(ComplexSpectrogram(frames, cfg, SR)).samples
        except ConfigError:  # rejected as not COLA-safe: the squared windows must leave a gap
            squares = np.tile(get_window(window, win_length, fftbins=True) ** 2, (16, 1))
            assert overlap_add_loops(squares, hop)[win_length:-win_length].min() < 1e-3
            return
        assert np.array_equal(got, istft_loops(frames, fft_size, hop, win_length, window))

    @settings(max_examples=80, deadline=None)
    @given(
        win_length=st.integers(min_value=1, max_value=1024),
        hop_share=st.floats(min_value=0.0, max_value=1.0),
        window=st.sampled_from(["hann", "hamming", "blackman", "triang", "cosine", "boxcar"]),
    )
    @example(win_length=512, hop_share=1 / 16, window="hann")  # 16 frames overlap each sample
    def test_any_config_succeeds_or_raises_config_error(self, win_length, hop_share, window):
        hop = max(1, round(hop_share * win_length))
        fft_size = 1 << (win_length - 1).bit_length()
        cfg = StftConfig(fft_size=fft_size, hop=hop, win_length=win_length, window=window)
        frames = np.ones((3, fft_size // 2 + 1), dtype=complex)
        try:
            istft(ComplexSpectrogram(frames, cfg, SR))
            rejected = False
        except ConfigError:
            rejected = True
        # the verdict of a probe with a steady region; 16 frames while ceil(win/hop) <= 14
        n_probe = max(16, -(-win_length // hop) + 2)
        squares = np.tile(get_window(window, win_length, fftbins=True) ** 2, (n_probe, 1))
        assert rejected == (overlap_add_loops(squares, hop)[win_length:-win_length].min() < 1e-3)

    def test_output_length(self):
        cfg = StftConfig()
        s = stft(wave(np.zeros(4000) + 0.1), cfg)
        assert len(istft(s)) == (s.n_frames - 1) * cfg.hop + cfg.win_length


class TestMel:
    def test_zero_spectrogram_gives_zero_mel(self):
        cfg = StftConfig()
        fb = MelFilterbank(24, cfg.fft_size, SR)
        s = ComplexSpectrogram(np.zeros((5, cfg.fft_size // 2 + 1)), cfg, SR)
        assert np.all(mel_apply(s, fb) == 0.0)

    def test_unit_bin_selects_filterbank_column(self):
        cfg = StftConfig()
        fb = MelFilterbank(24, cfg.fft_size, SR)
        frames = np.zeros((1, cfg.fft_size // 2 + 1), dtype=complex)
        k = 100
        frames[0, k] = 1.0
        s = ComplexSpectrogram(frames, cfg, SR)
        assert np.allclose(mel_apply(s, fb)[0], fb.weights[:, k])

    def test_matches_loop_oracle(self):
        cfg = StftConfig()
        fb = MelFilterbank(24, cfg.fft_size, SR)
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((4, cfg.fft_size // 2 + 1)) + 1j * rng.standard_normal(
            (4, cfg.fft_size // 2 + 1)
        )
        s = ComplexSpectrogram(frames, cfg, SR)
        assert np.allclose(mel_apply(s, fb), mel_apply_loops(np.abs(frames), fb.weights), atol=1e-10)

    def test_dimension_mismatch_raises(self):
        fb = MelFilterbank(24, 1024, SR)
        s = ComplexSpectrogram(np.zeros((2, 257)), StftConfig(), SR)
        with pytest.raises(ConfigError):
            mel_apply(s, fb)

    def test_invariants(self):
        fb = MelFilterbank(80, 1024, SR)
        assert np.all(fb.weights >= 0)
        assert np.all(fb.weights.sum(axis=1) > 0)
        with pytest.raises(ConfigError):
            MelFilterbank(24, 512, SR, fmin=9000.0)


class TestMelPseudoInverse:
    def test_smooth_envelope_roundtrip(self):
        cfg = StftConfig()
        fb = MelFilterbank(24, cfg.fft_size, SR)
        freqs = np.arange(cfg.fft_size // 2 + 1) * SR / cfg.fft_size
        env = np.exp(-((freqs - 1200.0) / 900.0) ** 2) + 0.3 * np.exp(-((freqs - 3000.0) / 600.0) ** 2)
        mag = np.tile(env, (3, 1))
        rec = mel_pseudo_inverse(mag @ fb.weights.T, fb)
        rel = np.linalg.norm(rec - mag) / np.linalg.norm(mag)
        assert rel < 0.2

    def test_zero_mel_gives_zero_magnitudes(self):
        fb = MelFilterbank(24, 512, SR)
        assert np.all(mel_pseudo_inverse(np.zeros((4, 24)), fb) == 0.0)

    def test_projection_identity_on_row_space(self):
        fb = MelFilterbank(24, 512, SR)
        rng = np.random.default_rng(6)
        mel = np.abs(rng.standard_normal((5, 257))) @ fb.weights.T
        back = mel_pseudo_inverse(mel, fb, clamp=False) @ fb.weights.T
        assert np.allclose(back, mel, atol=1e-6)

    def test_rank_deficient_rejected(self):
        fb = MelFilterbank(80, 512, SR)  # 80 triangles do not fit 257 bins independently
        with pytest.raises(NumericalError):
            mel_pseudo_inverse(np.zeros((2, 80)), fb)


class TestButterworth:
    def test_stopband_attenuation(self):
        c = design_butterworth_bandstop(10, 2000.0, 3000.0, SR)
        h = c.frequency_response(np.array([2500.0]), SR)
        assert 20 * np.log10(np.abs(h[0])) <= -60.0

    def test_passband_flat(self):
        c = design_butterworth_bandstop(10, 2000.0, 3000.0, SR)
        h = c.frequency_response(np.array([5.0, SR / 2 - 5.0]), SR)
        assert np.all(np.abs(20 * np.log10(np.abs(h))) < 0.5)

    def test_all_poles_inside_unit_circle(self):
        c = design_butterworth_bandstop(10, 2000.0, 3000.0, SR)
        for row in c.sections:
            assert np.all(np.abs(np.roots(row[3:])) < 1.0)

    def test_invalid_band_rejected(self):
        with pytest.raises(ConfigError):
            design_butterworth_bandstop(10, 3000.0, 2000.0, SR)
        with pytest.raises(ConfigError):
            design_butterworth_bandstop(10, 2000.0, 9000.0, SR)
        with pytest.raises(ConfigError):
            design_butterworth_bandstop(7, 2000.0, 3000.0, SR)

    @settings(max_examples=25, deadline=None)
    @given(
        lo=st.floats(min_value=100.0, max_value=5000.0),
        width=st.floats(min_value=50.0, max_value=2500.0),
        order=st.sampled_from([4, 6, 8, 10]),
    )
    def test_stability_over_random_bands(self, lo, width, order):
        hi = min(lo + width, SR / 2 - 50.0)
        c = design_butterworth_bandstop(order, lo, hi, SR)
        for row in c.sections:
            assert np.all(np.abs(np.roots(row[3:])) < 1.0)


class TestFiltfilt:
    def test_identity_cascade_is_passthrough(self):
        ident = BiquadCascade(np.array([[1.0, 0, 0, 1.0, 0, 0]]))
        x = np.random.default_rng(7).standard_normal(1000)
        assert np.array_equal(filtfilt(ident, wave(x)).samples, x)

    def test_time_reversal_symmetry(self):
        c = design_butterworth_bandstop(10, 1000.0, 2000.0, SR)
        x = np.random.default_rng(8).standard_normal(4000)
        fwd = filtfilt(c, wave(x)).samples
        rev = filtfilt(c, wave(x[::-1])).samples[::-1]
        assert np.max(np.abs(fwd - rev)) < 1e-9

    def test_stopband_sine_attenuated(self):
        c = design_butterworth_bandstop(10, 2000.0, 3000.0, SR)
        t = np.arange(SR) / SR
        x = np.sin(2 * np.pi * 2500.0 * t)
        y = filtfilt(c, wave(x)).samples
        assert 20 * np.log10(rms(y[100:-100]) / rms(x[100:-100])) <= -40.0

    def test_zero_group_delay(self):
        # narrow notch leaves broadband noise nearly intact; correlation must peak at lag 0
        c = design_butterworth_bandstop(4, 3000.0, 3100.0, SR)
        x = np.random.default_rng(9).standard_normal(8000)
        y = filtfilt(c, wave(x)).samples
        lags = range(-5, 6)
        corr = [np.dot(x[100:-100], np.roll(y, lag)[100:-100]) for lag in lags]
        assert list(lags)[int(np.argmax(corr))] == 0

    def test_length_preserved_and_short_input_rejected(self):
        c = design_butterworth_bandstop(10, 2000.0, 3000.0, SR)
        assert len(filtfilt(c, wave(np.ones(500)))) == 500
        with pytest.raises(DataError):
            filtfilt(c, wave(np.ones(25)))


class TestResample:
    def test_length_ratio(self):
        y = resample(wave(np.zeros(16000)), 24000)
        assert len(y) == 24000 and y.sample_rate == 24000

    def test_tone_peak_preserved(self):
        t = np.arange(SR) / SR
        y = resample(wave(np.sin(2 * np.pi * 1000.0 * t)), 24000)
        spec = np.abs(np.fft.rfft(y.samples * np.hanning(len(y))))
        peak_hz = np.argmax(spec) * 24000 / len(y)
        assert abs(peak_hz - 1000.0) <= 24000 / len(y) + 1e-9

    def test_roundtrip_bandlimited(self):
        rng = np.random.default_rng(10)
        spec = np.fft.rfft(rng.standard_normal(SR))
        spec[int(6000 / SR * SR) :] = 0.0  # brickwall at 6 kHz
        x = np.fft.irfft(spec, n=SR)
        z = resample(resample(wave(x), 24000), 16000).samples
        d = (z - x)[1000:-1000]
        assert 20 * np.log10(rms(d) / rms(x[1000:-1000])) <= -50.0

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(4000), rng.standard_normal(4000)
        lhs = resample(wave(2.0 * a + 0.5 * b), 24000).samples
        rhs = 2.0 * resample(wave(a), 24000).samples + 0.5 * resample(wave(b), 24000).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_unsupported_ratio_rejected(self):
        with pytest.raises(ConfigError):
            resample(wave(np.zeros(1000), sr=44100), 16000)  # 441/160 exceeds factor bound
