from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from spoofcm.audio_io import Waveform
from spoofcm.augment import apply_freqmask, draw_freqmask, draw_rawboost
from spoofcm.dsp import (
    ComplexSpectrogram,
    MelFilterbank,
    StftConfig,
    _IIR_BLOCK,
    _mel_pinv_t,
    _polyphase_filter,
    _resample_filter,
    allpole_rows,
    analysis_window,
    butter_sos,
    fast_fft_length,
    filtfilt,
    istft,
    mel_apply,
    mel_filterbank,
    mel_pseudo_inverse,
    notch_sos,
    resample,
    sosfilt,
    sosfilt_piecewise,
    stft,
)
from spoofcm.errors import ConfigError, DataError, NumericalError

from reference import (
    filtfilt_sosfilt,
    frame_energy_fullfft,
    frame_energy_timedomain,
    istft_loops,
    mel_apply_loops,
    overlap_add_loops,
    resample_upfirdn,
)

SR = 16000


def wave(x, sr=SR):
    return Waveform(np.asarray(x, dtype=np.float64), sr)


def rms(x):
    return np.sqrt(np.mean(np.square(x)))


@pytest.mark.parametrize("n", [1, 256, 400, 480, 512, 600, 1024, 1200, 2048])
def test_window_matches_scipy_hann_bytes(n):
    assert analysis_window(n).tobytes() == signal.get_window("hann", n, fftbins=True).tobytes()


def test_fast_fft_length_is_the_next_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6))
    expected = [next(m for m in smooth if m >= n) for n in range(1, 5001)]
    assert [fast_fft_length(n) for n in range(1, 5001)] == expected


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
        win = analysis_window(cfg.win_length)
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
        win = analysis_window(cfg.win_length)
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
        n_frames=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical_to_per_frame_loop(self, hop, whole_hops, data, n_frames, seed):
        # win_length is never a multiple of hop, so the last piece of a frame is partial
        win_length = whole_hops * hop + data.draw(st.integers(min_value=1, max_value=hop - 1))
        fft_size = 1 << (win_length - 1).bit_length()
        cfg = StftConfig(fft_size=fft_size, hop=hop, win_length=win_length)
        rng = np.random.default_rng(seed)
        bins = fft_size // 2 + 1
        frames = rng.standard_normal((n_frames, bins)) + 1j * rng.standard_normal((n_frames, bins))
        try:
            got = istft(ComplexSpectrogram(frames, cfg, SR)).samples
        except ConfigError:  # rejected as not COLA-safe: the squared windows must leave a gap
            squares = np.tile(signal.get_window("hann", win_length, fftbins=True) ** 2, (16, 1))
            assert overlap_add_loops(squares, hop)[win_length:-win_length].min() < 1e-3
            return
        assert np.array_equal(got, istft_loops(frames, fft_size, hop, win_length))

    @settings(max_examples=80, deadline=None)
    @given(
        win_length=st.integers(min_value=1, max_value=1024),
        hop_share=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(win_length=512, hop_share=1 / 16)  # 16 frames overlap each sample
    def test_any_config_succeeds_or_raises_config_error(self, win_length, hop_share):
        hop = max(1, round(hop_share * win_length))
        fft_size = 1 << (win_length - 1).bit_length()
        cfg = StftConfig(fft_size=fft_size, hop=hop, win_length=win_length)
        frames = np.ones((3, fft_size // 2 + 1), dtype=complex)
        try:
            istft(ComplexSpectrogram(frames, cfg, SR))
            rejected = False
        except ConfigError:
            rejected = True
        # the verdict of a probe with a steady region; 16 frames while ceil(win/hop) <= 14
        n_probe = max(16, -(-win_length // hop) + 2)
        squares = np.tile(signal.get_window("hann", win_length, fftbins=True) ** 2, (n_probe, 1))
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
        """On the test bank and on the Griffin-Lim channels' banks, whose band sums mel_apply takes."""
        rng = np.random.default_rng(5)
        for n_mels, fft_size, sr in [(24, 512, SR), (80, 1024, 24000), (80, 2048, 48000), (20, 512, 8000)]:
            cfg = StftConfig(fft_size, fft_size // 4, fft_size)
            fb = MelFilterbank(n_mels, cfg.fft_size, sr)
            frames = rng.standard_normal((4, cfg.fft_size // 2 + 1)) + 1j * rng.standard_normal(
                (4, cfg.fft_size // 2 + 1)
            )
            s = ComplexSpectrogram(frames, cfg, sr)
            assert np.allclose(mel_apply(s, fb), mel_apply_loops(np.abs(frames), fb.weights), atol=1e-10)

    def test_dimension_mismatch_raises(self):
        fb = MelFilterbank(24, 1024, SR)
        s = ComplexSpectrogram(np.zeros((2, 257)), StftConfig(), SR)
        with pytest.raises(ConfigError):
            mel_apply(s, fb)

    def test_mel_filterbank_is_built_once_and_shared_read_only(self):
        fb = mel_filterbank(80, 1024, 24000)
        assert mel_filterbank(80, 1024, 24000) is fb
        fresh = MelFilterbank(80, 1024, 24000)
        for name in ("weights", "band_starts", "band_weights"):
            assert not getattr(fb, name).flags.writeable
            assert getattr(fb, name).tobytes() == getattr(fresh, name).tobytes()

    def test_invariants(self):
        fb = MelFilterbank(80, 1024, SR)
        assert np.all(fb.weights >= 0)
        assert np.all(fb.weights.sum(axis=1) > 0)


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
        back = mel @ _mel_pinv_t(24, 512, SR) @ fb.weights.T  # the unclamped projection
        assert np.allclose(back, mel, atol=1e-6)

    def test_rank_deficient_rejected(self):
        fb = MelFilterbank(80, 512, SR)  # 80 triangles do not fit 257 bins independently
        with pytest.raises(NumericalError):
            mel_pseudo_inverse(np.zeros((2, 80)), fb)


def freqmask_design(lo, hi, sr=SR):
    """The SOS array apply_freqmask builds for the band [lo, hi] Hz."""
    designs = []

    def spy(*args, **kwargs):
        designs.append(butter_sos(*args, **kwargs))
        return designs[-1]

    with mock.patch("spoofcm.augment.butter_sos", spy):
        apply_freqmask(wave(np.zeros(1000), sr), lo, hi)
    return designs[0]


def bandstop(order, lo, hi):
    """A Butterworth band-stop of the given (even) order."""
    return butter_sos(order // 2, (lo, hi), "bandstop", SR)


def assert_stable(sos):
    for row in sos:
        assert np.all(np.abs(np.roots(row[3:])) < 1.0)


def assert_response_matches_scipy(order, band, btype, sr):
    grid = np.linspace(0.0, sr / 2, 1001)
    _, h = signal.freqz_sos(butter_sos(order, band, btype, sr), worN=grid, fs=sr)
    _, ref = signal.freqz_sos(signal.butter(order, band, btype=btype, fs=sr, output="sos"), worN=grid, fs=sr)
    assert np.max(np.abs(h - ref)) < 1e-9


class TestButterworth:
    """The closed-form designs against scipy's butter: freqmask's band-stop,
    codec's low-pass, the LPC channel's high-pass, and odd orders."""

    @pytest.mark.parametrize("order,band,btype,sr", [
        (5, (2000.0, 3000.0), "bandstop", SR),
        (5, (300.0, 2300.0), "bandstop", 48000),  # the real prototype pole gives two real poles
        (4, (1000.0, 1100.0), "bandstop", SR),
        (8, 3000.0, "lowpass", 48000),
        (8, 3950.0, "lowpass", 8000),
        (3, 1000.0, "lowpass", SR),
        (2, 60.0, "highpass", 8000),
        (2, 60.0, "highpass", 48000),
        (3, 1000.0, "highpass", SR),
    ])
    def test_response_matches_scipy_and_poles_are_stable(self, order, band, btype, sr):
        assert_response_matches_scipy(order, band, btype, sr)
        sos = butter_sos(order, band, btype, sr)
        assert sos.shape == (order if btype == "bandstop" else -(-order // 2), 6)
        assert_stable(sos)

    def test_band_outside_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            butter_sos(2, 9000.0, "lowpass", SR)
        with pytest.raises(ConfigError):
            butter_sos(5, (2000.0,), "bandstop", SR)

    def test_stopband_attenuation(self):
        _, h = signal.freqz_sos(freqmask_design(2000.0, 3000.0), worN=np.array([2500.0]), fs=SR)
        assert 20 * np.log10(np.abs(h[0])) <= -60.0

    def test_passband_flat(self):
        _, h = signal.freqz_sos(freqmask_design(2000.0, 3000.0), worN=np.array([5.0, SR / 2 - 5.0]), fs=SR)
        assert np.all(np.abs(20 * np.log10(np.abs(h))) < 0.5)

    def test_all_poles_inside_unit_circle(self):
        sos = freqmask_design(2000.0, 3000.0)
        assert sos.shape == (5, 6)  # 10th order
        assert_stable(sos)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sr=st.sampled_from([8000, SR, 48000]))
    def test_stability_over_random_bands(self, seed, sr):
        band = draw_freqmask(np.random.default_rng(seed), sr, sr)
        assert_stable(freqmask_design(band["lo"], band["hi"], sr))
        assert_response_matches_scipy(5, (band["lo"], band["hi"]), "bandstop", sr)


class TestFiltfilt:
    def test_identity_cascade_is_passthrough(self):
        ident = np.array([[1.0, 0, 0, 1.0, 0, 0]])
        x = np.random.default_rng(7).standard_normal(1000)
        assert np.array_equal(filtfilt(ident, wave(x)).samples, x)

    def test_time_reversal_symmetry(self):
        sos = bandstop(10, 1000.0, 2000.0)
        x = np.random.default_rng(8).standard_normal(4000)
        fwd = filtfilt(sos, wave(x)).samples
        rev = filtfilt(sos, wave(x[::-1])).samples[::-1]
        assert np.max(np.abs(fwd - rev)) < 1e-9

    def test_stopband_sine_attenuated(self):
        t = np.arange(SR) / SR
        x = np.sin(2 * np.pi * 2500.0 * t)
        y = filtfilt(bandstop(10, 2000.0, 3000.0), wave(x)).samples
        assert 20 * np.log10(rms(y[100:-100]) / rms(x[100:-100])) <= -40.0

    def test_zero_group_delay(self):
        # narrow notch leaves broadband noise nearly intact; correlation must peak at lag 0
        x = np.random.default_rng(9).standard_normal(8000)
        y = filtfilt(bandstop(4, 3000.0, 3100.0), wave(x)).samples
        lags = range(-5, 6)
        corr = [np.dot(x[100:-100], np.roll(y, lag)[100:-100]) for lag in lags]
        assert list(lags)[int(np.argmax(corr))] == 0

    def test_length_preserved_and_short_input_rejected(self):
        sos = bandstop(10, 2000.0, 3000.0)  # 5 sections: 30 samples of padding
        assert len(filtfilt(sos, wave(np.ones(500)))) == 500
        assert len(filtfilt(sos, wave(np.ones(31)))) == 31
        with pytest.raises(DataError):
            filtfilt(sos, wave(np.ones(30)))


def relative_error(y, ref):
    """Largest deviation from the reference, relative to the reference output's peak."""
    return np.max(np.abs(np.asarray(y) - ref)) / np.max(np.abs(ref))


def _allpass_cascade(seed, sr=24000):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(12):  # phasernd's cascade
        r, f0 = rng.uniform(0.4, 0.75), rng.uniform(100.0, 0.95 * sr / 2)
        c = 2.0 * r * np.cos(2.0 * np.pi * f0 / sr)
        rows.append([r * r, -c, 1.0, 1.0, -c, r * r])
    return np.array(rows)


_R = np.exp(-np.pi * 80.0 / SR)
IIR_FILTERS = {
    "order-1 tilt": np.array([[1.0, 0.0, 0.0, 1.0, -0.9, 0.0]]),
    "resonator": np.array([[1.0 - _R * _R, 0.0, 0.0, 1.0, -2.0 * _R * np.cos(2 * np.pi * 500.0 / SR), _R * _R]]),
    "narrow notch": notch_sos(250.0, 30.0, 48000)[None],  # rawboost's narrowest: poles 6e-4 inside the circle
    "all-pass cascade": _allpass_cascade(3),
    "band-stop": signal.butter(5, [300.0, 2300.0], btype="bandstop", fs=48000, output="sos"),
    "low-pass": signal.butter(8, 3000.0, fs=48000, output="sos"),
}
IIR_LENGTHS = [1, _IIR_BLOCK - 27, _IIR_BLOCK, 1601, 4 * _IIR_BLOCK]  # short, whole and partial blocks


class TestSosfilt:
    """The block state-space kernel against scipy's sosfilt and lfilter,
    within 1e-12 of the reference output's peak: from rest, with the state
    carried across segments, and in filtfilt's passes, which start from a
    steady state."""

    @pytest.mark.parametrize("name", sorted(IIR_FILTERS))
    @pytest.mark.parametrize("n", IIR_LENGTHS)
    def test_from_rest_matches_scipy(self, name, n):
        sos = IIR_FILTERS[name]
        x = np.random.default_rng(n).standard_normal(n)
        assert relative_error(sosfilt(sos, x), signal.sosfilt(sos, x)) < 1e-12

    @pytest.mark.parametrize("name", sorted(IIR_FILTERS))
    def test_state_carried_across_split_calls(self, name):
        """The same cascade in every segment of sosfilt_piecewise: the state
        carried across each switch gives the output of one scipy call."""
        sos = IIR_FILTERS[name]
        x = np.random.default_rng(5).standard_normal(3000)
        segment = 2 * _IIR_BLOCK
        y = sosfilt_piecewise(np.tile(sos, (-(-len(x) // segment), 1, 1)), x, segment)
        assert relative_error(y, signal.sosfilt(sos, x)) < 1e-12

    @pytest.mark.parametrize("name", sorted(IIR_FILTERS))
    @pytest.mark.parametrize("n", [_IIR_BLOCK - 27, 1601, 4 * _IIR_BLOCK])  # under a block, partial, whole blocks
    def test_filtfilt_matches_the_procedure_built_from_scipy(self, name, n):
        """Four passes, each from the steady state times its first sample;
        the all-pass cascade's 72 samples of padding need a longer input
        than the shortest length."""
        sos = IIR_FILTERS[name]
        x = np.random.default_rng(n + 4).standard_normal(max(n, 6 * len(sos) + 1))
        assert relative_error(filtfilt(sos, wave(x)).samples, filtfilt_sosfilt(sos, x)) < 1e-12

    def test_no_section_is_the_identity(self):
        x = np.random.default_rng(6).standard_normal(100)
        assert np.array_equal(sosfilt(np.zeros((0, 6)), x), x)

    @pytest.mark.parametrize("n", [1, 200, 3 * 2 * _IIR_BLOCK, 5 * 2 * _IIR_BLOCK - 37])
    def test_piecewise_matches_chained_scipy_calls(self, n):
        """Coefficients switching every segment, as the corpus's resonators
        do, against scipy calls that pass zf on as zi. The second section
        switches between real and complex poles, so the state also changes
        form at a switch."""
        segment = 2 * _IIR_BLOCK
        rng = np.random.default_rng(n + 3)
        x = rng.standard_normal(n)
        sos = []
        for s in range(-(-n // segment)):
            r, f0 = 0.98, rng.uniform(300.0, 3000.0)
            a1, a2 = (-1.5, 0.56) if s % 2 else (-2.0 * 0.9 * np.cos(rng.uniform(0.1, 3.0)), 0.81)  # real: 0.8, 0.7
            sos.append([[1.0 - r * r, 0.0, 0.0, 1.0, -2.0 * r * np.cos(2 * np.pi * f0 / SR), r * r],
                        [1.0, 0.3, -0.2, 1.0, a1, a2]])
        zi, pieces = np.zeros((2, 2)), []
        for s, sections in enumerate(sos):
            y, zi = signal.sosfilt(sections, x[s * segment : (s + 1) * segment], zi=zi)
            pieces.append(y)
        assert relative_error(sosfilt_piecewise(np.array(sos), x, segment), np.concatenate(pieces)) < 1e-12

    @pytest.mark.parametrize("segment, n_segments", [(_IIR_BLOCK + 1, 2), (2 * _IIR_BLOCK, 1), (2 * _IIR_BLOCK, 3)])
    def test_piecewise_rejects_a_schedule_that_does_not_fit(self, segment, n_segments):
        sos = np.tile(IIR_FILTERS["resonator"], (n_segments, 1, 1))
        with pytest.raises(ConfigError):
            sosfilt_piecewise(sos, np.zeros(2 * _IIR_BLOCK + 1), segment)


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
def test_notch_matches_iirnotch_bytes_on_rawboost_draws(sr):
    for seed in range(40):
        for f0, q in draw_rawboost(np.random.default_rng(seed), 10, sr)["notches"]:
            b, a = signal.iirnotch(f0, q, fs=sr)
            assert notch_sos(f0, q, sr).tobytes() == np.concatenate([b, a]).tobytes()


@pytest.mark.parametrize("sr", [8000, 24000])
def test_allpole_rows_match_lfilter_bytes(sr):
    """LPC's per-frame all-pole filters: 25 ms frames of order-16 filters."""
    rng = np.random.default_rng(sr)
    frames = rng.standard_normal((40, int(0.025 * sr)))
    roots = rng.uniform(0.5, 0.98, (40, 8)) * np.exp(1j * rng.uniform(0.1, 3.0, (40, 8)))
    den = np.array([np.poly(np.concatenate([p, np.conj(p)])).real for p in roots])
    out = allpole_rows(frames, den)
    ref = np.array([signal.lfilter([1.0], d, f) for d, f in zip(den, frames)])
    assert out.tobytes() == ref.tobytes()


class TestResample:
    def test_matches_upfirdn_bytes_for_every_pair_of_distinct_common_rates(self):
        rates = [8000, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000]
        rng = np.random.default_rng(12)
        for src in rates:
            x = rng.standard_normal(int(src * 0.137))
            for dst in (r for r in rates if r != src):  # equal rates copy the input
                ref = resample_upfirdn(x, src, dst, _resample_filter)
                assert resample(wave(x, sr=src), dst).samples.tobytes() == ref.tobytes(), (src, dst)

    def test_the_filter_is_built_once_per_ratio_and_shared_read_only(self):
        x = np.random.default_rng(13).standard_normal(3001)
        first = resample(wave(x), 24000).samples
        with mock.patch("spoofcm.dsp._resample_filter", side_effect=AssertionError("filter rebuilt")):
            again = resample(wave(x), 24000).samples
        assert again.tobytes() == first.tobytes()
        assert not _polyphase_filter(3, 2)[0].flags.writeable

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

    def test_every_pair_of_common_rates(self):
        rates = [8000, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000]
        for src in rates:
            for dst in rates:
                y = resample(wave(np.ones(src // 25), sr=src), dst)  # 40 ms
                assert y.sample_rate == dst and len(y) == dst // 25

    def test_unsupported_ratio_rejected(self):
        with pytest.raises(ConfigError):
            resample(wave(np.zeros(1000), sr=44100), 16001)  # 16001/44100 exceeds the factor bound
