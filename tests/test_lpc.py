import numpy as np
import pytest

from spoofcm.audio_io import Waveform
from spoofcm.errors import ConfigError
from spoofcm.lpc import estimate_f0, lpc_analyze, lpc_resynthesize

from conftest import harmonic_speechlike
from reference import f0_autocorrelation_oracle

SR = 16000
FRAMING = dict(order=16, frame_ms=25.0, hop_ms=10.0)  # the lpcvoc channel's


def ar2_process(n, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.zeros(n)
    for i in range(2, n):
        x[i] = 1.5 * x[i - 1] - 0.7 * x[i - 2] + e[i]
    return x


class TestLpcAnalyze:
    def test_recovers_ar2_coefficients(self):
        x = ar2_process(8192)
        coefs, _ = lpc_analyze(x, 2)
        assert abs(coefs[0] - 1.5) < 0.05
        assert abs(coefs[1] - (-0.7)) < 0.05

    def test_white_noise_has_no_prediction_gain(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(16384)
        _, gain = lpc_analyze(frame, 16)
        residual_energy = gain**2 * len(frame)
        assert residual_energy >= 0.9 * np.sum(frame**2)

    def test_synthesis_poles_inside_unit_circle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            frame = rng.standard_normal(512) * np.hanning(512)
            coefs, _ = lpc_analyze(frame, 16)
            poles = np.roots(np.concatenate([[1.0], -coefs]))
            assert np.all(np.abs(poles) < 1.0)

    def test_zero_frame_flagged(self):
        coefs, gain = lpc_analyze(np.zeros(512), 16)
        assert np.all(coefs == 0.0) and gain == 1.0

    def test_short_frame_rejected(self):
        with pytest.raises(ConfigError):
            lpc_analyze(np.ones(20), 16)


class TestEstimateF0:
    def test_sine_200hz(self):
        t = np.arange(400) / SR
        f0 = estimate_f0(np.sin(2 * np.pi * 200.0 * t), SR)
        assert f0 > 0
        assert abs(f0 - 200.0) <= 2.0

    def test_white_noise_unvoiced(self):
        rng = np.random.default_rng(3)
        assert estimate_f0(rng.standard_normal(400), SR) == 0.0

    def test_silence_unvoiced(self):
        assert estimate_f0(np.zeros(400), SR) == 0.0

    def test_short_frame_rejected(self):
        with pytest.raises(ConfigError):
            estimate_f0(np.zeros(100), SR)


class TestLpcResynthesize:
    def test_f0_preserved_within_5_percent(self):
        w = harmonic_speechlike(duration=1.0, f0=160.0, seed=4)
        y = lpc_resynthesize(w, **FRAMING, seed=5)
        f_in = f0_autocorrelation_oracle(w.samples[2000:8000], SR)
        f_out = f0_autocorrelation_oracle(y.samples[2000:8000], SR)
        assert abs(f_out - f_in) / f_in < 0.05

    def test_zero_input_near_zero_output(self):
        y = lpc_resynthesize(Waveform(np.zeros(SR), SR), **FRAMING, seed=6)
        assert np.sqrt(np.mean(y.samples**2)) < 1e-4

    def test_spectral_envelope_preserved(self):
        w = harmonic_speechlike(duration=1.0, f0=180.0, seed=7)
        y = lpc_resynthesize(w, **FRAMING, seed=8)
        # order-16 LPC envelopes on matching interior frames
        dists = []
        grid = np.linspace(0, np.pi, 128)[1:-1]
        for start in range(4000, 12000, 1600):
            fa = w.samples[start : start + 400] * np.hanning(400)
            fb = y.samples[start : start + 400] * np.hanning(400)
            ca, ga = lpc_analyze(fa, 16)
            cb, gb = lpc_analyze(fb, 16)
            za = np.exp(-1j * np.outer(grid, np.arange(1, 17)))
            ha = ga / np.abs(1 - za @ ca)
            hb = gb / np.abs(1 - za @ cb)
            dists.append(np.mean(np.abs(20 * np.log10(ha / hb))))
        assert np.mean(dists) < 3.0

    def test_length_preserved(self):
        w = harmonic_speechlike(duration=0.8, seed=9)
        assert len(lpc_resynthesize(w, **FRAMING, seed=0)) == len(w)

    def test_deterministic(self):
        w = harmonic_speechlike(duration=0.6, seed=10)
        a = lpc_resynthesize(w, **FRAMING, seed=11).samples
        b = lpc_resynthesize(w, **FRAMING, seed=11).samples
        assert np.array_equal(a, b)
