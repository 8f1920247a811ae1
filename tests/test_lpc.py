import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofcm.audio_io import Waveform
from spoofcm.errors import ConfigError
import spoofcm.lpc
from spoofcm.lpc import _levinson, estimate_f0, lpc_analyze, lpc_resynthesize

from conftest import harmonic_speechlike
from reference import (
    estimate_f0_loops,
    f0_autocorrelation_oracle,
    levinson_loops,
    lpc_analyze_loops,
    lpc_frame_synthesis_loops,
)

SR = 16000
FRAMING = dict(order=16, frame_ms=25.0, hop_ms=10.0)  # the lpcvoc channel's


def ar2_process(n, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.zeros(n)
    for i in range(2, n):
        x[i] = 1.5 * x[i - 1] - 0.7 * x[i - 2] + e[i]
    return x


def same_bytes(a, b):
    """Equal shapes and bytes: unlike ==, tells 0.0 from -0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


ROW_KINDS = ("noise", "zero", "tiny", "dc", "impulse", "ar2", "voiced")


def frame_row(kind, n, sr, rng):
    """One test frame of n samples: zero and tiny rows fall under the silence
    gates, noise is unvoiced, voiced is a harmonic tone between 60 and 400 Hz."""
    if kind == "zero":
        return np.zeros(n)
    if kind == "tiny":
        return 1e-8 * rng.standard_normal(n)
    if kind == "dc":
        return np.full(n, rng.uniform(-1, 1))
    if kind == "impulse":
        row = np.zeros(n)
        row[rng.integers(n)] = rng.uniform(-1, 1)
        return row
    if kind == "ar2":
        return ar2_process(n, seed=int(rng.integers(1 << 30)))
    if kind == "voiced":
        t = np.arange(n) / sr
        f0 = rng.uniform(60.0, 400.0)
        return sum(np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 6)) / h for h in (1, 2, 3)) + (
            0.05 * rng.standard_normal(n))
    return rng.uniform(0.1, 10.0) * rng.standard_normal(n)


@st.composite
def frame_matrices(draw, min_len, max_len, sr=SR):
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8))
    n = draw(st.integers(min_len, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([frame_row(kind, n, sr, rng) for kind in kinds])


class TestBatchedAnalysisMatchesPerFrameLoops:
    """The frame-matrix analysis against per-frame copies of the loops it replaced, byte for byte."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), order=st.integers(1, 16))
    def test_lpc_analyze(self, data, order):
        # np.correlate sums lag 0 of a frame of 11 samples or fewer with its own
        # unrolled kernel, which rounds otherwise; synthesis frames span >= 25 ms
        frames = data.draw(frame_matrices(max(2 * order + 1, 12), 640))
        coefs, gains = lpc_analyze(frames, order)
        expected = [lpc_analyze_loops(row, order) for row in frames]
        assert same_bytes(coefs, [c for c, _ in expected])
        assert same_bytes(gains, [g for _, g in expected])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), order=st.integers(1, 16), n=st.integers(33, 640))
    def test_levinson_stops_where_the_loop_breaks(self, data, order, n):
        """Crafted autocorrelations: all ones stops at i = 1, a zero or negative
        r[0] gives zero coefficients and unit gain."""
        frames = data.draw(frame_matrices(max(2 * order + 1, 12), 64))
        rows = [np.correlate(f, f, "full")[len(f) - 1 : len(f) + order] for f in frames]
        crafted = data.draw(st.lists(st.sampled_from(["ones", "zero", "negative", "ramp"]), min_size=1, max_size=4))
        for kind in crafted:
            rows.append({"ones": np.ones(order + 1), "zero": np.zeros(order + 1),
                         "negative": -np.ones(order + 1),
                         "ramp": np.linspace(1.0, 0.5, order + 1)}[kind])
        r = np.array(rows)
        coefs, gains = _levinson(r, n)
        expected = [levinson_loops(row, n) for row in r]
        assert same_bytes(coefs, [c for c, _ in expected])
        assert same_bytes(gains, [g for _, g in expected])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), sr=st.sampled_from([8000, 16000, 24000]))
    def test_estimate_f0(self, data, sr):
        frames = data.draw(frame_matrices(int(0.025 * sr), int(0.04 * sr), sr))
        assert same_bytes(estimate_f0(frames, sr), [estimate_f0_loops(row, sr) for row in frames])

    def test_empty_matrix(self):
        coefs, gains = lpc_analyze(np.zeros((0, 400)), 16)
        assert coefs.shape == (0, 16) and gains.shape == (0,)
        assert estimate_f0(np.zeros((0, 400)), SR).shape == (0,)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ConfigError):
            lpc_analyze(np.ones(400), 16)
        with pytest.raises(ConfigError):
            estimate_f0(np.ones(400), SR)


class TestLpcAnalyze:
    def test_recovers_ar2_coefficients(self):
        x = ar2_process(8192)
        (coefs,), _ = lpc_analyze(x[None], 2)
        assert abs(coefs[0] - 1.5) < 0.05
        assert abs(coefs[1] - (-0.7)) < 0.05

    def test_white_noise_has_no_prediction_gain(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(16384)
        _, (gain,) = lpc_analyze(frame[None], 16)
        residual_energy = gain**2 * len(frame)
        assert residual_energy >= 0.9 * np.sum(frame**2)

    def test_synthesis_poles_inside_unit_circle(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((20, 512)) * np.hanning(512)
        for coefs in lpc_analyze(frames, 16)[0]:
            poles = np.roots(np.concatenate([[1.0], -coefs]))
            assert np.all(np.abs(poles) < 1.0)

    def test_zero_frame_flagged(self):
        (coefs,), (gain,) = lpc_analyze(np.zeros((1, 512)), 16)
        assert np.all(coefs == 0.0) and gain == 1.0

    def test_short_frame_rejected(self):
        with pytest.raises(ConfigError):
            lpc_analyze(np.ones((1, 20)), 16)


class TestEstimateF0:
    def test_sine_200hz(self):
        t = np.arange(400) / SR
        (f0,) = estimate_f0(np.sin(2 * np.pi * 200.0 * t)[None], SR)
        assert f0 > 0
        assert abs(f0 - 200.0) <= 2.0

    def test_white_noise_unvoiced(self):
        rng = np.random.default_rng(3)
        assert estimate_f0(rng.standard_normal((1, 400)), SR)[0] == 0.0

    def test_silence_unvoiced(self):
        assert estimate_f0(np.zeros((1, 400)), SR)[0] == 0.0

    def test_short_frame_rejected(self):
        with pytest.raises(ConfigError):
            estimate_f0(np.zeros((1, 100)), SR)


def _with_gaps(w: Waveform, seed: int) -> Waveform:
    """w with a silent stretch and a stretch of low noise, so some frames fall
    under the silence gate and some are unvoiced."""
    x = w.samples.copy()
    n = len(x)
    x[n // 4 : n // 2] = 0.0
    x[n // 2 : 5 * n // 8] = 1e-3 * np.random.default_rng(seed).standard_normal(5 * n // 8 - n // 2)
    return Waveform(x, w.sample_rate)


@pytest.mark.parametrize("sr", [8000, 16000, 24000])
@pytest.mark.parametrize("case", ["speech", "gaps", "noise", "silence"])
def test_batched_frame_synthesis_matches_the_per_frame_loop(monkeypatch, sr, case):
    """lpc_resynthesize with its frame synthesis batched against the same call
    through a per-frame copy of the loop it replaced, byte for byte."""
    seed = {"speech": 1, "gaps": 2, "noise": 3, "silence": 4}[case]
    w = harmonic_speechlike(duration=0.7, sr=sr, seed=seed)
    if case == "gaps":
        w = _with_gaps(w, seed)
    elif case == "noise":
        w = Waveform(0.1 * np.random.default_rng(seed).standard_normal(len(w)), sr)
    elif case == "silence":
        w = Waveform(np.zeros(len(w)), sr)
    batched = lpc_resynthesize(w, **FRAMING, seed=seed).samples
    monkeypatch.setattr(spoofcm.lpc, "_frame_synthesis", lpc_frame_synthesis_loops)
    assert same_bytes(batched, lpc_resynthesize(w, **FRAMING, seed=seed).samples)


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
            (ca,), (ga,) = lpc_analyze(fa[None], 16)
            (cb,), (gb,) = lpc_analyze(fb[None], 16)
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
