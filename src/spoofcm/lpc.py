"""Linear-prediction analysis and source-filter resynthesis.

The resynthesis path is deliberately crude: pulse-train or noise
excitation through per-frame all-pole filters, overlap-added. Its buzzy
output is one of the artifact families the countermeasure learns to
detect.
"""
from __future__ import annotations

import numpy as np

from .audio_io import Waveform
from .dsp import allpole_rows, analysis_window, butter_sos, frame_signal, sosfilt
from .errors import ConfigError, DataError
from .util import derive_seed

PREEMPHASIS = 0.97
BANDWIDTH_EXPANSION = 0.996
F0_MIN = 60.0  # Hz, the F0 search range
F0_MAX = 400.0
_SILENCE_RMS = 1e-6


def _lags(frames: np.ndarray, lags) -> np.ndarray:
    """F x len(lags) sums sum_n frames[:, n + k] * frames[:, n], one np.matmul per
    lag k: per frame the BLAS dot that full-mode np.correlate takes, so the sums
    match it bit for bit (lag 0 from 12 samples on; synthesis frames span 25 ms)."""
    n = frames.shape[1]
    out = np.empty((len(frames), len(lags)))
    for j, k in enumerate(lags):
        out[:, j] = np.matmul(frames[:, None, k:], frames[:, : n - k, None])[:, 0, 0]
    return out


def _levinson(r: np.ndarray, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin on each row of the F x (order + 1) autocorrelation r,
    looping over the order. A row whose error reaches <= 0 (numerically
    singular) keeps that step's coefficients; a row with r[0] <= 0 gets zero
    coefficients and unit gain."""
    a = np.zeros_like(r)
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    live = np.flatnonzero(err > 0.0)
    for i in range(1, r.shape[1]):
        al, rl = a[live], r[live]
        acc = np.zeros(len(live))
        for j in range(1, i):  # left to right, as the 1-D dot over a reversed view sums
            acc += al[:, j] * rl[:, i - j]
        k = -(rl[:, i] + acc) / err[live]
        al[:, 1 : i + 1] = al[:, 1 : i + 1] + k[:, None] * al[:, i - 1 :: -1]
        a[live] = al
        err[live] *= 1.0 - k * k
        live = live[err[live] > 0.0]
    a = a * BANDWIDTH_EXPANSION ** np.arange(r.shape[1])
    coefs, gains = -a[:, 1:], np.sqrt(np.maximum(err, 0.0) / n_samples)
    silent = r[:, 0] <= 0.0
    coefs[silent], gains[silent] = 0.0, 1.0
    return coefs, gains


def lpc_analyze(frames: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin fit of an all-pole model to each row of an F x N frame matrix.

    Returns F x order predictor coefficients c (x[n] ~ sum_k c[k] x[n-k-1]) after
    bandwidth expansion, and the F residual RMS values as gains. A zero-energy
    frame yields zero coefficients with unit gain; callers gate on frame energy.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] <= 2 * order:
        raise ConfigError(f"frames must be F x N with N > 2 x order ({2 * order}), got shape {frames.shape}")
    return _levinson(_lags(frames, range(order + 1)), frames.shape[1])


def estimate_f0(frames: np.ndarray, sample_rate: int) -> np.ndarray:
    """Fundamental frequency in Hz of each row of an F x N frame matrix, by
    normalized autocorrelation peak in [F0_MIN, F0_MAX]; 0.0 for an unvoiced
    frame (silent, or no peak above 0.5)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] < int(0.025 * sample_rate):
        raise ConfigError(f"frames must be F x N with N spanning >= 25 ms, got shape {frames.shape}")
    n = frames.shape[1]
    x = frames - frames.mean(axis=1, keepdims=True)
    lags = np.arange(max(2, int(sample_rate / F0_MAX)), min(int(sample_rate / F0_MIN), n - 2) + 1)
    energy = _lags(x, [0])[:, 0]
    cum = np.zeros((len(x), n + 1))  # cum[:, i]: energy of the first i samples
    np.cumsum(x * x, axis=1, out=cum[:, 1:])
    head, tail = cum[:, n - lags], cum[:, n:] - cum[:, lags]  # energies of the overlapping parts
    ncc = _lags(x, lags) / np.maximum(np.sqrt(head * tail), 1e-12)
    peak = ncc.max(axis=1)
    voiced = ~(energy < _SILENCE_RMS**2 * n) & (peak > 0.5)
    # shortest lag close to the global peak: avoids octave-down errors
    best = np.argmax(ncc >= 0.95 * peak[:, None], axis=1)
    lag = lags[best].astype(np.float64)
    inner = np.clip(best, 1, len(lags) - 2)  # parabolic refinement around a peak off the edges
    y0, y1, y2 = (ncc[np.arange(len(x)), inner + d] for d in (-1, 0, 1))
    denom = y0 - 2 * y1 + y2
    fit = voiced & (best == inner) & (np.abs(denom) > 1e-12)
    lag[fit] += 0.5 * (y0 - y2)[fit] / denom[fit]
    return np.where(voiced, sample_rate / lag, 0.0)


def _frame_synthesis(excitation, active, coefs, gains, levels, win, hop) -> np.ndarray:
    """Overlap-add of the active frames' synthesis, one row of coefs, gains and
    levels per entry of ``active`` (frame indices): each frame's excitation
    slice, normalized to its gain, through its all-pole filter, matched to its
    level. Only the overlap-add runs per frame."""
    exc = frame_signal(excitation, len(win), hop)[active]  # a copy
    exc -= exc.mean(axis=1, keepdims=True)  # pulse trains carry DC; de-emphasis would amplify it
    exc = exc / np.maximum(np.sqrt(np.mean(exc**2, axis=1)), 1e-12)[:, None] * gains[:, None]
    synth = allpole_rows(exc, np.hstack([np.ones((len(coefs), 1)), -coefs]))
    # pulse excitation can over-ring sharp resonances: match frame level
    synth_rms = np.sqrt(np.mean((synth * win) ** 2, axis=1))
    synth = synth * (levels / np.maximum(synth_rms, 1e-12))[:, None]
    # win^2 weights make out/env a convex combination of frame synths;
    # plain win weights would divide unconstrained content by ~0 at edges
    weighted = synth * win * win
    out = np.zeros(len(excitation))
    env = np.zeros(len(excitation))
    for j, m in enumerate(active):
        s = m * hop
        out[s : s + len(win)] += weighted[j]
        env[s : s + len(win)] += win * win
    return out / np.maximum(env, 1e-12)


def lpc_resynthesize(w: Waveform, order: int, frame_ms: float, hop_ms: float, seed: int) -> Waveform:
    """Analyze/resynthesize a waveform frame by frame.

    Voiced frames get a pulse train at the estimated F0 (fixed phase per
    frame), unvoiced frames seeded white noise; both scaled to the
    residual RMS and filtered by the frame's synthesis filter, then
    overlap-added with a Hann cross-fade and de-emphasized.
    """
    sr = w.sample_rate
    frame_len = int(round(frame_ms * 1e-3 * sr))
    hop = int(round(hop_ms * 1e-3 * sr))
    if len(w) < frame_len:
        raise DataError(f"waveform shorter than one frame ({len(w)} < {frame_len})")
    x = np.pad(w.samples, (0, frame_len), mode="reflect")  # cover the tail
    pre = np.append(x[0], x[1:] - PREEMPHASIS * x[:-1])
    win = analysis_window(frame_len)
    windowed = frame_signal(pre, frame_len, hop) * win
    raw = frame_signal(x, frame_len, hop)
    n_frames = len(windowed)
    rng = np.random.default_rng(derive_seed(seed, "lpc-excitation"))

    # analysis pass, over the frames above the silence gate at once
    level = np.sqrt(np.mean(windowed**2, axis=1))
    active = np.flatnonzero(~(level < _SILENCE_RMS))
    coefs, gains = lpc_analyze(windowed[active], order)
    f0 = np.zeros(n_frames)
    f0[active] = estimate_f0(raw[active], sr)

    # one continuous excitation track: per-sample F0 with a running phase
    # accumulator keeps voiced pulses coherent across frame boundaries; a
    # frame's F0 holds up to the next frame's start, the last one's to the end
    f0_track = np.repeat(f0, np.diff(np.append(np.arange(n_frames) * hop, len(pre))))
    pulses = np.zeros(len(pre))
    cycles = np.cumsum(f0_track / sr)
    wraps = np.flatnonzero(np.diff(np.floor(cycles)) > 0) + 1
    pulses[wraps] = 1.0
    noise = rng.standard_normal(len(pre))
    excitation = np.where(f0_track > 0, pulses, noise)

    out = _frame_synthesis(excitation, active, coefs, gains, level[active], win, hop)
    # de-emphasis, then a cut below 60 Hz: de-emphasis amplifies sub-F0 residue by up to 30 dB
    out = sosfilt(np.vstack([[1.0, 0.0, 0.0, 1.0, -PREEMPHASIS, 0.0], butter_sos(2, 60.0, "highpass", sr)]), out)
    return Waveform(out[: len(w)], sr)
