"""Linear-prediction analysis and source-filter resynthesis.

The resynthesis path is deliberately crude: pulse-train or noise
excitation through per-frame all-pole filters, overlap-added. Its buzzy
output is one of the artifact families the countermeasure learns to
detect.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, lfilter, sosfilt

from .audio_io import Waveform
from .dsp import analysis_window, frame_signal
from .errors import ConfigError, DataError
from .util import derive_seed

PREEMPHASIS = 0.97
BANDWIDTH_EXPANSION = 0.996
_SILENCE_RMS = 1e-6


def lpc_analyze(frame: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Levinson-Durbin fit of an all-pole model to one frame.

    Returns predictor coefficients c (x[n] ~ sum_k c[k] x[n-k-1]) after
    bandwidth expansion, and the residual RMS as gain. A zero-energy frame
    yields zero coefficients with unit gain; callers gate on frame energy.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) <= 2 * order:
        raise ConfigError(f"frame length {len(frame)} must exceed 2 x order ({2 * order})")
    r = np.correlate(frame, frame, mode="full")[len(frame) - 1 : len(frame) + order]
    if r[0] <= 0.0:
        return np.zeros(order), 1.0
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] + a[1:i] @ r[i - 1 : 0 : -1]
        k = -acc / err
        a[1 : i + 1] = a[1 : i + 1] + k * a[i - 1 :: -1][:i]
        err *= 1.0 - k * k
        if err <= 0.0:  # numerically singular autocorrelation
            break
    a = a * BANDWIDTH_EXPANSION ** np.arange(order + 1)
    gain = float(np.sqrt(max(err, 0.0) / len(frame)))
    return -a[1:], gain


@dataclass(frozen=True)
class F0Estimate:
    voiced: bool
    f0: float


def estimate_f0(frame: np.ndarray, sample_rate: int, fmin: float = 60.0, fmax: float = 400.0) -> F0Estimate:
    """Fundamental frequency by normalized autocorrelation peak in [fmin, fmax]."""
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) < int(0.025 * sample_rate):
        raise ConfigError(f"frame must span >= 25 ms, got {len(frame)} samples")
    x = frame - frame.mean()
    energy = x @ x
    if energy < _SILENCE_RMS**2 * len(x):
        return F0Estimate(False, 0.0)
    lag_lo = max(2, int(sample_rate / fmax))
    lag_hi = min(int(sample_rate / fmin), len(x) - 2)
    full = np.correlate(x, x, mode="full")[len(x) - 1 :]
    cum = np.concatenate([[0.0], np.cumsum(x * x)])
    lags = np.arange(lag_lo, lag_hi + 1)
    head = cum[len(x) - lags] - cum[0]
    tail = cum[len(x)] - cum[lags]
    ncc = full[lags] / np.maximum(np.sqrt(head * tail), 1e-12)
    peak = float(ncc.max())
    if peak <= 0.5:
        return F0Estimate(False, 0.0)
    # shortest lag close to the global peak: avoids octave-down errors
    best = int(np.argmax(ncc >= 0.95 * peak))
    lag = lags[best]
    if 0 < best < len(ncc) - 1:  # parabolic refinement
        y0, y1, y2 = ncc[best - 1], ncc[best], ncc[best + 1]
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-12:
            lag = lag + 0.5 * (y0 - y2) / denom
    return F0Estimate(True, float(sample_rate / lag))


def lpc_resynthesize(
    w: Waveform,
    order: int = 16,
    frame_ms: float = 25.0,
    hop_ms: float = 10.0,
    seed: int = 0,
) -> Waveform:
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
    win = analysis_window("hann", frame_len)
    windowed = frame_signal(pre, frame_len, hop) * win
    raw = frame_signal(x, frame_len, hop)
    n_frames = len(windowed)
    rng = np.random.default_rng(derive_seed(seed, "lpc-excitation"))

    # analysis pass
    frames = []
    for m in range(n_frames):
        if np.sqrt(np.mean(windowed[m] ** 2)) < _SILENCE_RMS:
            frames.append(None)
            continue
        coefs, gain = lpc_analyze(windowed[m], order)
        frames.append((coefs, gain, estimate_f0(raw[m], sr)))

    # one continuous excitation track: per-sample F0 with a running phase
    # accumulator keeps voiced pulses coherent across frame boundaries
    f0_track = np.zeros(len(pre))
    for m, info in enumerate(frames):
        seg = slice(m * hop, min((m + 1) * hop, len(pre)) if m < n_frames - 1 else len(pre))
        if info is not None and info[2].voiced:
            f0_track[seg] = info[2].f0
    pulses = np.zeros(len(pre))
    cycles = np.cumsum(f0_track / sr)
    wraps = np.flatnonzero(np.diff(np.floor(cycles)) > 0) + 1
    pulses[wraps] = 1.0
    noise = rng.standard_normal(len(pre))
    excitation = np.where(f0_track > 0, pulses, noise)

    out = np.zeros(len(pre))
    env = np.zeros(len(pre))
    for m, info in enumerate(frames):
        if info is None:
            continue
        coefs, gain, _ = info
        s = m * hop
        exc = excitation[s : s + frame_len].copy()
        exc -= exc.mean()  # pulse trains carry DC; de-emphasis would amplify it
        exc = exc / max(np.sqrt(np.mean(exc**2)), 1e-12) * gain
        synth = lfilter([1.0], np.concatenate([[1.0], -coefs]), exc)
        # pulse excitation can over-ring sharp resonances: match frame level
        target_rms = np.sqrt(np.mean(windowed[m] ** 2))
        synth_rms = np.sqrt(np.mean((synth * win) ** 2))
        synth = synth * (target_rms / max(synth_rms, 1e-12))
        # win^2 weights make out/env a convex combination of frame synths;
        # plain win weights would divide unconstrained content by ~0 at edges
        out[s : s + frame_len] += synth * win * win
        env[s : s + frame_len] += win * win
    out = out / np.maximum(env, 1e-12)
    out = lfilter([1.0], [1.0, -PREEMPHASIS], out)
    # de-emphasis amplifies sub-F0 residue by up to 30 dB: cut below 60 Hz
    out = sosfilt(butter(2, 60.0, btype="highpass", fs=sr, output="sos"), out)
    return Waveform(out[: len(w)], sr)
