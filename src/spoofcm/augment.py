"""Waveform-level augmentation: additive/convolutive noise, Butterworth
frequency masking, and simulated codec degradation.

An augmentation is a kind and a seed. Each kind has a draw step, which
takes a seeded RNG, the sample count and the rate and returns the kind's
random values (ranges are constants of the draw step), and an apply step,
which takes the waveform and those values. ``apply_augment`` seeds the RNG
from (seed, kind), draws, then applies, so a rerun is bit-identical; a test
pins a value by calling an apply step directly. Length and sample rate are
always preserved, and augmentation never changes a trial's class label.
"""
from __future__ import annotations

import numpy as np

from .audio_io import Waveform
from .dsp import butter_sos, filtfilt, notch_sos, sosfilt
from .errors import ConfigError
from .util import derive_seed


def draw_rawboost(rng: np.random.Generator, n: int, sample_rate: int) -> dict:
    """1-5 notches, impulses at 20-100 per second, stationary noise at 10-40 dB SNR."""
    n_notch = int(rng.integers(1, 6))
    notches = [(rng.uniform(250.0, 0.45 * sample_rate), rng.uniform(4.0, 30.0)) for _ in range(n_notch)]
    rate = rng.uniform(20.0, 100.0)  # events per second, drawn before the per-sample arrays
    hits = rng.random(n) < rate / sample_rate
    impulses = hits * rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.0, 3.0, size=n)
    return {"notches": notches, "impulses": impulses, "snr_db": rng.uniform(10.0, 40.0),
            "tilt": rng.uniform(0.0, 0.9), "white": rng.standard_normal(n)}


def apply_rawboost(w: Waveform, notches: list, impulses: np.ndarray, snr_db: float, tilt: float,
                   white: np.ndarray) -> Waveform:
    """Convolutive notches, signal-dependent impulses, then stationary colored
    noise; output peak-normalized to the input peak.

    The impulsive and stationary components scale with the input's own
    statistics, so a silent input passes through silent.
    """
    x = w.samples
    sig_rms = float(np.sqrt(np.mean(x**2)))
    in_peak = float(np.max(np.abs(x))) if len(x) else 0.0
    y = sosfilt(np.array([notch_sos(f0, q, w.sample_rate) for f0, q in notches]), x)
    y = y + impulses * np.abs(y)
    colored = sosfilt(np.array([[1.0, 0.0, 0.0, 1.0, -tilt, 0.0]]), white)
    colored_rms = float(np.sqrt(np.mean(colored**2))) or 1.0
    y = y + colored / colored_rms * sig_rms * 10.0 ** (-snr_db / 20.0)
    if in_peak > 0.0:
        out_peak = float(np.max(np.abs(y)))
        if out_peak > 0.0:
            y = y * (in_peak / out_peak)
    return Waveform(y, w.sample_rate)


def draw_freqmask(rng: np.random.Generator, n: int, sample_rate: int) -> dict:
    """A stop band starting at 300-6000 Hz, 200-2000 Hz wide, kept below Nyquist."""
    nyquist = sample_rate / 2.0
    lo = min(rng.uniform(300.0, 6000.0), 0.9 * nyquist)
    return {"lo": lo, "hi": min(lo + rng.uniform(200.0, 2000.0), 0.99 * nyquist)}


def apply_freqmask(w: Waveform, lo: float, hi: float) -> Waveform:
    """10th-order Butterworth band-stop over [lo, hi] Hz, applied zero-phase."""
    return filtfilt(butter_sos(5, (lo, hi), "bandstop", w.sample_rate), w)


_CODEC_MIN_KBPS, _CODEC_MAX_KBPS = 16.0, 320.0
_CODEC_MIN_CUTOFF = 3000.0
_CODEC_MIN_BITS, _CODEC_MAX_BITS = 6, 12
_MU = 255.0


def draw_codec(rng: np.random.Generator, n: int, sample_rate: int) -> dict:
    """A bitrate of 16-320 kbps."""
    return {"bitrate": rng.uniform(_CODEC_MIN_KBPS, _CODEC_MAX_KBPS)}


def apply_codec(w: Waveform, bitrate: float) -> Waveform:
    """Lossy-codec stand-in: low-pass then mu-law requantize. Both map linearly
    from the bitrate: 16 kbps -> 3 kHz and 6 bits, 320 kbps -> Nyquist and 12 bits."""
    nyquist = w.sample_rate / 2.0
    frac = (bitrate - _CODEC_MIN_KBPS) / (_CODEC_MAX_KBPS - _CODEC_MIN_KBPS)
    cutoff = _CODEC_MIN_CUTOFF + frac * (nyquist - _CODEC_MIN_CUTOFF)
    bits = int(round(_CODEC_MIN_BITS + frac * (_CODEC_MAX_BITS - _CODEC_MIN_BITS)))

    y = w.samples
    if cutoff < 0.99 * nyquist:
        y = filtfilt(butter_sos(8, cutoff, "lowpass", w.sample_rate), Waveform(y, w.sample_rate)).samples

    peak = float(np.max(np.abs(y)))
    if peak > 0.0:
        norm = y / peak
        companded = np.sign(norm) * np.log1p(_MU * np.abs(norm)) / np.log1p(_MU)
        levels = 2**bits
        quantized = np.clip((np.floor(companded * levels / 2) + 0.5) * 2.0 / levels, -1.0, 1.0)
        expanded = np.sign(quantized) * ((1.0 + _MU) ** np.abs(quantized) - 1.0) / _MU
        y = expanded * peak
    return Waveform(y, w.sample_rate)


# kind -> (draw step, apply step)
AUGMENT_KINDS = {
    "rawboost": (draw_rawboost, apply_rawboost),
    "freqmask": (draw_freqmask, apply_freqmask),
    "codec": (draw_codec, apply_codec),
}


def apply_augment(w: Waveform, kind: str, seed: int) -> Waveform:
    """Draw the kind's values from an RNG seeded with (seed, kind), then apply them."""
    if kind not in AUGMENT_KINDS:
        raise ConfigError(f"unknown augmentation kind {kind!r}; available: {sorted(AUGMENT_KINDS)}")
    draw, apply = AUGMENT_KINDS[kind]
    rng = np.random.default_rng(derive_seed(seed, kind))
    return apply(w, **draw(rng, len(w), w.sample_rate))
