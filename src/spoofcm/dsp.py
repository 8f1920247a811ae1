"""Shared signal-processing primitives.

STFT/iSTFT, mel filterbanks and their pseudo-inverse, zero-phase
filtering over scipy's second-order sections, and rational resampling.
Everything operates on float64 and is a pure function of its inputs. Hann
is the only window: ``analysis_window`` gives its periodic form and is the
one place that names it. The public entry points validate their inputs;
the private kernels behind stft and istft (``_stft_frames``,
``_istft_samples``) trust their caller, so an iterative one checks on
entry and its result once.

Built once per configuration and shared read-only: the analysis window
(per length), the constant-overlap-add verdict (per StftConfig; a
failing config is not cached and fails on every call) and the transposed
mel pseudo-inverse after its rank check (per filterbank parameters).
Nothing is cached per input length: an overlap-add envelope cached per
frame count added 22 MB of peak RSS to a 20-trial synthesis at 24 kHz.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np
from scipy.signal import get_window, sosfilt, sosfilt_zi, upfirdn

from .audio_io import Waveform
from .errors import ConfigError, DataError, NumericalError

NORM_FLOOR = 1e-12
_CONFIG_CACHE_SIZE = 32  # configurations, not inputs: a run uses a handful


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def analysis_window(win_length: int) -> np.ndarray:
    """The periodic (FFT-bins) Hann window of this length; a shared read-only array."""
    win = get_window("hann", win_length, fftbins=True).astype(np.float64)
    win.setflags(write=False)  # shared by every caller
    return win


def frame_signal(x: np.ndarray, win_length: int, hop: int) -> np.ndarray:
    """Read-only view of the (len(x) - win_length) // hop + 1 frames of x
    that start at multiples of hop; no padding."""
    n_frames = (len(x) - win_length) // hop + 1
    view = np.lib.stride_tricks.sliding_window_view(x, win_length)[::hop]
    return view[:n_frames]


# ---------------------------------------------------------------------------
# STFT / iSTFT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis framing: 0 < hop <= win_length <= fft_size, fft_size a power of two."""

    fft_size: int = 512
    hop: int = 128
    win_length: int = 512

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if not (0 < self.hop <= self.win_length <= self.fft_size):
            raise ConfigError(
                f"need 0 < hop <= win_length <= fft_size, got "
                f"hop={self.hop} win={self.win_length} fft={self.fft_size}"
            )


@dataclass(frozen=True)
class ComplexSpectrogram:
    """F x (fft_size/2 + 1) complex STFT frames."""

    frames: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2 or frames.shape[1] != self.config.fft_size // 2 + 1:
            raise ConfigError(
                f"spectrogram must be F x {self.config.fft_size // 2 + 1}, got {frames.shape}"
            )
        if not np.all(np.isfinite(frames)):
            raise NumericalError("spectrogram contains non-finite bins")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def stft(w: Waveform, cfg: StftConfig) -> ComplexSpectrogram:
    """Short-time Fourier transform; frames start at multiples of hop, no padding."""
    if len(w) < cfg.win_length:
        raise DataError(f"waveform too short for STFT: {len(w)} samples < win_length {cfg.win_length}")
    return ComplexSpectrogram(_stft_frames(w.samples, cfg), cfg, w.sample_rate)


def _stft_frames(x: np.ndarray, cfg: StftConfig, out: np.ndarray | None = None) -> np.ndarray:
    """The transform behind stft, unchecked; ``out`` is an optional F x bins buffer."""
    frames = frame_signal(x, cfg.win_length, cfg.hop) * analysis_window(cfg.win_length)
    return np.fft.rfft(frames, n=cfg.fft_size, axis=1, out=out)


def _overlap_add(frames: np.ndarray, n_frames: int, hop: int) -> np.ndarray:
    """Sum F frames (F x width, or one row all share) placed at multiples of hop.

    Loops over the R = ceil(width / hop) hop-long pieces of a frame, not over
    frames: piece r of frame m lands in block m + r. Running r from R-1 down
    to 0 adds each sample's frames in ascending order, as a per-frame loop
    does, so the sums match it bit for bit.
    """
    width = frames.shape[-1]
    n_pieces = -(-width // hop)
    blocks = np.zeros((n_frames - 1 + n_pieces, hop))
    for r in range(n_pieces - 1, -1, -1):
        piece = frames[..., r * hop : (r + 1) * hop]
        blocks[r : r + n_frames, : piece.shape[-1]] += piece
    return blocks.ravel()[: (n_frames - 1) * hop + width]


def _ola_envelope(cfg: StftConfig, n_frames: int) -> np.ndarray:
    """What the inverse divides by: the overlap-added squared window, floored."""
    win = analysis_window(cfg.win_length)
    return np.maximum(_overlap_add(win * win, n_frames, cfg.hop), NORM_FLOOR)


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _check_cola(cfg: StftConfig) -> None:
    """Reject window/hop pairs whose steady-state overlap energy collapses."""
    # enough frames to leave a steady region past one window length at each end
    win = analysis_window(cfg.win_length)
    env = _overlap_add(win * win, max(16, -(-cfg.win_length // cfg.hop) + 2), cfg.hop)
    steady = env[cfg.win_length : -cfg.win_length]
    if steady.min() < 1e-3:
        raise ConfigError(
            f"window/hop combination is not constant-overlap-add safe "
            f"(min overlap energy {steady.min():.2e}); reduce hop"
        )


def istft(s: ComplexSpectrogram) -> Waveform:
    """Least-squares overlap-add inverse; length (F-1)*hop + win_length."""
    _check_cola(s.config)
    return Waveform(_istft_samples(s.frames, s.config, _ola_envelope(s.config, s.n_frames)), s.sample_rate)


def _istft_samples(spec: np.ndarray, cfg: StftConfig, envelope: np.ndarray) -> np.ndarray:
    """The inverse behind istft, unchecked; ``envelope`` is _ola_envelope(cfg, len(spec))."""
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.win_length]
    frames *= analysis_window(cfg.win_length)
    y = _overlap_add(frames, len(spec), cfg.hop)
    y /= envelope
    return y


# ---------------------------------------------------------------------------
# Mel filterbank
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filterbank from 0 Hz to Nyquist; every row must touch at least one FFT bin.

    Row m's nonzero weights lie within ``band_weights[m]``, the weights of the
    bins from ``band_starts[m]``, as wide as the widest row."""

    n_mels: int
    fft_size: int
    sample_rate: int
    weights: np.ndarray = field(init=False, repr=False)
    band_starts: np.ndarray = field(init=False, repr=False)
    band_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be >= 1")
        n_bins = self.fft_size // 2 + 1
        freqs = np.arange(n_bins) * self.sample_rate / self.fft_size
        pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(self.sample_rate / 2.0), self.n_mels + 2))
        W = np.zeros((self.n_mels, n_bins))
        for i in range(self.n_mels):
            left, center, right = pts[i], pts[i + 1], pts[i + 2]
            up = (freqs - left) / max(center - left, NORM_FLOOR)
            down = (right - freqs) / max(right - center, NORM_FLOOR)
            W[i] = np.maximum(0.0, np.minimum(up, down))
        if np.any(W.sum(axis=1) == 0.0):
            raise ConfigError(
                f"mel filterbank has empty rows (n_mels={self.n_mels} too dense for "
                f"fft_size={self.fft_size} at {self.sample_rate} Hz)"
            )
        object.__setattr__(self, "weights", W)
        support = W > 0.0
        width = int(support.sum(axis=1).max())  # a triangle's bins are contiguous
        starts = np.minimum(np.argmax(support, axis=1), n_bins - width)
        object.__setattr__(self, "band_starts", starts)
        object.__setattr__(self, "band_weights", np.take_along_axis(W, starts[:, None] + np.arange(width), axis=1))


def mel_apply(s: ComplexSpectrogram, fb: MelFilterbank) -> np.ndarray:
    """Mel magnitudes: |bins| through the filterbank, F x n_mels.

    Sums each row over its band only, in a fixed order: einsum calls no BLAS,
    and a BLAS matmul sums in an order that depends on its thread count."""
    if fb.fft_size != s.config.fft_size or fb.sample_rate != s.sample_rate:
        raise ConfigError(
            f"filterbank built for fft={fb.fft_size}/sr={fb.sample_rate}, "
            f"spectrogram has fft={s.config.fft_size}/sr={s.sample_rate}"
        )
    bins = fb.band_starts[:, None] + np.arange(fb.band_weights.shape[1])
    return np.einsum("fmb,mb->fm", np.abs(s.frames)[:, bins], fb.band_weights)


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _mel_pinv_t(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Transposed pseudo-inverse of the filterbank with these parameters.

    Keyed by parameters, not by a filterbank, so the cache keeps no weights."""
    weights = MelFilterbank(n_mels, fft_size, sample_rate).weights
    if np.linalg.matrix_rank(weights) < n_mels:
        raise NumericalError("mel filterbank is rank deficient; cannot invert")
    pinv_t = np.linalg.pinv(weights).T
    pinv_t.setflags(write=False)  # shared by every caller
    return pinv_t


def mel_pseudo_inverse(mel: np.ndarray, fb: MelFilterbank) -> np.ndarray:
    """Least-squares magnitude reconstruction from mel magnitudes, with
    negative values clamped to zero (magnitudes feed phase reconstruction).
    A fixed-order product, as in mel_apply.
    """
    if fb.n_mels < 8:
        raise ConfigError(f"pseudo-inverse needs n_mels >= 8, got {fb.n_mels}")
    mel = np.asarray(mel, dtype=np.float64)
    if mel.ndim != 2 or mel.shape[1] != fb.n_mels:
        raise ConfigError(f"mel matrix must be F x {fb.n_mels}, got {mel.shape}")
    pinv_t = _mel_pinv_t(fb.n_mels, fb.fft_size, fb.sample_rate)
    return np.maximum(np.einsum("fm,mk->fk", mel, pinv_t), 0.0)


# ---------------------------------------------------------------------------
# Zero-phase filtering
# ---------------------------------------------------------------------------

def _two_pass(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    zi = sosfilt_zi(sos)  # steady-state start suppresses edge transients
    y, _ = sosfilt(sos, x, zi=zi * x[0])
    y, _ = sosfilt(sos, y[::-1], zi=zi * y[-1])
    return y[::-1]


def filtfilt(sos: np.ndarray, w: Waveform) -> Waveform:
    """Zero-phase filtering: a forward and a reverse pass over scipy's
    (n, 6) second-order sections, rows [b0 b1 b2 1 a1 a2].

    Edge transients are mitigated by reflective padding of 6 samples per
    section (3 * order) on both ends. The two pass orders
    (forward-then-backward and backward-then-forward) are averaged, which
    makes the result exactly symmetric under time reversal.
    """
    pad = 6 * len(sos)
    if len(w) <= pad:
        raise DataError(f"waveform too short for zero-phase filtering: {len(w)} <= {pad}")
    x = np.pad(w.samples, pad, mode="reflect")
    fwd_first = _two_pass(sos, x)
    bwd_first = _two_pass(sos, x[::-1])[::-1]
    y = 0.5 * (fwd_first + bwd_first)
    return Waveform(y[pad:-pad], w.sample_rate)


# ---------------------------------------------------------------------------
# Rational resampling
# ---------------------------------------------------------------------------

_TAPS_PER_PHASE = 32
_KAISER_BETA = 8.0
_MAX_FACTOR = 1280  # 11.025 <-> 32 kHz (1280/441), the largest among the usual 8-48 kHz rates


def _resample_filter(up: int, down: int) -> np.ndarray:
    ntaps = _TAPS_PER_PHASE * up + 1  # odd: integer group delay at the upsampled rate
    n = np.arange(ntaps)
    center = (ntaps - 1) / 2
    cutoff = 1.0 / (2 * max(up, down))  # cycles per sample at the upsampled rate
    h = 2 * cutoff * np.sinc(2 * cutoff * (n - center)) * np.kaiser(ntaps, _KAISER_BETA)
    return h * up / np.sum(h)


def resample(w: Waveform, target_sr: int) -> Waveform:
    """Polyphase rational resampling (windowed-sinc, Kaiser beta=8, 32 taps per phase)."""
    if target_sr <= 0:
        raise ConfigError(f"target_sr must be positive, got {target_sr}")
    if target_sr == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    g = gcd(w.sample_rate, target_sr)
    up, down = target_sr // g, w.sample_rate // g
    if up > _MAX_FACTOR or down > _MAX_FACTOR:
        raise ConfigError(
            f"unsupported resampling ratio {w.sample_rate} -> {target_sr} "
            f"({up}/{down}); factors must be <= {_MAX_FACTOR}"
        )
    h = _resample_filter(up, down)
    center = (len(h) - 1) // 2
    n_pre = (-center) % down  # shift group delay to a whole number of output samples
    h_padded = np.concatenate([np.zeros(n_pre), h])
    offset = (center + n_pre) // down
    n_out = int(round(len(w) * target_sr / w.sample_rate))
    # append zeros so the polyphase output covers offset + n_out samples
    need_in = ((offset + n_out) * down + len(h_padded)) // up + 1
    x = np.concatenate([w.samples, np.zeros(max(0, need_in - len(w)))])
    y = upfirdn(h_padded, x, up=up, down=down)
    return Waveform(y[offset : offset + n_out], target_sr)
