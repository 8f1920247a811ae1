"""Shared signal-processing primitives.

STFT/iSTFT, mel filterbanks and their pseudo-inverse, Butterworth
band-stop design as second-order sections, zero-phase filtering, and
rational resampling. Everything operates on float64 and is a pure
function of its inputs.

Built once per configuration and shared read-only: the analysis window
(per name and length), the constant-overlap-add verdict (per StftConfig; a
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
from scipy.signal import butter, get_window, sosfilt, sosfilt_zi, upfirdn

from .audio_io import Waveform
from .errors import ConfigError, DataError, NumericalError

NORM_FLOOR = 1e-12
_CONFIG_CACHE_SIZE = 32  # configurations, not inputs: a run uses a handful


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def analysis_window(window: str, win_length: int) -> np.ndarray:
    """The periodic (FFT-bins) window of this name and length; a shared read-only array."""
    win = get_window(window, win_length, fftbins=True).astype(np.float64)
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
    window: str = "hann"
    centered: bool = False

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if not (0 < self.hop <= self.win_length <= self.fft_size):
            raise ConfigError(
                f"need 0 < hop <= win_length <= fft_size, got "
                f"hop={self.hop} win={self.win_length} fft={self.fft_size}"
            )

    def window_array(self) -> np.ndarray:
        """The periodic analysis window; a shared read-only array."""
        return analysis_window(self.window, self.win_length)


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
    """Short-time Fourier transform. No padding unless cfg.centered is set."""
    x = w.samples
    if cfg.centered:
        pad = cfg.win_length // 2
        x = np.pad(x, pad, mode="reflect")
    if len(x) < cfg.win_length:
        raise DataError(
            f"waveform too short for STFT: {len(x)} samples < win_length {cfg.win_length}"
        )
    frames = frame_signal(x, cfg.win_length, cfg.hop) * cfg.window_array()
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    return ComplexSpectrogram(spec, cfg, w.sample_rate)


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
    win = cfg.window_array()
    return _overlap_add(win * win, n_frames, cfg.hop)


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _check_cola(cfg: StftConfig) -> None:
    """Reject window/hop pairs whose steady-state overlap energy collapses."""
    # enough frames to leave a steady region past one window length at each end
    env = _ola_envelope(cfg, max(16, -(-cfg.win_length // cfg.hop) + 2))
    steady = env[cfg.win_length : -cfg.win_length]
    if steady.min() < 1e-3:
        raise ConfigError(
            f"window/hop combination is not constant-overlap-add safe "
            f"(min overlap energy {steady.min():.2e}); reduce hop"
        )


def istft(s: ComplexSpectrogram) -> Waveform:
    """Least-squares overlap-add inverse; length (F-1)*hop + win_length."""
    cfg = s.config
    _check_cola(cfg)
    frames = np.fft.irfft(s.frames, n=cfg.fft_size, axis=1)[:, : cfg.win_length]
    frames *= cfg.window_array()
    y = _overlap_add(frames, s.n_frames, cfg.hop)
    y /= np.maximum(_ola_envelope(cfg, s.n_frames), NORM_FLOOR)
    return Waveform(y, s.sample_rate)


# ---------------------------------------------------------------------------
# Mel filterbank
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filterbank; every row must touch at least one FFT bin."""

    n_mels: int
    fft_size: int
    sample_rate: int
    fmin: float = 0.0
    fmax: float | None = None
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fmax = self.fmax if self.fmax is not None else self.sample_rate / 2.0
        if not (0 <= self.fmin < fmax <= self.sample_rate / 2.0):
            raise ConfigError(f"need 0 <= fmin < fmax <= sr/2, got {self.fmin}, {fmax}")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be >= 1")
        n_bins = self.fft_size // 2 + 1
        freqs = np.arange(n_bins) * self.sample_rate / self.fft_size
        pts = mel_to_hz(np.linspace(hz_to_mel(self.fmin), hz_to_mel(fmax), self.n_mels + 2))
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
        object.__setattr__(self, "fmax", fmax)
        object.__setattr__(self, "weights", W)


def mel_apply(s: ComplexSpectrogram, fb: MelFilterbank) -> np.ndarray:
    """Mel magnitudes: |bins| through the filterbank, F x n_mels."""
    if fb.fft_size != s.config.fft_size or fb.sample_rate != s.sample_rate:
        raise ConfigError(
            f"filterbank built for fft={fb.fft_size}/sr={fb.sample_rate}, "
            f"spectrogram has fft={s.config.fft_size}/sr={s.sample_rate}"
        )
    return np.abs(s.frames) @ fb.weights.T


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _mel_pinv_t(n_mels: int, fft_size: int, sample_rate: int, fmin: float, fmax: float) -> np.ndarray:
    """Transposed pseudo-inverse of the filterbank with these parameters.

    Keyed by parameters, not by a filterbank, so the cache keeps no weights."""
    weights = MelFilterbank(n_mels, fft_size, sample_rate, fmin, fmax).weights
    if np.linalg.matrix_rank(weights) < n_mels:
        raise NumericalError("mel filterbank is rank deficient; cannot invert")
    pinv_t = np.linalg.pinv(weights).T
    pinv_t.setflags(write=False)  # shared by every caller
    return pinv_t


def mel_pseudo_inverse(mel: np.ndarray, fb: MelFilterbank, clamp: bool = True) -> np.ndarray:
    """Least-squares magnitude reconstruction from mel magnitudes.

    Negative values are clamped to zero by default (magnitudes feed phase
    reconstruction downstream); pass clamp=False for the raw projection.
    """
    if fb.n_mels < 8:
        raise ConfigError(f"pseudo-inverse needs n_mels >= 8, got {fb.n_mels}")
    mel = np.asarray(mel, dtype=np.float64)
    if mel.ndim != 2 or mel.shape[1] != fb.n_mels:
        raise ConfigError(f"mel matrix must be F x {fb.n_mels}, got {mel.shape}")
    mag = mel @ _mel_pinv_t(fb.n_mels, fb.fft_size, fb.sample_rate, fb.fmin, fb.fmax)
    if clamp:
        mag = np.maximum(mag, 0.0)
    return mag


# ---------------------------------------------------------------------------
# Butterworth band-stop + zero-phase filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiquadCascade:
    """Second-order sections, scipy layout [b0 b1 b2 1 a1 a2]; all poles inside the unit circle."""

    sections: np.ndarray

    def __post_init__(self):
        sec = np.asarray(self.sections, dtype=np.float64)
        if sec.ndim != 2 or sec.shape[1] != 6:
            raise ConfigError(f"sections must be n x 6, got {sec.shape}")
        if not np.allclose(sec[:, 3], 1.0):
            raise ConfigError("denominator leading coefficients must be 1")
        for row in sec:
            poles = np.roots(row[3:])
            if np.any(np.abs(poles) >= 1.0):
                raise NumericalError(f"unstable section {row}: pole magnitude >= 1")
        object.__setattr__(self, "sections", sec)

    @property
    def n_sections(self) -> int:
        return self.sections.shape[0]

    @property
    def order(self) -> int:
        return 2 * self.n_sections

    def frequency_response(self, freqs_hz: np.ndarray, sample_rate: int) -> np.ndarray:
        """Complex response on the unit circle at the given frequencies."""
        z = np.exp(-2j * np.pi * np.asarray(freqs_hz, dtype=np.float64) / sample_rate)
        h = np.ones_like(z)
        for b0, b1, b2, _, a1, a2 in self.sections:
            h = h * (b0 + b1 * z + b2 * z * z) / (1.0 + a1 * z + a2 * z * z)
        return h


def design_butterworth_bandstop(order: int, f_lo: float, f_hi: float, sample_rate: int) -> BiquadCascade:
    """Band-stop Butterworth of the given overall order (even), as biquad cascade."""
    if order < 2 or order % 2 != 0:
        raise ConfigError(f"order must be a positive even count, got {order}")
    if not (0.0 < f_lo < f_hi < sample_rate / 2.0):
        raise ConfigError(
            f"band edges must satisfy 0 < f_lo < f_hi < sr/2, got ({f_lo}, {f_hi}) at sr={sample_rate}"
        )
    sos = butter(order // 2, [f_lo, f_hi], btype="bandstop", fs=sample_rate, output="sos")
    return BiquadCascade(sos)


def _two_pass(sections: np.ndarray, x: np.ndarray) -> np.ndarray:
    zi = sosfilt_zi(sections)  # steady-state start suppresses edge transients
    y, _ = sosfilt(sections, x, zi=zi * x[0])
    y, _ = sosfilt(sections, y[::-1], zi=zi * y[-1])
    return y[::-1]


def filtfilt(cascade: BiquadCascade, w: Waveform) -> Waveform:
    """Zero-phase filtering: a forward and a reverse pass over the cascade.

    Edge transients are mitigated by reflective padding of length
    3 * (2 * n_sections) on both ends. The two pass orders
    (forward-then-backward and backward-then-forward) are averaged, which
    makes the result exactly symmetric under time reversal.
    """
    pad = 3 * cascade.order
    if len(w) <= 3 * cascade.order:
        raise DataError(
            f"waveform too short for zero-phase filtering: {len(w)} <= {3 * cascade.order}"
        )
    x = np.pad(w.samples, pad, mode="reflect")
    fwd_first = _two_pass(cascade.sections, x)
    bwd_first = _two_pass(cascade.sections, x[::-1])[::-1]
    y = 0.5 * (fwd_first + bwd_first)
    return Waveform(y[pad:-pad], w.sample_rate)


# ---------------------------------------------------------------------------
# Rational resampling
# ---------------------------------------------------------------------------

_TAPS_PER_PHASE = 32
_KAISER_BETA = 8.0
_MAX_FACTOR = 256


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
