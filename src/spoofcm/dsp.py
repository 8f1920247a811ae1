"""Shared signal-processing primitives.

STFT/iSTFT and the fast Griffin-Lim phase reconstruction that loops over
them, mel filterbanks and their pseudo-inverse, IIR filtering over
second-order sections (SOS, scipy's layout) with their Butterworth and notch
designs, zero-phase filtering, and rational resampling, in numpy alone.
Everything operates on float64 and is a pure function of its inputs. Hann
is the only window: ``analysis_window`` gives its periodic form and is the
one place that names it.

The window, the notch design and the resampler give the bytes of scipy's
``get_window``, ``iirnotch`` and ``upfirdn``; ``allpole_rows`` gives those of
``lfilter`` on each row. ``sosfilt``, ``sosfilt_piecewise`` (a cascade
whose coefficients switch every segment) and ``filtfilt`` give the output
of scipy's ``sosfilt`` called as they describe, to within 1e-12 of the
output's peak (about 1e-15 on the filters spoofcm runs). All three call
one runner, ``_run_iir``, which filters in blocks (Burrus, "Block
implementation of digital filters", IEEE Trans. Circuit Theory, 1971) and
carries the state across blocks by a log-depth prefix scan (Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990). ``butter_sos``
designs in closed form and pairs its sections differently from scipy's
``butter``; the tests hold its response to scipy's. The public entry
points validate their inputs; the private kernels behind stft and istft
(``_stft_frames``, ``_istft_samples``) trust their caller; ``griffin_lim``,
their one iterative caller, checks on entry and its result once.

Built once per configuration and shared read-only: the analysis window
(per length), the constant-overlap-add verdict (per StftConfig; a
failing config is not cached and fails on every call), the mel filterbank
(``mel_filterbank``) and the transposed mel pseudo-inverse after its rank
check (per filterbank parameters), and the resampler's polyphase filter
(per up/down ratio).
Nothing is cached per input length: an overlap-add envelope cached per
frame count added 22 MB of peak RSS to a 20-trial synthesis at 24 kHz.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .audio_io import Waveform
from .errors import ConfigError, DataError, NumericalError

NORM_FLOOR = 1e-12
_CONFIG_CACHE_SIZE = 32  # configurations, not inputs: a run uses a handful


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def analysis_window(win_length: int) -> np.ndarray:
    """The periodic (FFT-bins) Hann window of this length; a shared read-only array."""
    if win_length == 1:  # as scipy's get_window, whose bytes this gives at every length
        win = np.ones(1)
    else:
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, win_length + 1))[:-1]
    win.setflags(write=False)  # shared by every caller
    return win


def frame_signal(x: np.ndarray, win_length: int, hop: int) -> np.ndarray:
    """Read-only view of the (len(x) - win_length) // hop + 1 frames of x
    that start at multiples of hop; no padding."""
    n_frames = (len(x) - win_length) // hop + 1
    view = np.lib.stride_tricks.sliding_window_view(x, win_length)[::hop]
    return view[:n_frames]


def fast_fft_length(n: int) -> int:
    """The smallest 2^a·3^b·5^c >= n (n >= 1). numpy's FFT takes a length with
    a larger prime factor through Bluestein's algorithm, several times slower."""
    best = 1 << (n - 1).bit_length()  # the power of two
    five = 1
    while five < best:
        odd = five
        while odd < best:  # odd = 3^b·5^c, times the least power of two that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


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
    """Least-squares overlap-add inverse; length (F-1)*hop + win_length. Bins
    whose inverse overflows raise NumericalError, as non-finite bins do."""
    _check_cola(s.config)
    samples = _istft_samples(s.frames, s.config, _ola_envelope(s.config, s.n_frames))
    if not np.all(np.isfinite(samples)):
        raise NumericalError("inverse STFT overflowed to non-finite samples")
    return Waveform(samples, s.sample_rate)


def _istft_samples(spec: np.ndarray, cfg: StftConfig, envelope: np.ndarray) -> np.ndarray:
    """The inverse behind istft, unchecked; ``envelope`` is _ola_envelope(cfg, len(spec))."""
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.win_length]
    frames *= analysis_window(cfg.win_length)
    y = _overlap_add(frames, len(spec), cfg.hop)
    y /= envelope
    return y


# The fast Griffin-Lim momentum α; each step moves by β = α / (1 + α) of the
# last re-analysis past the current one. 0.99 is the paper's choice.
FGLA_ALPHA = 0.99
_FGLA_BETA = FGLA_ALPHA / (1.0 + FGLA_ALPHA)


def griffin_lim(mag: np.ndarray, cfg: StftConfig, sample_rate: int, iters: int) -> Waveform:
    """Phase reconstruction by the fast Griffin-Lim algorithm (Perraudin,
    Balazs & Søndergaard, "A fast Griffin-Lim algorithm", WASPAA 2013), from
    zero phase.

    Each iteration re-analyses the current samples (``rebuilt``), steps past
    it by the momentum ``angles = rebuilt - β·rebuilt_prev`` with
    β = α/(1+α) and α = ``FGLA_ALPHA``, and synthesizes
    ``mag · angles/|angles|``. The first iteration has no previous
    spectrogram, so it is a plain Griffin-Lim step. Unlike plain Griffin-Lim
    the spectral-convergence error need not fall on every iteration, but it
    falls faster: the vocoder channels' 16 iterations end below the error
    of 32 plain ones.
    """
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.shape[1] != cfg.fft_size // 2 + 1:
        raise ConfigError(f"magnitude must be F x {cfg.fft_size // 2 + 1}, got {mag.shape}")
    # istft checks mag and cfg once; the loop runs on the unchecked kernels
    samples = istft(ComplexSpectrogram(mag.astype(np.complex128), cfg, sample_rate)).samples
    envelope = _ola_envelope(cfg, len(mag))
    rebuilt, prev = np.empty(mag.shape, dtype=np.complex128), np.zeros(mag.shape, dtype=np.complex128)
    modulus = np.empty(mag.shape)
    for _ in range(iters):
        _stft_frames(samples, cfg, rebuilt)
        # the momentum step, angles = rebuilt - beta * prev, written over prev
        np.multiply(prev, _FGLA_BETA, out=prev)
        angles = np.subtract(rebuilt, prev, out=prev)
        # new phase in place: A * (mag / max(|A|, eps)), one real factor
        np.abs(angles, out=modulus)
        np.maximum(modulus, 1e-12, out=modulus)
        np.divide(mag, modulus, out=modulus)
        angles *= modulus
        samples = _istft_samples(angles, cfg, envelope)
        prev, rebuilt = rebuilt, angles  # the next analysis overwrites the angles
    if not np.all(np.isfinite(samples)):  # e.g. finite magnitudes that overflow
        raise NumericalError("Griffin-Lim diverged to non-finite samples")
    return Waveform(samples, sample_rate)


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
def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> MelFilterbank:
    """The MelFilterbank with these parameters, built once and shared read-only."""
    fb = MelFilterbank(n_mels, fft_size, sample_rate)
    for array in (fb.weights, fb.band_starts, fb.band_weights):
        array.setflags(write=False)  # shared by every caller
    return fb


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _mel_pinv_t(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Transposed pseudo-inverse of the filterbank with these parameters."""
    weights = mel_filterbank(n_mels, fft_size, sample_rate).weights
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
# IIR filtering and design
# ---------------------------------------------------------------------------

_IIR_BLOCK = 64  # samples per block, a power of two


def _state_space(sos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C, D, T) of the SOS cascade as one system, z' = A z + B x and
    y = C z + D x, whose state z is T^-1 times the sections' stacked
    direct-form-II-transposed states (scipy's zi layout, flattened). Leading
    axes of ``sos`` (..., n, 6) are a stack of cascades, one system each.

    A section with complex poles r e^(±iθ) runs in the coupled form
    [[σ, -ω], [ω, σ]] (σ = r cos θ, ω = r sin θ), whose powers stay within
    r^k; those of the direct form's companion matrix grow toward 1/ω, which
    loses digits for poles near z = 1. A section with real poles keeps the
    direct form (T = I there)."""
    sos = np.asarray(sos, dtype=np.float64)
    b, a = sos[..., :3] / sos[..., 3:4], sos[..., 3:] / sos[..., 3:4]
    sigma = -0.5 * a[..., 1]
    omega = np.sqrt(np.maximum(a[..., 2] - sigma * sigma, 0.0))
    coupled = omega > 0.0
    batch, n = sos.shape[:-2], 2 * sos.shape[-2]
    A, B, C, D = np.zeros(batch + (n, n)), np.zeros(batch + (n,)), np.zeros(batch + (n,)), np.ones(batch)
    T = np.broadcast_to(np.eye(n), batch + (n, n)).copy()
    for i in range(n // 2):
        k, s, w, cp = 2 * i, sigma[..., i], omega[..., i], coupled[..., i]
        gain = b[..., i, 1:] - a[..., i, 1:] * b[..., i, :1]  # from this section's input to its direct-form state
        gain[..., 1] = np.where(cp, -(s * gain[..., 0] + gain[..., 1]) / np.where(cp, w, 1.0), gain[..., 1])
        T[..., k + 1, k], T[..., k + 1, k + 1] = np.where(cp, -s, 0.0), np.where(cp, -w, 1.0)
        A[..., k, k], A[..., k, k + 1] = np.where(cp, s, -a[..., i, 1]), np.where(cp, -w, 1.0)
        A[..., k + 1, k], A[..., k + 1, k + 1] = np.where(cp, w, -a[..., i, 2]), np.where(cp, s, 0.0)
        A[..., k : k + 2, :k] = gain[..., :, None] * C[..., None, :k]  # its input is the cascade's output so far
        B[..., k : k + 2] = gain * D[..., None]
        C[..., :k] *= b[..., i, :1]
        C[..., k] = 1.0  # both forms output their first state plus b0 times their input
        D = D * b[..., i, 0]
    return A, B, C, D, T


class _System(NamedTuple):
    """A cascade as one state-space system (A, B, T of _state_space) with its
    block terms: G (N x L; column j = A^(L-1-j) B, sample j's effect on the
    block's end state), O (L x N; row k = C A^k, the start state's effect on
    output k), P = A^L and the zero-state response matrix H (L x L;
    H[j, k] = h[k - j] for the impulse response h, 0 for k < j), for blocks
    of L = _IIR_BLOCK samples. Leading axes stack systems, as in _state_space."""

    A: np.ndarray
    B: np.ndarray
    T: np.ndarray
    G: np.ndarray
    O: np.ndarray
    P: np.ndarray
    H: np.ndarray


def _system(sos: np.ndarray) -> _System:
    """Everything a pass through the cascade needs, built once. The powers of
    A come by doubling, log2(L) products."""
    A, B, C, D, T = _state_space(sos)
    batch, size = A.shape[:-2], _IIR_BLOCK
    K, O = np.empty(batch + (A.shape[-1], size)), np.empty(batch + (size, A.shape[-1]))  # K[..., k] = A^k B
    K[..., 0], O[..., 0, :], P, m = B, C, A, 1
    while m < size:  # from A^k for k < m to k < 2m, with P = A^m
        np.matmul(P, K[..., :m], out=K[..., m : 2 * m])
        np.matmul(O[..., :m, :], P, out=O[..., m : 2 * m, :])
        P, m = P @ P, 2 * m
    h = np.concatenate([D[..., None], np.matmul(C[..., None, :], K[..., :-1])[..., 0, :]], axis=-1)
    lagged = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.zeros(batch + (size - 1,)), h], axis=-1), size, axis=-1
    )
    G, H = np.ascontiguousarray(K[..., ::-1]), np.ascontiguousarray(lagged[..., ::-1, :])
    return _System(A, B, T, G, O, P, H)


def _block_starts(G: np.ndarray, P: np.ndarray, X: np.ndarray, z0) -> np.ndarray:
    """The state at the start of each block (row) of X for one system that
    starts at z0: a log-depth scan (Hillis-Steele) over the blocks'
    zero-state end states."""
    starts = np.empty((len(X), len(P)))
    starts[0] = z0
    if len(X) > 1:
        scan = X[:-1] @ G.T  # block j's end state from rest
        scan[0] += P @ starts[0]
        step, span = P, 1
        while span < len(X) - 1:  # now scan[j] sums blocks j - span + 1 .. j
            scan[span:] += scan[:-span] @ step.T
            step, span = step @ step, 2 * span
        starts[1:] = scan
    return starts


def _run_iir(system: _System, x: np.ndarray, segment: int | None = None, zi: np.ndarray | None = None) -> np.ndarray:
    """x through a stack of S built cascades, sample k through system[k //
    segment] (``segment`` a multiple of _IIR_BLOCK; None: one segment for all
    of x), from the sections' stacked direct-form state ``zi`` (scipy's
    layout, flattened) or from rest. Each section's direct-form state
    carries across a switch.

    Within a segment a block's output is its start state's response plus one
    product with the zero-state response matrix; the start states come from
    a log-depth scan over the blocks.
    """
    x = np.asarray(x, dtype=np.float64)
    _, _, T, G, O, P, H = system
    if segment is None:
        segment = _IIR_BLOCK * max(1, -(-len(x) // _IIR_BLOCK))
    X = np.zeros((len(P), segment // _IIR_BLOCK, _IIR_BLOCK))
    X.ravel()[: len(x)] = x
    starts = np.empty(X.shape[:2] + P.shape[-1:])
    z = np.zeros(P.shape[-1]) if zi is None else np.linalg.solve(T[0], zi)
    if len(P) > 1:
        switch = np.linalg.solve(T[1:], T[:-1])  # a state at a switch, into the next system's coordinates
    for s in range(len(P)):
        starts[s] = _block_starts(G[s], P[s], X[s], z)
        if s + 1 < len(P):
            z = switch[s] @ (P[s] @ starts[s, -1] + G[s] @ X[s, -1])
    return (X @ H + starts @ np.swapaxes(O, -1, -2)).ravel()[: len(x)]


def sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x from rest through the cascade of second-order sections ``sos`` (n x
    6, rows [b0 b1 b2 a0 a1 a2]), as scipy's sosfilt: one segment of
    _run_iir."""
    return _run_iir(_system(np.reshape(sos, (1, -1, 6))), x)


def sosfilt_piecewise(sos: np.ndarray, x: np.ndarray, segment: int) -> np.ndarray:
    """x from rest through a cascade whose coefficients switch every
    ``segment`` samples (a multiple of _IIR_BLOCK): sample k goes through the
    sections sos[k // segment] (sos S x n x 6, S = ceil(len(x) / segment)),
    and each section's direct-form state carries across a switch, as in S
    chained scipy sosfilt calls. The S systems are built in one stack for
    _run_iir.
    """
    sos = np.asarray(sos, dtype=np.float64)
    if segment % _IIR_BLOCK or sos.ndim != 3 or not (len(sos) - 1) * segment < len(x) <= len(sos) * segment:
        raise ConfigError(
            f"need a segment that is a multiple of {_IIR_BLOCK} and one cascade per segment, "
            f"got segment {segment}, sections {sos.shape} for {len(x)} samples"
        )
    return _run_iir(_system(sos), x, segment)


def allpole_rows(x: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Each row of the F x L matrix x through its own all-pole filter
    1 / den[f] (den F x (order + 1), den[:, 0] = 1), from rest: lfilter([1.0],
    den[f], x[f]) for every f, bit for bit.

    Steps direct form II transposed over the samples, vectorized over rows,
    in lfilter's operation order: y = z[0] + x, then z[:-1] = z[1:] - y * den[1:].
    """
    xt = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    feedback = np.ascontiguousarray(np.asarray(den, dtype=np.float64)[:, 1:].T)
    yt = np.empty_like(xt)
    z, z_next = np.zeros((2, len(feedback) + 1, xt.shape[1]))  # row -1 stays zero
    product = np.empty_like(feedback)
    for k in range(len(xt)):
        np.add(z[0], xt[k], out=yt[k])
        np.multiply(yt[k], feedback, out=product)
        np.subtract(z[1:], product, out=z_next[:-1])
        z, z_next = z_next, z
    return np.ascontiguousarray(yt.T)  # row-major, as callers' row reductions expect


def notch_sos(f0: float, q: float, fs: float) -> np.ndarray:
    """One section notching f0 Hz at quality q: scipy's iirnotch, same bytes,
    as an SOS row."""
    w0 = 2.0 * float(f0) / fs
    bw = w0 / float(q) * np.pi
    w0 = w0 * np.pi
    gain = 1.0 / (1.0 + math.tan(bw / 2.0))
    cos_w0 = math.cos(w0)
    return np.array([gain, gain * (-2.0 * cos_w0), gain, 1.0, -2.0 * gain * cos_w0, 2.0 * gain - 1.0])


def butter_sos(order: int, band: float | tuple[float, float], btype: str, fs: float) -> np.ndarray:
    """Digital Butterworth SOS. ``btype`` is
    "lowpass" or "highpass" with ``band`` a cutoff in Hz, or "bandstop" with
    ``band`` a (low, high) pair, which doubles the order, as scipy's butter does.

    In closed form: the analog prototype's poles, the low-pass to low-pass,
    high-pass or band-stop transform at the prewarped edges, then the bilinear
    transform. One section per conjugate pole pair (a band-stop's real pole
    pair shares one; a low- or high-pass's real pole is first order), each
    scaled to unit gain at DC (Nyquist for a high-pass).
    """
    edges = np.atleast_1d(np.asarray(band, dtype=np.float64))
    if order < 1 or len(edges) != (2 if btype == "bandstop" else 1) or not (0.0 < edges.min() and edges.max() < fs / 2):
        raise ConfigError(f"cannot design an order-{order} Butterworth {btype} at {band} Hz for {fs} Hz")
    def section(zeros, s1, s2):  # the analog poles s1, s2 through the bilinear transform
        z1, z2 = (1.0 + s1) / (1.0 - s1), (1.0 + s2) / (1.0 - s2)
        return [*zeros, 1.0, -(z1 + z2).real, (z1 * z2).real]

    proto = -np.exp(1j * np.pi * np.arange(1 - order, 1, 2) / (2 * order))  # upper half plane, real pole last
    warped = np.tan(np.pi * edges / fs)  # the analog edges for s = (z - 1) / (z + 1)
    if btype == "bandstop":
        center2 = warped[0] * warped[1]
        half = (warped[1] - warped[0]) / (2.0 * proto)
        root = np.sqrt(half * half - center2)
        zeros = [1.0, -2.0 * (1.0 - center2) / (1.0 + center2), 1.0]  # at the band's center
        upper = np.concatenate([(half + root)[: order // 2], (half - root)[: order // 2]])
        sos = [section(zeros, p, np.conj(p)) for p in upper]
        if order % 2:  # the real prototype pole's two poles: a conjugate or a real pair
            sos.append(section(zeros, half[-1] + root[-1], half[-1] - root[-1]))
    else:
        analog = warped[0] * proto if btype == "lowpass" else warped[0] / proto
        sign = 1.0 if btype == "lowpass" else -1.0  # zeros at z = -1 or z = 1
        sos = [section([1.0, 2.0 * sign, 1.0], p, np.conj(p)) for p in analog[: order // 2]]
        if order % 2:  # the real pole, first order: s = -1 is z = 0
            sos.append(section([1.0, sign, 0.0], analog[-1], -1.0))
    sos = np.array(sos)
    at = -1.0 if btype == "highpass" else 1.0  # the passband point
    powers = at ** np.arange(3)
    sos[:, :3] *= ((sos[:, 3:] @ powers) / (sos[:, :3] @ powers))[:, None]
    return sos


# ---------------------------------------------------------------------------
# Zero-phase filtering
# ---------------------------------------------------------------------------

def filtfilt(sos: np.ndarray, w: Waveform) -> Waveform:
    """Zero-phase filtering: a forward and a reverse pass through the
    (n, 6) second-order sections, rows [b0 b1 b2 1 a1 a2].

    Edge transients are mitigated by reflective padding of 6 samples per
    section (3 * order) on both ends, and each pass starts in the steady
    state of a step as high as its first sample. The two pass orders
    (forward-then-backward and backward-then-forward) are averaged, which
    makes the result exactly symmetric under time reversal.
    """
    pad = 6 * len(sos)
    if len(w) <= pad:
        raise DataError(f"waveform too short for zero-phase filtering: {len(w)} <= {pad}")
    x = np.pad(w.samples, pad, mode="reflect")
    system = _system(np.reshape(sos, (1, -1, 6)))  # built once for the four passes
    A, B, T = system.A[0], system.B[0], system.T[0]
    step = T @ np.linalg.solve(np.eye(len(A)) - A, B)  # the state a unit step holds the cascade in
    fwd_first, bwd_first = x, x[::-1]
    for _ in range(2):  # each pass's output reversed, so the second runs backward
        fwd_first = _run_iir(system, fwd_first, zi=step * fwd_first[0])[::-1]
        bwd_first = _run_iir(system, bwd_first, zi=step * bwd_first[0])[::-1]
    y = 0.5 * (fwd_first + bwd_first[::-1])
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


@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _polyphase_filter(up: int, down: int) -> tuple[np.ndarray, int]:
    """The filter of _resample_filter(up, down) as resample reads it, delayed
    by n_pre zeros at the rate up to a whole number of output samples: its up
    phases (phase p's taps are every up-th coefficient from p, reversed; a
    read-only up x taps view) and that delay in output samples."""
    h = _resample_filter(up, down)
    center = (len(h) - 1) // 2
    n_pre = (-center) % down
    taps = -(-(n_pre + len(h)) // up)
    h_full = np.zeros(taps * up)
    h_full[n_pre : n_pre + len(h)] = h
    h_full.setflags(write=False)  # shared by every caller
    return h_full.reshape(taps, up).T[:, ::-1], (center + n_pre) // down


def resample(w: Waveform, target_sr: int) -> Waveform:
    """Polyphase rational resampling (windowed-sinc, Kaiser beta=8, 32 taps per phase)."""
    if target_sr <= 0:
        raise ConfigError(f"target_sr must be positive, got {target_sr}")
    if target_sr == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    g = math.gcd(w.sample_rate, target_sr)
    up, down = target_sr // g, w.sample_rate // g
    if up > _MAX_FACTOR or down > _MAX_FACTOR:
        raise ConfigError(
            f"unsupported resampling ratio {w.sample_rate} -> {target_sr} "
            f"({up}/{down}); factors must be <= {_MAX_FACTOR}"
        )
    phases, offset = _polyphase_filter(up, down)
    taps = phases.shape[1]
    n_out = int(round(len(w) * target_sr / w.sample_rate))
    # Polyphase: output i is phase (i * down) % up over the taps inputs up to
    # (i * down) // up, as in upfirdn.
    last_in = (offset + n_out - 1) * down // up
    x = np.concatenate([np.zeros(taps - 1), w.samples, np.zeros(max(0, last_in + 1 - len(w)))])
    windows = np.lib.stride_tricks.sliding_window_view(x, taps)  # windows[j]: the taps inputs up to j
    y = np.empty(n_out)
    for r in range(min(up, n_out)):  # outputs r, r + up, ...: one phase, inputs down apart
        first = (offset + r) * down
        out = y[r::up]
        out[:] = windows[first // up :: down][: len(out)] @ phases[first % up]
    return Waveform(y, target_sr)
