"""Copy-synthesis channels: DSP resynthesis of bona fide waveforms.

Four channel families produce "vocoded" spoof data, each with a distinct
artifact signature:

* ``glmel``     mel-80 analysis, pseudo-inverse, Griffin-Lim phase
* ``coarsegl``  mel-20 analysis (low-fidelity envelope), Griffin-Lim
* ``phasernd``  seeded all-pass phase scrambling plus a fixed gentle
                spectral coloration (magnitudes preserved within a few %)
* ``lpcvoc``    all-pole source-filter resynthesis

A channel is one fixed system: the same seed-derived internals are
applied to every trial, so its artifacts are consistent across a corpus.
Setting ``intermediate_sr`` makes a channel resample its input to that
rate, synthesize there, and resample back, reproducing the artifact mix
of mismatched-rate copy-synthesis.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path
from typing import ClassVar

import numpy as np
from scipy.signal import sosfilt

from .audio_io import Waveform, read_wav, write_wav
from .dsp import (
    ComplexSpectrogram,
    MelFilterbank,
    StftConfig,
    istft,
    mel_apply,
    mel_pseudo_inverse,
    resample,
    stft,
)
from .errors import ConfigError, DataError
from .lpc import lpc_resynthesize
from .manifest import TrialManifest, TrialRecord
from .util import derive_seed

log = logging.getLogger(__name__)

# Part of the vocoded-set cache key: bump it with any change that alters
# the bytes a channel writes for the same parameters.
SYNTHESIS_VERSION = 1
MIN_INPUT_SECONDS = 0.5
_SUPPORTED_RATES = (8000, 48000)
_SILENT_PEAK = 1e-6


def griffin_lim(
    mag: np.ndarray,
    cfg: StftConfig,
    sample_rate: int,
    iters: int = 32,
    init_phase: np.ndarray | None = None,
    error_trace: list | None = None,
) -> Waveform:
    """Phase reconstruction by alternating projections onto the magnitude
    constraint and the set of consistent spectrograms.

    When given, ``error_trace`` collects the spectral convergence error
    (Frobenius, relative) once per iteration.
    """
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.shape[1] != cfg.fft_size // 2 + 1:
        raise ConfigError(f"magnitude must be F x {cfg.fft_size // 2 + 1}, got {mag.shape}")
    mag_norm = np.linalg.norm(mag)
    if init_phase is None:
        spec = mag.astype(np.complex128)
    else:
        spec = mag * np.exp(1j * np.asarray(init_phase, dtype=np.float64))
    wave = istft(ComplexSpectrogram(spec, cfg, sample_rate))
    del spec
    for _ in range(iters):
        reanalyzed = stft(wave, cfg).frames
        modulus = np.abs(reanalyzed)
        if error_trace is not None:
            err = np.linalg.norm(modulus - mag) / max(mag_norm, 1e-12)
            error_trace.append(float(err))
        # New phase in place on float64 views: (X * mag) * (1 / max(|X|, eps)),
        # the products complex mag * X / max(|X|, eps) makes, in its order.
        np.maximum(modulus, 1e-12, out=modulus)
        np.divide(1.0, modulus, out=modulus)
        for part in (reanalyzed.real, reanalyzed.imag):
            part *= mag
            part *= modulus
        wave = istft(ComplexSpectrogram(reanalyzed, cfg, sample_rate))
    return wave


@dataclass(frozen=True)
class VocoderChannel:
    """Base class: resynthesize a waveform at its native rate. The repr names
    every parameter; the vocoded-set cache key is built from it."""

    name: ClassVar[str] = "base"
    intermediate_sr: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.intermediate_sr is not None and self.intermediate_sr <= 0:
            raise ConfigError("intermediate_sr must be positive")

    def _synthesize(self, w: Waveform) -> Waveform:
        raise NotImplementedError


@dataclass(frozen=True)
class _GriffinLimChannelBase(VocoderChannel):
    n_mels: int = 80  # the defaults are glmel's
    iters: int = 32
    fft_size: int = 1024
    hop: int = 512

    def __post_init__(self):
        super().__post_init__()
        if self.n_mels <= 0 or self.iters <= 0:
            raise ConfigError("n_mels and iters must be positive")

    def _synthesize(self, w: Waveform) -> Waveform:
        cfg = StftConfig(fft_size=self.fft_size, hop=self.hop, win_length=self.fft_size)
        pad = cfg.win_length  # synthesize past the end, then trim: no dead tail
        x = np.pad(w.samples, (0, pad), mode="reflect")
        fb = MelFilterbank(self.n_mels, cfg.fft_size, w.sample_rate)
        mel = mel_apply(stft(Waveform(x, w.sample_rate), cfg), fb)  # the spectrogram dies here
        mag = mel_pseudo_inverse(mel, fb)
        out = griffin_lim(mag, cfg, w.sample_rate, iters=self.iters)
        return Waveform(out.samples[: len(w)], w.sample_rate)


@dataclass(frozen=True)
class GriffinLimMelChannel(_GriffinLimChannelBase):
    """Full-resolution mel analysis; artifacts come from the mel bottleneck
    and reconstructed phase."""

    name: ClassVar[str] = "glmel"


@dataclass(frozen=True)
class CoarseMelGlChannel(_GriffinLimChannelBase):
    """Low-fidelity variant: 20 mel bands destroy spectral detail."""

    name: ClassVar[str] = "coarsegl"
    n_mels: int = 20
    fft_size: int = 512
    hop: int = 128


@dataclass(frozen=True)
class PhaseRandomChannel(VocoderChannel):
    """Phase scrambling through a seeded cascade of random all-pass biquads,
    plus a fixed smooth coloration (stronger above ``color_from`` Hz).

    The all-pass cascade has exactly unit magnitude response, so frame
    magnitudes survive within a few percent while the waveform itself
    decorrelates from the input.
    """

    name: ClassVar[str] = "phasernd"
    seed: int = 2001
    n_sections: int = 12
    radius_range: tuple[float, float] = (0.4, 0.75)
    color_db: tuple[float, float] = (0.2, 1.0)
    color_from: float = 3500.0

    def _allpass_sections(self, sr: int) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(self.seed, "phasernd-allpass"))
        rows = []
        for _ in range(self.n_sections):
            f0 = rng.uniform(100.0, 0.95 * sr / 2.0)
            r = rng.uniform(*self.radius_range)
            c = 2.0 * r * np.cos(2.0 * np.pi * f0 / sr)
            rows.append([r * r, -c, 1.0, 1.0, -c, r * r])
        return np.array(rows)

    def _coloration_db(self, freqs_hz: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(self.seed, "phasernd-color"))
        shape = np.zeros_like(freqs_hz)
        fmax = max(freqs_hz[-1], 1.0)
        for k in range(1, 4):
            shape += rng.uniform(-1, 1) * np.sin(2 * np.pi * k * freqs_hz / fmax + rng.uniform(0, 2 * np.pi))
        shape /= max(np.abs(shape).max(), 1e-12)
        lo, hi = self.color_db
        weight = 1.0 / (1.0 + np.exp(-(freqs_hz - self.color_from) / 300.0))
        return (lo + (hi - lo) * weight) * shape

    def _synthesize(self, w: Waveform) -> Waveform:
        y = sosfilt(self._allpass_sections(w.sample_rate), w.samples)
        spec = np.fft.rfft(y)
        freqs = np.arange(len(spec)) * w.sample_rate / len(y)
        gain = 10.0 ** (self._coloration_db(freqs) / 20.0)
        out = np.fft.irfft(spec * gain, n=len(y))
        return Waveform(out, w.sample_rate)


@dataclass(frozen=True)
class LpcSourceFilterChannel(VocoderChannel):
    """All-pole source-filter resynthesis (pulse train / noise excitation)."""

    name: ClassVar[str] = "lpcvoc"
    order: int = 16
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    seed: int = 2002

    def __post_init__(self):
        super().__post_init__()
        if self.order <= 0 or self.frame_ms <= 0 or self.hop_ms <= 0:
            raise ConfigError("order, frame_ms and hop_ms must be positive")

    def _synthesize(self, w: Waveform) -> Waveform:
        return lpc_resynthesize(w, self.order, self.frame_ms, self.hop_ms, seed=self.seed)


def copy_synthesize(w: Waveform, channel: VocoderChannel) -> Waveform:
    """Run one waveform through a vocoder channel.

    Output matches the input sample rate and length exactly. If the
    channel defines an intermediate rate, the input is resampled there
    and the result resampled back.
    """
    if w.duration < MIN_INPUT_SECONDS:
        raise DataError(f"input too short: {w.duration:.3f} s < {MIN_INPUT_SECONDS} s")
    if not (_SUPPORTED_RATES[0] <= w.sample_rate <= _SUPPORTED_RATES[1]):
        raise DataError(f"unsupported sample rate {w.sample_rate} for channel {channel.name}")
    if np.max(np.abs(w.samples)) < _SILENT_PEAK:
        warnings.warn(f"channel {channel.name}: silent input, emitting noise floor", stacklevel=2)
        rng = np.random.default_rng(derive_seed(getattr(channel, "seed", 0), "silent-floor", len(w)))
        return Waveform(1e-5 * rng.standard_normal(len(w)), w.sample_rate)
    if channel.intermediate_sr is not None and channel.intermediate_sr != w.sample_rate:
        inner = resample(w, channel.intermediate_sr)
        out = channel._synthesize(inner)
        out = resample(out, w.sample_rate)
    else:
        out = channel._synthesize(w)
    y = out.samples
    if len(y) >= len(w):
        y = y[: len(w)]
    else:
        y = np.concatenate([y, np.zeros(len(w) - len(y))])
    return Waveform(y, w.sample_rate)


DEFAULT_CHANNEL_NAMES = ("glmel", "coarsegl", "phasernd", "lpcvoc")


def make_channel(name: str, intermediate_sr: int | None = None) -> VocoderChannel:
    """Instantiate a channel by name (the name doubles as the attack tag)."""
    table = {
        "glmel": GriffinLimMelChannel,
        "coarsegl": CoarseMelGlChannel,
        "phasernd": PhaseRandomChannel,
        "lpcvoc": LpcSourceFilterChannel,
    }
    if name not in table:
        raise ConfigError(f"unknown channel {name!r}; available: {sorted(table)}")
    return table[name](intermediate_sr=intermediate_sr)


def log_spectral_distance(a: Waveform, b: Waveform, cfg: StftConfig | None = None) -> float:
    """Mean per-frame RMS distance between log magnitude spectra, in dB."""
    cfg = cfg or StftConfig()
    sa = np.abs(stft(a, cfg).frames)
    sb = np.abs(stft(b, cfg).frames)
    n = min(len(sa), len(sb))
    la = 20.0 * np.log10(sa[:n] + 1e-8)
    lb = 20.0 * np.log10(sb[:n] + 1e-8)
    return float(np.mean(np.sqrt(np.mean((la - lb) ** 2, axis=1))))


def build_vocoded_set(
    manifest: TrialManifest,
    channels: list[VocoderChannel],
    out_dir: str | Path,
) -> TrialManifest:
    """Synthesize one spoof per (bona fide trial, channel) and write WAVs.

    Returns the combined manifest, sorted by trial id: the original bona
    fide records plus the new spoof records, paths relative to
    ``out_dir``. Trials whose audio cannot be read are skipped with a
    logged error.
    """
    if not channels:
        raise ConfigError("need at least one vocoder channel")
    bona = [r for r in manifest if r.label == "bonafide"]
    if not bona:
        raise DataError("manifest contains no bona fide trials")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    import os

    records: list[TrialRecord] = []
    for rec in sorted(bona, key=lambda r: r.trial_id):
        try:
            w = read_wav(manifest.resolve(rec))
        except DataError as exc:
            log.error("skipping %s: %s", rec.trial_id, exc)
            continue
        records.append(
            dc_replace(rec, path=os.path.relpath(manifest.resolve(rec).resolve(), out_dir.resolve()))
        )
        for ch in channels:
            spoof = copy_synthesize(w, ch)
            spoof_id = f"{rec.trial_id}_{ch.name}"
            fname = f"{spoof_id}.wav"
            write_wav(out_dir / fname, spoof)
            records.append(
                TrialRecord(
                    trial_id=spoof_id,
                    path=fname,
                    label="spoof",
                    attack_tag=ch.name,
                    source_id=rec.trial_id,
                    subset=rec.subset,
                )
            )
    if not records:
        raise DataError("no bona fide trial could be synthesized")
    return TrialManifest(sorted(records, key=lambda r: r.trial_id), root=out_dir)
