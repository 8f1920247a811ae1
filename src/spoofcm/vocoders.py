"""Copy-synthesis channels: DSP resynthesis of bona fide waveforms.

Four channels, in three families, produce "vocoded" spoof data, each with a
distinct artifact signature:

* ``glmel``     mel-80 analysis, pseudo-inverse, Griffin-Lim phase
* ``coarsegl``  mel-20 analysis (low-fidelity envelope), Griffin-Lim
* ``phasernd``  seeded all-pass phase scrambling plus a fixed gentle
                spectral coloration (magnitudes preserved within a few %),
                applied by one FFT zero-padded to ``dsp.fast_fft_length``
                of the trial's length: the length itself may have a large
                prime factor, whose FFT takes numpy's slow Bluestein path
* ``lpcvoc``    all-pole source-filter resynthesis

Both Griffin-Lim channels reconstruct phase with ``dsp.griffin_lim``, the
fast Griffin-Lim algorithm (Perraudin, Balazs & Søndergaard, WASPAA 2013;
momentum α = 0.99), in 16 iterations: from the same zero-phase start, 16 of
them end at a lower spectral-convergence error than 32 plain Griffin-Lim
iterations, at half the transforms.

A channel is a name and a rate. Its internals are its row of
``CHANNEL_PARAMS``, applied to every trial, so its artifacts are consistent
across a corpus. A channel's repr names every value of that row, and the
vocoded-set cache key is built from it, so changing one rebuilds cached
sets. Setting ``intermediate_sr`` makes a channel resample its input to that
rate, synthesize there, and resample back, reproducing the artifact mix of
mismatched-rate copy-synthesis; a trial is resampled to a rate once, for all
of its channels. The table holds only values and the
synthesis functions look their kernels up as module globals on each call,
so a wrapper rebound onto a module attribute sees every call.
"""
from __future__ import annotations

import functools
import logging
import os
import warnings
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from .audio_io import Waveform, read_wav, write_wav
from .dsp import (
    StftConfig,
    fast_fft_length,
    griffin_lim,
    mel_apply,
    mel_filterbank,
    mel_pseudo_inverse,
    resample,
    sosfilt,
    stft,
)
from .errors import ConfigError, DataError
from .lpc import lpc_resynthesize
from .manifest import TrialManifest, TrialRecord
from .util import derive_seed, file_size, parallel_map

log = logging.getLogger(__name__)

# Part of the vocoded-set cache key: bump it with any change that alters
# the bytes a channel writes for the same parameters.
SYNTHESIS_VERSION = 4
MIN_INPUT_SECONDS = 0.5
_SUPPORTED_RATES = (8000, 48000)
_SILENT_PEAK = 1e-6

# Each channel's fixed internals, by name. Part of the vocoded-set cache key
# through VocoderChannel's repr, so changing a value rebuilds cached sets.
# A Griffin-Lim channel's fft_size maps the highest rate it serves to the
# size: glmel's 80 mel bands need a 2048-point FFT above 32 kHz to stay invertible.
CHANNEL_PARAMS = {
    "glmel": {"n_mels": 80, "iters": 16, "fft_size": {32000: 1024, 48000: 2048}, "hop": 512},
    "coarsegl": {"n_mels": 20, "iters": 16, "fft_size": {48000: 512}, "hop": 128},
    "phasernd": {"seed": 2001, "n_sections": 12, "radius_range": (0.4, 0.75), "color_db": (0.2, 1.0),
                 "color_from": 3500.0},
    "lpcvoc": {"order": 16, "frame_ms": 25.0, "hop_ms": 10.0, "seed": 2002},
}
DEFAULT_CHANNEL_NAMES = tuple(CHANNEL_PARAMS)  # every channel


@dataclass(frozen=True)
class VocoderChannel:
    """A channel of CHANNEL_PARAMS by name (the name doubles as the attack tag),
    synthesizing at ``intermediate_sr`` when it is set."""

    name: str
    intermediate_sr: int | None = None

    def __post_init__(self):
        if self.name not in CHANNEL_PARAMS:
            raise ConfigError(f"unknown channel {self.name!r}; available: {sorted(CHANNEL_PARAMS)}")
        low, high = _SUPPORTED_RATES  # the input rates copy_synthesize accepts
        if self.intermediate_sr is not None and not low <= self.intermediate_sr <= high:
            raise ConfigError(f"intermediate_sr must be within {low}-{high} Hz, got {self.intermediate_sr!r}")

    def __repr__(self) -> str:
        """Names the rate and every table value; the vocoded-set cache key is built from it."""
        params = "".join(f", {key}={value!r}" for key, value in CHANNEL_PARAMS[self.name].items())
        return f"VocoderChannel(name={self.name!r}, intermediate_sr={self.intermediate_sr!r}{params})"


def _mel_fft_size(fft_size: dict[int, int], sample_rate: int) -> int:
    """The size that a Griffin-Lim row's fft_size gives for this rate."""
    return fft_size[min(top for top in fft_size if sample_rate <= top)]


def _mel_griffin_lim(w: Waveform, n_mels: int, iters: int, fft_size: dict[int, int], hop: int) -> Waveform:
    """Mel analysis, pseudo-inverse, Griffin-Lim phase: artifacts come from the
    mel bottleneck (20 bands destroy spectral detail) and reconstructed phase."""
    size = _mel_fft_size(fft_size, w.sample_rate)
    cfg = StftConfig(fft_size=size, hop=hop, win_length=size)
    pad = cfg.win_length  # synthesize past the end, then trim: no dead tail
    x = np.pad(w.samples, (0, pad), mode="reflect")
    fb = mel_filterbank(n_mels, cfg.fft_size, w.sample_rate)
    mel = mel_apply(stft(Waveform(x, w.sample_rate), cfg), fb)  # the spectrogram dies here
    mag = mel_pseudo_inverse(mel, fb)
    out = griffin_lim(mag, cfg, w.sample_rate, iters=iters)
    return Waveform(out.samples[: len(w)], w.sample_rate)


def _phase_random(w: Waveform, seed: int, n_sections: int, radius_range: tuple[float, float],
                  color_db: tuple[float, float], color_from: float) -> Waveform:
    """Phase scrambling through a seeded cascade of random all-pass biquads,
    plus a fixed smooth coloration (stronger above ``color_from`` Hz).

    The all-pass cascade has exactly unit magnitude response, so frame
    magnitudes survive within a few percent while the waveform itself
    decorrelates from the input. The coloration runs at the FFT length
    ``fast_fft_length(len(w))``: zero-padded there, trimmed back after.
    """
    sr = w.sample_rate
    rng = np.random.default_rng(derive_seed(seed, "phasernd-allpass"))
    sections = []
    for _ in range(n_sections):
        f0 = rng.uniform(100.0, 0.95 * sr / 2.0)
        r = rng.uniform(*radius_range)
        c = 2.0 * r * np.cos(2.0 * np.pi * f0 / sr)
        sections.append([r * r, -c, 1.0, 1.0, -c, r * r])
    y = sosfilt(np.array(sections), w.samples)
    size = fast_fft_length(len(y))
    spec = np.fft.rfft(y, n=size)
    freqs = np.arange(len(spec)) * sr / size
    rng = np.random.default_rng(derive_seed(seed, "phasernd-color"))
    shape = np.zeros_like(freqs)
    fmax = max(freqs[-1], 1.0)
    for k in range(1, 4):
        shape += rng.uniform(-1, 1) * np.sin(2 * np.pi * k * freqs / fmax + rng.uniform(0, 2 * np.pi))
    shape /= max(np.abs(shape).max(), 1e-12)
    lo, hi = color_db
    weight = 1.0 / (1.0 + np.exp(-(freqs - color_from) / 300.0))
    gain = 10.0 ** ((lo + (hi - lo) * weight) * shape / 20.0)
    return Waveform(np.fft.irfft(spec * gain, n=size)[: len(y)], sr)


def _synthesize(w: Waveform, name: str) -> Waveform:
    """Resynthesize at the waveform's own rate through the named channel's family."""
    params = CHANNEL_PARAMS[name]
    if name == "phasernd":
        return _phase_random(w, **params)
    if name == "lpcvoc":
        return lpc_resynthesize(w, **params)
    return _mel_griffin_lim(w, **params)


def copy_synthesize(w: Waveform, channel: VocoderChannel,
                    resampled: dict[int, Waveform] | None = None) -> Waveform:
    """Run one waveform through a vocoder channel.

    Output matches the input sample rate and length exactly. If the
    channel defines an intermediate rate, the input is resampled there
    and the result resampled back. ``resampled`` maps a rate to ``w``
    resampled there; a caller that runs ``w`` through several channels
    passes one dict to every call, which fills it, so ``w`` is resampled
    to each rate once.
    """
    if w.duration < MIN_INPUT_SECONDS:
        raise DataError(f"input too short: {w.duration:.3f} s < {MIN_INPUT_SECONDS} s")
    if not (_SUPPORTED_RATES[0] <= w.sample_rate <= _SUPPORTED_RATES[1]):
        raise DataError(f"unsupported sample rate {w.sample_rate} for channel {channel.name}")
    if np.max(np.abs(w.samples)) < _SILENT_PEAK:
        warnings.warn(f"channel {channel.name}: silent input, emitting noise floor", stacklevel=2)
        seed = CHANNEL_PARAMS[channel.name].get("seed", 0)
        rng = np.random.default_rng(derive_seed(seed, "silent-floor", len(w)))
        return Waveform(1e-5 * rng.standard_normal(len(w)), w.sample_rate)
    rate = channel.intermediate_sr
    if rate is not None and rate != w.sample_rate:
        if resampled is None:
            resampled = {}
        if rate not in resampled:
            resampled[rate] = resample(w, rate)
        out = resample(_synthesize(resampled[rate], channel.name), w.sample_rate)
    else:
        out = _synthesize(w, channel.name)
    y = out.samples
    if len(y) >= len(w):
        y = y[: len(w)]
    else:
        y = np.concatenate([y, np.zeros(len(w) - len(y))])
    return Waveform(y, w.sample_rate)


def check_channels(channels: list[VocoderChannel]) -> None:
    """Reject an empty list and a channel listed twice, whose spoofs would share trial ids."""
    names = [ch.name for ch in channels]
    if not names or len(set(names)) < len(names):
        raise ConfigError(f"need one or more distinct vocoder channels, got {names}")


def _vocode_trial(manifest: TrialManifest, channels: list[VocoderChannel], out_dir: Path,
                  rec: TrialRecord) -> list[TrialRecord]:
    """Write one bona fide trial's spoof WAVs, one per channel, and return its
    record and theirs; none, with a logged error, if its audio cannot be read."""
    src = manifest.resolve(rec)
    try:
        w = read_wav(src)
    except DataError as exc:
        log.error("skipping %s: %s", rec.trial_id, exc)
        return []
    records = [dc_replace(rec, path=os.path.relpath(src.resolve(), out_dir.resolve()))]
    resampled = {}  # w at each intermediate rate, shared by the channels
    for ch in channels:
        spoof_id = f"{rec.trial_id}_{ch.name}"
        write_wav(out_dir / f"{spoof_id}.wav", copy_synthesize(w, ch, resampled))
        records.append(TrialRecord(trial_id=spoof_id, path=f"{spoof_id}.wav", label="spoof",
                                   attack_tag=ch.name, source_id=rec.trial_id, subset=rec.subset))
    return records


def build_vocoded_set(
    manifest: TrialManifest,
    channels: list[VocoderChannel],
    out_dir: str | Path,
) -> TrialManifest:
    """Synthesize one spoof per (bona fide trial, channel) and write WAVs.

    Returns the combined manifest, also written to ``out_dir/manifest.tsv``,
    sorted by trial id: the original bona fide records plus the new spoof
    records, paths relative to ``out_dir``. Trials whose audio cannot be
    read are skipped with a logged error.

    Trials are synthesized by ``util.parallel_map``, weighted by WAV bytes.
    Every spoof depends on its trial and channel alone and records come
    back in trial order, so the WAVs and ``manifest.tsv`` are byte-identical
    for any worker count, and an error is the one of the first failing trial
    in trial-id order, as in a serial loop.
    """
    check_channels(channels)
    bona = sorted((r for r in manifest if r.label == "bonafide"), key=lambda r: r.trial_id)
    if not bona:
        raise DataError("manifest contains no bona fide trials")
    out_dir = Path(out_dir)
    per_trial = parallel_map(functools.partial(_vocode_trial, manifest, channels, out_dir), bona,
                             weights=[file_size(manifest.resolve(r)) for r in bona])
    records = [r for trial in per_trial for r in trial]
    if not records:
        raise DataError("no bona fide trial could be synthesized")
    combined = TrialManifest(sorted(records, key=lambda r: r.trial_id), root=out_dir)
    combined.save(out_dir / "manifest.tsv")
    return combined
