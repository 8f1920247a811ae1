"""Synthetic desk-scale corpus and non-speech trimming.

The generator produces fully voiced pseudo-speech: a pulse train ridden
by a drifting F0 contour, shaped by three slowly moving resonators, with
an aspiration-noise floor added after the resonators. It exists so the
whole pipeline runs from a cold checkout with no downloads; real corpora
enter through the same manifest format.
"""
from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .audio_io import Waveform, write_wav
from .dsp import frame_signal, sosfilt_piecewise
from .errors import ConfigError, DataError
from .manifest import TrialManifest, TrialRecord
from .util import derive_seed

SAMPLE_RATE = 16000
SPLIT = (0.6, 0.2, 0.2)  # train / dev / eval
_FORMANTS = ((500.0, 80.0), (1500.0, 110.0), (2700.0, 150.0))
_BLOCK = 1600  # resonator coefficients held constant per 100 ms block; a multiple of dsp's IIR block
TRIM_FRAME_MS = 20.0
TRIM_HOP_MS = 10.0
TRIM_GATE_DB = 40.0
_TRIM_ABS_FLOOR = 1e-8  # frame mean power under this counts as silence outright


def synth_pseudo_speech(seed: int, duration: float, sample_rate: int = SAMPLE_RATE) -> Waveform:
    """One fully voiced pseudo-speech trial, peak-safe, fixed RMS."""
    rng = np.random.default_rng(seed)
    n = int(duration * sample_rate)
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(100.0, 220.0) * (
        1.0
        + 0.08 * np.sin(2 * np.pi * rng.uniform(0.3, 1.0) * t + rng.uniform(0, 2 * np.pi))
        + 0.02 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t)
    )
    f0 = np.clip(f0, 80.0, 300.0)
    phase = np.cumsum(f0 / sample_rate)
    excitation = np.zeros(n)
    excitation[np.flatnonzero(np.diff(np.floor(phase)) > 0) + 1] = 1.0
    excitation += 0.01 * rng.standard_normal(n)

    # per 100 ms block, the three resonators in cascade; the last block takes the rest of the trial
    n_blocks = max(1, n // _BLOCK)
    block = np.minimum(np.arange(-(-n // _BLOCK)), n_blocks - 1)  # each segment's block
    sections = np.zeros((len(block), len(_FORMANTS), 6))
    for i, (center, bandwidth) in enumerate(_FORMANTS):
        fc_start = center * rng.uniform(0.9, 1.1)
        fc_end = fc_start * rng.uniform(0.92, 1.08)
        fc = fc_start + (fc_end - fc_start) * block / max(n_blocks - 1, 1)
        r = np.exp(-np.pi * bandwidth / sample_rate)
        sections[:, i, 0], sections[:, i, 3], sections[:, i, 5] = 1.0 - r * r, 1.0, r * r
        sections[:, i, 4] = -2.0 * r * np.cos(2 * np.pi * fc / sample_rate)
    y = sosfilt_piecewise(sections, excitation, _BLOCK)
    y = y / np.sqrt(np.mean(y**2))
    y = y + 0.02 * rng.standard_normal(n)  # aspiration floor, not resonator-shaped
    y = y / np.sqrt(np.mean(y**2)) * 0.08
    y = np.clip(y, -0.99, 0.99)
    fade = int(0.02 * sample_rate)
    y[:fade] *= np.linspace(0.0, 1.0, fade)
    y[-fade:] *= np.linspace(1.0, 0.0, fade)
    return Waveform(y, sample_rate)


def gen_desk_corpus(n_trials: int, seed: int, out_dir: str | Path) -> TrialManifest:
    """Generate bona fide pseudo-speech WAVs with a 60/20/20 subset split.

    Durations are drawn uniformly from 1 to 4 seconds. Regeneration with
    the same seed is bit-identical.
    """
    if n_trials < 20:
        raise ConfigError(f"need at least 20 trials for a meaningful split, got {n_trials}")
    out_dir = Path(out_dir)
    n_train = int(round(SPLIT[0] * n_trials))
    n_dev = int(round(SPLIT[1] * n_trials))
    records = []
    for i in range(n_trials):
        trial_seed = derive_seed(seed, "desk-trial", i)
        duration = float(np.random.default_rng(derive_seed(seed, "desk-duration", i)).uniform(1.0, 4.0))
        w = synth_pseudo_speech(trial_seed, duration)
        tid = f"desk{i:04d}"
        write_wav(out_dir / f"{tid}.wav", w)
        subset = "train" if i < n_train else ("dev" if i < n_train + n_dev else "eval")
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, subset))
    manifest = TrialManifest(records, root=out_dir)
    manifest.save(out_dir / "manifest.tsv")
    return manifest


def trim_nonspeech(w: Waveform) -> Waveform:
    """Drop leading/trailing frames quieter than (max frame energy - TRIM_GATE_DB).

    Interior content is untouched. A kept span shorter than 100 ms is
    widened to a 100 ms stub centered on it, shifted to lie inside the input
    (or the whole input, if shorter), so a click in silence still leaves a
    trial long enough to score. If every frame sits below the absolute
    silence floor, the stub is centered on the input, with a warning.
    """
    if len(w) == 0:
        raise DataError("cannot trim an empty waveform")
    frame = int(TRIM_FRAME_MS * 1e-3 * w.sample_rate)
    hop = int(TRIM_HOP_MS * 1e-3 * w.sample_rate)
    if len(w) < frame:
        return Waveform(w.samples.copy(), w.sample_rate)
    energy = np.mean(frame_signal(w.samples, frame, hop) ** 2, axis=1)
    peak = energy.max()
    threshold = max(peak * 10.0 ** (-TRIM_GATE_DB / 10.0), _TRIM_ABS_FLOOR)
    keep = np.flatnonzero(energy >= threshold)
    if keep.size == 0:
        warnings.warn("all frames below the trim threshold; returning a centered stub", stacklevel=2)
        start = end = len(w) // 2
    else:
        start = keep[0] * hop
        end = min(keep[-1] * hop + frame, len(w))
    stub = int(0.1 * w.sample_rate)
    if end - start < stub:
        start = max(0, min((start + end) // 2 - stub // 2, len(w) - stub))
        end = start + stub
    return Waveform(w.samples[start:end].copy(), w.sample_rate)
