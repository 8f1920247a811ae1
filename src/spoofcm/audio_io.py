"""Waveform container and 16-bit PCM WAV I/O.

Readers normalize int16 samples to [-1, 1) by dividing by 32768; the
writer clips to [-1, 1] and scales by 32767. Mono only. No other module
opens a WAV file. ``read_wav`` turns a missing, unreadable, malformed or
truncated file into a DataError naming the path.
"""
from __future__ import annotations

import io
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import write_file


@dataclass(frozen=True)
class Waveform:
    """Mono PCM signal: float64 samples (nominal range [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ConfigError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise DataError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def read_wav(path: str | Path) -> Waveform:
    """Read a mono 16-bit PCM WAV file; fewer frames than its header declares is a DataError."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise DataError(f"{path}: expected mono, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            sr, n_frames = f.getframerate(), f.getnframes()
            raw = f.readframes(n_frames)
    except OSError as exc:
        raise DataError(f"cannot read audio file {path}: {exc.strerror or exc}") from None
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc or 'unexpected end of file'})") from None
    if len(raw) != 2 * n_frames:
        raise DataError(f"{path}: truncated: {len(raw) // 2} of {n_frames} frames")
    if sr <= 0:
        raise DataError(f"{path}: sample rate must be positive, got {sr}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, sr)


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a mono 16-bit PCM WAV file (clips to [-1, 1])."""
    pcm = np.clip(w.samples, -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())
    write_file(path, buf.getvalue())
