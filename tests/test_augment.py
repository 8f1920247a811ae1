import hashlib

import numpy as np
import pytest

from spoofcm.audio_io import Waveform
from spoofcm.augment import (
    apply_augment,
    apply_codec,
    apply_freqmask,
    apply_rawboost,
    draw_freqmask,
)
from spoofcm.errors import ConfigError

from conftest import harmonic_speechlike

SR = 16000


def rms(x):
    return np.sqrt(np.mean(np.square(x)))


# (kind, seed); the ids name each kind's family
ALL_KINDS = [("rawboost", 1), ("freqmask", 2), ("codec", 3)]
KIND_IDS = ["RawBoostLike", "FreqMask", "CodecSim"]


@pytest.mark.parametrize("kind,seed", ALL_KINDS, ids=KIND_IDS)
def test_length_and_rate_preserved(kind, seed):
    w = harmonic_speechlike(duration=0.7, seed=20)
    out = apply_augment(w, kind, seed)
    assert len(out) == len(w) and out.sample_rate == w.sample_rate


@pytest.mark.parametrize("kind,seed", ALL_KINDS, ids=KIND_IDS)
def test_seed_determinism(kind, seed):
    w = harmonic_speechlike(duration=0.6, seed=21)
    a = apply_augment(w, kind, seed).samples
    b = apply_augment(w, kind, seed).samples
    assert np.array_equal(a, b)


class TestRawBoost:
    def test_zero_input_zero_output(self):
        out = apply_augment(Waveform(np.zeros(8000), SR), "rawboost", 4)
        assert np.all(out.samples == 0.0)

    @pytest.mark.parametrize("target_snr", [12.0, 25.0, 38.0])
    def test_noise_only_mode_hits_drawn_snr(self, target_snr):
        w = harmonic_speechlike(duration=1.0, seed=22)
        n = len(w)
        white = np.random.default_rng(5).standard_normal(n)
        out = apply_rawboost(w, notches=[], impulses=np.zeros(n), snr_db=target_snr, tilt=0.5, white=white)
        # the output is peak-normalized: take the noise against the rescaled input
        gain = np.dot(out.samples, w.samples) / np.dot(w.samples, w.samples)
        noise = out.samples - gain * w.samples
        measured = 20 * np.log10(rms(gain * w.samples) / rms(noise))
        assert abs(measured - target_snr) <= 2.0

    def test_peak_normalized(self):
        w = harmonic_speechlike(duration=0.6, seed=23)
        out = apply_augment(w, "rawboost", 6)
        assert np.isclose(np.max(np.abs(out.samples)), np.max(np.abs(w.samples)))


class TestFreqMask:
    def test_in_band_sine_attenuated(self):
        lo, hi = 1500.0, 2500.0
        t = np.arange(SR) / SR
        x = np.sin(2 * np.pi * ((lo + hi) / 2) * t)
        y = apply_freqmask(Waveform(x, SR), lo, hi).samples
        assert 20 * np.log10(rms(y[200:-200]) / rms(x[200:-200])) <= -40.0

    def test_out_of_band_sine_untouched(self):
        lo, hi = 1500.0, 2500.0
        t = np.arange(SR) / SR
        x = np.sin(2 * np.pi * (lo / 2) * t)  # one octave below the band
        y = apply_freqmask(Waveform(x, SR), lo, hi).samples
        assert abs(20 * np.log10(rms(y[200:-200]) / rms(x[200:-200]))) < 1.0

    def test_band_inside_nyquist(self):
        for seed in range(25):
            for sr in (8000, SR, 48000):
                band = draw_freqmask(np.random.default_rng(seed), sr, sr)
                assert 0.0 < band["lo"] < band["hi"] < sr / 2


class TestCodecSim:
    def test_high_bitrate_is_transparent(self):
        w = harmonic_speechlike(duration=0.8, seed=24)
        out = apply_codec(w, bitrate=320.0)
        snr = 20 * np.log10(rms(w.samples) / rms(out.samples - w.samples))
        assert snr >= 40.0

    def test_snr_monotone_in_bitrate(self):
        w = harmonic_speechlike(duration=0.8, seed=25)
        snrs = []
        for kbps in (16.0, 64.0, 128.0, 320.0):
            out = apply_codec(w, bitrate=kbps)
            snrs.append(20 * np.log10(rms(w.samples) / rms(out.samples - w.samples)))
        assert all(b >= a for a, b in zip(snrs, snrs[1:]))

    def test_zero_input_passthrough(self):
        out = apply_augment(Waveform(np.zeros(8000), SR), "codec", 11)
        assert np.all(out.samples == 0.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="'mp3'"):
        apply_augment(harmonic_speechlike(duration=0.6, seed=26), "mp3", 1)


def _golden_input(name):
    if name == "silent":
        return Waveform(np.zeros(8000), SR)
    return harmonic_speechlike(duration=0.7, sr=int(name), seed=30)


# SHA-256 of apply_augment's output samples for each kind, at three rates and
# on a silent input, re-recorded when the IIR filtering and the Butterworth
# designs moved from scipy to spoofcm.dsp (within about 1e-15 of scipy's
# output; codec at 48 kHz filters nothing and kept its bytes). A refactor of
# the augmentation must keep every byte.
GOLDEN_AUGMENT_SHA256 = {
    ("codec", "16000"): "5bcfdb82220c6507e070ebfe32bddccccac26e7f7b9b99e96da7952f30b57b3d",
    ("codec", "48000"): "49de7a92591fe688cc12a2f8666a3a10a1d962d418e5ea52453cb339b3072e18",
    ("codec", "8000"): "0cd67b773f85f5653d07aa4be9adebc34db1cbd88a4db0f0c2d0b575bd825d8b",
    ("codec", "silent"): "4f7988030a00d082fe445e00a2ac5dab502300ff1b80e8592dd569867b60ef74",
    ("freqmask", "16000"): "ea9419bfc962ab2d068bf22999790679c3a26a648928817e6cce2b0eb422af28",
    ("freqmask", "48000"): "f3e16105c81394b354cefe7a218895406bc42e313a68b6e287a673da9a5a07c7",
    ("freqmask", "8000"): "72d85e55df3508b87a1e5d62ffcfc79eb1bb6626960022374383bbc4fb08a3b3",
    ("freqmask", "silent"): "4f7988030a00d082fe445e00a2ac5dab502300ff1b80e8592dd569867b60ef74",
    ("rawboost", "16000"): "1467f333b18ba6a732dae008770d8cf741caa3ee46086e544d556ac6032ed7e0",
    ("rawboost", "48000"): "1164091c0ad81e49fbfa0ad4eb4b77d2ca8c0d3ccb711c7c09a19269601414a1",
    ("rawboost", "8000"): "c6bcdc6dc2c61f0b17498dd7e0675d1ef12658a13bd50d4665a920f356e94547",
    ("rawboost", "silent"): "4f7988030a00d082fe445e00a2ac5dab502300ff1b80e8592dd569867b60ef74",
}


@pytest.mark.parametrize("kind,name", sorted(GOLDEN_AUGMENT_SHA256))
def test_augment_bytes_match_golden(kind, name):
    out = apply_augment(_golden_input(name), kind, 17)
    assert hashlib.sha256(out.samples.tobytes()).hexdigest() == GOLDEN_AUGMENT_SHA256[(kind, name)]
