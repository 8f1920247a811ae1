import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofcm.audio_io import Waveform, read_wav, write_wav
from spoofcm.dsp import MelFilterbank, StftConfig, fast_fft_length, griffin_lim, mel_apply, mel_pseudo_inverse, stft
import spoofcm
from spoofcm import vocoders
from spoofcm.errors import ConfigError, DataError, NumericalError
from spoofcm.manifest import TrialManifest, TrialRecord
from spoofcm.training import DataBundle
from spoofcm.vocoders import (
    CHANNEL_PARAMS,
    DEFAULT_CHANNEL_NAMES,
    SYNTHESIS_VERSION,
    VocoderChannel,
    _mel_fft_size,
    build_vocoded_set,
    copy_synthesize,
)

from conftest import harmonic_speechlike
from reference import f0_autocorrelation_oracle, griffin_lim_loops, phase_random_exact_length
from test_augment import GOLDEN_AUGMENT_SHA256
from test_training import GOLDEN_TRAIN_SHA256

SR = 16000


def next_prime(n: int) -> int:
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def spectral_convergence(out: Waveform, mag: np.ndarray, cfg: StftConfig) -> float:
    """The relative Frobenius error of the output's re-analysed magnitudes:
    ‖|STFT(out)| − mag‖ / ‖mag‖."""
    return float(np.linalg.norm(np.abs(stft(out, cfg).frames) - mag) / np.linalg.norm(mag))


class TestGriffinLim:
    def test_harmonic_tone_converges(self):
        cfg = StftConfig()
        w = harmonic_speechlike(duration=1.0, f0=200.0, seed=0, noise=0.0)
        mag = np.abs(stft(w, cfg).frames)
        assert spectral_convergence(griffin_lim(mag, cfg, SR, iters=32), mag, cfg) < 0.1

    def test_zero_magnitude_gives_zero_waveform(self):
        cfg = StftConfig()
        out = griffin_lim(np.zeros((10, cfg.fft_size // 2 + 1)), cfg, SR, iters=4)
        assert np.all(out.samples == 0.0)

    def test_more_iterations_do_not_hurt(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        mag = np.abs(rng.standard_normal((12, cfg.fft_size // 2 + 1)))
        e1, e32 = (spectral_convergence(griffin_lim(mag, cfg, SR, iters=n), mag, cfg) for n in (1, 32))
        assert e32 <= e1 + 1e-12

    @pytest.mark.parametrize("name", ["glmel", "coarsegl"])
    def test_channel_iterations_end_below_twice_as_many_plain(self, name):
        """The channel's fast iterations end no higher in error than twice as many
        plain Griffin-Lim iterations, on the magnitudes the channel inverts."""
        params = CHANNEL_PARAMS[name]
        size = _mel_fft_size(params["fft_size"], SR)
        cfg = StftConfig(size, params["hop"], size)
        fb = MelFilterbank(params["n_mels"], size, SR)
        mag = mel_pseudo_inverse(mel_apply(stft(harmonic_speechlike(), cfg), fb), fb)
        fast = griffin_lim(mag, cfg, SR, iters=params["iters"])
        plain = griffin_lim_loops(mag, cfg, SR, 2 * params["iters"], alpha=0.0)
        assert spectral_convergence(fast, mag, cfg) <= spectral_convergence(plain, mag, cfg)

    def test_bad_iters_rejected(self):
        with pytest.raises(ConfigError):
            griffin_lim(np.zeros((2, 257)), StftConfig(), SR, iters=0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        cfg=st.sampled_from([StftConfig(64, 16, 64), StftConfig(64, 16, 48), StftConfig(32, 8, 32),
                             StftConfig(64, 32, 64)]),
        n_frames=st.integers(1, 12),
        iters=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        zero_rows=st.integers(0, 3),
    )
    def test_matches_the_checked_loop(self, cfg, n_frames, iters, seed, zero_rows):
        """Byte for byte what the loop over the public stft and istft gave."""
        mag = np.abs(np.random.default_rng(seed).standard_normal((n_frames, cfg.fft_size // 2 + 1)))
        mag[:zero_rows] = 0.0
        out = griffin_lim(mag, cfg, SR, iters=iters)
        expected = griffin_lim_loops(mag, cfg, SR, iters)
        assert out.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("bad", ["huge", "huge-at-once", "nan", "inf"])
    def test_non_finite_result_is_a_numerical_error(self, bad):
        """Finite magnitudes that overflow inside the loop, or in its first
        synthesis, fail as NaN or inf input does.

        The peak magnitude here is about 12: scaled by 1e305 the first
        synthesis already overflows, scaled by 1e303 the loop stays finite."""
        cfg = StftConfig()
        mag = np.abs(stft(harmonic_speechlike(duration=0.5, seed=3), cfg).frames)
        if bad.startswith("huge"):
            mag *= 1e305 if bad == "huge-at-once" else 1e304
        else:
            mag[3, 7] = float(bad)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            griffin_lim(mag, cfg, SR, iters=4)


class TestChannels:
    @pytest.mark.parametrize("name", ["glmel", "coarsegl", "phasernd", "lpcvoc"])
    def test_length_rate_and_determinism(self, name):
        w = harmonic_speechlike(duration=0.9, f0=170.0, seed=3)
        ch = VocoderChannel(name)
        a = copy_synthesize(w, ch)
        b = copy_synthesize(w, ch)
        assert len(a) == len(w) and a.sample_rate == w.sample_rate
        assert np.array_equal(a.samples, b.samples)  # bit-identical

    @pytest.mark.parametrize("name", ["glmel", "coarsegl", "phasernd", "lpcvoc"])
    def test_resynthesis_not_a_copy(self, name):
        def log_spectrum(x):
            return 20.0 * np.log10(np.abs(stft(x, StftConfig()).frames) + 1e-8)

        w = harmonic_speechlike(duration=0.9, f0=170.0, seed=4)
        out = copy_synthesize(w, VocoderChannel(name))
        # mean per-frame RMS distance between the log magnitude spectra, in dB
        distance = np.mean(np.sqrt(np.mean((log_spectrum(w) - log_spectrum(out)) ** 2, axis=1)))
        assert distance > 0.5

    def test_glmel_preserves_f0(self):
        w = harmonic_speechlike(duration=1.0, f0=200.0, seed=5)
        out = copy_synthesize(w, VocoderChannel("glmel"))
        f_out = f0_autocorrelation_oracle(out.samples[2000:10000], SR)
        assert abs(f_out - 200.0) <= 5.0

    @pytest.mark.parametrize("rate", [44100, 48000])
    def test_glmel_synthesizes_at_high_rates(self, rate):
        """80 mel bands over 1024 bins are rank deficient at these rates; over the row's 2048 they are not."""
        w = harmonic_speechlike(duration=0.6, f0=150.0, sr=rate, seed=9)
        out = copy_synthesize(w, VocoderChannel("glmel"))
        assert out.sample_rate == rate and len(out) == len(w)
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("name", DEFAULT_CHANNEL_NAMES)
    @pytest.mark.parametrize("rate", [8000, 16000, 32000])
    def test_44k_input_through_an_intermediate_rate(self, name, rate):
        """44.1 kHz against 8, 16 and 32 kHz are the ratios 441/80, 441/160 and 1280/441."""
        w = harmonic_speechlike(duration=0.6, f0=150.0, sr=44100, seed=10)
        out = copy_synthesize(w, VocoderChannel(name, rate))
        assert out.sample_rate == 44100 and len(out) == len(w)

    def test_phasernd_preserves_magnitudes_but_not_waveform(self):
        w = harmonic_speechlike(duration=1.0, f0=190.0, seed=6)
        out = copy_synthesize(w, VocoderChannel("phasernd"))
        cfg = StftConfig()
        m_in = np.abs(stft(w, cfg).frames)
        m_out = np.abs(stft(out, cfg).frames)
        rel = np.linalg.norm(m_out - m_in) / np.linalg.norm(m_in)
        assert rel < 0.05
        corr = np.corrcoef(w.samples, out.samples)[0, 1]
        assert abs(corr) < 0.9

    @pytest.mark.parametrize("rate", [8000, 16000, 24000, 48000])
    @pytest.mark.parametrize("kind", ["prime", "large_prime_factor", "5-smooth"])
    def test_phasernd_matches_the_exact_length_oracle(self, rate, kind):
        """Coloring at a fast FFT length, zero-padded, stays within 1e-3 RMS of
        coloring at the trial's own length; at a 5-smooth length nothing is
        padded, and only the two all-pass filter implementations differ."""
        n = {"prime": next_prime(int(1.2 * rate)), "large_prime_factor": 2 * next_prime(int(0.6 * rate)),
             "5-smooth": rate}[kind]
        assert (fast_fft_length(n) == n) == (kind == "5-smooth")
        w = harmonic_speechlike(duration=1.3, f0=170.0, sr=rate, seed=11)
        w = Waveform(w.samples[:n], rate)
        out = copy_synthesize(w, VocoderChannel("phasernd"))
        expected = phase_random_exact_length(w.samples, rate, **CHANNEL_PARAMS["phasernd"])
        assert len(out) == n and out.sample_rate == rate
        rel = np.sqrt(np.mean((out.samples - expected) ** 2) / np.mean(expected**2))
        assert rel <= (1e-12 if kind == "5-smooth" else 1e-3)

    def test_intermediate_sr_roundtrip_wrapper(self):
        w = harmonic_speechlike(duration=0.8, f0=160.0, seed=7)
        ch = VocoderChannel("glmel", 24000)
        out = copy_synthesize(w, ch)
        assert out.sample_rate == SR and len(out) == len(w)

    def test_intermediate_sr_equal_to_native_is_identity_wrapper(self):
        w = harmonic_speechlike(duration=0.8, f0=160.0, seed=8)
        plain = copy_synthesize(w, VocoderChannel("coarsegl"))
        wrapped = copy_synthesize(w, VocoderChannel("coarsegl", SR))
        assert np.array_equal(plain.samples, wrapped.samples)

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            copy_synthesize(Waveform(np.ones(1000) * 0.1, SR), VocoderChannel("lpcvoc"))

    # SHA-256 of the floor's bytes for 1 s of zeros at 16 kHz; the two Griffin-Lim
    # channels share seed 0
    SILENT_FLOOR_SHA256 = {
        "glmel": "fa94bbdf9b56cca7c18c1680cb25a68fcd76e3bb8f05b37ef6b39e8503e6809c",
        "coarsegl": "fa94bbdf9b56cca7c18c1680cb25a68fcd76e3bb8f05b37ef6b39e8503e6809c",
        "phasernd": "6c105085d39fd5122bf320ff135f933b7aa70b0001f859da3095c42acec7a7ee",
        "lpcvoc": "51572f9d6ad2368e9d1857b65b228632f075d32a62d9be6cc23940712ff2057f",
    }

    @pytest.mark.parametrize("name", DEFAULT_CHANNEL_NAMES)
    def test_silent_input_warns_and_returns_floor(self, name):
        w = Waveform(np.zeros(SR), SR)
        with pytest.warns(UserWarning):
            out = copy_synthesize(w, VocoderChannel(name))
        assert len(out) == len(w)
        assert 0 < np.max(np.abs(out.samples)) < 1e-3
        assert hashlib.sha256(out.samples.tobytes()).hexdigest() == self.SILENT_FLOOR_SHA256[name]

    def test_repr_names_every_parameter(self):
        """The vocoded-set cache key is built from the repr: the rate and every table value."""
        for name in DEFAULT_CHANNEL_NAMES:
            text = repr(VocoderChannel(name, 24000))
            assert text.startswith(f"VocoderChannel(name={name!r}, intermediate_sr=24000")
            assert all(f"{key}={value!r}" in text for key, value in CHANNEL_PARAMS[name].items())

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError):
            VocoderChannel("wavenet")


class TestBuildVocodedSet:
    def _corpus(self, tmp_path, n=3):
        records = []
        for i in range(n):
            tid = f"trial{i:03d}"
            w = harmonic_speechlike(duration=0.8, f0=150.0 + 20 * i, seed=100 + i)
            write_wav(tmp_path / f"{tid}.wav", w)
            records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, "train"))
        return TrialManifest(records, root=tmp_path)

    def test_counts_and_pairing(self, tmp_path):
        manifest = self._corpus(tmp_path, n=3)
        channels = [VocoderChannel("coarsegl"), VocoderChannel("phasernd")]
        combined = build_vocoded_set(manifest, channels, tmp_path / "voc")
        spoofs = [r for r in combined if r.label == "spoof"]
        assert len(spoofs) == len(channels) * 3  # |spoof| = S x |bona|
        assert [r.trial_id for r in combined] == sorted(r.trial_id for r in combined)
        pairing = DataBundle(combined, None, master_seed=0, k_views=0).pairing
        assert pairing["trial001"] == ["trial001_coarsegl", "trial001_phasernd"]
        # production-scale arithmetic of the same law
        assert 2580 * 4 == 10320

    def test_single_pairing(self, tmp_path):
        manifest = self._corpus(tmp_path, n=1)
        combined = build_vocoded_set(manifest, [VocoderChannel("phasernd")], tmp_path / "voc")
        assert DataBundle(combined, None, master_seed=0, k_views=0).pairing == {"trial000": ["trial000_phasernd"]}

    def test_spoof_lengths_match_sources(self, tmp_path):
        from spoofcm.audio_io import read_wav

        manifest = self._corpus(tmp_path, n=2)
        combined = build_vocoded_set(manifest, [VocoderChannel(n) for n in DEFAULT_CHANNEL_NAMES], tmp_path / "voc")
        for rec in combined:
            if rec.label == "spoof":
                src = combined.by_id(rec.source_id)
                assert len(read_wav(combined.resolve(rec))) == len(read_wav(combined.resolve(src)))

    def test_unreadable_trial_skipped(self, tmp_path):
        manifest = self._corpus(tmp_path, n=2)
        (tmp_path / "trial000.wav").write_bytes(b"not audio")
        combined = build_vocoded_set(manifest, [VocoderChannel("phasernd")], tmp_path / "voc")
        assert [r.trial_id for r in combined if r.label == "spoof"] == ["trial001_phasernd"]

    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        manifest = self._corpus(tmp_path, n=4)
        channels = [VocoderChannel(n, 24000) for n in DEFAULT_CHANNEL_NAMES]
        real_fork, forks, built = os.fork, [], {}
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for n_cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
            out = tmp_path / f"voc{n_cpus}"
            build_vocoded_set(manifest, channels, out)
            built[n_cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert forks == [1]  # none on one CPU, one worker on two
        assert len(built[2]) == 4 * len(channels) + 1 and built[1] == built[2]

    def test_each_trial_is_resampled_once_for_all_channels(self, tmp_path, monkeypatch):
        manifest = self._corpus(tmp_path, n=2)
        channels = [VocoderChannel(n, 24000) for n in DEFAULT_CHANNEL_NAMES]
        real_resample, calls = vocoders.resample, []
        monkeypatch.setattr(vocoders, "resample", lambda w, sr: calls.append(sr) or real_resample(w, sr))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every trial in this process
        build_vocoded_set(manifest, channels, tmp_path / "voc")
        # in once per trial, back once per channel; 2 x 8 calls when each channel resampled its own input
        assert calls == [24000] + [SR] * len(channels) + [24000] + [SR] * len(channels)
        for rec in manifest:
            w = read_wav(manifest.resolve(rec))
            for ch in channels:
                write_wav(tmp_path / "alone.wav", copy_synthesize(w, ch))
                alone = (tmp_path / "alone.wav").read_bytes()
                assert (tmp_path / "voc" / f"{rec.trial_id}_{ch.name}.wav").read_bytes() == alone

    @pytest.mark.parametrize("case", ["too_short", "off_rate", "silent"])
    def test_a_shared_resample_dict_keeps_every_check(self, case):
        """The same DataError or warning, and output, with a dict as without; the dict stays empty."""
        w = {"too_short": Waveform(np.full(1000, 0.1), SR), "off_rate": Waveform(np.full(6000, 0.1), 6000),
             "silent": Waveform(np.zeros(SR), SR)}[case]

        def outcome(ch, *resampled):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = copy_synthesize(w, ch, *resampled).samples.tobytes()
                except DataError as exc:
                    result = f"DataError: {exc}"
            return result, [(c.category, str(c.message), c.filename) for c in caught]

        for name in DEFAULT_CHANNEL_NAMES:
            ch, resampled = VocoderChannel(name, 24000), {}
            alone = outcome(ch)
            assert isinstance(alone[0], str) == (case != "silent")  # a DataError's text, or the output bytes
            assert len(alone[1]) == (case == "silent")
            assert outcome(ch, resampled) == alone
            assert resampled == {}

    def test_empty_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            build_vocoded_set(TrialManifest([], root=tmp_path), [VocoderChannel("phasernd")], tmp_path / "v")


# SHA-256 of copy_synthesize's float64 output bytes on harmonic_speechlike().
# phasernd's and lpcvoc's were recorded at synthesis version 3, when their IIR
# filters moved from scipy to spoofcm.dsp; the input's 16,000 samples (24,000
# at 24 kHz) are an FFT-friendly length, so phasernd's kept its bytes at
# version 4. The Griffin-Lim channels' were re-recorded at
# GOLDEN_SYNTHESIS_VERSION 4, when the phase step came to multiply by one real
# factor (numpy 2.4.6, x86-64). A speedup must leave them alone; a change that alters synthesis on
# purpose re-records them and bumps vocoders.SYNTHESIS_VERSION with
# GOLDEN_SYNTHESIS_VERSION. The bytes do not depend on the BLAS thread count
# (see the one-thread test below); another numpy or CPU may round differently.
GOLDEN_SYNTHESIS_VERSION = 4
GOLDEN_SYNTHESIS_SHA256 = {
    ("glmel", None): "239acac421d6dc89acde30185bfb8d9d888035471c60675e160fc0b163d69624",
    ("glmel", 24000): "42d0dd8141e3bdc16489a02016ad7857df5fb73a0e2ea90aecab97da23c06a6e",
    ("coarsegl", None): "3ec6205d203b32fde352e05d29d592d9e8fd6ac2a2bd5e55f9f14e51d6315976",
    ("coarsegl", 24000): "0b20eeb164a1781d6aabfcc8e80dc04944746458f5349fa08f32795e466286f2",
    ("phasernd", None): "65c68e65d75172ff824c050e617a388a367a70236ca902d09c18aac3c9ad7eb2",
    ("phasernd", 24000): "fd7159dc69bc6f5e66827be606be0d2b2e9d0712a56e38cea60bdd9608e96510",
    ("lpcvoc", None): "87b7ad291ac40f6b345ffc657c9d5c047a67afe50fa959a528ab0caa079f1e0c",
    ("lpcvoc", 24000): "305648d65de85d4d6fbccb47382d9b10057fe9e792069d6408ef12057f786ec8",
}


def test_goldens_are_recorded_at_the_synthesis_version():
    assert GOLDEN_SYNTHESIS_VERSION == SYNTHESIS_VERSION


@pytest.mark.parametrize("name", DEFAULT_CHANNEL_NAMES)
@pytest.mark.parametrize("intermediate_sr", [None, 24000])
def test_synthesis_bytes_match_golden(name, intermediate_sr):
    out = copy_synthesize(harmonic_speechlike(), VocoderChannel(name, intermediate_sr))
    digest = hashlib.sha256(out.samples.tobytes()).hexdigest()
    assert digest == GOLDEN_SYNTHESIS_SHA256[(name, intermediate_sr)]


# The same cases, the augmentation goldens and the training goldens, in a
# process with BLAS pinned to one thread, as the benchmark runs synthesis,
# builds augmented views and trains, against the same digests.
_ONE_THREAD_SCRIPT = """
import hashlib
import tempfile
from pathlib import Path
from conftest import harmonic_speechlike
from spoofcm.augment import apply_augment
from spoofcm.vocoders import DEFAULT_CHANNEL_NAMES, VocoderChannel, copy_synthesize
from test_augment import GOLDEN_AUGMENT_SHA256, _golden_input
from test_training import GOLDEN_TRAIN_SHA256, golden_train_digest, make_tiny_bundle
for name in DEFAULT_CHANNEL_NAMES:
    for sr in (None, 24000):
        out = copy_synthesize(harmonic_speechlike(), VocoderChannel(name, sr))
        print("synthesis", name, sr, hashlib.sha256(out.samples.tobytes()).hexdigest())
for kind, name in sorted(GOLDEN_AUGMENT_SHA256):
    out = apply_augment(_golden_input(name), kind, 17)
    print("augment", kind, name, hashlib.sha256(out.samples.tobytes()).hexdigest())
with tempfile.TemporaryDirectory() as tmp:
    bundle = make_tiny_bundle(Path(tmp))
    for loss_mode, pairing in sorted(GOLDEN_TRAIN_SHA256):
        print("train", loss_mode, pairing, golden_train_digest(bundle, Path(tmp), loss_mode, pairing))
"""


def test_synthesis_bytes_match_golden_on_one_blas_thread():
    paths = [str(Path(spoofcm.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    pin = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **pin, "PYTHONPATH": os.pathsep.join(paths)}
    lines = subprocess.run([sys.executable, "-c", _ONE_THREAD_SCRIPT], env=env, capture_output=True, text=True,
                           check=True).stdout.split("\n")
    digests = {"synthesis": {}, "augment": {}, "train": {}}
    for table, first, second, digest in (ln.split() for ln in lines if ln):
        digests[table][(first, second)] = digest
    assert digests["synthesis"] == {(name, str(sr)): h for (name, sr), h in GOLDEN_SYNTHESIS_SHA256.items()}
    assert digests["augment"] == GOLDEN_AUGMENT_SHA256
    assert digests["train"] == GOLDEN_TRAIN_SHA256
