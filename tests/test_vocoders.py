import hashlib

import numpy as np
import pytest

from spoofcm.audio_io import Waveform, write_wav
from spoofcm.dsp import StftConfig, stft
from spoofcm.errors import ConfigError, DataError
from spoofcm.manifest import TrialManifest, TrialRecord
from spoofcm.training import DataBundle
from spoofcm.vocoders import (
    DEFAULT_CHANNEL_NAMES,
    CoarseMelGlChannel,
    GriffinLimMelChannel,
    LpcSourceFilterChannel,
    PhaseRandomChannel,
    build_vocoded_set,
    copy_synthesize,
    griffin_lim,
    log_spectral_distance,
    make_channel,
)

from conftest import harmonic_speechlike
from reference import f0_autocorrelation_oracle

SR = 16000


class TestGriffinLim:
    def test_harmonic_tone_converges(self):
        cfg = StftConfig()
        w = harmonic_speechlike(duration=1.0, f0=200.0, seed=0, noise=0.0)
        mag = np.abs(stft(w, cfg).frames)
        trace = []
        griffin_lim(mag, cfg, SR, iters=32, error_trace=trace)
        assert trace[-1] < 0.1

    def test_zero_magnitude_gives_zero_waveform(self):
        cfg = StftConfig()
        out = griffin_lim(np.zeros((10, cfg.fft_size // 2 + 1)), cfg, SR, iters=4)
        assert np.all(out.samples == 0.0)

    def test_more_iterations_do_not_hurt(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        mag = np.abs(rng.standard_normal((12, cfg.fft_size // 2 + 1)))
        t1, t32 = [], []
        griffin_lim(mag, cfg, SR, iters=1, error_trace=t1)
        griffin_lim(mag, cfg, SR, iters=32, error_trace=t32)
        assert t32[-1] <= t1[-1] + 1e-12

    def test_error_trace_non_increasing(self):
        cfg = StftConfig()
        w = harmonic_speechlike(duration=0.5, f0=150.0, seed=2)
        mag = np.abs(stft(w, cfg).frames)
        trace = []
        griffin_lim(mag, cfg, SR, iters=16, error_trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_bad_iters_rejected(self):
        with pytest.raises(ConfigError):
            griffin_lim(np.zeros((2, 257)), StftConfig(), SR, iters=0)


class TestChannels:
    @pytest.mark.parametrize("name", ["glmel", "coarsegl", "phasernd", "lpcvoc"])
    def test_length_rate_and_determinism(self, name):
        w = harmonic_speechlike(duration=0.9, f0=170.0, seed=3)
        ch = make_channel(name)
        a = copy_synthesize(w, ch)
        b = copy_synthesize(w, ch)
        assert len(a) == len(w) and a.sample_rate == w.sample_rate
        assert np.array_equal(a.samples, b.samples)  # bit-identical

    @pytest.mark.parametrize("name", ["glmel", "coarsegl", "phasernd", "lpcvoc"])
    def test_resynthesis_not_a_copy(self, name):
        w = harmonic_speechlike(duration=0.9, f0=170.0, seed=4)
        out = copy_synthesize(w, make_channel(name))
        assert log_spectral_distance(w, out) > 0.5

    def test_glmel_preserves_f0(self):
        w = harmonic_speechlike(duration=1.0, f0=200.0, seed=5)
        out = copy_synthesize(w, GriffinLimMelChannel())
        f_out = f0_autocorrelation_oracle(out.samples[2000:10000], SR)
        assert abs(f_out - 200.0) <= 5.0

    def test_phasernd_preserves_magnitudes_but_not_waveform(self):
        w = harmonic_speechlike(duration=1.0, f0=190.0, seed=6)
        out = copy_synthesize(w, PhaseRandomChannel())
        cfg = StftConfig()
        m_in = np.abs(stft(w, cfg).frames)
        m_out = np.abs(stft(out, cfg).frames)
        rel = np.linalg.norm(m_out - m_in) / np.linalg.norm(m_in)
        assert rel < 0.05
        corr = np.corrcoef(w.samples, out.samples)[0, 1]
        assert abs(corr) < 0.9

    def test_intermediate_sr_roundtrip_wrapper(self):
        w = harmonic_speechlike(duration=0.8, f0=160.0, seed=7)
        ch = GriffinLimMelChannel(intermediate_sr=24000)
        out = copy_synthesize(w, ch)
        assert out.sample_rate == SR and len(out) == len(w)

    def test_intermediate_sr_equal_to_native_is_identity_wrapper(self):
        w = harmonic_speechlike(duration=0.8, f0=160.0, seed=8)
        plain = copy_synthesize(w, CoarseMelGlChannel())
        wrapped = copy_synthesize(w, CoarseMelGlChannel(intermediate_sr=SR))
        assert np.array_equal(plain.samples, wrapped.samples)

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            copy_synthesize(Waveform(np.ones(1000) * 0.1, SR), LpcSourceFilterChannel())

    def test_silent_input_warns_and_returns_floor(self):
        w = Waveform(np.zeros(SR), SR)
        with pytest.warns(UserWarning):
            out = copy_synthesize(w, PhaseRandomChannel())
        assert len(out) == len(w)
        assert 0 < np.max(np.abs(out.samples)) < 1e-3

    def test_repr_names_every_parameter(self):
        assert repr(GriffinLimMelChannel(n_mels=40)) != repr(GriffinLimMelChannel())
        assert repr(CoarseMelGlChannel(iters=8)) != repr(CoarseMelGlChannel())
        assert repr(PhaseRandomChannel(seed=1)) != repr(PhaseRandomChannel())
        assert repr(LpcSourceFilterChannel(order=12)) != repr(LpcSourceFilterChannel())
        assert repr(make_channel("glmel", 24000)) == repr(GriffinLimMelChannel(intermediate_sr=24000))

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError):
            make_channel("wavenet")


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
        channels = [CoarseMelGlChannel(), PhaseRandomChannel()]
        combined = build_vocoded_set(manifest, channels, tmp_path / "voc")
        spoofs = [r for r in combined if r.label == "spoof"]
        assert len(spoofs) == len(channels) * 3  # |spoof| = S x |bona|
        assert [r.trial_id for r in combined] == sorted(r.trial_id for r in combined)
        pairing = DataBundle(combined, None, master_seed=0).pairing
        assert pairing["trial001"] == ["trial001_coarsegl", "trial001_phasernd"]
        # production-scale arithmetic of the same law
        assert 2580 * 4 == 10320

    def test_single_pairing(self, tmp_path):
        manifest = self._corpus(tmp_path, n=1)
        combined = build_vocoded_set(manifest, [PhaseRandomChannel()], tmp_path / "voc")
        assert DataBundle(combined, None, master_seed=0).pairing == {"trial000": ["trial000_phasernd"]}

    def test_spoof_lengths_match_sources(self, tmp_path):
        from spoofcm.audio_io import read_wav

        manifest = self._corpus(tmp_path, n=2)
        combined = build_vocoded_set(manifest, [make_channel(n) for n in DEFAULT_CHANNEL_NAMES], tmp_path / "voc")
        for rec in combined:
            if rec.label == "spoof":
                src = combined.by_id(rec.source_id)
                assert len(read_wav(combined.resolve(rec))) == len(read_wav(combined.resolve(src)))

    def test_unreadable_trial_skipped(self, tmp_path):
        manifest = self._corpus(tmp_path, n=2)
        (tmp_path / "trial000.wav").write_bytes(b"not audio")
        combined = build_vocoded_set(manifest, [PhaseRandomChannel()], tmp_path / "voc")
        assert [r.trial_id for r in combined if r.label == "spoof"] == ["trial001_phasernd"]

    def test_empty_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            build_vocoded_set(TrialManifest([], root=tmp_path), [PhaseRandomChannel()], tmp_path / "v")


# SHA-256 of copy_synthesize's float64 output bytes on harmonic_speechlike(),
# recorded before the overlap-add and Griffin-Lim update were vectorized
# (numpy 2.4.6, scipy 1.17.1, x86-64). A speedup must leave them alone; a
# change that alters synthesis on purpose re-records them and bumps
# vocoders.SYNTHESIS_VERSION. Another numpy, scipy or CPU may round
# differently and change them without any change to this code.
GOLDEN_SYNTHESIS_SHA256 = {
    ("glmel", None): "c62eedd23d6d9e52cbc402f4954ba20e6e1eeba1a1c17bd2192f2fa8fb4a1ab7",
    ("glmel", 24000): "c1bcc0dac32631dec234132a5a707582e4b62d7f03e84bf6cf246fac37f1374e",
    ("coarsegl", None): "bed696c71b2617fed058536a9bad3a8e6e723e7251fa30e18acf6c742970ceeb",
    ("coarsegl", 24000): "dc4a511e386d7cdda751c27a7fecd81cdcba1848ad918bfa3946065cf99da317",
    ("phasernd", None): "94b6ef0a36555c4168ee19b5954d46b1cac462449429ff65ef18bf5cd74fb330",
    ("phasernd", 24000): "4812d7d9e91c1769cf382a0d532375bd763b1292570f5fec9e1f73919c089f33",
    ("lpcvoc", None): "33c7938d3960c44aa7381d27b84cdfacf58f10fc1091a044ce7e78bf63209a40",
    ("lpcvoc", 24000): "5f1602b8204c3133bc24a94fa3189f26237ea8e5248aac7f31f1ffec1f1b27ad",
}


@pytest.mark.parametrize("name", DEFAULT_CHANNEL_NAMES)
@pytest.mark.parametrize("intermediate_sr", [None, 24000])
def test_synthesis_bytes_match_golden(name, intermediate_sr):
    out = copy_synthesize(harmonic_speechlike(), make_channel(name, intermediate_sr))
    digest = hashlib.sha256(out.samples.tobytes()).hexdigest()
    assert digest == GOLDEN_SYNTHESIS_SHA256[(name, intermediate_sr)]
