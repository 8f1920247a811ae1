import numpy as np
import pytest

from spoofcm.audio_io import Waveform, read_wav
from spoofcm.corpus import gen_desk_corpus, synth_pseudo_speech, trim_nonspeech
from spoofcm.errors import ConfigError
from spoofcm.lpc import estimate_f0
from spoofcm.model import extract_base_features

SR = 16000


class TestGenDeskCorpus:
    def test_counts_and_split(self, tmp_path):
        manifest = gen_desk_corpus(20, seed=1, out_dir=tmp_path / "c")
        assert len(manifest) == 20
        assert len(manifest.subset("train")) == 12
        assert len(manifest.subset("dev")) == 4
        assert len(manifest.subset("eval")) == 4
        assert len(list((tmp_path / "c").glob("*.wav"))) == 20

    def test_regeneration_bit_identical(self, tmp_path):
        gen_desk_corpus(20, seed=2, out_dir=tmp_path / "a")
        gen_desk_corpus(20, seed=2, out_dir=tmp_path / "b")
        for wav_a in sorted((tmp_path / "a").glob("*.wav")):
            wav_b = tmp_path / "b" / wav_a.name
            assert wav_a.read_bytes() == wav_b.read_bytes()
        assert (tmp_path / "a" / "manifest.tsv").read_text() == (
            tmp_path / "b" / "manifest.tsv"
        ).read_text()

    def test_trials_are_mostly_voiced(self, tmp_path):
        manifest = gen_desk_corpus(20, seed=3, out_dir=tmp_path / "c")
        for rec in manifest.records[:5]:
            w = read_wav(manifest.resolve(rec))
            frames = range(0, len(w) - 400, 400)
            voiced = np.sum(estimate_f0(np.stack([w.samples[s : s + 400] for s in frames]), SR) > 0)
            assert voiced / len(list(frames)) >= 0.5

    def test_durations_in_range(self, tmp_path):
        manifest = gen_desk_corpus(20, seed=4, out_dir=tmp_path / "c")
        for rec in manifest.records:
            d = read_wav(manifest.resolve(rec)).duration
            assert 1.0 <= d <= 4.0

    def test_too_few_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            gen_desk_corpus(10, seed=0, out_dir=tmp_path / "c")

    def test_peak_in_range(self):
        w = synth_pseudo_speech(seed=5, duration=1.5)
        assert np.max(np.abs(w.samples)) <= 0.99


class TestTrimNonspeech:
    def test_silence_tone_silence(self):
        t = np.arange(SR) / SR
        tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        x = np.concatenate([np.zeros(SR // 2), tone, np.zeros(SR // 2)])
        out = trim_nonspeech(Waveform(x, SR))
        assert abs(out.duration - 1.0) <= 0.04

    def test_no_subthreshold_edges_unchanged(self):
        t = np.arange(SR) / SR
        x = 0.5 * np.sin(2 * np.pi * 300.0 * t)
        out = trim_nonspeech(Waveform(x, SR))
        assert np.array_equal(out.samples, x)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([np.zeros(4000), rng.standard_normal(8000) * 0.3, np.zeros(4000)])
        once = trim_nonspeech(Waveform(x, SR))
        twice = trim_nonspeech(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_short_span_widens_to_a_scorable_stub(self):
        x = np.zeros(SR)
        x[10:60] = 0.5  # a click at the very start of 1 s of silence
        out = trim_nonspeech(Waveform(x, SR))
        assert np.array_equal(out.samples, x[: SR // 10])  # the 100 ms stub, shifted inside the input
        assert extract_base_features(out).shape[0] > 0
        assert np.array_equal(trim_nonspeech(out).samples, out.samples)
        x = np.zeros(SR)
        x[8000:8050] = 0.5  # mid-input: the stub is centred on the kept frames
        out = trim_nonspeech(Waveform(x, SR))
        assert len(out) == SR // 10 and np.array_equal(out.samples[out.samples != 0], x[8000:8050])

    def test_all_silent_returns_stub_with_warning(self):
        with pytest.warns(UserWarning):
            out = trim_nonspeech(Waveform(np.zeros(SR), SR))
        assert abs(out.duration - 0.1) < 0.01

    def test_interior_untouched(self):
        t = np.arange(SR) / SR
        tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        x = np.concatenate([np.zeros(3200), tone, np.zeros(3200)])
        out = trim_nonspeech(Waveform(x, SR))
        # the loud interior appears verbatim in the output
        mid = tone[4000:12000]
        idx = np.where(np.isclose(out.samples[: len(out) - len(mid)], mid[0]))[0]
        found = any(
            np.array_equal(out.samples[i : i + len(mid)], mid) for i in range(0, len(out) - len(mid))
        )
        assert found
