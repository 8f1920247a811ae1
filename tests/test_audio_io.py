import numpy as np
import pytest

from spoofcm.audio_io import Waveform, read_wav, write_wav
from spoofcm.errors import ConfigError, DataError


def test_waveform_validation():
    with pytest.raises(ConfigError):
        Waveform(np.zeros((2, 3)), 16000)
    with pytest.raises(ConfigError):
        Waveform(np.zeros(10), 0)
    with pytest.raises(DataError):
        Waveform(np.array([0.0, np.nan]), 16000)


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    w = Waveform(np.clip(rng.standard_normal(1234) * 0.2, -1, 1), 16000)
    write_wav(tmp_path / "a.wav", w)
    back = read_wav(tmp_path / "a.wav")
    assert back.sample_rate == 16000
    assert len(back) == 1234
    # rounding plus the 32767/32768 write/read scale asymmetry
    assert np.max(np.abs(back.samples - w.samples)) <= 1.5 / 32768.0


def test_writer_clips(tmp_path):
    w = Waveform(np.array([2.0, -2.0, 0.0]), 8000)
    write_wav(tmp_path / "c.wav", w)
    back = read_wav(tmp_path / "c.wav")
    assert np.max(np.abs(back.samples)) <= 1.0


def test_write_is_deterministic(tmp_path):
    w = Waveform(np.sin(np.arange(4000) / 30.0) * 0.4, 16000)
    write_wav(tmp_path / "x1.wav", w)
    write_wav(tmp_path / "x2.wav", w)
    assert (tmp_path / "x1.wav").read_bytes() == (tmp_path / "x2.wav").read_bytes()


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(DataError):
        read_wav(tmp_path / "none.wav")


def test_truncated_wav_is_a_data_error_at_every_byte(tmp_path):
    w = Waveform(np.sin(np.arange(200) / 5.0) * 0.4, 16000)
    write_wav(tmp_path / "whole.wav", w)
    data = (tmp_path / "whole.wav").read_bytes()
    for n in range(len(data)):
        (tmp_path / "cut.wav").write_bytes(data[:n])
        with pytest.raises(DataError, match="cut.wav"):
            read_wav(tmp_path / "cut.wav")
    back = read_wav(tmp_path / "whole.wav")
    assert back.sample_rate == 16000
    assert np.array_equal(back.samples, np.round(w.samples * 32767.0) / 32768.0)


def test_directory_named_wav_is_a_data_error(tmp_path):
    (tmp_path / "x.wav").mkdir()
    with pytest.raises(DataError, match="x.wav"):
        read_wav(tmp_path / "x.wav")
