import pytest

from spoofcm.audio_io import write_wav
from spoofcm.errors import DataError
from spoofcm.manifest import (
    TrialManifest,
    TrialRecord,
    load_manifest,
)
from spoofcm.training import DataBundle

from conftest import harmonic_speechlike


def bona(tid, subset="train"):
    return TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, subset)


def spoof(tid, src, tag="glmel", subset="train"):
    return TrialRecord(tid, f"{tid}.wav", "spoof", tag, src, subset)


def test_record_validation():
    with pytest.raises(DataError):
        TrialRecord("t1", "t1.wav", "genuine", "-", "t1", "train")
    with pytest.raises(DataError):  # spoof must not be its own source
        TrialRecord("t1", "t1.wav", "spoof", "glmel", "t1", "train")
    with pytest.raises(DataError):  # spoof needs an attack tag
        TrialRecord("t1", "t1.wav", "spoof", "-", "t0", "train")
    with pytest.raises(DataError):  # bona fide is its own source
        TrialRecord("t1", "t1.wav", "bonafide", "-", "t2", "train")


def test_unique_ids_enforced():
    with pytest.raises(DataError):
        TrialManifest([bona("a"), bona("a")])


def test_manifest_roundtrip(tmp_path):
    m = TrialManifest([bona("a"), bona("b", "eval"), spoof("a_gl", "a")], root=tmp_path)
    m.save(tmp_path / "m.tsv")
    back = load_manifest(tmp_path / "m.tsv")
    assert [r.trial_id for r in back] == ["a", "b", "a_gl"]
    assert back.subset("eval").records[0].trial_id == "b"
    assert back.with_label("spoof").records[0].attack_tag == "glmel"
    assert back.root == tmp_path


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("id\tfile\n")
    with pytest.raises(DataError):
        load_manifest(p)


def test_pairing_index_bijection(tmp_path):
    records = [bona("a"), bona("b"), spoof("a_x", "a", "x"), spoof("a_y", "a", "y"), spoof("b_x", "b", "x")]
    for r in records:
        write_wav(tmp_path / r.path, harmonic_speechlike(duration=0.05))
    pairing = DataBundle(TrialManifest(records, root=tmp_path), None, master_seed=0).pairing
    assert pairing["a"] == ["a_x", "a_y"]
    assert pairing["b"] == ["b_x"]
    all_spoofs = sorted(sid for ids in pairing.values() for sid in ids)
    assert all_spoofs == ["a_x", "a_y", "b_x"]  # union equals spoof set, no duplicates
    assert "a_x" not in pairing
