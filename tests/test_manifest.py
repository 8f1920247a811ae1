import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofcm.audio_io import write_wav
from spoofcm.errors import DataError, SpoofcmError
from spoofcm.manifest import (
    COLUMNS,
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
    with pytest.raises(DataError, match=r"\['a', 'c'\]"):
        TrialManifest([bona("c"), bona("a"), bona("b"), bona("a"), bona("c")])


def test_by_id_finds_each_record_and_rejects_unknown_ids():
    records = [bona("a"), bona("b", "eval"), spoof("a_gl", "a")]
    m = TrialManifest(records)
    assert [m.by_id(r.trial_id) for r in records] == records
    with pytest.raises(DataError, match="not in manifest: zz"):
        m.by_id("zz")
    with pytest.raises(DataError):
        m.subset("eval").by_id("a")


_FIELD = st.one_of(
    st.sampled_from(["a", "b", "a_gl", "bonafide", "spoof", "-", "train", "eval", "x.wav", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(
    header=st.booleans(),
    lines=st.lists(
        st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",))),
            st.lists(_FIELD, min_size=len(COLUMNS) - 1, max_size=len(COLUMNS) + 1).map("\t".join),
        ),
        max_size=6,
    ),
)
def test_arbitrary_lines_raise_only_typed_errors(tmp_path_factory, header, lines):
    path = tmp_path_factory.mktemp("manifest") / "manifest.tsv"
    path.write_text("\n".join((["\t".join(COLUMNS)] if header else []) + lines), encoding="utf-8")
    try:
        load_manifest(path)
    except SpoofcmError:
        pass


def test_manifest_roundtrip(tmp_path):
    m = TrialManifest([bona("a"), bona("b", "eval"), spoof("a_gl", "a")], root=tmp_path)
    m.save(tmp_path / "m.tsv")
    back = load_manifest(tmp_path / "m.tsv")
    assert [r.trial_id for r in back] == ["a", "b", "a_gl"]
    assert back.subset("eval").records[0].trial_id == "b"
    assert [r.attack_tag for r in back if r.label == "spoof"] == ["glmel"]
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
    pairing = DataBundle(TrialManifest(records, root=tmp_path), None, master_seed=0, k_views=0).pairing
    assert pairing["a"] == ["a_x", "a_y"]
    assert pairing["b"] == ["b_x"]
    all_spoofs = sorted(sid for ids in pairing.values() for sid in ids)
    assert all_spoofs == ["a_x", "a_y", "b_x"]  # union equals spoof set, no duplicates
    assert "a_x" not in pairing
