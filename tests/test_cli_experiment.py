import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spoofcm
import spoofcm.experiment
import spoofcm.training
import spoofcm.vocoders
from spoofcm.audio_io import Waveform, write_wav
from spoofcm.cli import main
from spoofcm.corpus import gen_desk_corpus
from spoofcm.experiment import _INI_KEYS as LOADER_KEYS
from spoofcm.experiment import (
    FEATURES_FILE,
    ExperimentConfig,
    ensure_data_bundle,
    ensure_vocoded_set,
    load_config,
    run_experiment,
)
from spoofcm.errors import ConfigError, NumericalError, SpoofcmError
from spoofcm.manifest import TrialManifest, TrialRecord, load_manifest
from spoofcm.model import FEATURES_VERSION
from spoofcm.training import TrainConfig, load_checkpoint
from spoofcm.vocoders import CHANNEL_PARAMS, SYNTHESIS_VERSION, VocoderChannel

from conftest import harmonic_speechlike

TINY_CONFIG = """\
[experiment]
name = tiny
seed = 77
seeds = 5

[data]
manifest = corpus/manifest.tsv
generate = 20

[channels]
names = coarsegl, phasernd

[augment]
kind = rawboost
k_views = 1

[train]
lr0 = 1e-3
max_epochs = 2
patience = 10
feature_dim = 16
extractor_hidden = 24
head_hidden = 24

[systems]
ce_aug = ce, random
cecf_paired = ce+cf, paired
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp")
    (base / "exp.ini").write_text(TINY_CONFIG)
    cfg = load_config(base / "exp.ini")
    report = run_experiment(cfg, base / "out", base_dir=base)
    return base, report


class TestRunExperiment:
    def test_report_structure(self, tiny_run):
        base, report = tiny_run
        out = report.out_dir
        for name in ("results.csv", "summary.csv", "meta.json", "sig_p.csv", "sig_reject.csv"):
            assert (out / name).exists(), name
        # 2 systems x 1 seed x (eval, eval_trim, pooled)
        assert len(report.results) == 6
        rows = [line.split(",")[:3] for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert list(report.results) == [(system, int(seed), set_name) for system, seed, set_name in rows]
        assert set(report.seed_means) == {
            (s, t) for s in ("ce_aug", "cecf_paired") for t in ("eval", "eval_trim", "pooled")
        }
        assert report.significance is not None
        assert report.significance.systems == ["ce_aug", "cecf_paired"]

    def test_run_artifacts_per_seed(self, tiny_run):
        base, report = tiny_run
        run_dir = report.out_dir / "runs" / "cecf_paired_seed5"
        for name in ("checkpoint.ckpt", "history.csv", "scores_eval.txt", "scores_eval_trim.txt"):
            assert (run_dir / name).exists(), name

    def test_meta_embeds_hashes(self, tiny_run):
        import json

        base, report = tiny_run
        meta = json.loads((report.out_dir / "meta.json").read_text())
        assert meta["config_hash"]
        assert meta["manifest_hashes"]

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        base, report = tiny_run
        cfg = load_config(base / "exp.ini")
        rerun_dir = tmp_path / "out2"
        run_experiment(cfg, rerun_dir, base_dir=base)
        for rel in (
            "results.csv",
            "summary.csv",
            "sig_p.csv",
            "sig_reject.csv",
            "runs/ce_aug_seed5/checkpoint.ckpt",
            "runs/ce_aug_seed5/history.csv",
            "runs/cecf_paired_seed5/scores_eval.txt",
        ):
            assert (report.out_dir / rel).read_bytes() == (rerun_dir / rel).read_bytes(), rel

    def test_click_in_silence_is_scored_in_eval_trim(self, tmp_path):
        corpus = gen_desk_corpus(20, 3, tmp_path / "corpus")
        click = corpus.subset("eval").records[0]
        x = np.zeros(16000)
        x[10:60] = 0.5  # the trim gate keeps one 20 ms frame, shorter than a feature frame
        write_wav(corpus.resolve(click), Waveform(x, 16000))
        (tmp_path / "exp.ini").write_text(
            TINY_CONFIG.replace("generate = 20", "generate = 0")
            .replace("names = coarsegl, phasernd", "names = phasernd")
            .replace("max_epochs = 2", "max_epochs = 1")
            .replace("cecf_paired = ce+cf, paired\n", "")
        )
        report = run_experiment(load_config(tmp_path / "exp.ini"), tmp_path / "out", base_dir=tmp_path)
        scored = (report.out_dir / "runs" / "ce_aug_seed5" / "scores_eval_trim.txt").read_text()
        ids = [line.split("\t")[0] for line in scored.splitlines()]
        assert click.trial_id in ids
        combined = load_manifest(tmp_path / "out" / "vocoded" / "manifest.tsv")
        assert sorted(ids) == sorted(r.trial_id for r in combined.subset("eval"))

    def test_vocoded_set_reused_on_rerun(self, tiny_run, tmp_path):
        base, _ = tiny_run
        meta = (base / "out" / "vocoded" / "build_meta.json").read_text()
        cfg = load_config(base / "exp.ini")
        run_experiment(cfg, base / "out", base_dir=base)  # second pass reuses
        assert (base / "out" / "vocoded" / "build_meta.json").read_text() == meta


# SHA-256 of every text artifact that a tiny run and the analysis commands
# write. The histories, scores and the tables built from them were re-recorded
# when training moved to float32 and history.csv gained the loss split, and
# again when a batch came to run the pooled head once, which reassociates
# sums; the summary and significance tables, the config and the vocoded set
# kept their bytes. At synthesis version 4 (phasernd colors at a fast FFT
# length, Griffin-Lim's one-factor phase step) the vocoded set's build_meta.json
# and everything trained or scored on its spoofs were re-recorded. build_meta.json
# was re-recorded again when the vocoded set's record came to hold each source
# WAV's size. A change that keeps the synthesis version and the model's
# arithmetic must keep every byte.
GOLDEN_ARTIFACT_SHA256 = {
    "config_resolved.ini": "11e5944d1d27020b406ee9ac56e9e419ec7a84e970af00441468ba981d60b14e",
    "eer.csv": "db669310e1b3bc83e9c43e3839056099b61156bb7270cd6408a28fc11b80df19",
    "group/category_eer.csv": "9c33722e00f5e7b368bd0a02b7bdf1eb898566e90386cfa016cf2a25209e7a36",
    "group/histograms.csv": "ec86e7cc3e5da64f63230de63a9c7724b0b2486750f49555324dc0da5a39a38a",
    "meta.json": "e96324b17d519b41ce9da862f383755010b5c05b2a642ee8dd6668075babb18c",
    "rescored.txt": "2a3de6ed43167861fe37d0a7963d61248f08656334fde26f544a4d66fe8c6ed4",
    "results.csv": "e53196fcbb5e1fc6a008f6f4af2e2281b325a32b1b385c75c753c1d51880e31f",
    "runs/ce_aug_seed5/history.csv": "74e5bd40b249f41ce1715eda049f69d8ea8a721bb515d06b1443f911b4815c89",
    "runs/ce_aug_seed5/scores_eval.txt": "5a2f956cf10528a28a158e776794339c8f65139f11e1682abb8871497b4387ab",
    "runs/ce_aug_seed5/scores_eval_trim.txt": "985c194f78e64442aa7000417e6ea3a2d5bcb97b1b91cad26aa43e9a4ebecca6",
    "runs/cecf_paired_seed5/history.csv": "a7d72dedf60158a4818e1a7a4d00be044b9d352d3828156c3a046130938b8b16",
    "runs/cecf_paired_seed5/scores_eval.txt": "edb20c4e4e42b62a692e7605937da3d6483d7b204b0f18d8f1398bfea1091a77",
    "runs/cecf_paired_seed5/scores_eval_trim.txt": "925906c9902282c7cfab4243eaea4cbf8877ff85a65ab69b83bd7790ee16566b",
    "sig_p.csv": "f12f8f5f21e683a9c2e32474c1a3a0d40c0b7ed314f6b94365b01b10195b2a57",
    "sig_reject.csv": "bd1d7b6738157f20093f694a85b0e070b4481125b2c7162cf78729c77cdb05e4",
    "summary.csv": "7055cb095d53896657d1651b317b43cc48deedea0a2cce0187aeace87ed61209",
    "vocoded/build_meta.json": "6978c895faecbc363effd89b31f7e28b5dec983a77c695557e7c54c3312d6e2e",
    "vocoded/manifest.tsv": "ed4a3110efbfc7965297f2f323f6afee8943a15638459584bdc74fcec1a2137c",
}


def test_text_artifacts_match_golden(tiny_run, tmp_path, capsys):
    base, report = tiny_run
    out = report.out_dir
    runs = out / "runs"
    manifest = str(out / "vocoded" / "manifest.tsv")
    scores = [str(runs / "cecf_paired_seed5" / f"scores_{s}.txt") for s in ("eval", "eval_trim")]
    commands = [
        ["eer", "--scores", *scores, "--manifest", manifest, "--out", str(tmp_path / "eer.csv")],
        ["score", "--trim", "--checkpoint", str(runs / "ce_aug_seed5" / "checkpoint.ckpt"),
         "--manifest", manifest, "--out", str(tmp_path / "rescored.txt")],
        ["group-report", "--scores", scores[0], "--manifest", manifest,
         "--grouping", "phasernd=phase", "--out", str(tmp_path / "group")],
    ]
    for command in commands:
        assert main(command) == 0, command
    capsys.readouterr()
    files = {rel: out / rel for rel in (
        "results.csv", "summary.csv", "sig_p.csv", "sig_reject.csv", "meta.json", "config_resolved.ini",
        "vocoded/manifest.tsv", "vocoded/build_meta.json",
    )}
    for run in ("ce_aug_seed5", "cecf_paired_seed5"):
        for name in ("history.csv", "scores_eval.txt", "scores_eval_trim.txt"):
            files[f"runs/{run}/{name}"] = runs / run / name
    for rel in ("eer.csv", "rescored.txt", "group/category_eer.csv", "group/histograms.csv"):
        files[rel] = tmp_path / rel
    digests = {rel: hashlib.sha256(path.read_bytes()).hexdigest() for rel, path in files.items()}
    assert digests == GOLDEN_ARTIFACT_SHA256

def test_eer_names_each_row_by_the_shortest_path_tail_no_other_file_shares(tiny_run, tmp_path, capsys):
    _, report = tiny_run
    runs = report.out_dir / "runs"
    scores = [str(runs / run / name) for run, name in [
        ("ce_aug_seed5", "scores_eval.txt"), ("cecf_paired_seed5", "scores_eval.txt"),
        ("cecf_paired_seed5", "scores_eval_trim.txt"),
    ]]
    scores += [scores[2], str(tmp_path / "s.txt"), str(tmp_path / "s.csv")]
    for copy in scores[4:]:
        Path(copy).write_bytes(Path(scores[0]).read_bytes())
    capsys.readouterr()
    assert main(["eer", "--scores", *scores, "--manifest", str(report.out_dir / "vocoded" / "manifest.tsv")]) == 0
    rows = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    # a file given twice, and two that differ only in suffix, are named by the path as given
    assert rows == ["ce_aug_seed5/scores_eval", "cecf_paired_seed5/scores_eval", *scores[2:], "pooled"]


@pytest.mark.parametrize("system", ["ce_aug", "cecf_paired"])
def test_score_gives_each_eval_trial_the_score_its_run_wrote(tiny_run, tmp_path, capsys, system):
    """`score` over the whole vocoded manifest, train and dev trials included,
    and over a manifest of one eval trial, writes each eval trial's score
    text as the run's scores_eval.txt has it: a trial's score does not
    depend on what is scored with it."""
    _, report = tiny_run
    run_dir = report.out_dir / "runs" / f"{system}_seed5"
    vocoded = load_manifest(report.out_dir / "vocoded" / "manifest.tsv")
    expected = [tuple(line.split("\t")) for line in (run_dir / "scores_eval.txt").read_text().splitlines()]
    first = vocoded.by_id(expected[0][0])
    TrialManifest([dc_replace(first, path=str(vocoded.resolve(first)))]).save(tmp_path / "one.tsv")
    assert len(vocoded) > len(expected) > 1
    for manifest, n_eval in ((report.out_dir / "vocoded" / "manifest.tsv", len(expected)), (tmp_path / "one.tsv", 1)):
        out = tmp_path / "scored.txt"
        assert main(["score", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                     "--manifest", str(manifest), "--out", str(out)]) == 0
        scored = dict(line.split("\t") for line in out.read_text().splitlines())
        assert [(tid, scored[tid]) for tid, _ in expected[:n_eval]] == expected[:n_eval]
    capsys.readouterr()


class TestVocodedCache:
    BASE = (VocoderChannel("coarsegl"), VocoderChannel("phasernd"))

    @pytest.fixture
    def builds(self, tmp_path, monkeypatch):
        """Source manifest file, and the list of channel sets actually synthesized."""
        records = []
        for i in range(2):
            tid = f"trial{i}"
            write_wav(tmp_path / f"{tid}.wav", harmonic_speechlike(duration=0.6, seed=i))
            records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, "train"))
        manifest_file = tmp_path / "manifest.tsv"
        TrialManifest(records, root=tmp_path).save(manifest_file)
        calls = []
        real = spoofcm.vocoders.build_vocoded_set

        def counting(manifest, channels, out_dir):
            calls.append(list(channels))
            return real(manifest, channels, out_dir)

        monkeypatch.setattr(spoofcm.experiment, "build_vocoded_set", counting)
        return manifest_file, calls

    def _ensure(self, manifest_file, channels):
        out = manifest_file.parent / "vocoded"
        return ensure_vocoded_set(load_manifest(manifest_file), manifest_file, list(channels), out)

    def test_identical_config_hits_cache(self, builds):
        manifest_file, calls = builds
        first = self._ensure(manifest_file, self.BASE)
        second = self._ensure(manifest_file, self.BASE)
        assert len(calls) == 1
        assert [r.trial_id for r in first] == [r.trial_id for r in second]
        meta = json.loads((manifest_file.parent / "vocoded" / "build_meta.json").read_text())
        assert meta["synthesis_version"] == SYNTHESIS_VERSION

    @pytest.mark.parametrize(
        "name, key, value",
        [("coarsegl", "n_mels", 16), ("coarsegl", "iters", 3), ("phasernd", "seed", 7)],
        ids=["n_mels", "iters", "seed"],
    )
    def test_changed_channel_parameter_rebuilds(self, builds, monkeypatch, name, key, value):
        manifest_file, calls = builds
        self._ensure(manifest_file, self.BASE)
        monkeypatch.setitem(CHANNEL_PARAMS[name], key, value)
        self._ensure(manifest_file, self.BASE)
        assert calls == [list(self.BASE), list(self.BASE)]

    @pytest.mark.parametrize("meta", [b'{"source_manifest": "ab', b"\xff\xfe"], ids=["truncated", "not-utf8"])
    def test_unreadable_meta_rebuilds(self, builds, meta):
        manifest_file, calls = builds
        self._ensure(manifest_file, self.BASE)
        meta_path = manifest_file.parent / "vocoded" / "build_meta.json"
        meta_path.write_bytes(meta)
        self._ensure(manifest_file, self.BASE)
        assert len(calls) == 2
        assert json.loads(meta_path.read_text())["synthesis_version"] == SYNTHESIS_VERSION

    @pytest.mark.parametrize("cut", ["truncated", "missing"])
    def test_altered_vocoded_manifest_rebuilds(self, builds, cut):
        manifest_file, calls = builds
        first = self._ensure(manifest_file, self.BASE)
        combined_path = manifest_file.parent / "vocoded" / "manifest.tsv"
        if cut == "missing":
            combined_path.unlink()
        else:
            combined_path.write_text("".join(combined_path.read_text().splitlines(keepends=True)[:3]))
        second = self._ensure(manifest_file, self.BASE)
        assert len(calls) == 2
        assert second.records == first.records == load_manifest(combined_path).records

    def test_corpus_regenerated_at_another_seed_rebuilds(self, builds, tmp_path):
        """gen-corpus at another seed into the same directory rewrites every
        bona fide WAV but keeps manifest.tsv's bytes: the sources' sizes in the
        record make the next call a miss, so no spoof of the old corpus is served."""
        _, calls = builds
        manifest_file = tmp_path / "corpus" / "manifest.tsv"
        channels = [VocoderChannel("phasernd")]
        gen_desk_corpus(20, 4, manifest_file.parent)
        listed = manifest_file.read_bytes()
        spoof = manifest_file.parent / "vocoded" / "desk0000_phasernd.wav"
        self._ensure(manifest_file, channels)
        old = spoof.read_bytes()
        gen_desk_corpus(20, 9, manifest_file.parent)
        assert manifest_file.read_bytes() == listed
        self._ensure(manifest_file, channels)
        assert len(calls) == 2
        assert spoof.read_bytes() != old

    def test_rebuild_killed_midway_is_not_a_cache_hit(self, builds, monkeypatch):
        manifest_file, calls = builds
        vocoded = manifest_file.parent / "vocoded"
        self._ensure(manifest_file, [VocoderChannel("phasernd")])
        first = {p.name: p.read_bytes() for p in vocoded.glob("*.wav")}
        real = spoofcm.vocoders.write_wav
        # Trials may be synthesized in forked workers, so the first write is claimed
        # with an O_EXCL file, which holds its path once the WAV is written
        marker = manifest_file.parent / "first_wav"

        def killed_after_one_wav(path, w):
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                while not marker.read_text():  # the kill comes after the first WAV
                    time.sleep(0.01)
                raise KeyboardInterrupt from None
            real(path, w)
            os.write(fd, str(path).encode())
            os.close(fd)

        monkeypatch.setattr(spoofcm.vocoders, "write_wav", killed_after_one_wav)
        with pytest.raises(KeyboardInterrupt):
            self._ensure(manifest_file, [VocoderChannel("phasernd", 24000)])
        monkeypatch.setattr(spoofcm.vocoders, "write_wav", real)
        written = [Path(marker.read_text())]
        assert first[written[0].name] != written[0].read_bytes()
        self._ensure(manifest_file, [VocoderChannel("phasernd")])
        assert len(calls) == 3
        assert {p.name: p.read_bytes() for p in vocoded.glob("*.wav")} == first


# spoofcm.cli.main in a fresh interpreter that sees two CPUs, so that synthesis
# forks a worker on any machine
_ON_TWO_CPUS = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "from spoofcm.cli import main; sys.exit(main(sys.argv[1:]))")


def _spoofcm_on_two_cpus(args, **popen):
    paths = [str(Path(spoofcm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.Popen([sys.executable, "-c", _ON_TWO_CPUS, *args], env=env, **popen)


def _speech_manifest(root: Path, durations) -> Path:
    """A bona fide manifest of speechlike trials; a duration of None is an unreadable WAV."""
    records = []
    for i, seconds in enumerate(durations):
        tid = f"trial{i:03d}"
        if seconds is None:
            (root / f"{tid}.wav").write_bytes(b"not audio")
        else:
            write_wav(root / f"{tid}.wav", harmonic_speechlike(duration=seconds, seed=i))
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, "train"))
    TrialManifest(records, root=root).save(root / "manifest.tsv")
    return root / "manifest.tsv"


def _stall_report(proc, sent, out, stderr) -> str:
    """What a synth that outlived its wait after SIGINT was doing, taken
    before the test kills it."""
    try:
        os.killpg(proc.pid, 0)
        group_alive = True
    except ProcessLookupError:
        group_alive = False
    tail = "\n".join(stderr.read_text().splitlines()[-20:])
    return (f"synth still running {time.monotonic() - sent:.2f} s after SIGINT: parent alive "
            f"{proc.poll() is None}, process group alive {group_alive}, "
            f"{len(list(out.glob('*.wav')))} WAVs written; parent's stderr ends:\n{tail}")


@pytest.mark.parametrize("stop", ["sigkill-parent", "ctrl-c"])
def test_stopped_synth_leaves_no_process_running(tmp_path, stop):
    """After a SIGKILL of the parent, a worker exits before its next trial, once it
    sees its parent gone, and init reaps it. On Ctrl-C (SIGINT to the process group)
    the workers ignore it, and the parent kills and reaps them before it exits."""
    manifest_file = _speech_manifest(tmp_path, [1.5] * 100)  # a worker's half of the trials takes over 5 s
    out, stderr = tmp_path / "vocoded", tmp_path / "synth.stderr"
    with open(stderr, "w") as err:
        proc = _spoofcm_on_two_cpus(["synth", "--manifest", str(manifest_file), "--intermediate-sr", "24000",
                                     "--out", str(out)], start_new_session=True, stderr=err)
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob("*.wav")) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert proc.poll() is None, "synth ended before it could be stopped"
        if stop == "ctrl-c":
            os.killpg(proc.pid, signal.SIGINT)
            sent = time.monotonic()
            try:
                proc.wait(timeout=5)  # a worker's half takes longer
            except subprocess.TimeoutExpired:
                pytest.fail(_stall_report(proc, sent, out, stderr))
        else:
            os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# gen-corpus, synth through a second rate and a tiny run in a fresh interpreter
# that refuses to import scipy; each prints its exit code and whether scipy was
# loaded after it
_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
from spoofcm.cli import main
base = sys.argv[1]
for args in (["gen-corpus", "--n", "20", "--seed", "3", "--out", base + "/corpus"],
             ["synth", "--manifest", base + "/corpus/manifest.tsv", "--intermediate-sr", "24000",
              "--out", base + "/vocoded"],
             ["run", "--config", base + "/exp.ini", "--out", base + "/out"]):
    code = main(args)
    print("exit:", args[0], code, "scipy" in sys.modules)
"""


def test_commands_run_without_scipy(tmp_path):
    (tmp_path / "exp.ini").write_text(TINY_CONFIG)
    paths = [str(Path(spoofcm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    exits = [line for line in done.stdout.splitlines() if line.startswith("exit:")]
    assert exits == [f"exit: {command} 0 False" for command in ("gen-corpus", "synth", "run")], done.stderr


def test_typed_error_in_a_worker_keeps_its_exit_code(tmp_path, capfd):
    manifest_file = _speech_manifest(tmp_path, [8.0, 0.3])  # copy_synthesize refuses 0.3 s
    sizes = [p.stat().st_size for p in sorted(tmp_path.glob("*.wav"))]
    assert max(sizes) == sizes[0]  # the parent holds trial000, the heaviest, while the forked worker takes trial001
    proc = _spoofcm_on_two_cpus(["synth", "--manifest", str(manifest_file), "--channels", "glmel",
                                 "--out", str(tmp_path / "vocoded")], start_new_session=True)
    assert proc.wait(timeout=120) == 2
    assert capfd.readouterr().err.count("data error: input too short") == 1
    with pytest.raises(ProcessLookupError):  # the parent reaped its worker
        os.killpg(proc.pid, 0)


def test_skip_in_a_worker_is_logged_once_and_left_out(tmp_path, capfd):
    manifest_file = _speech_manifest(tmp_path, [4.0, None, 1.0])
    sizes = [p.stat().st_size for p in sorted(tmp_path.glob("*.wav"))]
    assert max(sizes) == sizes[0]  # the parent holds trial000, the heaviest, while the forked worker takes the rest
    proc = _spoofcm_on_two_cpus(["synth", "--manifest", str(manifest_file), "--channels", "phasernd",
                                 "--out", str(tmp_path / "vocoded")])
    assert proc.wait(timeout=120) == 0
    assert capfd.readouterr().err.count("skipping trial001:") == 1
    combined = load_manifest(tmp_path / "vocoded" / "manifest.tsv")
    assert [r.trial_id for r in combined] == ["trial000", "trial000_phasernd", "trial002", "trial002_phasernd"]


def test_wav_whose_header_gives_a_zero_sample_rate_is_skipped(tmp_path, capfd):
    manifest_file = _speech_manifest(tmp_path, [0.6, 0.6])
    data = bytearray((tmp_path / "trial001.wav").read_bytes())
    data[24:28] = bytes(4)  # the fmt chunk's sample rate
    (tmp_path / "trial001.wav").write_bytes(data)
    proc = _spoofcm_on_two_cpus(["synth", "--manifest", str(manifest_file), "--channels", "phasernd",
                                 "--out", str(tmp_path / "vocoded")])
    assert proc.wait(timeout=120) == 0
    err = capfd.readouterr().err
    assert err.count("skipping") == 1 and "trial001.wav: sample rate must be positive, got 0" in err
    combined = load_manifest(tmp_path / "vocoded" / "manifest.tsv")
    assert [r.trial_id for r in combined] == ["trial000", "trial000_phasernd"]


# Both default systems over two seeds: on two CPUs, each system's second seed
# trains in a forked worker
TWO_SEED_CONFIG = TINY_CONFIG.replace("seeds = 5", "seeds = 5, 6").replace(
    "names = coarsegl, phasernd", "names = phasernd"
)


def test_run_bytes_do_not_depend_on_the_worker_count(tmp_path, cpus, forks, monkeypatch):
    """Every run file and report is byte-equal on one and two CPUs, and each
    augmented view is built once, in this process or a worker."""
    (tmp_path / "exp.ini").write_text(TWO_SEED_CONFIG)
    augmented = tmp_path / "augmented.log"  # a line per apply_augment call, in any process
    real_augment = spoofcm.training.apply_augment

    def apply_augment(*args):
        with open(augmented, "a") as log:
            log.write("view\n")
        return real_augment(*args)

    monkeypatch.setattr(spoofcm.training, "apply_augment", apply_augment)
    written, forked, views, journals = {}, {}, {}, {}
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"out{n}"
        before = len(forks)
        augmented.write_text("")
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(out)]) == 0
        forked[n] = len(forks) - before
        views[n] = len(augmented.read_text().splitlines())
        files = [*out.glob("runs/*/*"), out / "results.csv", out / "summary.csv", *out.glob("sig_*.csv")]
        written[n] = {str(p.relative_to(out)): p.read_bytes() for p in files}
        assert [p.relative_to(out) for p in out.rglob("journal.jsonl")] == [Path("journal.jsonl")]
        journals[n] = [json.loads(line) for line in (out / "journal.jsonl").read_text().splitlines()]
    # on two CPUs: synthesis, the bundle, training once per system, eval_trim
    assert forked == {1: 0, 2: 5}
    n_train = len(load_manifest(tmp_path / "out2" / "vocoded" / "manifest.tsv").subset("train").records)
    assert views == {1: n_train, 2: n_train}  # k_views = 1
    assert len([rel for rel in written[2] if rel.startswith("runs")]) == 2 * 2 * 4
    assert written[1] == written[2]
    # the journal lists the stages run_experiment opens, in order, whatever the CPU count
    scored = [f"score:{system}:{seed}" for system in ("ce_aug", "cecf_paired") for seed in (5, 6)]
    stages = ["corpus", "synth", "train-data", "train:ce_aug", "train:cecf_paired", "eval-data", *scored,
              "aggregate", "significance", "report"]
    assert [entry["stage"] for entry in journals[1]] == [entry["stage"] for entry in journals[2]] == stages
    assert all(entry["wall_s"] >= 0 and entry["cpu_s"] >= 0 for n in (1, 2) for entry in journals[n])


def test_failing_seed_in_a_worker_keeps_its_exit_code_and_stage(tmp_path, cpus, forks, monkeypatch, capsys):
    """The first system's second seed fails in the forked worker: the run exits
    3 with the serial loop's error line, and no child is left."""
    (tmp_path / "exp.ini").write_text(TWO_SEED_CONFIG)
    real_train = spoofcm.experiment.train

    def train(bundle, cfg, seed):
        if seed == 6:
            raise NumericalError("loss is not finite")
        return real_train(bundle, cfg, seed)

    monkeypatch.setattr(spoofcm.experiment, "train", train)
    errors = {}
    for n in (1, 2):  # the second run reads the vocoded set the first built
        cpus(n)
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 3
        errors[n] = capsys.readouterr().err.splitlines()
    assert errors[2] == errors[1] == ["numerical error: [stage train:ce_aug:6] loss is not finite"]
    assert len(forks) == 2  # the two-CPU run's bundle and training of ce_aug
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_warm_rerun_featurizes_only_what_the_features_file_lacks(tmp_path, cpus, monkeypatch):
    """A rerun over an unchanged vocoded set reads every trial's base features
    from its features file and featurizes only the augmented views and the
    trimmed eval trials; a file with bytes past its rows, another
    FEATURES_VERSION or a resized spoof WAV is a miss. Every run's outputs
    equal the cold run's. On one CPU, so the spy sees every call."""
    cpus(1)
    (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("names = coarsegl, phasernd", "names = phasernd"))
    out = tmp_path / "out"
    featurized = []
    real = spoofcm.training.extract_base_features
    monkeypatch.setattr(spoofcm.training, "extract_base_features", lambda w: featurized.append(1) or real(w))

    def run():
        featurized.clear()
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(out)]) == 0
        files = [*out.glob("runs/*/*"), out / "results.csv", out / "summary.csv", *out.glob("sig_*.csv")]
        return len(featurized), {str(p.relative_to(out)): p.read_bytes() for p in files}

    cold_calls, cold = run()
    combined = load_manifest(out / "vocoded" / "manifest.tsv")
    n_augmented, n_trimmed = len(combined.subset("train").records), len(combined.subset("eval").records)
    assert cold_calls == len(combined) + n_augmented + n_trimmed  # k_views = 1
    assert len(cold) == 2 * 4 + 4
    assert run() == (n_augmented + n_trimmed, cold)
    stored = out / "vocoded" / FEATURES_FILE
    stored.write_bytes(stored.read_bytes() + bytes(4))  # one float more than the header's rows
    assert run() == (cold_calls, cold)
    monkeypatch.setattr(spoofcm.experiment, "FEATURES_VERSION", FEATURES_VERSION + 1)
    assert run() == (cold_calls, cold)
    assert run() == (n_augmented + n_trimmed, cold)  # the file now holds the new version
    spoof = combined.resolve(next(r for r in combined if r.label == "spoof"))
    spoof.write_bytes(spoof.read_bytes() + bytes(2))
    assert run() == (cold_calls, cold)


@pytest.fixture(scope="module")
def built_set(tmp_path_factory):
    """A two-trial source set vocoded through two channels: the source manifest
    file, every file of the vocoded directory as built (the features file
    included), and that build's records and base features."""
    base = tmp_path_factory.mktemp("cut")
    records = []
    for i, subset in enumerate(("train", "eval")):
        write_wav(base / f"t{i}.wav", harmonic_speechlike(duration=0.6, seed=i))
        records.append(TrialRecord(f"t{i}", f"t{i}.wav", "bonafide", "-", f"t{i}", subset))
    TrialManifest(records, root=base).save(base / "manifest.tsv")
    channels = [VocoderChannel("coarsegl"), VocoderChannel("phasernd")]
    combined = ensure_vocoded_set(load_manifest(base / "manifest.tsv"), base / "manifest.tsv", channels,
                                  base / "vocoded")
    bundle = ensure_data_bundle(combined, base / "vocoded", None, 0, 0)
    files = {p.name: p.read_bytes() for p in sorted((base / "vocoded").iterdir())}
    return base / "manifest.tsv", channels, files, combined.records, {t: bundle.view(t, 0) for t in bundle.ids()}


@settings(max_examples=24, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_vocoded_set_is_rebuilt_or_refused(built_set, data):
    """A cut file of a built set gives the fresh build's trials and features, or a typed
    error; a cut WAV or features file is a cache miss, so it always gives the fresh
    build. Whatever was cut, the features file is whole again after a build."""
    manifest_file, channels, files, records, features = built_set
    name = data.draw(st.sampled_from(["build_meta.json", "manifest.tsv", "t1_phasernd.wav", FEATURES_FILE]))
    whole = files[name]
    line_ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]  # cuts that keep whole lines
    at = data.draw(st.integers(0, len(whole)) | st.sampled_from(line_ends or [len(whole)]))
    out = manifest_file.parent / "vocoded"
    for other, content in files.items():
        (out / other).write_bytes(content)
    (out / name).write_bytes(whole[:at])
    try:
        combined = ensure_vocoded_set(load_manifest(manifest_file), manifest_file, channels, out)
        bundle = ensure_data_bundle(combined, out, None, 0, 0)
    except SpoofcmError:
        if name.endswith(".wav") or name == FEATURES_FILE:
            raise
        return
    assert combined.records == records
    assert bundle.ids() == list(features)
    assert all(np.array_equal(bundle.view(t, 0), features[t]) for t in features)
    assert (out / FEATURES_FILE).read_bytes() == files[FEATURES_FILE]


def one_trial_manifest(tmp_path) -> str:
    """A manifest of one 0.6 s bona fide trial, written under tmp_path; its path."""
    write_wav(tmp_path / "t0.wav", harmonic_speechlike(duration=0.6, seed=0))
    TrialManifest([TrialRecord("t0", "t0.wav", "bonafide", "-", "t0", "train")], root=tmp_path).save(
        tmp_path / "manifest.tsv"
    )
    return str(tmp_path / "manifest.tsv")


class TestCli:
    def test_gen_corpus_and_synth_and_score_flow(self, tmp_path, capsys):
        assert main(["gen-corpus", "--n", "20", "--seed", "9", "--out", str(tmp_path / "c")]) == 0
        assert main([
            "synth",
            "--manifest", str(tmp_path / "c" / "manifest.tsv"),
            "--channels", "phasernd",
            "--out", str(tmp_path / "voc"),
        ]) == 0
        assert (tmp_path / "voc" / "manifest.tsv").exists()

    def test_synth_refuses_a_channel_listed_twice(self, tmp_path, capsys):
        assert main([
            "synth", "--manifest", one_trial_manifest(tmp_path), "--channels", "phasernd,phasernd",
            "--out", str(tmp_path / "voc"),
        ]) == 1
        assert "'phasernd'" in capsys.readouterr().err
        assert not (tmp_path / "voc").exists()

    def test_synth_runs_glmel_at_an_intermediate_rate_of_48_khz(self, tmp_path):
        assert main([
            "synth", "--manifest", one_trial_manifest(tmp_path), "--channels", "coarsegl,glmel",
            "--intermediate-sr", "48000", "--out", str(tmp_path / "voc"),
        ]) == 0
        assert sorted(p.name for p in (tmp_path / "voc").glob("*.wav")) == ["t0_coarsegl.wav", "t0_glmel.wav"]

    @pytest.mark.parametrize("rate", [200, 96000])
    def test_synth_refuses_an_intermediate_rate_outside_8_to_48_khz(self, tmp_path, capsys, rate):
        assert main([
            "synth", "--manifest", one_trial_manifest(tmp_path), "--channels", "phasernd",
            "--intermediate-sr", str(rate), "--out", str(tmp_path / "voc"),
        ]) == 1
        assert f"got {rate}" in capsys.readouterr().err
        assert not (tmp_path / "voc").exists()

    def test_synth_skips_a_truncated_wav(self, tmp_path):
        manifest = gen_desk_corpus(20, 9, tmp_path / "c")
        cut = manifest.records[1]
        data = manifest.resolve(cut).read_bytes()
        manifest.resolve(cut).write_bytes(data[: len(data) // 2 + 1])
        assert main([
            "synth", "--manifest", str(tmp_path / "c" / "manifest.tsv"), "--channels", "phasernd",
            "--out", str(tmp_path / "voc"),
        ]) == 0
        ids = {r.trial_id for r in load_manifest(tmp_path / "voc" / "manifest.tsv")}
        assert ids == {f"{r.trial_id}{tag}" for r in manifest if r is not cut for tag in ("", "_phasernd")}

    def test_full_cli_run_and_eer(self, tmp_path):
        (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("cecf_paired = ce+cf, paired\n", ""))
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 0
        scores = tmp_path / "out" / "runs" / "ce_aug_seed5" / "scores_eval.txt"
        manifest = tmp_path / "out" / "vocoded" / "manifest.tsv"
        assert main([
            "eer", "--scores", str(scores), "--manifest", str(manifest),
            "--out", str(tmp_path / "eer.csv"),
        ]) == 0
        text = (tmp_path / "eer.csv").read_text()
        assert text.splitlines()[0] == "set,eer,threshold,n_tar,n_non"
        # two score files with one stem pool like any two
        assert main(["eer", "--scores", str(scores), str(scores), "--manifest", str(manifest)]) == 0

        ckpt = tmp_path / "out" / "runs" / "ce_aug_seed5" / "checkpoint.ckpt"
        assert main([
            "score", "--checkpoint", str(ckpt), "--manifest", str(manifest),
            "--out", str(tmp_path / "rescored.txt"),
        ]) == 0
        assert (tmp_path / "rescored.txt").exists()

        assert main([
            "group-report", "--scores", str(scores), "--manifest", str(manifest),
            "--grouping", "phasernd=phase,coarsegl=gl",
            "--out", str(tmp_path / "groups"),
        ]) == 0
        assert (tmp_path / "groups" / "category_eer.csv").exists()

    @pytest.mark.parametrize(
        "bad, code", [("scores", 2), ("manifest", 2), ("config", 1)], ids=["scores", "manifest", "config"]
    )
    def test_non_utf8_input_is_a_typed_error(self, tmp_path, capsys, bad, code):
        files = {"scores": tmp_path / "s.txt", "manifest": tmp_path / "m.tsv", "config": tmp_path / "exp.ini"}
        TrialManifest([TrialRecord("a", "a.wav", "bonafide", "-", "a", "eval")], tmp_path).save(files["manifest"])
        files["scores"].write_text("a\t0.5\n")
        files["config"].write_text(TINY_CONFIG)
        files[bad].write_bytes(files[bad].read_bytes() + b"\xff\xfe\n")
        capsys.readouterr()
        if bad == "config":
            assert main(["run", "--config", str(files["config"]), "--out", str(tmp_path / "o")]) == code
            assert str(files["config"]) in capsys.readouterr().err
        else:
            assert main(["eer", "--scores", str(files["scores"]), "--manifest", str(files["manifest"])]) == code
            assert str(files[bad]) in capsys.readouterr().err

    def test_unparsable_value_names_section_and_key(self, tmp_path, capsys):
        (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("max_epochs = 2", "max_epochs = ten"))
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 1
        assert "train.max_epochs" in capsys.readouterr().err

    def test_exit_codes(self, tmp_path):
        assert main(["eer", "--scores", "missing.txt", "--manifest", "missing.tsv"]) == 2
        assert main(["synth", "--manifest", str(tmp_path / "nope.tsv")]) == 2
        assert main(["run"]) == 1  # missing --config
        with pytest.raises(ConfigError):
            # parser errors surface as ConfigError; main() maps them to exit 1
            from spoofcm.cli import build_parser

            build_parser().parse_args(["unknown-command"])
        assert main(["unknown-command"]) == 1
        assert main(["sigtest", "--results", "r.csv"]) == 1  # significance is a stage of run, not a command
        assert main(["train", "--config", "x.ini"]) == 1  # training is a stage of run, not a command
        (tmp_path / "garbage.ckpt").write_bytes(b"\x00not a checkpoint")
        assert main(["score", "--checkpoint", str(tmp_path / "garbage.ckpt"), "--manifest", "missing.tsv"]) == 2

    def test_parser_dispatch_and_docstring_name_one_set_of_commands(self):
        # a subcommand without a _COMMANDS entry would reach main as a KeyError traceback
        import spoofcm.cli as cli

        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        documented = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
        assert set(sub.choices) == set(cli._COMMANDS) == {n.strip() for n in documented.split(",")}
        # and the docstring's "--seed is taken by ...; --config by ..." lists name the subparsers that define them
        doc = " ".join(cli.__doc__.split())
        for flag, pattern in [("--seed", r"--seed is taken by ([^;]*);"), ("--config", r"--config by ([^.]*)\.")]:
            documented = set(re.split(r",\s*|\s+and\s+", re.search(pattern, doc).group(1)))
            assert documented == {name for name, p in sub.choices.items() if flag in p._option_string_actions}

    def test_augment_none_with_contrastive_system_fails_before_synthesis(self, tmp_path):
        (tmp_path / "exp.ini").write_text(TINY_CONFIG.replace("kind = rawboost", "kind = none"))
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "corpus").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "right, wrong, word",
        [
            ("kind = rawboost", "kind = rawbost", "rawbost"),
            ("= ce+cf, paired", "= ce+cf, paird", "paird"),
            ("= ce, random", "= cee, random", "cee"),
            ("names = coarsegl, phasernd", "names = coarsegl, phasrnd", "phasrnd"),
            ("names = coarsegl, phasernd", "names = coarsegl, phasernd\nintermediate_sr = -5", -5),
            ("names = coarsegl, phasernd", "names = coarsegl, phasernd, coarsegl", "coarsegl"),
            ("names = coarsegl, phasernd", "names = phasernd\nintermediate_sr = 200", 200),
            ("seeds = 5", "seeds = 5, 5", [5, 5]),
            ("max_epochs = 2", "max_epoch = 2", "train.max_epoch"),
            ("[augment]", "[augmnet]", "augmnet.kind"),
            ("[systems]", "[cf]\ntemprature = 0.5\n\n[systems]", "cf.temprature"),
            ("[systems]", "[DEFAULT]\nseed = 3\n\n[systems]", "DEFAULT.seed"),
            ("k_views = 1", "k_views = 0", ["cecf_paired"]),
            ("k_views = 1", "k_views = -1", -1),  # with ce_aug alone: see the test
            ("max_epochs = 2", "max_epochs = 2\nmax_seconds = nan", float("nan")),
            ("max_epochs = 2", "max_epochs = 2\nmax_seconds = inf", float("inf")),
            ("lr0 = 1e-3", "lr0 = inf", float("inf")),
            ("[systems]", "[cf]\ntemperature = nan\n\n[systems]", float("nan")),
        ],
        ids=["augment-kind", "pairing", "loss-mode", "channel-name", "intermediate-sr", "channel-twice",
             "rate-below-8k", "seed-twice", "train-key", "section", "cf-key", "default-section",
             "k0", "k-negative-ce-only", "max-seconds-nan", "max-seconds-inf", "lr0-inf", "temperature-nan"],
    )
    def test_config_typo_fails_before_synthesis(self, tmp_path, capsys, right, wrong, word):
        text = TINY_CONFIG.replace(right, wrong)
        if wrong == "k_views = -1":  # no system asks for views, so only the value itself is refused
            text = text.replace("cecf_paired = ce+cf, paired\n", "")
        (tmp_path / "exp.ini").write_text(text)
        assert main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]) == 1
        assert repr(word) in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["synth", "--manifest", "m.tsv", "--seed", "5"],
            ["score", "--checkpoint", "c.ckpt", "--manifest", "m.tsv", "--seed", "5"],
            ["eer", "--scores", "s.txt", "--manifest", "m.tsv", "--seed", "5"],
            ["group-report", "--scores", "s.txt", "--manifest", "m.tsv", "--seed", "5"],
            ["gen-corpus", "--config", "exp.ini"],
            ["synth", "--manifest", "m.tsv", "--config", "exp.ini"],
            ["score", "--checkpoint", "c.ckpt", "--manifest", "m.tsv", "--config", "exp.ini"],
            ["eer", "--scores", "s.txt", "--manifest", "m.tsv", "--config", "exp.ini"],
            ["group-report", "--scores", "s.txt", "--manifest", "m.tsv", "--config", "exp.ini"],
        ],
        ids=lambda c: f"{c[0]}{c[-2]}",
    )
    def test_flag_the_command_does_not_read_is_refused(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--out", "o"]) == 1
        assert f"unrecognized arguments: {command[-2]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_augment_none_loads_when_no_view_is_asked_for(self, tmp_path):
        ce_only = TINY_CONFIG.replace("kind = rawboost", "kind = none").replace(
            "cecf_paired = ce+cf, paired\n", ""
        )
        (tmp_path / "ce.ini").write_text(ce_only)
        assert load_config(tmp_path / "ce.ini").augment_kind is None
        no_views = ce_only.replace("k_views = 1", "k_views = 0")
        (tmp_path / "k0.ini").write_text(no_views)
        assert load_config(tmp_path / "k0.ini").k_views == 0

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPOOFCM_OUT_ROOT", str(tmp_path / "root"))
        assert main(["gen-corpus", "--n", "20", "--seed", "4", "--out", "corp"]) == 0
        assert (tmp_path / "root" / "corp" / "manifest.tsv").exists()


@pytest.mark.parametrize(
    "command", ["gen-corpus", "synth", "score", "eer", "group-report", "run"]
)
def test_unwritable_out_is_a_data_error(tiny_run, tmp_path, capsys, command):
    base, report = tiny_run
    ce_run = report.out_dir / "runs" / "ce_aug_seed5"
    manifest = str(report.out_dir / "vocoded" / "manifest.tsv")
    scores = str(ce_run / "scores_eval.txt")
    args = {
        "gen-corpus": ["--n", "20"],
        "synth": ["--manifest", str(base / "corpus" / "manifest.tsv"), "--channels", "phasernd"],
        "score": ["--checkpoint", str(ce_run / "checkpoint.ckpt"), "--manifest", manifest],
        "eer": ["--scores", scores, "--manifest", manifest],
        "group-report": ["--scores", scores, "--manifest", manifest],
        "run": ["--config", str(base / "exp.ini")],
    }[command]
    (tmp_path / "afile").touch()
    capsys.readouterr()
    assert main([command, *args, "--out", str(tmp_path / "afile" / "out")]) == 2
    assert f"cannot write {tmp_path / 'afile'}" in capsys.readouterr().err


def test_run_seed_override_is_hashed_and_written(tiny_run, tmp_path):
    base, _ = tiny_run
    ini = tmp_path / "exp.ini"
    ini.write_text(
        TINY_CONFIG.replace("corpus/manifest.tsv", str(base / "corpus" / "manifest.tsv"))
        .replace("names = coarsegl, phasernd", "names = phasernd")
        .replace("max_epochs = 2", "max_epochs = 1")
        .replace("cecf_paired = ce+cf, paired\n", "")
    )
    out = tmp_path / "out"
    assert main(["run", "--seed", "9", "--config", str(ini), "--out", str(out)]) == 0
    resolved = load_config(out / "config_resolved.ini")
    assert dc_replace(resolved, raw_text="") == dc_replace(load_config(ini), master_seed=9, raw_text="")
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_hash"] == resolved.config_hash() != load_config(ini).config_hash()
    assert load_checkpoint(out / "runs" / "ce_aug_seed5" / "checkpoint.ckpt")[1] == meta["config_hash"]


# The loader's keys by section, and two names for the free-form [systems].
_INI_KEYS = {section: tuple(k for s, k in LOADER_KEYS if s == section) for section, _ in LOADER_KEYS}
_INI_KEYS["systems"] = ("ce_aug", "cecf_paired")
_MISSPELT_KEY = "max_epoch"  # a key of no section
_INI_VALUE = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
    st.integers(-2, 50).map(str),
    st.floats().map(repr),
    st.sampled_from(["ce, random", "ce+cf, paired", "both", "none", "1, 2", ""]),
)


def test_sections_without_keys_load_the_dataclass_defaults(tmp_path):
    text = "".join(f"[{name}]\n" for name in _INI_KEYS)
    (tmp_path / "empty.ini").write_text(text)
    cfg = load_config(tmp_path / "empty.ini")
    assert cfg == ExperimentConfig(raw_text=text)
    assert cfg.systems == (
        ("ce_aug", TrainConfig(loss_mode="ce", pairing="random")),
        ("cecf_paired", TrainConfig(loss_mode="ce+cf", pairing="paired")),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_config_raises_only_typed_errors(tmp_path_factory, data):
    text = ""
    for name in sorted(data.draw(st.sets(st.sampled_from(sorted(_INI_KEYS))))):
        keys = st.sampled_from(_INI_KEYS[name] + (_MISSPELT_KEY,))
        fields = data.draw(st.dictionaries(keys, _INI_VALUE, max_size=4))
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
    text += data.draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    path = tmp_path_factory.getbasetemp() / "arbitrary.ini"
    path.write_text(text, encoding="utf-8")
    try:
        load_config(path)
    except SpoofcmError:
        pass
